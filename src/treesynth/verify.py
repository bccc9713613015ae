"""Checkers and exhaustive reference solvers.

How far each check stands apart from the solver pipeline:

- `verify_realization` checks the requirements by max-flow on the graph the
  realization spans: one flow per pair of a maximum spanning forest of the
  requirements, and one more per pair only where the least of those flows on
  its forest path falls short of its requirement. It shares the max-flow
  routine and the Kruskal pass with the solver, none of the split logic.
- `verify_feasible_capacity` scans inner-node parity directly, but its
  coverage check reads the solver's own cached `instance.base_capacity()`,
  so it certifies the parity join's bump, not the base capacity itself.
- `capacity_projection` loads each tree edge from its explicit cut side,
  not from the path walks behind `base_capacity`, and `brute_force_insp`
  screens candidate realizations against every terminal cut.
"""

from itertools import combinations, product

from .errors import TooLarge, UnknownNode
from .maxflow import CapacitatedMultigraph, max_flow
from .model import EdgeCapacity, Realization, max_spanning_joins, node_pair

BRUTE_FORCE_TERMINAL_LIMIT = 5


def verify_realization(instance, realization):
    """All requirement violations of a realization, as (s, t, deficit) triples.

    Max-flow runs on the graph the realization spans over the terminals, first
    on the pairs of a maximum spanning forest of the requirements. Any graph
    has lam(s, t) >= min(lam(s, z), lam(z, t)), so the least of those flows on
    a pair's forest path bounds its connectivity from below; a second Kruskal
    pass over the flows finds that bound at the join that first links s and t.
    A pair within its bound holds. The others get a flow that stops at their
    requirement, exact when it falls short. Violations come in sorted pair
    order; an empty list means feasible.
    """
    for (u, v), _ in realization.items():
        if u not in instance.terminal_set or v not in instance.terminal_set:
            raise UnknownNode(f"{u!r}-{v!r} is not a terminal pair")
    terminals = instance.terminals
    graph = CapacitatedMultigraph(terminals, dict(realization.items()))
    pairs = sorted(instance.requirements.pairs())
    flows = {p: max_flow(graph, p[:1], p[1])[0] for p, _, _, _ in max_spanning_joins(terminals, pairs)}
    partners = {v: [] for v in terminals}
    for (s, t), _ in pairs:
        partners[s].append(t)
        partners[t].append(s)
    # each join relabels its smaller side, so a node moves O(log n) times
    side = {v: v for v in terminals}
    members = {v: [v] for v in terminals}
    bound = {}
    for (u, v), flow, _, _ in max_spanning_joins(terminals, flows.items()):
        small, large = side[u], side[v]
        if len(members[small]) > len(members[large]):
            small, large = large, small
        for x in members[small]:
            for y in partners[x]:
                if side[y] == large:
                    bound[node_pair(x, y)] = flow
        for x in members[small]:
            side[x] = large
        members[large] += members.pop(small)
    violations = []
    for (s, t), r in pairs:
        if r > bound[(s, t)]:
            flow = flows[(s, t)] if (s, t) in flows else max_flow(graph, (s,), t, r)[0]
            if flow < r:
                violations.append((s, t, r - flow))
    return violations


def verify_feasible_capacity(instance, capacity):
    """Violations of the two feasible-capacity conditions.

    Inner nodes need even capacity load ("parity" entries) and every tree
    edge needs capacity at least its cut requirement ("coverage" entries).
    """
    base = instance.base_capacity()
    violations = []
    for v in instance.inner_nodes():
        load = capacity.load(v)
        if load % 2 != 0:
            violations.append(("parity", v, load))
    for e in instance.tree.edges:
        needed = base[e]
        have = capacity[e]
        if have < needed:
            violations.append(("coverage", e, have, needed))
    return violations


def fractional_lower_bound(instance):
    """Length-weighted sum of per-edge cut requirements.

    No realization, fractional or integral, can cost less than this.
    """
    return instance.base_capacity().cost()


def uniform_integer_formula(values):
    """Closed-form optimum for a uniform half-length star: ceil(sum / 2).

    `values` are the per-terminal requirement maxima. Undefined when any value
    is 1 (raises ValueError); a value of 1 forces slack the formula ignores.
    """
    values = list(values)
    total = 0
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"requirement maxima must be nonnegative ints, got {v!r}")
        if v == 1:
            raise ValueError("the closed form needs every requirement maximum to differ from 1")
        total += v
    return (total + 1) // 2


def capacity_projection(instance, realization):
    """Tree-edge loads induced by a terminal-pair capacity map.

    Each pair contributes its value to every edge whose cut separates the
    pair, i.e. to each edge on the tree path between the endpoints.
    """
    values = {}
    for e in instance.tree.edges:
        side = instance.cut_side(e)
        values[e] = sum(
            y for (i, j), y in realization.items() if (i in side) != (j in side)
        )
    return EdgeCapacity(instance.tree, values)


def brute_force_insp(instance):
    """Exhaustive minimum-cost realization with entries in [0, max requirement].

    The bound admits the trivial realization that carries each requirement
    on its own pair, which seeds the search. Candidates are screened against
    every terminal cut (enumerable at this size), and the winner is
    re-checked with verify_realization so the two feasibility routes guard
    each other. Guarded to at most 5 terminals.
    """
    terminals = instance.terminals
    n = len(terminals)
    if n > BRUTE_FORCE_TERMINAL_LIMIT:
        raise TooLarge(f"{n} terminals; exhaustive search is capped at {BRUTE_FORCE_TERMINAL_LIMIT}")
    bound = instance.requirements.max_value()
    if bound == 0:
        return Realization({})

    pairs = [node_pair(a, b) for a, b in combinations(terminals, 2)]
    # pair distances in the tree's integer units, so no loop touches Fractions
    units = instance.tree.units
    weights = [sum(units[e] for e in instance.tree.path(*p)) for p in pairs]

    rest = terminals[1:]
    cuts = []
    for mask in range(2 ** len(rest) - 1):
        side = {terminals[0]}
        side.update(rest[i] for i in range(len(rest)) if mask >> i & 1)
        needed = instance.cut_requirement(side)
        if needed == 0:
            continue
        crossing = [k for k, (a, b) in enumerate(pairs) if (a in side) != (b in side)]
        cuts.append((needed, crossing))

    # seed the search with the trivial per-pair realization for early pruning
    best = tuple(instance.requirements.get(*p) for p in pairs)
    best_cost = sum(w * c for w, c in zip(weights, best))
    for combo in product(range(bound + 1), repeat=len(pairs)):
        cost = 0
        for w, c in zip(weights, combo):
            cost += w * c
        if cost >= best_cost:
            continue
        if all(sum(combo[k] for k in crossing) >= needed for needed, crossing in cuts):
            best = combo
            best_cost = cost
    realization = Realization({p: c for p, c in zip(pairs, best) if c})
    leftover = verify_realization(instance, realization)
    assert not leftover, f"cut screen and flow check disagree: {leftover}"
    return realization

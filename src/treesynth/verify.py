"""Checkers and exhaustive reference solvers.

How far each check stands apart from the solver pipeline:

- `verify_realization` checks the requirements by max-flow on the graph the
  realization spans: one flow per pair of `instance.forest`, each stopping
  at its requirement and ending at the held class of its far end (the
  terminals the forest pairs that held so far join it to), and nothing more
  when none falls short. Otherwise one join of the forest flows, largest
  first, names the candidates: the pairs whose requirement is above the
  least flow on their forest path, their lower bound. A candidate is
  settled with no flow when a cut some short flow left behind separates it
  at that bound; only the rest get a flow of their own. Candidates run in
  stored pair order and only the violations are sorted. Flows, held
  classes and kept cuts are on terminal indices; names come back only in
  the violations. It shares the max-flow routine and the instance's
  requirement forest with the solver, none of the split logic.
- `verify_feasible_capacity` scans inner-node parity directly, but its
  coverage check reads the solver's own cached `instance.base_capacity()`,
  so it certifies the parity join's bump, not the base capacity itself.
- `brute_force_insp` screens candidate realizations against every terminal
  cut.
"""

from itertools import combinations, product

from .errors import SolverInternalError, TooLarge, UnknownNode
from .maxflow import CapacitatedMultigraph, max_flow
from .model import Realization, node_pair

BRUTE_FORCE_TERMINAL_LIMIT = 5


def verify_realization(instance, realization):
    """All requirement violations of a realization, as (s, t, deficit) triples.

    Max-flow runs on the graph the realization spans over the terminals, on
    terminal indices (the positions in `instance.terminals`), first on the
    pairs of `instance.forest`, each stopping at its requirement. Every
    forest pair on the forest path of a pair (s, t) requires at least
    r(s, t), so when none of those flows falls short every requirement holds
    and the audit ends there.

    The forest comes largest r first, and a forest pair whose flow reaches
    its r holds: its ends join one held class, the smaller class merging
    into the larger. Each forest flow (s, t) runs from the end of the
    smaller class into the whole class T of the other end, so its search
    stops at the first member of T it meets, and that is exact. T is joined
    by held pairs, each with an r' >= r, so any cut that splits T crosses
    one of them and has value >= r. Every cut with s on one side and all of
    T on the other is an (s, t) cut, and a least (s, t) cut below r cannot
    split T, so it is one of them. So the flow reaches r exactly when
    lam(s, t) >= r, and one that falls short has the value lam(s, t) and, as
    its residual side, the least (s, t) cut around the end it ran from. A
    held flow is at least r, which is at least the requirement of any pair
    whose forest path crosses it, so the same forest pairs fall short, with
    the same values, as when each flow ran from s to t alone. The classes
    are one label list over the terminal indices, the label of a class
    being the index of one of its members, so `max_flow` takes the list as
    it is and t as the sink that names T; a merge relabels the members of
    the smaller class, kept as an index list per label.

    Otherwise each pair has two bounds. From below, any graph has
    lam(s, t) >= min(lam(s, z), lam(z, t)), so the least forest flow on the
    pair's forest path bounds lam(s, t), and a pair within it holds. Joining
    the forest's flows in descending order meets that bound at the join that
    first links s and t: the join emits the pair's stored index, with the
    join's flow, only when the requirement is above it. A pair at or below
    the least forest flow holds whatever its path and stays out of the
    join. Each join relabels its smaller side and scans only that side's
    pairs, so the pass is O(pairs log n) and keeps nothing for the pairs
    that hold. From above, a flow that falls short is exact and comes with
    its residual side, a cut of that value kept as one byte per terminal,
    and any such cut that separates s and t, cut[s] != cut[t], bounds
    lam(s, t). The candidates run in stored pair order: where a kept cut's
    value equals the lower bound, lam(s, t) is settled with no flow; the
    others get a flow that stops at their requirement, and its cut is kept
    when it falls short. Violations come in sorted pair order; an empty list
    means feasible.
    """
    for (u, v), _ in realization.items():
        if u not in instance.terminal_set or v not in instance.terminal_set:
            raise UnknownNode(f"{u!r}-{v!r} is not a terminal pair")
    terminals = instance.terminals
    graph = CapacitatedMultigraph(terminals, realization)
    index = graph._index
    # terminal index -> the label of its held class: the terminals joined to
    # it by forest pairs whose flow reached r
    held = list(range(len(terminals)))
    # class label -> the indices of its members
    members = [[i] for i in held]
    # cut value -> the residual sides of the short flows that found it
    cuts = {}
    ends = []
    flows = []
    for (s, t), r in instance.forest:
        i, j = index[s], index[t]
        ends.append((i, j))
        if len(members[held[i]]) > len(members[held[j]]):
            i, j = j, i
        flow, cut = max_flow(graph, (i,), j, held, r)
        flows.append(flow)
        if cut is None:
            # the smaller class joins the larger
            small, large = held[i], held[j]
            for x in members[small]:
                held[x] = large
            members[large] += members[small]
            members[small] = None
        else:
            cuts.setdefault(flow, []).append(cut)
    if not cuts:
        return []
    violations = []
    for _, i, j, r, lam in _short_pairs(index, instance.requirements.values, ends, flows):
        if not any(cut[i] != cut[j] for cut in cuts.get(lam, ())):
            lam, cut = max_flow(graph, (i,), j, None, r)
            if cut is None:
                continue
            cuts.setdefault(lam, []).append(cut)
        violations.append((terminals[i], terminals[j], r - lam))
    violations.sort()
    return violations


def _short_pairs(index, required, ends, flows):
    """(stored index, i, j, r, lower bound) of each pair (s, t) required
    above its lower bound, in stored order, i and j the terminal indices of
    s and t.

    `index` maps each terminal to its index and `required` each requirement
    pair to r in stored order; `ends` holds the terminal indices of each
    forest pair and `flows` its flow. The forest pairs join in descending
    flow, and the join that first links s and t emits the pair when r is
    above its flow.
    """
    # node -> (other end, stored index, i, j, r) of each of its pairs; a
    # pair at or below the least forest flow is within every bound
    least = min(flows)
    n = len(index)
    partners = [[] for _ in range(n)]
    for k, ((s, t), r) in enumerate(required.items()):
        if r > least:
            i, j = index[s], index[t]
            partners[i].append((j, k, i, j, r))
            partners[j].append((i, k, i, j, r))
    # forest pairs close no cycle, so each one joins two components; each
    # join relabels its smaller component, so a node moves O(log n) times
    component = list(range(n))
    members = [[x] for x in component]
    short = []
    for f in sorted(range(len(flows)), key=flows.__getitem__, reverse=True):
        u, v = ends[f]
        flow = flows[f]
        small, large = component[u], component[v]
        if len(members[small]) > len(members[large]):
            small, large = large, small
        for x in members[small]:
            for y, k, i, j, r in partners[x]:
                if r > flow and component[y] == large:
                    short.append((k, i, j, r, flow))
        for x in members[small]:
            component[x] = large
        members[large] += members[small]
        members[small] = None
    short.sort()
    return short


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
    if not instance.forest:
        return Realization({})
    bound = instance.forest[0][1]

    pairs = [node_pair(a, b) for a, b in combinations(terminals, 2)]
    # pair distances in the tree's integer units, so no loop touches Fractions
    weights = [instance.tree.path_units(*p) for p in pairs]

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
    if leftover:
        raise SolverInternalError(f"cut screen and flow check disagree: {leftover}")
    return realization

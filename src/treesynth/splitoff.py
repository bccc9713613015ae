"""Eliminating inner nodes from a capacitated graph without losing connectivity.

A split at the active node s replaces one unit of capacity on each of (s, u)
and (s, w), two distinct neighbors, with a unit on (u, w). Amounts are chosen
so the pairwise connectivity of the initial graph keeps holding among all
other nodes of positive degree.

Split-off starts from a capacitated tree, which is its own Gomory-Hu tree:
the connectivity of two nodes is the least capacity on their tree path. A
split never raises a cut and an admissible one keeps every demand, so each
pair of nodes that still have degree keeps that initial connectivity, and
every activation reads its demands off the tree.

Only pairs from two branches of s can split, so no loop pair is probed. Let
B be the branch of s (the side of tree edge e = (s, t) away from s) that
holds u: in the tree c(B) = c(e), and splits never raise a cut. Some
terminal pair across e must have a tree bottleneck >= c(e) - 1, which the
checks keep: in base plus join, which `solve` passes, the pair that set
base(e) has one >= r >= c(e) - 1, and in a doubled base one of 2r = c(e).
Splitting a >= 1 units of (u, u), or of (u, w) with w in B too, lowers c(B)
by 2a, to at most c(e) - 2, below that bottleneck: no such split is
admissible.

Splitting `a` units of a pair lowers exactly the cuts that hold u and w but
not s, each by 2a. One max-flow from {u, w} to s before the first probe gives
the least such cut, of value mu, and its side X*. A probe fails with no flow
when X* separates a demand above mu - 2a, and otherwise confirms by max-flow
only the demands above mu - 2a (`admissible_amount` gives the argument). So
the largest amount X* allows is probed first, and usually settles the pair.
The graph, its flows, the demands and X* are on node indices:
`realize_capacity` numbers the tree's nodes in sorted-name order, so index
order is name order, and names only the split trace and the realization.

Most pairs need no flow at all. Let X be a lowered cut and primes mean
"after the split". X + s is a cut the split leaves alone, and it separates
the same demands as X, since s is no demand's endpoint: c(X + s) >= R(X),
the largest demand X separates. Moving s back out of X gives
c'(X) = c(X + s) + d'(s, X) - d'(s, V - X) = c(X + s) + 2d'(s, X) - deg'(s),
and d'(s, X) >= z'u + z'w, where d' counts capacity from s into a side and
z' the capacity from s to u or w. With z' = z - a and deg' = deg - 2a, the
excess over R(X) is non-negative exactly when a <= free = zu + zw - deg/2.
Every other cut keeps its value, so every amount up to `free` keeps every
demand: a pair whose incident capacities allow no more is split whole with
no flow, and a probe at or below it passes with no flow.
"""

from functools import cached_property
from itertools import combinations

from .errors import SolverInternalError, UnknownNode
from .maxflow import CapacitatedMultigraph, max_flow
from .model import Realization, max_spanning_joins


def connectivity_snapshot(graph, active_node, joins):
    """Checks (x, y, lam) that imply every demand at one activation.

    `joins` lists (lam, ru, rv) for each join of Kruskal's maximum spanning
    forest over the initial tree's edges (`max_spanning_joins`): the
    component rooted at ru merged into rv's at capacity lam. Replaying them
    in order, each join of two components that hold kept nodes (positive
    degree in `graph`, not the active node) emits a check between a kept
    node of each side at that capacity: the least on their tree path, so
    their initial connectivity. The checks form a maximum spanning forest of
    the demands, and any graph has lam(x, y) >= min(lam(x, z), lam(z, y)),
    so they imply every demand.

    The joins depend only on the nodes and the initial tree, neither of
    which a split changes; only which nodes are kept depends on the
    activation. So `realize_capacity` takes the list once, before the first
    split, and each activation that reads its demands replays it with no
    sort and no union-find: the replay gives the same checks, in the same
    order, as a Kruskal pass run at that activation.
    """
    graph.degree(active_node)  # refuses what is not a node index of graph
    # component root -> one kept node of that component
    kept = {v: v for v, d in graph.degrees() if d > 0 and v != active_node}
    checks = []
    for lam, ru, rv in joins:
        # the merged side, rooted at rv, keeps ru's kept node if it has one
        if ru in kept:
            x = kept.pop(ru)
            if rv in kept:
                checks.append((x, kept[rv], lam))
            kept[rv] = x
    return checks


class SplitState:
    """Mutable bookkeeping while one node is being eliminated.

    `demands` lists (x, y, lam) checks, never touching the active node,
    whose connectivity must survive every split: `connectivity_snapshot`
    replays `joins`, the Kruskal joins of the capacitated tree split-off
    started from, over the nodes that have degree. It runs on the first
    read, so an activation whose pairs all split whole by degree builds
    none. A split at the active node changes no other node's degree, so the
    checks are the same whenever they are first read.
    `events` records executed splits as (u, w, amount) triples in order.
    `outcomes` counts, by kind, how `admissible_amount` settled its probes.
    """

    def __init__(self, graph, active_node, joins):
        graph.degree(active_node)  # refuses what is not a node index of graph
        self.graph = graph
        self.active = active_node
        self.joins = joins
        self.events = []
        self.outcomes = dict.fromkeys(("cut_refused", "degree_admitted", "flow_refused", "passed"), 0)

    @cached_property
    def demands(self):
        return connectivity_snapshot(self.graph, self.active, self.joins)


def _demands_hold(state, safe, u, w, amount):
    """Whether every demand above `safe` holds by max-flow once `amount`
    units of (u, w) are split at the active node.

    Demands up to `safe` are known to hold and run no flow; with none above
    it the graph is not touched. The split is undone before returning.
    """
    graph, s = state.graph, state.active
    above = [(x, y, r) for x, y, r in state.demands if r > safe]
    if not above:
        return True
    graph.split(s, u, w, amount)
    try:
        return all(max_flow(graph, (x,), y, None, r)[0] >= r for x, y, r in above)
    finally:
        graph.split(s, u, w, -amount)


def admissible_amount(state, u, w):
    """Largest amount the pair (u, w) can be split at the active node.

    Bounded by the incident capacities and by demand preservation, which is
    monotone in the amount. Returns 0 for unsplittable pairs; raises
    UnknownNode for a loop pair (u, u) or when u or w has no capacity to s.

    Splitting `a` units lowers only the cuts X with u, w in X and s not in X,
    each by exactly 2a: (s, u) and (s, w) cross X and the new (u, w) capacity
    stays inside it. A cut that splits u from w trades a unit of (s, u) or
    (s, w) for one of (u, w), and one with u, w and s on a side is untouched.
    One max-flow from u and w to s gives mu, the least value of a lowered
    cut before the split, and X*, the side of one such cut, one byte per
    node. Then:

    - X* is an (x, y) cut of value mu - 2a after the split for every demand
      it separates, so with R the largest of those demands (0 if none) any
      a > (mu - R) / 2 fails without a flow.
    - Every lowered cut keeps at least mu - 2a and every other cut keeps its
      value, and the demands held before the split, so a demand
      r <= mu - 2a cannot fail and `_demands_hold` skips its flow; a probe
      with no demand above mu - 2a passes without splitting the graph.

    Before any flow, degree arithmetic settles most pairs: every amount up
    to free = zu + zw - deg(s)/2 keeps every demand (the module docstring
    gives the argument). A pair with free >= cap is split at cap with no
    flow, and a probe of at most free passes with no flow.

    One bisection then searches (lo, top], top = min(cap, (mu - R) // 2) and
    lo = max(0, min(free, top)). It probes top first, which most pairs pass,
    and never an amount at or below free, since each of those passes with no
    flow. `state.outcomes` counts each settlement: a pair split whole by
    degree, a merged cut that refuses an amount cap allows, and each check
    round by its answer.
    """
    graph, s = state.graph, state.active
    if u == s or w == s:
        raise UnknownNode(f"node {s} is the active node, not a neighbor of itself")
    if u == w:
        raise UnknownNode(f"node {u} cannot pair with itself: a loop adds no connectivity")
    zu = graph.capacity(s, u)
    zw = graph.capacity(s, w)
    if zu <= 0 or zw <= 0:
        missing = u if zu <= 0 else w
        raise UnknownNode(f"node {missing} does not neighbor node {s}")
    cap = min(zu, zw)
    free = zu + zw - graph.degree(s) // 2
    if free >= cap:
        state.outcomes["degree_admitted"] += 1
        return cap
    mu, side = max_flow(graph, (u, w), s)
    crossing = max((r for x, y, r in state.demands if side[x] != side[y]), default=0)
    top = min(cap, (mu - crossing) // 2)
    if top < cap:
        state.outcomes["cut_refused"] += 1
    lo, hi = max(0, min(free, top)), top
    amount = top
    while lo < hi:
        if _demands_hold(state, mu - 2 * amount, u, w, amount):
            state.outcomes["passed"] += 1
            lo = amount
        else:
            state.outcomes["flow_refused"] += 1
            hi = amount - 1
        amount = (lo + hi + 1) // 2
    return lo


def split_node(state):
    """Drive the active node's degree to zero by admissible splits.

    One pass over the pairs of distinct neighbors in lexicographic order
    splits each pair at its maximum admissible amount, skipping pairs that
    have lost their capacity to the node. One pass is enough: a split never
    raises a cut value, so a refused pair stays refused, and a pair split at
    its maximum admits no further unit. The demands keep holding after every
    step. Each tree edge e must have some terminal pair across it whose tree
    bottleneck is at least c(e) - 1, as every capacity `solve` builds does,
    so no loop pair could split (the module docstring gives the argument).
    Raises SolverInternalError when degree is left after the pass: the graph
    broke that contract or a precondition (some demand cut of value 0 or 1).
    """
    graph, s = state.graph, state.active
    if graph.degree(s) % 2:
        raise SolverInternalError(f"odd degree at node {s}")
    for u, w in combinations(sorted(graph.neighbors(s)), 2):
        if graph.capacity(s, u) == 0 or graph.capacity(s, w) == 0:
            continue
        amount = admissible_amount(state, u, w)
        if amount > 0:
            graph.split(s, u, w, amount)
            state.events.append((u, w, amount))
    if graph.degree(s) > 0:
        raise SolverInternalError(f"no admissible split remains at node {s}")


def extract_realization(graph, terminals):
    """The positive pairs ((u, v), capacity), u < v, of a fully reduced
    graph, each joining two of `terminals`, a set of nodes.

    Any other node with positive degree means elimination is incomplete and
    raises SolverInternalError.
    """
    for v, d in graph.degrees():
        if d > 0 and v not in terminals:
            raise SolverInternalError(f"node {v} still has degree {d}")
    return graph.positive_pairs()


def realize_capacity(instance, capacity):
    """Run the full elimination: build the graph, split out each inner node, extract.

    `capacity` is an EdgeCapacity on the instance's tree. A tree with no
    inner node joins terminals only, so its capacity is the realization, and
    no graph is built. Otherwise the graph numbers the tree's nodes in
    sorted-name order, so that index order is name order: the neighbor
    pairs, the pair orientation and the checks come out as they would on
    the names. Inner nodes are processed in ascending identifier order:
    before the first split, Kruskal's joins of the graph's tree edges are
    taken once, and an activation that needs its demands reads them off
    those joins. Each tree edge e needs a terminal pair across it of tree
    bottleneck >= c(e) - 1, as base plus join has. Returns (realization,
    trace), trace a tuple of (node, u, w, amount) records in names.
    """
    inner = sorted(instance.inner_nodes())
    if not inner:
        return Realization(capacity.items()), ()
    names = sorted(instance.tree.nodes)
    index = {v: i for i, v in enumerate(names)}
    graph = CapacitatedMultigraph(len(names), {(index[u], index[v]): c for (u, v), c in capacity.items()})
    joins = [(lam, ru, rv) for _, lam, ru, rv in max_spanning_joins(graph.nodes, graph.positive_pairs())]
    trace = []
    for s in inner:
        state = SplitState(graph, index[s], joins)
        split_node(state)
        trace.extend((s, names[u], names[w], amount) for u, w, amount in state.events)
    pairs = extract_realization(graph, {index[t] for t in instance.terminals})
    return Realization(((names[u], names[v]), c) for (u, v), c in pairs), tuple(trace)

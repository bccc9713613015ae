"""Shared builders and hypothesis strategies for the test suite."""

import json
import os
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from hypothesis import strategies as st

from treesynth import TooLarge, UnknownNode, build_instance, generate_document, parse_instance
from treesynth.join import JoinResult
from treesynth.maxflow import CapacitatedMultigraph, max_flow
from treesynth.model import EdgeCapacity, MetricTree, max_spanning_joins, node_pair

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "instances")

LENGTH_POOL = ("0", "1/2", "1", "2", "7/3")

BRUTE_FORCE_EDGE_LIMIT = 24


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def forest_bottleneck(checks, x, y):
    """Least weight on the x-y path of a forest of (u, v, w) edges, 0 if none."""
    adj = {}
    for u, v, w in checks:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    best = {x: None}
    stack = [x]
    while stack:
        node = stack.pop()
        for nxt, w in adj.get(node, ()):
            if nxt not in best:
                best[nxt] = w if best[node] is None else min(best[node], w)
                stack.append(nxt)
    return best.get(y) or 0


def add_capacity(graph, u, v, delta):
    """Change the capacity of (u, v) by `delta` through `set_capacity`.

    It stays off `CapacitatedMultigraph.split`, so a replay of splits made
    with it does not depend on the code it checks.
    """
    graph.set_capacity(u, v, graph.capacity(u, v) + delta)


def ids(names, wanted):
    """The indices of the node names `wanted` in a graph whose node i is
    names[i], as a tuple.

    The one map from names into the index space the graph, its flows and
    split-off work in; back from an index, a test reads names[i].
    `realize_capacity` numbers sorted(tree.nodes) and `verify_realization`
    the instance's terminals.
    """
    return tuple(map(names.index, wanted))


def set_flow(graph, sources, sinks, limit=None):
    """`max_flow` from the nodes `sources` into the set of nodes `sinks`,
    returned as (value, side), the side a frozenset of nodes or None.

    The sinks become one class by sharing the label of the first of them in
    a fresh identity label list, and the flow runs through the module name
    `max_flow`, so a test can count it there.
    """
    sinks = tuple(sinks)
    label = list(graph.nodes)
    for y in sinks:
        label[y] = sinks[0]
    value, side = max_flow(graph, tuple(sources), sinks[0], label, limit)
    if side is None:
        return value, None
    return value, frozenset(v for v in graph.nodes if side[v])


def named_checks(names, checks):
    """(x, y, lam) checks on node indices as a list of (name, name, lam),
    node i being names[i]."""
    return [(names[x], names[y], lam) for x, y, lam in checks]


def reference_augment(graph, sources, sink, label, limit=None):
    """Oracle for `maxflow._augment`: the same shortest augmenting paths,
    found by a deque BFS that scans every arc of a node before it looks for
    a node of the sink class, with the bottleneck taken by a separate `min`
    over the path.

    It takes the class as the set of nodes whose label equals the sink's,
    reads the graph's arc arrays in the same order and takes the first node
    of the class a node's arcs label, so it finds the same paths in the same
    order and returns the same (value, side), including the value a capped
    flow overshoots to; its side marks every labelled node of the last
    search.
    """
    head, to = graph._head, graph._to
    cap = graph._cap[:]
    targets = {y for y, c in enumerate(label) if c == label[sink]}
    flow = 0
    while True:
        # the arc that labelled each node: -1 at a source, None if unlabelled
        via = [None] * len(head)
        for s in sources:
            via[s] = -1
        queue = deque(sources)
        reached = None
        while queue and reached is None:
            x = queue.popleft()
            for a in head[x]:
                y = to[a]
                if cap[a] > 0 and via[y] is None:
                    via[y] = a
                    queue.append(y)
            reached = next((to[a] for a in head[x] if to[a] in targets and via[to[a]] == a), None)
        if reached is None:
            return flow, bytearray(a is not None for a in via)
        path = []
        a = via[reached]
        while a >= 0:
            path.append(a)
            a = via[to[a ^ 1]]
        moved = min(cap[a] for a in path)
        for a in path:
            cap[a] -= moved
            cap[a ^ 1] += moved
        flow += moved
        if limit is not None and flow >= limit:
            return flow, None


def tree_joins(graph, tree_edges=None):
    """The (lam, ru, rv) Kruskal joins `connectivity_snapshot` replays.

    Taken over graph's nodes and the ((u, v), capacity) pairs of
    `tree_edges`, by default the graph's positive pairs, as
    `realize_capacity` takes them before the first split.
    """
    pairs = graph.positive_pairs() if tree_edges is None else tree_edges
    return [(lam, ru, rv) for _, lam, ru, rv in max_spanning_joins(graph.nodes, pairs)]


def reference_snapshot(graph, active, tree_edges):
    """Oracle for `connectivity_snapshot`: a fresh sort and union-find.

    Runs Kruskal over `tree_edges` at the call, as split-off did at every
    activation before it replayed one join list, and emits a check at each
    join of two components that hold kept nodes (positive degree, not
    `active`).
    """
    if active not in graph.nodes:
        raise UnknownNode(f"unknown node {active!r}")
    kept = {v: v for v in graph.nodes if v != active and graph.degree(v) > 0}
    checks = []
    for _, c, ru, rv in max_spanning_joins(graph.nodes, tree_edges):
        sides = [kept.pop(r) for r in (ru, rv) if r in kept]
        if sides:
            kept[rv] = sides[0]
        if len(sides) == 2:
            checks.append((sides[0], sides[1], c))
    return checks


def brute_force_join(p):
    """Exhaustive reference for min_cost_ij_join; same tie-break, or None.

    It sums the Fraction `tree.lengths`, not the integer units the dynamic
    program adds, so the two stay independent.
    """
    tree = p.tree
    m = len(tree.edges)
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLarge(f"{m} edges; exhaustive join is capped at {BRUTE_FORCE_EDGE_LIMIT}")
    constrained = [(v, 0) for v in p.even_set] + [(v, 1) for v in p.odd_set]
    best = None
    for mask in range(1 << m):
        degree = Counter()
        cost = Fraction(0)
        for i in range(m):
            if mask >> i & 1:
                u, v = tree.edges[i]
                degree[u] += 1
                degree[v] += 1
                cost += tree.lengths[tree.edges[i]]
        if any(degree[v] % 2 != want for v, want in constrained):
            continue
        # masks ascend, so on equal cost the smaller bitmask is kept
        if best is None or cost < best[0]:
            best = (cost, mask)
    if best is None:
        return None
    cost, mask = best
    edges = tuple(e for i, e in enumerate(tree.edges) if mask >> i & 1)
    return JoinResult(edges=edges, cost=cost)


def side_containing(tree, edge, start):
    """Tree nodes reachable from `start` without crossing `edge`."""
    e = node_pair(*edge)
    if e not in tree.lengths:
        raise UnknownNode(f"{edge!r} is not a tree edge")
    seen = {start}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in tree.neighbors(x):
            if node_pair(x, y) == e or y in seen:
                continue
            seen.add(y)
            queue.append(y)
    return frozenset(seen)


def tree_path(tree, i, j):
    """Edges (canonical pairs) on the tree path from i to j, in walk order.

    Built from the two chains up `tree.parent` to the root, so it shares no
    code with the climbs in `MetricTree`.
    """

    def to_root(v):
        chain = [v]
        while tree.parent[chain[-1]] is not None:
            chain.append(tree.parent[chain[-1]])
        return chain

    up, down = to_root(i), to_root(j)
    on_down = set(down)
    meet = next(v for v in up if v in on_down)
    up, down = up[: up.index(meet) + 1], down[: down.index(meet) + 1]
    return [node_pair(a, b) for a, b in zip(up, up[1:])] + [
        node_pair(a, b) for a, b in reversed(list(zip(down, down[1:])))
    ]


def cut_side(instance, edge):
    """Terminals on the root side of the cut a tree edge induces."""
    return side_containing(instance.tree, edge, instance.tree.root) & instance.terminal_set


def largest_crossing_requirement(instance, side):
    """Reference cut requirement: the largest requirement over all pairs the side separates."""
    return max(
        (r for (s, t), r in instance.requirements.pairs() if (s in side) != (t in side)),
        default=0,
    )


def capacity_projection(instance, realization):
    """Tree-edge loads induced by a terminal-pair capacity map.

    Each pair contributes its value to every edge whose cut separates the
    pair, i.e. to each edge on the tree path between the endpoints. Each edge
    is loaded from its explicit cut side, not from the path walks behind
    `base_capacity`, so the two stay independent.
    """
    values = {}
    for e in instance.tree.edges:
        side = cut_side(instance, e)
        values[e] = sum(
            y for (i, j), y in realization.items() if (i in side) != (j in side)
        )
    return EdgeCapacity(instance.tree, values)


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


def star_instance(rmap, length="1/2", hub="hub"):
    """Star with the given requirement dict {(a, b): r} and one inner hub."""
    terminals = sorted({x for pair in rmap for x in pair})
    return build_instance(
        terminals,
        terminals + [hub],
        [(hub, t, length) for t in terminals],
        [(a, b, r) for (a, b), r in rmap.items()],
    )


def uniform_star(k, r, length="1/2"):
    terminals = [f"t{i}" for i in range(k)]
    rmap = {}
    for i in range(k):
        for j in range(i + 1, k):
            rmap[(terminals[i], terminals[j])] = r
    return star_instance(rmap, length=length)


def path_instance(labels, lengths, requirements):
    """Path graph over `labels`; non-terminal labels start with '_'."""
    terminals = [x for x in labels if not x.startswith("_")]
    edges = [(labels[i], labels[i + 1], lengths[i]) for i in range(len(labels) - 1)]
    return build_instance(terminals, list(labels), edges, requirements)


def caterpillar_instance(m):
    """Inner spine s0..s{m-1} of unit edges, a half-length leg to t_i on each
    s_i, and r(t_i, t_{i+1}) = 2: the optimum is 3m - 2 with no join."""
    spine = [f"s{i}" for i in range(m)]
    legs = [f"t{i}" for i in range(m)]
    return build_instance(
        legs,
        spine + legs,
        [(spine[i], spine[i + 1], 1) for i in range(m - 1)]
        + [(spine[i], legs[i], "1/2") for i in range(m)],
        [(legs[i], legs[i + 1], 2) for i in range(m - 1)],
    )


def zero_bridge_instance():
    """Two requirement-3 triads joined by a requirement-0 bridge edge."""
    with open(fixture_path("zero_bridge_triads.json")) as fh:
        return parse_instance(fh.read())


def strip_non_terminal_leaves(nodes, edges, terminals):
    """Reference pruning: remove one non-terminal leaf at a time until none is
    left; returns the remaining nodes and (u, v, length) edges in input order."""
    nodes, edges = list(nodes), list(edges)
    while True:
        degree = Counter(x for u, v, _ in edges for x in (u, v))
        leaf = next((x for x in nodes if x not in terminals and degree[x] <= 1), None)
        if leaf is None:
            return nodes, edges
        nodes.remove(leaf)
        edges = [edge for edge in edges if leaf not in edge[:2]]


def random_instance(seed, terminals, inner, rmin=2, rmax=6, lengths=LENGTH_POOL):
    doc = generate_document(
        terminals=terminals, inner=inner, rmin=rmin, rmax=rmax, seed=seed, lengths=lengths
    )
    return parse_instance(json.dumps(doc))


@st.composite
def metric_trees(draw, min_nodes=1, max_nodes=8, lengths=LENGTH_POOL, root_elsewhere=False):
    """Random recursive tree over string node names, rooted at the first node.

    With `root_elsewhere` (needs min_nodes >= 2) the root is drawn from the
    other nodes, so walks from the root differ from walks in node order.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        parent = draw(st.integers(0, j - 1))
        edges.append((names[parent], names[j], draw(st.sampled_from(lengths))))
    root = draw(st.sampled_from(names[1:])) if root_elsewhere else names[0]
    return MetricTree(names, edges, root)


@st.composite
def parity_marked_trees(draw, max_nodes=8, root_elsewhere=False, marks="eof", lengths=LENGTH_POOL):
    """A random tree plus disjoint even/odd node subsets.

    Each node draws a mark from `marks`: "e" even, "o" odd, "f" free.
    """
    min_nodes = 2 if root_elsewhere else 1
    tree = draw(metric_trees(min_nodes, max_nodes, lengths=lengths, root_elsewhere=root_elsewhere))
    marks = [draw(st.sampled_from(marks)) for _ in tree.nodes]
    even = frozenset(v for v, m in zip(tree.nodes, marks) if m == "e")
    odd = frozenset(v for v, m in zip(tree.nodes, marks) if m == "o")
    return tree, even, odd


@st.composite
def solvable_instances(draw, max_terminals=6, max_inner=3, rmin=2, rmax=6):
    k = draw(st.integers(2, max_terminals))
    m = draw(st.integers(0, max_inner))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_instance(seed, terminals=k, inner=m, rmin=rmin, rmax=rmax)


@st.composite
def forest_inputs(draw):
    """build_instance arguments with 1-6 terminals and requirements 0-3, so
    that ties are common; some terminals get an all-zero row, which leaves
    them isolated in the requirement forest."""
    tree = draw(metric_trees(min_nodes=1, max_nodes=8))
    terminals = draw(st.lists(st.sampled_from(tree.nodes), min_size=1, max_size=6, unique=True))
    zero_rows = draw(st.sets(st.sampled_from(terminals)))
    requirements = [
        (s, t, 0 if zero_rows & {s, t} else draw(st.integers(0, 3)))
        for s, t in combinations(terminals, 2)
    ]
    edges = [(u, v, tree.lengths[(u, v)]) for u, v in tree.edges]
    return terminals, tree.nodes, edges, requirements


def reference_verify(instance, realization):
    """Oracle for `verify.verify_realization`: its earlier form, which keeps
    a lower bound for every requirement pair and scans every pair after a
    join of all the forest flows.

    It numbers the terminals as the audit does, in `instance.terminals`
    order. Its forest pass keeps each held class as a set and runs each
    forest flow from the end of the smaller class into the other's whole
    class, so it runs the same forest flows as the audit and keeps the same
    cuts. It then runs the same per-pair flows in the same order, so it
    returns the same violations after the same number of `max_flow` calls,
    made through `set_flow`, which looks `max_flow` up here by name so that
    a test can count them.
    """
    for (u, v), _ in realization.items():
        if u not in instance.terminal_set or v not in instance.terminal_set:
            raise UnknownNode(f"{u!r}-{v!r} is not a terminal pair")
    terminals = instance.terminals
    index = {v: i for i, v in enumerate(terminals)}
    graph = CapacitatedMultigraph(len(terminals), {(index[u], index[v]): c for (u, v), c in realization.items()})
    pairs = [((index[s], index[t]), r) for (s, t), r in instance.requirements.pairs()]
    # terminal -> the set of terminals its held forest pairs join it to
    held = {v: {v} for v in graph.nodes}
    # cut value -> the residual sides of the short flows that found it
    cuts = {}
    flows = {}
    for (s, t), r in instance.forest:
        p = index[s], index[t]
        s, t = p if len(held[p[0]]) <= len(held[p[1]]) else p[::-1]
        flows[p], cut = set_flow(graph, (s,), held[t], r)
        if cut is None:
            joined = held[s] | held[t]
            for x in joined:
                held[x] = joined
        else:
            cuts.setdefault(flows[p], []).append(cut)
    if not cuts:
        return []
    partners = {v: [] for v in graph.nodes}
    for (s, t), _ in pairs:
        partners[s].append(t)
        partners[t].append(s)
    component = {v: v for v in graph.nodes}
    members = {v: [v] for v in graph.nodes}
    bound = {}
    for (u, v), flow in sorted(flows.items(), key=itemgetter(1), reverse=True):
        small, large = component[u], component[v]
        if len(members[small]) > len(members[large]):
            small, large = large, small
        for x in members[small]:
            for y in partners[x]:
                if component[y] == large:
                    bound[x, y] = bound[y, x] = flow
        for x in members[small]:
            component[x] = large
        members[large] += members.pop(small)
    violations = []
    for (s, t), r in pairs:
        lam = bound[(s, t)]
        if r <= lam:
            continue
        if not any((s in cut) != (t in cut) for cut in cuts.get(lam, ())):
            lam, cut = set_flow(graph, (s,), {t}, r)
            if cut is None:
                continue
            cuts.setdefault(lam, []).append(cut)
        violations.append((terminals[s], terminals[t], r - lam))
    violations.sort()
    return violations

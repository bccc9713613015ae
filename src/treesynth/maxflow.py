"""Integer max-flow plumbing on undirected capacitated graphs.

Parallel edges collapse into one integer capacity per unordered pair of
distinct nodes. The graph keeps the arc arrays the flow runs on: each pair
that ever carried capacity owns two mutually reverse arcs, both holding the
pair's current capacity (0 once it is removed). The constructor makes one
`set_capacity` call per entry, in entry order.

The graph's own methods take node names; the flow runs on node indices, the
positions in `graph.nodes`, so its callers map names to indices once per
graph and back only for what they report. `max_flow` does only the work its
caller needs. It runs from a collection of sources to a sink class, each
side acting as one merged node: the class is every node whose label equals
the sink's, in a label list the caller keeps over many flows (by default
each node is a class of its own). It augments along shortest residual paths
(Edmonds-Karp); each path search stops at the arc that labels the first node
of the class. A flow with a `limit` stops once it carries that much, with no
cut side; any other returns the residual closure of the sources as its side,
one byte per node.
"""

from .errors import UnknownNode
from .model import node_pair


class CapacitatedMultigraph:
    """Mutable undirected graph with one nonnegative integer capacity per pair."""

    def __init__(self, nodes, capacities=None):
        self.nodes = tuple(nodes)
        self._index = {}
        for i, v in enumerate(self.nodes):
            if v in self._index:
                raise UnknownNode(f"duplicate node {v!r}")
            self._index[v] = i
        # each node its own class: the label list of a flow to one node
        self._ids = list(range(len(self.nodes)))
        self._head = [[] for _ in self.nodes]
        self._to = []
        self._cap = []
        # total capacity at each node, kept by set_capacity
        self._degree = [0] * len(self.nodes)
        # (u, v) -> the arc from u to v; its reverse is arc ^ 1
        self._arc = {}
        for (u, v), c in (capacities or {}).items():
            self.set_capacity(u, v, c)

    def __contains__(self, v):
        return v in self._index

    def _check(self, v):
        if v not in self._index:
            raise UnknownNode(f"unknown node {v!r}")

    def capacity(self, u, v):
        self._check(u)
        self._check(v)
        a = self._arc.get((u, v))
        return 0 if a is None else self._cap[a]

    def set_capacity(self, u, v, value):
        self._check(u)
        self._check(v)
        if u == v:
            raise UnknownNode(f"a loop at {u!r} cannot carry capacity")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"capacity must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"capacity on {u!r}-{v!r} cannot go negative")
        a = self._arc.get((u, v))
        if a is None:
            if value == 0:
                return
            a = self._new_arc(u, v)
        change = value - self._cap[a]
        self._degree[self._index[u]] += change
        self._degree[self._index[v]] += change
        self._cap[a] = self._cap[a ^ 1] = value

    def _new_arc(self, u, v):
        """Create the pair (u, v) at capacity 0 and return its arc from u."""
        a = len(self._to)
        self._arc[(u, v)], self._arc[(v, u)] = a, a + 1
        self._head[self._index[u]].append(a)
        self._head[self._index[v]].append(a + 1)
        self._to += [self._index[v], self._index[u]]
        self._cap += [0, 0]
        return a

    def split(self, s, u, w, amount):
        """Move `amount` units of (s, u) and of (s, w) onto (u, w).

        (u, w) is created if absent, and a negative amount undoes a split.
        Only the degree of s changes, by -2 * amount: u and w each trade
        capacity toward s for the same capacity toward each other, so their
        degrees stay as they were. Raises UnknownNode for an unknown node,
        for s, u and w not all distinct, or when u or w has no arc to s, and
        ValueError for an amount that is not an int, exceeds either capacity
        at s or would take (u, w) below 0. On any error the graph is left
        unchanged.
        """
        self._check(s)
        self._check(u)
        self._check(w)
        if u == w or s == u or s == w:
            raise UnknownNode(f"a split needs three distinct nodes, got {s!r}, {u!r}, {w!r}")
        su, sw = self._arc.get((s, u)), self._arc.get((s, w))
        if su is None or sw is None:
            raise UnknownNode(f"{u if su is None else w!r} has no arc to {s!r}")
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise ValueError(f"a split amount must be an int, got {amount!r}")
        cap = self._cap
        uw = self._arc.get((u, w))
        if amount > cap[su] or amount > cap[sw] or (0 if uw is None else cap[uw]) + amount < 0:
            raise ValueError(f"cannot split {amount} units of {u!r}-{s!r}-{w!r}")
        if uw is None:
            if amount == 0:
                return
            uw = self._new_arc(u, w)
        cap[su] = cap[su ^ 1] = cap[su] - amount
        cap[sw] = cap[sw ^ 1] = cap[sw] - amount
        cap[uw] = cap[uw ^ 1] = cap[uw] + amount
        self._degree[self._index[s]] -= 2 * amount

    def neighbors(self, v):
        """Nodes joined to v by positive capacity."""
        self._check(v)
        return tuple(self.nodes[self._to[a]] for a in self._head[self._index[v]] if self._cap[a])

    def degree(self, v):
        """Total capacity incident to v."""
        self._check(v)
        return self._degree[self._index[v]]

    def degrees(self):
        """Iterate (v, degree of v) over the nodes, in node order."""
        return zip(self.nodes, self._degree)

    def positive_pairs(self):
        """Iterate ((u, v), capacity) once per pair of positive capacity."""
        for a in range(0, len(self._to), 2):
            if self._cap[a]:
                yield node_pair(self.nodes[self._to[a + 1]], self.nodes[self._to[a]]), self._cap[a]


def _augment(graph, sources, sink, label, limit=None):
    """Max flow by shortest augmenting paths; see `max_flow`.

    Each round searches breadth-first from every source at once over arcs
    with residual capacity, so the sources act as one merged node, and so do
    the nodes of the sink's class: a newly labelled node y is in the class
    when label[y] equals the sink's label, one int compare. The search stops
    at the arc that labels the first node of the class; unscanned arcs label
    only other nodes, so each path, and a capped flow's overshoot, is the one
    a full scan finds. A round that labels no node of the class has queued
    the sources' residual closure, which it marks one byte per node.
    """
    head, to = graph._head, graph._to
    cap = graph._cap[:]
    n = len(head)
    target = label[sink]
    flow = 0
    while True:
        # the arc that labelled each node: -1 at a source, None if unlabelled
        via = [None] * n
        for s in sources:
            via[s] = -1
        queue = list(sources)
        for x in queue:
            for a in head[x]:
                if cap[a]:
                    y = to[a]
                    if via[y] is None:
                        via[y] = a
                        if label[y] == target:
                            break
                        queue.append(y)
            else:
                continue
            break
        else:
            side = bytearray(n)
            for x in queue:
                side[x] = 1
            return flow, side
        b, moved = a, cap[a]
        while b >= 0:
            if cap[b] < moved:
                moved = cap[b]
            b = via[to[b ^ 1]]
        while a >= 0:
            cap[a] -= moved
            cap[a ^ 1] += moved
            a = via[to[a ^ 1]]
        flow += moved
        if limit is not None and flow >= limit:
            return flow, None


def _bad_index(v):
    """Raise the error for a flow endpoint that is not a node index."""
    if type(v) is not int:
        raise TypeError(f"flow nodes are int indices, not a {type(v).__name__}")
    raise UnknownNode(f"unknown node index {v}")


def max_flow(graph, sources, sink, label=None, limit=None):
    """Exact undirected max flow from the nodes `sources` to the class of
    the node `sink`.

    Nodes are indices into `graph.nodes`. The sink class is every node y
    with label[y] == label[sink], `label` holding one int per node; by
    default each node is a class of its own, so the flow ends at `sink`
    alone. Naming the class by one of its nodes keeps it from being empty.
    The list is read only at the sources, at the sink and at the nodes the
    search labels, never copied, so a large class costs nothing per flow and
    a caller can keep one list over many flows, relabelling between them.
    `sources` is a collection of indices, searched in its order, none of
    them in the sink's class. The checks are O(len(sources)): every source
    and the sink an int in range (a name or a bool raises TypeError), no
    source in the sink's class, one label per node and a valid limit.

    Returns (value, side): the least value of a cut with every source on one
    side and the whole sink class on the other, and the least such side, the
    residual closure of the sources (the same for every maximum flow), as a
    bytearray with a 1 at each of its nodes and a 0 elsewhere. With an int
    `limit` >= 1 the flow stops on reaching it and returns (value, None),
    value >= limit, overshooting by up to the last path's bottleneck; a
    value below `limit` is exact and has its side. Shortest augmenting paths
    need O(VE) rounds of O(E) each, whatever the capacities.
    """
    n = len(graph.nodes)
    if not sources:
        raise UnknownNode("a flow needs at least one source")
    for v in sources:
        if type(v) is not int or not 0 <= v < n:
            _bad_index(v)
    if type(sink) is not int or not 0 <= sink < n:
        _bad_index(sink)
    if label is None:
        label = graph._ids
    elif len(label) != n:
        raise ValueError(f"a flow needs one label per node, got {len(label)} for {n} nodes")
    target = label[sink]
    for v in sources:
        if label[v] == target:
            raise UnknownNode(f"flow endpoints must differ, got {graph.nodes[v]!r} in the sink's class")
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
        raise ValueError(f"a flow limit must be an int of at least 1, got {limit!r}")
    return _augment(graph, sources, sink, label, limit)


def all_pairs_connectivity(graph):
    """Map from every unordered pair of node names to its exact connectivity.

    Builds a Gusfield flow-equivalent tree from n-1 max-flow runs on node
    indices; pairwise connectivity is the least weight on the tree path. A
    tree parent precedes its child in node order, so one pass fills
    lam(i, x) = min(weight[i], lam(parent[i], x)) for every earlier x.
    """
    names, ids = graph.nodes, graph._ids
    n = len(names)
    parent = [0] * n
    # lam[i][x]: the connectivity of nodes i and x, for each x < i
    lam = [[]]
    for i in range(1, n):
        p = parent[i]
        w, side = _augment(graph, (i,), p, ids)
        for v in range(i + 1, n):
            if parent[v] == p and side[v]:
                parent[v] = i
        lam.append([w if x == p else min(w, lam[p][x] if x < p else lam[x][p]) for x in range(i)])
    return {node_pair(names[i], names[x]): row[x] for i, row in enumerate(lam) for x in range(i)}

"""Integer max-flow plumbing on undirected capacitated graphs.

Parallel edges collapse into one integer capacity per unordered pair of
distinct nodes. The graph keeps the arc arrays Dinic's algorithm runs on:
each pair that ever carried capacity owns two mutually reverse arcs, both
holding the pair's current capacity (0 once it is removed).
"""

from collections import deque

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
        self._head = [[] for _ in self.nodes]
        self._to = []
        self._cap = []
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
            a = len(self._to)
            self._arc[(u, v)], self._arc[(v, u)] = a, a + 1
            self._head[self._index[u]].append(a)
            self._head[self._index[v]].append(a + 1)
            self._to += [self._index[v], self._index[u]]
            self._cap += [0, 0]
        self._cap[a] = self._cap[a ^ 1] = value

    def add_capacity(self, u, v, delta):
        self.set_capacity(u, v, self.capacity(u, v) + delta)

    def neighbors(self, v):
        """Nodes joined to v by positive capacity."""
        self._check(v)
        return tuple(self.nodes[self._to[a]] for a in self._head[self._index[v]] if self._cap[a])

    def degree(self, v):
        """Total capacity incident to v."""
        self._check(v)
        return sum(self._cap[a] for a in self._head[self._index[v]])

    def positive_pairs(self):
        """Iterate ((u, v), capacity) once per pair of positive capacity."""
        for a in range(0, len(self._to), 2):
            if self._cap[a]:
                yield node_pair(self.nodes[self._to[a + 1]], self.nodes[self._to[a]]), self._cap[a]


def _dinic(graph, sources, sink):
    """Max flow from a set of nodes to another node of a CapacitatedMultigraph.

    Every source starts at level 0 and the blocking flow searches from each
    in turn, so the sources act as one merged node. Returns (value,
    source_side) where source_side is the residual cut side holding the
    sources, so callers get a minimum cut for free.
    """
    names, head, to = graph.nodes, graph._head, graph._to
    cap = graph._cap[:]
    n = len(names)
    starts = [graph._index[v] for v in sources]
    t = graph._index[sink]
    flow = 0
    while True:
        level = [-1] * n
        for s in starts:
            level[s] = 0
        queue = deque(starts)
        while queue:
            x = queue.popleft()
            for a in head[x]:
                y = to[a]
                if cap[a] > 0 and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[t] < 0:
            side = frozenset(names[i] for i in range(n) if level[i] >= 0)
            return flow, side
        pointer = [0] * n
        for s in starts:
            while True:
                # depth-first search for one augmenting path in the level
                # graph, kept as an explicit arc stack so path length is
                # unbounded
                path = []
                x = s
                while x != t:
                    arcs = head[x]
                    while pointer[x] < len(arcs):
                        a = arcs[pointer[x]]
                        if cap[a] > 0 and level[to[a]] == level[x] + 1:
                            break
                        pointer[x] += 1
                    else:
                        if not path:
                            break
                        # dead end: retreat and skip the arc that led here
                        x = to[path.pop() ^ 1]
                        pointer[x] += 1
                        continue
                    path.append(a)
                    x = to[a]
                if x != t:
                    break
                moved = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= moved
                    cap[a ^ 1] += moved
                flow += moved


def max_flow(graph, sources, sink):
    """Exact undirected max flow from the node set `sources` to `sink`.

    Returns (value, side): the value of the least cut with every source on
    one side and the sink on the other, and the side of one such cut that
    holds the sources.
    """
    if not sources:
        raise UnknownNode("a flow needs at least one source")
    for v in (*sources, sink):
        if v not in graph:
            raise UnknownNode(f"unknown node {v!r}")
    if sink in sources:
        raise UnknownNode(f"flow endpoints must differ, got {sink!r} on both sides")
    return _dinic(graph, sources, sink)


def all_pairs_connectivity(graph):
    """Map from every unordered node pair to its exact connectivity.

    Builds a Gusfield flow-equivalent tree from n-1 max-flow runs; pairwise
    connectivity is the least weight on the tree path. A tree parent precedes
    its child in node order, so one pass fills
    lam(v, x) = min(weight[v], lam(parent[v], x)) for every earlier x.
    """
    names = graph.nodes
    parent = {v: names[0] for v in names[1:]}
    out = {}
    for i in range(1, len(names)):
        u = names[i]
        p = parent[u]
        w, side = _dinic(graph, (u,), p)
        for v in names[i + 1 :]:
            if parent[v] == p and v in side:
                parent[v] = u
        for x in names[:i]:
            out[node_pair(u, x)] = w if x == p else min(w, out[node_pair(p, x)])
    return out

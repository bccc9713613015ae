"""Integer max-flow plumbing on undirected capacitated multigraphs.

Parallel edges collapse into one integer capacity per unordered pair. Loops
may be stored but carry no flow and never count toward degrees.
"""

from collections import deque

from .errors import UnknownNode


class CapacitatedMultigraph:
    """Mutable undirected graph with one nonnegative integer capacity per pair."""

    def __init__(self, nodes, capacities=None):
        self._adj = {}
        for v in nodes:
            if v in self._adj:
                raise UnknownNode(f"duplicate node {v!r}")
            self._adj[v] = {}
        if capacities:
            items = capacities.items() if hasattr(capacities, "items") else capacities
            for (u, v), c in items:
                self.set_capacity(u, v, c)

    @property
    def nodes(self):
        return tuple(self._adj)

    def __contains__(self, v):
        return v in self._adj

    def _check(self, v):
        if v not in self._adj:
            raise UnknownNode(f"unknown node {v!r}")

    def capacity(self, u, v):
        self._check(u)
        self._check(v)
        return self._adj[u].get(v, 0)

    def set_capacity(self, u, v, value):
        self._check(u)
        self._check(v)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"capacity must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"capacity on {u!r}-{v!r} cannot go negative")
        if value == 0:
            self._adj[u].pop(v, None)
            self._adj[v].pop(u, None)
        else:
            self._adj[u][v] = value
            self._adj[v][u] = value

    def add_capacity(self, u, v, delta):
        self.set_capacity(u, v, self.capacity(u, v) + delta)

    def neighbors(self, v):
        """Nodes joined to v by positive capacity; a loop does not count."""
        self._check(v)
        return tuple(u for u in self._adj[v] if u != v)

    def degree(self, v):
        """Total capacity incident to v, loops excluded."""
        self._check(v)
        return sum(c for u, c in self._adj[v].items() if u != v)

    def positive_pairs(self):
        """Iterate ((u, v), capacity) once per stored pair, loops included."""
        for u, nbrs in self._adj.items():
            for v, c in nbrs.items():
                if u <= v:
                    yield (u, v), c


def _dinic(adj, source, sink):
    """Max flow on a symmetric {node: {nbr: cap}} map; loops skipped.

    Returns (value, source_side) where source_side is the residual cut side
    containing the source, so callers get a minimum cut for free.
    """
    names = list(adj)
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    head = [[] for _ in range(n)]
    to = []
    cap = []
    for u, nbrs in adj.items():
        ui = index[u]
        for v, c in nbrs.items():
            if u == v or c <= 0:
                continue
            vi = index[v]
            if ui < vi:
                # one undirected edge becomes a mutually-reverse arc pair
                head[ui].append(len(to))
                to.append(vi)
                cap.append(c)
                head[vi].append(len(to))
                to.append(ui)
                cap.append(c)
    s, t = index[source], index[sink]
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
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
        while True:
            # depth-first search for one augmenting path in the level graph,
            # kept as an explicit arc stack so path length is unbounded
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
                    if x == s:
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


def max_flow(graph, s, t):
    """Exact undirected max-flow value between two distinct nodes."""
    if s not in graph:
        raise UnknownNode(f"unknown node {s!r}")
    if t not in graph:
        raise UnknownNode(f"unknown node {t!r}")
    if s == t:
        raise UnknownNode(f"flow endpoints must differ, got {s!r} twice")
    value, _ = _dinic(graph._adj, s, t)
    return value


def _flow_tree(graph):
    """Gusfield flow-equivalent tree: (order, parent map, weight map).

    Pairwise connectivity equals the minimum weight on the tree path, which
    costs n-1 max-flow runs instead of one per pair.
    """
    names = list(graph._adj)
    parent = {}
    weight = {}
    if len(names) < 2:
        return names, parent, weight
    for v in names[1:]:
        parent[v] = names[0]
    for i in range(1, len(names)):
        u = names[i]
        value, side = _dinic(graph._adj, u, parent[u])
        weight[u] = value
        for j in range(i + 1, len(names)):
            w = names[j]
            if parent[w] == parent[u] and w in side:
                parent[w] = u
    return names, parent, weight


def all_pairs_connectivity(graph):
    """Map from every unordered node pair to its exact connectivity."""
    names, parent, weight = _flow_tree(graph)
    adj = {v: [] for v in names}
    for v, p in parent.items():
        adj[v].append((p, weight[v]))
        adj[p].append((v, weight[v]))
    out = {}
    big = sum(weight.values()) + 1
    for src in names:
        best = {src: big}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y, w in adj[x]:
                if y not in best:
                    best[y] = min(best[x], w)
                    queue.append(y)
        for v, value in best.items():
            if v != src and src <= v:
                out[(src, v)] = value
    return out


def connectivity_snapshot(graph, exclude):
    """Pairwise connectivity among all positive-degree nodes other than one.

    Flows still run on the whole graph, so paths through the excluded node
    count; only the reported pairs avoid it.
    """
    if exclude not in graph:
        raise UnknownNode(f"unknown node {exclude!r}")
    keep = {v for v in graph.nodes if v != exclude and graph.degree(v) > 0}
    if len(keep) < 2:
        return {}
    lam = all_pairs_connectivity(graph)
    return {(u, v): c for (u, v), c in lam.items() if u in keep and v in keep}

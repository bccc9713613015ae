"""Reference checks that share no code with the program under test.

Everything here works from the INSP-JSON document alone and imports nothing
from `treesynth`: its own tree walks for cut requirements and distances, its
own parity-join dynamic program for the closed-form optimum, and its own
shortest-augmenting-path max-flow with a Gusfield flow-equivalent tree for
pairwise connectivity.
"""

from collections import deque
from fractions import Fraction


def _pair(u, v):
    return (u, v) if u <= v else (v, u)


class Reference:
    """Closed-form optimum and connectivity oracle for one instance document."""

    def __init__(self, doc):
        self.terminals = list(doc["terminals"])
        self.terminal_set = set(self.terminals)
        adj = {v: {} for v in doc["tree"]["nodes"]}
        for e in doc["tree"]["edges"]:
            length = Fraction(e["length"])
            adj[e["u"]][e["v"]] = length
            adj[e["v"]][e["u"]] = length
        # non-terminal leaves lie on no terminal path; drop them repeatedly
        leaves = deque(v for v in adj if v not in self.terminal_set and len(adj[v]) <= 1)
        while leaves:
            v = leaves.popleft()
            if v not in adj:
                continue
            for u in adj.pop(v):
                del adj[u][v]
                if u not in self.terminal_set and len(adj[u]) <= 1:
                    leaves.append(u)
        self.adj = adj
        self.requirements = {
            _pair(row["s"], row["t"]): row["r"] for row in doc["requirements"] if row["r"] > 0
        }
        root = self.terminals[0]
        parent = {root: None}
        depth = {root: 0}
        order = [root]
        for v in order:
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    order.append(u)
        self.parent = parent
        self.order = order
        # cut requirement of tree edge (v, parent[v]), keyed by the child v:
        # raise every edge on each requirement's path to that requirement
        cut = {v: 0 for v in order[1:]}
        for (s, t), r in self.requirements.items():
            a, b = s, t
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                if cut[a] < r:
                    cut[a] = r
                a = parent[a]
        self.cut = cut
        self._optimum = None

    def cut_requirements(self):
        """{canonical tree edge: largest requirement separated by it}."""
        return {_pair(v, self.parent[v]): c for v, c in self.cut.items()}

    def optimum(self):
        """Sum of length x cut requirement plus a minimum-cost parity join."""
        if self._optimum is None:
            base = sum((self.adj[v][self.parent[v]] * c for v, c in self.cut.items()), Fraction(0))
            self._optimum = base + self._join_cost()
        return self._optimum

    def _join_cost(self):
        """Cheapest tree-edge set giving each inner node the parity of its load.

        Terminals are free. Per node, `best[p]` is the cheapest selection in
        its subtree with p selected child edges mod 2 (None: impossible).
        """
        children = {v: [] for v in self.order}
        for v in self.order[1:]:
            children[self.parent[v]].append(v)
        up = {}
        for v in reversed(self.order):
            best = [Fraction(0), None]
            for c in children[v]:
                merged = [None, None]
                for p in (0, 1):
                    for x in (0, 1):
                        if best[p] is None or up[c][x] is None:
                            continue
                        value = best[p] + up[c][x]
                        if merged[p ^ x] is None or value < merged[p ^ x]:
                            merged[p ^ x] = value
                best = merged
            if v == self.order[0]:
                return min(b for b in best if b is not None)
            if v in self.terminal_set:
                need = None
            else:
                load = self.cut[v] + sum(self.cut[c] for c in children[v])
                need = load % 2
            length = self.adj[v][self.parent[v]]
            up[v] = []
            for x in (0, 1):
                options = [best[p] for p in (0, 1) if best[p] is not None and (need is None or p ^ x == need)]
                up[v].append(min(options) + x * length if options else None)

    def _distances_from(self, u):
        """{node: tree distance from u}."""
        row = {u: Fraction(0)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y, length in self.adj[x].items():
                if y not in row:
                    row[y] = row[x] + length
                    queue.append(y)
        return row

    def distance(self, u, v):
        return self._distances_from(u)[v]

    def cost(self, values):
        """Tree-metric cost of a {pair: units} realization.

        The distance rows live only for this call, so a checked instance leaves
        no tables behind for the collector to scan during later operations.
        """
        rows = {}
        total = Fraction(0)
        for (u, v), y in values.items():
            if u not in rows:
                rows[u] = self._distances_from(u)
            total += rows[u][v] * y
        return total

    def connectivity(self, values):
        """{canonical terminal pair: connectivity} in a {pair: units} realization."""
        graph = {t: {} for t in self.terminals}
        for (u, v), y in values.items():
            graph[u][v] = graph[u].get(v, 0) + y
            graph[v][u] = graph[v].get(u, 0) + y
        return connectivity(graph)

    def deficits(self, values):
        """Sorted (s, t, r - connectivity) for every requirement a realization misses."""
        lam = self.connectivity(values)
        return [
            (s, t, r - lam[(s, t)])
            for (s, t), r in sorted(self.requirements.items())
            if lam[(s, t)] < r
        ]

    def check_solution(self, values, cost, flat=False):
        """Problems with a claimed optimum; an empty list means it is correct."""
        problems = []
        for (u, v), y in values.items():
            if u == v or u not in self.terminal_set or v not in self.terminal_set:
                problems.append(f"{u}-{v} is not a terminal pair")
            if not isinstance(y, int) or y <= 0:
                problems.append(f"{u}-{v} carries {y!r} units")
        if problems:
            return problems
        own = self.cost(values)
        if own != self.optimum():
            problems.append(f"realization costs {own}, optimum is {self.optimum()}")
        if cost != own:
            problems.append(f"reported cost {cost} differs from the realization's {own}")
        missing = self.deficits(values)
        if missing:
            problems.append(f"requirements missed: {missing[:5]}")
        if flat and values != self.cut_requirements():
            problems.append("realization differs from the tree edges at their cut requirements")
        return problems


def max_flow(graph, s, t):
    """Shortest-augmenting-path max-flow on a symmetric {u: {v: cap}} map.

    Returns (value, source side of a minimum cut).
    """
    residual = {u: dict(nbrs) for u, nbrs in graph.items()}
    value = 0
    while True:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            return value, frozenset(prev)
        bottleneck = None
        y = t
        while prev[y] is not None:
            x = prev[y]
            if bottleneck is None or residual[x][y] < bottleneck:
                bottleneck = residual[x][y]
            y = x
        y = t
        while prev[y] is not None:
            x = prev[y]
            residual[x][y] -= bottleneck
            residual[y][x] = residual[y].get(x, 0) + bottleneck
            y = x
        value += bottleneck


def connectivity(graph):
    """{canonical pair: connectivity} for every node pair, by Gusfield's tree.

    n - 1 flows build a flow-equivalent tree; a pair's connectivity is the
    smallest weight on its tree path.
    """
    nodes = list(graph)
    parent = {v: nodes[0] for v in nodes[1:]}
    tree = {v: [] for v in nodes}
    for i, u in enumerate(nodes[1:], start=1):
        value, side = max_flow(graph, u, parent[u])
        tree[u].append((parent[u], value))
        tree[parent[u]].append((u, value))
        for v in nodes[i + 1:]:
            if v in side and parent[v] == parent[u]:
                parent[v] = u
    lam = {}
    for src in nodes:
        reach = {src: None}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y, w in tree[x]:
                if y not in reach:
                    reach[y] = w if reach[x] is None else min(reach[x], w)
                    queue.append(y)
        for v, w in reach.items():
            if v != src:
                lam[_pair(src, v)] = w
    return lam


def check_verdict(verdict, expected):
    """Problems with a verifier's (s, t, deficit) list; empty when it matches."""
    if list(verdict) != expected:
        return [f"verdict {list(verdict)[:3]} differs from reference {expected[:3]}"]
    return []

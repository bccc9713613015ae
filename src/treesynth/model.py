"""Core domain types: metric trees, requirements, instances, capacities, realizations.

All arithmetic is exact: edge lengths are read as `fractions.Fraction`, and
capacities and requirements are Python ints. A `MetricTree` also holds each
length as integer `units` over one `scale`, the LCM of its denominators, so
distances and costs are int sums with one Fraction built per returned value.
Every structure here is treated as immutable after construction.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter

from .errors import InvalidInstance, UnknownNode


def node_pair(u, v):
    """Canonical unordered pair of node identifiers."""
    return (u, v) if u <= v else (v, u)


def max_spanning_joins(nodes, weighted_pairs):
    """Kruskal's maximum spanning forest over `nodes`, one join at a time.

    Takes the ((u, v), weight) pairs in descending weight (a stable sort) and
    yields ((u, v), weight, ru, rv) for each pair that links two union-find
    components, after the component rooted at ru is merged into rv's. Stops
    once a single component is left.

    A stable descending sort puts the pairs of the top weight first, in
    input order, so those are taken straight from the input after one pass
    for the top weight; the lighter pairs are sorted only if the forest does
    not span by then. A one-shot iterable is read into a list first.
    """
    up = {v: v for v in nodes}

    def find(v):
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    left = len(up) - 1
    if left <= 0:
        return
    if iter(weighted_pairs) is weighted_pairs:
        weighted_pairs = list(weighted_pairs)
    top = max(map(itemgetter(1), weighted_pairs), default=None)

    def lighter():
        rest = (p for p in weighted_pairs if p[1] != top)
        yield from sorted(rest, key=itemgetter(1), reverse=True)

    for (u, v), weight in chain((p for p in weighted_pairs if p[1] == top), lighter()):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        up[ru] = rv
        left -= 1
        yield (u, v), weight, ru, rv
        if left == 0:
            return


def as_length(value):
    """Coerce an edge length to an exact Fraction.

    Accepts int, Fraction, or a string like "2", "0.5", "7/3", "1e3"; a
    Fraction comes back as it is. Floats are rejected so no inexact value can
    sneak in, and booleans so no flag is read as a length. A decimal exponent
    beyond +-4300 (the interpreter's default digit limit for int strings) is
    refused before Fraction expands it.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise InvalidInstance(
            f"edge length {value!r} is a {type(value).__name__}; pass an int, Fraction, or string"
        )
    try:
        if isinstance(value, str):
            _, e, exponent = value.lower().partition("e")
            if e and abs(int(exponent)) > 4300:
                raise ValueError("exponent too large")
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"cannot read {value!r} as an exact length") from exc


class MetricTree:
    """A tree with exact nonnegative edge lengths and a distinguished root.

    `nodes` keeps input order, `edges` keeps input order as canonical pairs.
    `parent` maps each node to its parent toward `root` (the root maps to
    None); its insertion order is breadth-first from the root. `lengths` maps
    each edge to its Fraction length; `units` maps it to the int
    length * `scale`, where `scale` is the LCM of the length denominators.
    Each non-root node also keeps its depth and its parent edge, so `_climb`
    walks a path by climbing the deeper end until the ends meet, with no
    edge list.
    """

    def __init__(self, nodes, edges, root):
        self.nodes = tuple(nodes)
        node_set = set(self.nodes)
        if not self.nodes:
            raise InvalidInstance("a tree needs at least one node")
        if len(node_set) != len(self.nodes):
            raise InvalidInstance("duplicate node identifiers")
        if root not in node_set:
            raise UnknownNode(f"root {root!r} is not a tree node")
        self.root = root

        adj = {v: {} for v in self.nodes}
        lengths = {}
        order = []
        for u, v, raw in edges:
            if u not in node_set or v not in node_set:
                raise UnknownNode(f"edge {u!r}-{v!r} has an endpoint outside the node list")
            if u == v:
                raise InvalidInstance(f"self-loop at {u!r}")
            e = node_pair(u, v)
            if e in lengths:
                raise InvalidInstance(f"duplicate edge {e[0]}-{e[1]}")
            length = as_length(raw)
            if length < 0:
                raise InvalidInstance(f"edge {e[0]}-{e[1]} has negative length {length}")
            lengths[e] = length
            adj[u][v] = length
            adj[v][u] = length
            order.append(e)
        if len(order) != len(self.nodes) - 1:
            raise InvalidInstance(
                f"{len(self.nodes)} nodes need {len(self.nodes) - 1} edges, got {len(order)}"
            )
        # edge count is right, so connectivity alone rules out cycles
        parent = {root: None}
        depth = {root: 0}
        bfs = [root]
        for x in bfs:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    bfs.append(y)
        if len(parent) != len(self.nodes):
            raise InvalidInstance("edge list is disconnected")

        self.edges = tuple(order)
        self.lengths = lengths
        self.scale = lcm(*(length.denominator for length in lengths.values()))
        self.units = {
            e: length.numerator * (self.scale // length.denominator)
            for e, length in lengths.items()
        }
        self.parent = parent
        self._depth = depth
        self._adj = adj
        # non-root node -> the edge to its parent
        self._up_edge = {v: node_pair(v, p) for v, p in parent.items() if p is not None}

    def __eq__(self, other):
        if not isinstance(other, MetricTree):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.lengths == other.lengths
            and self.root == other.root
        )

    __hash__ = None

    def neighbors(self, v):
        if v not in self._adj:
            raise UnknownNode(f"unknown tree node {v!r}")
        return tuple(self._adj[v])

    def leaves(self):
        return tuple(v for v in self.nodes if len(self._adj[v]) <= 1)

    def _climb(self, i, j):
        """Yield the edges of the tree path between two tree nodes, unchecked."""
        parent, depth, up = self.parent, self._depth, self._up_edge
        while i != j:
            if depth[i] < depth[j]:
                i, j = j, i
            yield up[i]
            i = parent[i]

    def path_units(self, i, j):
        """Length of the tree path between two tree nodes in `units`, an int.

        The nodes are not checked; `distance` is the checked form.
        """
        return sum(map(self.units.__getitem__, self._climb(i, j)))

    def distance(self, i, j):
        """Exact path length between two tree nodes."""
        for v in (i, j):
            if v not in self._adj:
                raise UnknownNode(f"unknown tree node {v!r}")
        return Fraction(self.path_units(i, j), self.scale)


class _PairTable:
    """Nonnegative ints on unordered pairs, built from ((u, v), value) entries.

    Only positive entries are stored; absent pairs read 0. A self pair, a
    non-int or negative value, or a pair repeated in either orientation (zero
    entries count) raises InvalidInstance worded by the subclass's `_SELF`,
    `_NOT_INT`, `_NEGATIVE` or `_REPEAT`.
    """

    def __init__(self, entries):
        values = {}
        for pair, value in entries:
            u, v = pair
            if u == v or type(value) is not int or value <= 0:
                fields = {"u": u, "v": v, "pair": pair, "value": value}
                if u == v:
                    raise InvalidInstance(self._SELF.format(**fields))
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InvalidInstance(self._NOT_INT.format(**fields))
                if value < 0:
                    raise InvalidInstance(self._NEGATIVE.format(**fields))
            e = node_pair(u, v)
            size = len(values)
            values[e] = value
            if len(values) == size:
                raise InvalidInstance(self._REPEAT.format(e=e))
        # zeros stay in `values` until here so that they count as seen pairs
        self.values = {e: c for e, c in values.items() if c} if 0 in values.values() else values

    def get(self, u, v):
        return self.values.get(node_pair(u, v), 0)

    def items(self):
        return self.values.items()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.values == other.values

    __hash__ = None


class RequirementMatrix(_PairTable):
    """Symmetric nonnegative integer requirements on unordered pairs, from (s, t, r) triples."""

    _SELF = "requirement pairs {u!r} with itself"
    _NOT_INT = "requirement r({u!r},{v!r}) must be an int, got {value!r}"
    _NEGATIVE = "requirement r({u!r},{v!r}) is negative"
    _REPEAT = "pair {e[0]}-{e[1]} appears twice"

    def __init__(self, triples=()):
        super().__init__(((s, t), r) for s, t, r in triples)

    @classmethod
    def from_values(cls, values):
        """A matrix holding `values`, a checked dict from `node_pair` pairs to positive ints."""
        matrix = cls.__new__(cls)
        matrix.values = values
        return matrix

    pairs = _PairTable.items  # (pair, value) over the stored positive entries


class Instance:
    """A validated problem: terminals, a representing tree, and requirements.

    The tree root is a terminal and every tree leaf is a terminal; use
    `build_instance` to get pruning and root selection from raw input.
    `forest` holds a maximum spanning forest of the requirements, ((s, t), r)
    pairs in Kruskal order (largest r first); every cut holds a pair of the
    forest with the largest requirement across it.
    """

    def __init__(self, terminals, tree, requirements):
        self.terminals = tuple(terminals)
        if not self.terminals:
            raise InvalidInstance("at least one terminal is required")
        if len(set(self.terminals)) != len(self.terminals):
            raise InvalidInstance("duplicate terminal identifiers")
        node_set = set(tree.nodes)
        for t in self.terminals:
            if t not in node_set:
                raise InvalidInstance(f"terminal {t!r} is missing from the tree")
        self.terminal_set = frozenset(self.terminals)
        if tree.root not in self.terminal_set:
            raise InvalidInstance(f"tree root {tree.root!r} must be a terminal")
        for leaf in tree.leaves():
            if leaf not in self.terminal_set:
                raise InvalidInstance(
                    f"tree leaf {leaf!r} is not a terminal; build_instance prunes these"
                )
        for s, t in requirements.values:
            if s not in self.terminal_set or t not in self.terminal_set:
                raise UnknownNode(f"requirement references non-terminal {s!r}-{t!r}")
        self.tree = tree
        self.requirements = requirements
        self.forest = tuple((p, r) for p, r, _, _ in max_spanning_joins(self.terminals, requirements.pairs()))
        self._base = None

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.terminals == other.terminals
            and self.tree == other.tree
            and self.requirements == other.requirements
        )

    __hash__ = None

    def inner_nodes(self):
        """Tree nodes that are not terminals, in node order."""
        return tuple(v for v in self.tree.nodes if v not in self.terminal_set)

    def cut_requirement(self, side):
        """Largest requirement across the cut (side, complement), read off the forest."""
        side = frozenset(side)
        stray = side - self.terminal_set
        if stray:
            raise UnknownNode(f"cut side contains non-terminals: {sorted(stray)!r}")
        if not side or side == self.terminal_set:
            raise UnknownNode("cut side must be a nonempty proper subset of the terminals")
        return next((r for (s, t), r in self.forest if (s in side) != (t in side)), 0)

    def base_capacity(self):
        """Per-edge cut requirements: the fractional-relaxation support capacity.

        A tree edge's cut separates exactly the pairs whose path crosses it,
        so each edge gets the largest requirement routed over it. Only the
        paths of the `forest` pairs are walked, since the forest holds a
        largest requirement across every cut.
        """
        if self._base is None:
            tree = self.tree
            values = dict.fromkeys(tree.edges, 0)
            for (i, j), r in self.forest:
                for e in tree._climb(i, j):
                    if r > values[e]:
                        values[e] = r
            self._base = EdgeCapacity(tree, values)
        return self._base

    def realization_cost(self, realization):
        """Total cost of a terminal-pair capacity map under tree distances."""
        path_units = self.tree.path_units
        total = 0
        for (i, j), value in realization.items():
            if i not in self.terminal_set or j not in self.terminal_set:
                raise UnknownNode(f"{i!r}-{j!r} is not a terminal pair")
            total += path_units(i, j) * value
        return Fraction(total, self.tree.scale)


class EdgeCapacity:
    """Nonnegative integer capacities keyed exactly by a tree's edges."""

    def __init__(self, tree, values):
        cleaned = {}
        for edge, value in values.items():
            e = node_pair(*edge)
            if e not in tree.lengths:
                raise UnknownNode(f"{edge!r} is not an edge of the tree")
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInstance(f"capacity on {e} must be an int, got {value!r}")
            if value < 0:
                raise InvalidInstance(f"capacity on {e} is negative")
            if e in cleaned:
                raise InvalidInstance(f"capacity on {e} is given twice")
            cleaned[e] = value
        missing = set(tree.edges) - set(cleaned)
        if missing:
            raise UnknownNode(f"capacity missing for edges: {sorted(missing)!r}")
        self.tree = tree
        self.values = cleaned

    def __getitem__(self, edge):
        e = node_pair(*edge)
        if e not in self.values:
            raise UnknownNode(f"{edge!r} is not an edge of the tree")
        return self.values[e]

    def items(self):
        return self.values.items()

    def load(self, v):
        """Sum of capacities on edges incident to a tree node."""
        return sum(self.values[node_pair(v, u)] for u in self.tree.neighbors(v))

    def cost(self):
        """Length-weighted total, an exact Fraction."""
        units = self.tree.units
        return Fraction(sum(units[e] * c for e, c in self.values.items()), self.tree.scale)

    def bump(self, edges):
        """A new capacity with +1 on each of the given edges."""
        values = dict(self.values)
        for edge in edges:
            values[node_pair(*edge)] += 1
        return EdgeCapacity(self.tree, values)

    def __eq__(self, other):
        if not isinstance(other, EdgeCapacity):
            return NotImplemented
        return self.values == other.values and self.tree == other.tree

    __hash__ = None


class Realization(_PairTable):
    """Sparse integer capacities on terminal pairs, from a map or its items; zeros are dropped."""

    _SELF = "realization pairs {u!r} with itself"
    _NOT_INT = "realization value on {pair!r} must be an int"
    _NEGATIVE = "realization value on {pair!r} is negative"
    _REPEAT = "pair {e} appears twice"

    def __init__(self, values=()):
        super().__init__(values.items() if hasattr(values, "items") else values)

    def __repr__(self):
        inside = ", ".join(f"{u}-{v}: {c}" for (u, v), c in sorted(self.values.items()))
        return f"Realization({{{inside}}})"


def build_instance(terminals, tree_nodes, tree_edges, requirements=()):
    """Validate raw input and assemble an Instance.

    The root is the first terminal. A node is kept when a terminal lies in
    its subtree, marked by one pass from the deepest nodes up; the others sit
    on no terminal-to-terminal path, so they never influence cuts, costs, or
    parities. `requirements` is a RequirementMatrix or an iterable of
    (s, t, r) triples.
    """
    terminals = list(terminals)
    if not terminals:
        raise InvalidInstance("at least one terminal is required")
    node_list = list(tree_nodes)
    node_set = set(node_list)
    for t in terminals:
        if t not in node_set:
            raise InvalidInstance(f"terminal {t!r} is missing from the tree nodes")
    tree = MetricTree(node_list, tree_edges, terminals[0])
    tree = _prune_non_terminal_leaves(tree, set(terminals))
    if not isinstance(requirements, RequirementMatrix):
        requirements = RequirementMatrix(requirements)
    return Instance(terminals, tree, requirements)


def _prune_non_terminal_leaves(tree, terminal_set):
    # `parent` lists each child after its parent, so one reverse pass marks
    # every node with a terminal below it; the root is a terminal
    keep = set(terminal_set)
    for v, p in reversed(tree.parent.items()):
        if v in keep and p is not None:
            keep.add(p)
    if len(keep) == len(tree.nodes):
        return tree
    nodes = [v for v in tree.nodes if v in keep]
    edges = [(u, v, tree.lengths[(u, v)]) for (u, v) in tree.edges if u in keep and v in keep]
    return MetricTree(nodes, edges, tree.root)

"""Minimum-cost parity-constrained edge subsets of a tree.

A selection F of tree edges satisfies a parity instance when every node in
`even_set` has even selected degree and every node in `odd_set` has odd
selected degree; other nodes are free. Ties between equal-cost selections are
broken toward the smallest selection bitmask (bit i set when tree edge i is
chosen), so results are deterministic even with zero-length edges. The
dynamic program ranks a selection by the one int `cost << m | mask`, cost in
the tree's integer `units` and m the edge count: the mask fits below bit m,
so int order is the (cost, bitmask) order. Only the returned cost is a Fraction.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import SolverInternalError
from .model import MetricTree


@dataclass(frozen=True)
class ParityInstance:
    """A tree plus disjoint even/odd parity node sets."""

    tree: MetricTree
    even_set: frozenset
    odd_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "even_set", frozenset(self.even_set))
        object.__setattr__(self, "odd_set", frozenset(self.odd_set))
        if self.even_set & self.odd_set:
            raise ValueError(
                f"parity sets overlap on {sorted(self.even_set & self.odd_set)!r}"
            )
        stray = (self.even_set | self.odd_set) - set(self.tree.nodes)
        if stray:
            raise ValueError(f"parity sets mention non-tree nodes {sorted(stray)!r}")


@dataclass(frozen=True)
class JoinResult:
    """Selected edges (canonical pairs in tree-edge order) and their total length."""

    edges: tuple
    cost: Fraction


def parity_sets(instance, capacity):
    """Classify inner tree nodes by the parity of their capacity load.

    Terminals are always free: only non-terminal nodes must end with even
    total degree once the capacity graph is reduced to terminal pairs.
    """
    even = []
    odd = []
    for v in instance.inner_nodes():
        if capacity.load(v) % 2 == 0:
            even.append(v)
        else:
            odd.append(v)
    return ParityInstance(instance.tree, frozenset(even), frozenset(odd))


def satisfies_parity(even_set, odd_set, edges):
    """Check an edge selection against parity constraints."""
    degree = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return all(degree[v] % 2 == 0 for v in even_set) and all(
        degree[v] % 2 == 1 for v in odd_set
    )


def min_cost_ij_join(p):
    """Minimum-cost parity-satisfying edge selection, or None when impossible.

    Two-state dynamic program over the tree rooted at `tree.root`: per node,
    the best key of a selection inside its subtree for each parity of its
    own selected degree. A selection's key is the int `cost << m | mask`,
    with cost in the tree's integer units, m the number of tree edges and
    mask the edge-index bitmask. Cost is at most the units' sum, so it takes
    the bits above m and the key order is exactly the (cost, mask) order:
    equal costs resolve to the smallest bitmask. Subtree masks are disjoint,
    so a union's key is the sum of its parts' keys, with no carry out of the
    mask bits, and merging is `+` and `min`. A parity no selection reaches
    holds `none`, a key above every selection's, and every sum with it stays
    at least `none`. The result is the least key over all selections, so it
    does not depend on the root. Units are lengths times one positive
    `scale`, so they order selections as the lengths do. With no odd node
    the empty selection has the least key, 0, so it is returned without the
    program.
    """
    tree = p.tree
    if not p.odd_set:
        return JoinResult(edges=(), cost=Fraction(0))
    m = len(tree.edges)
    none = (sum(tree.units.values()) + 1) << m
    index = {e: i for i, e in enumerate(tree.edges)}
    root, parent = tree.root, tree.parent

    # v -> (best key with even, with odd selected degree at v)
    state = dict.fromkeys(tree.nodes, (0, none))
    # the root comes first in `parent`, so it is reached last
    for v in reversed(parent):
        # keys that meet v's parity without and with the edge to its parent
        skip, take = state[v]
        if v in p.odd_set:
            skip, take = take, skip
        elif v not in p.even_set:
            skip = take = min(skip, take)
        if v == root:
            break
        par = parent[v]
        edge = (par, v) if par <= v else (v, par)
        take += tree.units[edge] << m | 1 << index[edge]
        even, odd = state[par]
        state[par] = (min(even + skip, odd + take), min(odd + skip, even + take))

    if skip >= none:
        return None
    edges = tuple(e for i, e in enumerate(tree.edges) if skip >> i & 1)
    if not satisfies_parity(p.even_set, p.odd_set, edges):
        raise SolverInternalError("the join's edges miss the parity they were chosen for")
    return JoinResult(edges=edges, cost=Fraction(skip >> m, tree.scale))

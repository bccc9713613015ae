"""Minimum-cost parity-constrained edge subsets of a tree.

A selection F of tree edges satisfies a parity instance when every node in
`even_set` has even selected degree and every node in `odd_set` has odd
selected degree; other nodes are free. Ties between equal-cost selections are
broken toward the smallest selection bitmask (bit i set when tree edge i is
chosen), so results are deterministic even with zero-length edges. The
dynamic program adds the tree's integer length `units`; only the returned
cost is a Fraction.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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


def _best(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _combine(a, b):
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] | b[1])


def _pick(states, want):
    if want is None:
        return _best(states[0], states[1])
    return states[want]


def min_cost_ij_join(p):
    """Minimum-cost parity-satisfying edge selection, or None when impossible.

    Two-state dynamic program over the tree rooted at `tree.root`: per node,
    the best selection inside its subtree for each parity of its own selected
    degree. States carry (cost in the tree's integer units, edge-index
    bitmask) so equal costs resolve to the smallest bitmask; subtree masks
    are disjoint and the order is invariant under adding a common disjoint
    mask, which keeps the tie-break exact under merging. The result is the
    lexicographic minimum over all selections, so it does not depend on the
    root. Units are lengths times one positive `scale`, so they order
    selections as the lengths do. With no odd node the empty selection is
    that minimum (cost 0, mask 0), so it is returned without the program.
    """
    tree = p.tree
    if not p.odd_set:
        return JoinResult(edges=(), cost=Fraction(0))
    need = dict.fromkeys(p.even_set, 0)
    need.update(dict.fromkeys(p.odd_set, 1))
    index = {e: i for i, e in enumerate(tree.edges)}
    root, parent = tree.root, tree.parent

    state = {v: [(0, 0), None] for v in tree.nodes}
    for v in reversed(parent):
        if v == root:
            continue
        par = parent[v]
        edge = (par, v) if par <= v else (v, par)
        ei = index[edge]
        length = tree.units[edge]
        skip = _pick(state[v], need.get(v))
        want = need.get(v)
        take = _pick(state[v], None if want is None else want ^ 1)
        if take is not None:
            take = (take[0] + length, take[1] | 1 << ei)
        cur0, cur1 = state[par]
        state[par] = [
            _best(_combine(cur0, skip), _combine(cur1, take)),
            _best(_combine(cur1, skip), _combine(cur0, take)),
        ]

    answer = _pick(state[root], need.get(root))
    if answer is None:
        return None
    cost, mask = answer
    edges = tuple(e for i, e in enumerate(tree.edges) if mask >> i & 1)
    assert satisfies_parity(p.even_set, p.odd_set, edges)
    return JoinResult(edges=edges, cost=Fraction(cost, tree.scale))

"""Rotation-field subsets on the sphere and their block structure.

The infinitesimal rotation of the x_i x_j coordinate plane of R^n is
identified with the edge (i, j), 1 <= i < j <= n, of the complete graph on
n vertices.  A subset of these basis fields is therefore an edge set.
Bracketing the rotations of two planes that share a coordinate axis yields
the rotation of the third plane, so the Lie algebra generated by an edge
set meets the basis exactly in the union of complete graphs (cliques) over
the connected components of the edge set.  A subset is called maximal when
it equals that closure, i.e. when it is already a disjoint union of
cliques.

A maximal subset is summarised by a ``Symmetry``: the 0/1 indicator
vectors of its cliques of size >= 2 (the blocks, weakly decreasing in
size).  The indicator of the coordinates that belong to no block, the
free coordinates, is derived from the blocks.  A smooth function on the
sphere annihilated by the subset is invariant under rotations inside each
block; it depends only on the block radii and the free coordinates.

Both objects are plain integer bitmasks, read most significant bit first:

* a ``MultiIndex`` stores a coordinate set as ``mask``, coordinate i at
  bit n - i, so its n-digit binary string is the 0/1 vector ``bits``, and
  comparing masks of one dimension compares those vectors
  lexicographically;
* an ``EdgeSet`` stores its edges as ``bits``, the k-th edge of
  :func:`complete_edges` at bit C(n, 2) - 1 - k, i.e. edge (i, j) at bit
  C(n - i, 2) + n - j, so its C(n, 2)-digit binary string is the indicator
  over ``complete_edges(n)``, and row i, ``bits >> C(n - i, 2)`` masked to
  n - i bits, holds the neighbours j > i of vertex i at bits n - j.

Disjointness, unions, complements and sizes are then single integer
operations (``&``, ``|``, ``^``, ``int.bit_count``).

Vertex labels and multi-index positions are 1-based everywhere in the
public interface, matching the JSON wire format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

#: A coordinate mask has one bit per coordinate and fits one machine word
#: below this bound; counts use Python integers and never overflow.
MAX_DIMENSION = 64


def _check_dimension(n: int) -> int:
    """``n``; the one check of the ambient dimension (a boolean is below 3)."""
    if not (isinstance(n, int) and 3 <= n <= MAX_DIMENSION):
        raise ValueError(f"dimension must lie in [3, {MAX_DIMENSION}], got {n!r}")
    return n


def _check_edge(n: int, i: int, j: int) -> None:
    """The one check of an edge (i, j) on n coordinates."""
    if not 1 <= i < j <= n:
        raise ValueError(f"edge ({i}, {j}) needs i<j, both in [1, {n}]")


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """A coordinate block of R^n: ``mask`` holds coordinate i at bit n - i,
    so its n-digit binary string is the 0/1 vector ``bits``."""

    n: int
    mask: int

    def __post_init__(self):
        _check_dimension(self.n)
        if not isinstance(self.mask, int) or self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask must be an integer in [0, 2^{self.n})")

    @classmethod
    def from_support(cls, n: int, indices: Iterable[int]) -> "MultiIndex":
        """Build from 1-based coordinate indices."""
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"support indices must lie in [1, {n}]")
            mask |= 1 << (n - i)
        return cls(n, mask)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple([self.mask >> k & 1 for k in range(self.n - 1, -1, -1)])

    @property
    def weight(self) -> int:
        """Number of marked coordinates."""
        return self.mask.bit_count()

    def support(self) -> tuple[int, ...]:
        """Marked coordinates, 1-based, ascending."""
        n, mask = self.n, self.mask
        return tuple(i for i in range(1, n + 1) if mask >> (n - i) & 1)

    def complement(self) -> "MultiIndex":
        return MultiIndex(self.n, self.mask ^ ((1 << self.n) - 1))


@dataclass(frozen=True, slots=True)
class EdgeSet:
    """A set of coordinate-plane rotations: ``bits`` holds edge (i, j),
    i < j, at bit C(n - i, 2) + n - j."""

    n: int
    bits: int

    def __post_init__(self):
        _check_dimension(self.n)
        if not isinstance(self.bits, int) or self.bits < 0 or self.bits >> comb(self.n, 2):
            raise ValueError(f"edge bits must be an integer in [0, 2^{comb(self.n, 2)})")

    @classmethod
    def of(cls, n: int, edges: Iterable[Sequence[int]]) -> "EdgeSet":
        """Build from edges (i, j), 1 <= i < j <= n; repeats are merged."""
        bits = 0
        for e in edges:
            i, j = int(e[0]), int(e[1])
            _check_edge(n, i, j)
            bits |= 1 << (comb(n - i, 2) + n - j)
        return cls(n, bits)

    def __contains__(self, edge) -> bool:
        (i, j), n = edge, self.n
        return 1 <= i < j <= n and self.bits >> (comb(n - i, 2) + n - j) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def sorted_edges(self) -> list[tuple[int, int]]:
        edges, bits = complete_edges(self.n), self.bits
        top = len(edges) - 1  # the k-th edge sits at bit top - k
        return [e for k, e in enumerate(edges) if bits >> (top - k) & 1]


def complete_edges(n: int) -> list[tuple[int, int]]:
    """All C(n, 2) edges of the complete graph on {1, ..., n}."""
    return list(itertools.combinations(range(1, n + 1), 2))


def _clique_bits(mask: int) -> int:
    """Edge bitset of the clique on a coordinate mask.

    Removing the smallest coordinate i (the top bit, n - i) leaves the
    block's coordinates j > i at bits n - j, which are exactly the offsets
    of the edges (i, j) above row i's base C(n - i, 2).
    """
    bits = 0
    while mask:
        row = mask.bit_length() - 1  # n - i for the smallest coordinate i
        mask ^= 1 << row
        bits |= mask << comb(row, 2)
    return bits


def _components(A: EdgeSet) -> list[int]:
    """Vertex masks of the connected components of ([n], edges), ordered by
    smallest vertex.  Isolated vertices come back as singletons."""
    n, bits = A.n, A.bits
    adj = [0] * n  # adj[n - v]: neighbours of vertex v
    for i in range(1, n):
        # row i: the neighbours j > i of vertex i, at bits n - j
        row = bits >> comb(n - i, 2) & ((1 << (n - i)) - 1)
        adj[n - i] |= row
        while row:
            low = row & -row
            adj[low.bit_length() - 1] |= 1 << (n - i)
            row ^= low
    comps = []
    left = (1 << n) - 1
    while left:
        comp = frontier = 1 << (left.bit_length() - 1)
        while frontier:
            low = frontier & -frontier
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            frontier = (frontier ^ low) | new
        comps.append(comp)
        left &= ~comp
    return comps


def _closure_bits(comps: list[int]) -> int:
    return sum(map(_clique_bits, comps))  # disjoint cliques: sum == union


def lie_closure(A: EdgeSet) -> EdgeSet:
    """Basis intersection of the Lie algebra generated by ``A``.

    Two edges sharing a vertex bracket to the edge closing the triangle, so
    the closure is the union of cliques over the connected components.
    """
    return EdgeSet(A.n, _closure_bits(_components(A)))


def is_maximal(A: EdgeSet) -> bool:
    """True when ``A`` equals its Lie closure."""
    return _closure_bits(_components(A)) == A.bits


@dataclass(frozen=True, slots=True)
class Symmetry:
    """Block decomposition of a maximal subset.

    ``alphas`` are the clique indicators: pairwise disjoint, weights >= 2
    and weakly decreasing.  ``r_mask``, derived from the blocks, marks the
    coordinates outside every block, so ``alphas[0] + sum(alphas[1:]) +
    r_mask`` covers every coordinate exactly once.

    Equal-weight blocks may appear in any order: ordered block assignments
    are distinct ``Symmetry`` values on purpose, because balanced families
    count them separately.  :func:`decompose` always returns the canonical
    order (ties broken by smallest contained index); use
    :meth:`canonical` to normalise a hand-built value.
    """

    n: int
    alphas: tuple[MultiIndex, ...]
    r_mask: MultiIndex = field(init=False)

    def __post_init__(self):
        _check_dimension(self.n)
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if not self.alphas:
            raise ValueError("a symmetry needs at least one block")
        union, last = 0, self.n
        for a in self.alphas:
            if a.n != self.n:
                raise ValueError(
                    f"block of dimension {a.n} inside symmetry of dimension {self.n}")
            weight = a.mask.bit_count()
            if weight < 2:
                raise ValueError("every block must contain at least 2 coordinates")
            if weight > last:
                raise ValueError("block weights must be weakly decreasing")
            if union & a.mask:
                raise ValueError("blocks must be pairwise disjoint")
            union |= a.mask
            last = weight
        # disjoint blocks inside n bits cover at most n coordinates
        object.__setattr__(self, "r_mask", MultiIndex(self.n, union ^ ((1 << self.n) - 1)))

    @classmethod
    def from_blocks(cls, n: int, blocks: Sequence[Sequence[int]]) -> "Symmetry":
        """Build from 1-based index blocks, given in the intended order."""
        return cls(n, [MultiIndex.from_support(n, b) for b in blocks])

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a.support() for a in self.alphas)

    def length_profile(self) -> tuple[int, ...]:
        return tuple(a.weight for a in self.alphas)

    def edge_bits(self) -> int:
        """Edge bitset of the maximal subset: the cliques on the blocks."""
        return sum(_clique_bits(a.mask) for a in self.alphas)

    def edges(self) -> EdgeSet:
        """The maximal subset this symmetry decomposes: cliques on the blocks."""
        return EdgeSet(self.n, self.edge_bits())

    def canonical(self) -> "Symmetry":
        """Reorder equal-weight blocks by smallest contained index."""
        return Symmetry(self.n, _canonical_order(self.alphas))


def _canonical_order(alphas: Iterable[MultiIndex]) -> list[MultiIndex]:
    # of two disjoint blocks, the one with the smaller first index has the
    # larger mask
    return sorted(alphas, key=lambda a: (-a.mask.bit_count(), -a.mask))


def decompose(A: EdgeSet) -> Symmetry:
    """Block decomposition of a maximal edge set.

    Raises ValueError on the empty set and when ``A`` is not
    bracket-closed; closing is left to an explicit :func:`lie_closure`
    call so that no input is silently altered.  The cliques on the
    returned blocks reproduce ``A`` exactly.
    """
    if not A.bits:
        raise ValueError(f"no edges to decompose in dimension {A.n}")
    comps = _components(A)
    if _closure_bits(comps) != A.bits:
        raise ValueError("edge set is not bracket-closed; apply lie_closure first")
    blocks = [MultiIndex(A.n, c) for c in comps if c.bit_count() >= 2]
    return Symmetry(A.n, _canonical_order(blocks))

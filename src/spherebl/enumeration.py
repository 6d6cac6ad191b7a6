"""Exhaustive generation of balanced symmetry families.

This is the brute-force counterpart of the closed-form counts: listing
every ordered assignment of disjoint index blocks with the prescribed
lengths.  Ordered assignments are generated on purpose (equal-length
blocks appear in every order), because the counting formulas and the
sharpness experiments are stated over the ordered, overcounted family;
:func:`canonical_classes` recovers the deduplicated view.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import CapExceededError
from .exponents import BalancedType, j_max
from .symmetry import MultiIndex, Symmetry, _canonical_order

DEFAULT_CAP = 10**6


def iter_symmetries(t: BalancedType) -> Iterator[Symmetry]:
    """Yield every ordered block assignment of type ``t``.

    Emission is lexicographic on the tuple of blocks (each block a sorted
    index tuple), which makes reports reproducible.  Blocks are coordinate
    masks: the combinations of the remaining coordinates' bits, taken
    smallest coordinate (highest bit) first, come out in that order.
    """
    n = t.n

    def assign(remaining: int, lengths: tuple[int, ...]):
        if not lengths:
            yield ()
            return
        bits = [1 << k for k in range(remaining.bit_length() - 1, -1, -1)
                if remaining >> k & 1]
        for block in map(sum, itertools.combinations(bits, lengths[0])):
            for tail in assign(remaining ^ block, lengths[1:]):
                yield (block,) + tail

    for masks in assign((1 << n) - 1, t.lengths):
        yield Symmetry(n, [MultiIndex(n, m) for m in masks])


def enumerate_symmetries(t: BalancedType, cap: int = DEFAULT_CAP) -> list[Symmetry]:
    """All j_max(t) symmetries of the type, or CapExceededError beyond ``cap``."""
    count = j_max(t)
    if count > cap:
        raise CapExceededError(count, cap)
    fams = list(iter_symmetries(t))
    assert len(fams) == count
    return fams


def canonical_classes(fams: Sequence[Symmetry]) -> list[list[Symmetry]]:
    """Group symmetries that differ only by the order of equal-length blocks.

    For a full balanced family every class has size overcount_factor and
    there are j_max / overcount_factor classes.  Classes are ordered by
    their canonical representative (the tuple of its block masks, which
    orders like the tuple of its 0/1 vectors); members keep their input
    order.
    """
    groups: dict = {}
    for s in fams:
        key = tuple(a.mask for a in _canonical_order(s.alphas))
        groups.setdefault(key, []).append(s)
    return [groups[k] for k in sorted(groups)]

"""Exact exponent and counting formulas for families of block symmetries.

For a family A^1, ..., A^m of maximal rotation-field subsets, the product
of A^J-symmetric nonnegative functions integrates against the normalized
sphere measure below the product of their L^p norms once every p_J reaches
the sharp threshold.  The thresholds are pure occurrence counts:

* uniform exponent p: the largest number of complements (A^J)^c that share
  a single basis field;
* per-function exponent p_J: the same count restricted to fields missing
  from A^J.

A *balanced type* prescribes block lengths a_1 >= ... >= a_N >= 2 with
sum <= n and takes the family of all ordered assignments of disjoint
blocks with those lengths; the remainder r = n - sum(a_i) counts the free
coordinates.  Closed forms then exist for the family size (a multinomial),
the per-edge membership count, the uniform exponent

    p = (n-2)! * (n(n-1) - sum a_i(a_i-1)) / (a_1! ... a_N! r!),

the critical singularity strength 1/p of the extremal family, and the
growth exponent delta of the localized Euclidean inequality.

Everything in this module is integer or rational arithmetic; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .symmetry import Symmetry, _check_dimension

#: Balanced reports materialise one exponent entry per family member only
#: below this family size; beyond it the (constant) list is collapsed to a
#: single entry to keep reports bounded.
REPORT_FAMILY_CAP = 100_000


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part!).  Zero when any part is negative."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        return 0
    total = sum(parts)
    out = 1
    for p in parts:
        out *= math.comb(total, p)
        total -= p
    return out


@dataclass(frozen=True)
class BalancedType:
    """Block length profile (lengths, remainder) on the sphere in R^n."""

    n: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        _check_dimension(self.n)
        object.__setattr__(self, "lengths", tuple(int(a) for a in self.lengths))
        if not self.lengths:
            raise ValueError("a balanced type needs at least one block length")
        if any(a < 2 for a in self.lengths):
            raise ValueError("block lengths must be >= 2")
        if any(self.lengths[i] < self.lengths[i + 1] for i in range(len(self.lengths) - 1)):
            raise ValueError("block lengths must be weakly decreasing")
        if sum(self.lengths) > self.n:
            raise ValueError("block lengths exceed the dimension")
        if self.lengths[0] > self.n - 1:
            raise ValueError("a block covering every coordinate is degenerate")

    @property
    def r_tilde(self) -> int:
        """Number of free (single) coordinates."""
        return self.n - sum(self.lengths)


def _family_edge_counts(fams: Sequence[Symmetry]) -> tuple[list[int], list[int]]:
    """Each member's edge bitset, and per basis field the number of members
    not containing it (indexed by the field's bit, see :mod:`.symmetry`)."""
    if not fams:
        raise ValueError("empty symmetry family")
    n = fams[0].n
    for s in fams:
        if s.n != n:
            raise ValueError(f"family mixes dimensions {n} and {s.n}")
    edge_bits = [s.edge_bits() for s in fams]
    counts = [len(fams)] * math.comb(n, 2)
    for bits in edge_bits:
        while bits:
            low = bits & -bits
            counts[low.bit_length() - 1] -= 1
            bits ^= low
    return edge_bits, counts


def _uniform(counts: list[int]) -> int:
    p = max(counts)
    if p == 0:
        raise ValueError(
            "every field lies in every member; all symmetric functions are constant")
    return p


def _per_function(edge_bits: list[int], counts: list[int]) -> list[int]:
    levels: dict[int, int] = {}  # count -> bitset of the fields with that count
    for k, c in enumerate(counts):
        levels[c] = levels.get(c, 0) | 1 << k
    ranked = sorted(levels.items(), reverse=True)
    out = []
    for j, inside in enumerate(edge_bits):
        p = next((c for c, fields in ranked if fields & ~inside), None)
        if p is None:
            raise ValueError(
                f"family member {j} contains every field; its function is constant")
        out.append(p)
    return out


def uniform_exponent(fams: Sequence[Symmetry]) -> int:
    """Occurrences of the most recurrent field among the complements.

    Counts, for each basis field, how many members of the family do not
    contain it, and returns the maximum.  All C(n,2) fields are scanned;
    fields contained in every member contribute 0 and cannot affect the
    maximum unless it is 0 everywhere, which means every symmetric function
    is constant and is rejected as degenerate.
    """
    return _uniform(_family_edge_counts(fams)[1])


def per_function_exponents(fams: Sequence[Symmetry]) -> list[int]:
    """Sharp exponent of each function: the most recurrent field of its own
    complement.  Degenerate members (full edge set, constant function) have
    an empty complement and are rejected."""
    return _per_function(*_family_edge_counts(fams))


def j_max(t: BalancedType) -> int:
    """Number of ordered block assignments of the given type."""
    return multinomial(list(t.lengths) + [t.r_tilde])


def edge_membership_count(t: BalancedType) -> int:
    """Number of assignments whose edge set contains one fixed edge.

    Fixing the two endpoints inside block i leaves a multinomial on the
    remaining n-2 coordinates; the count is the sum over i.  By symmetry it
    is the same for every edge.
    """
    total = 0
    for i in range(len(t.lengths)):
        parts = list(t.lengths)
        parts[i] -= 2
        total += multinomial(parts + [t.r_tilde])
    return total


def balanced_exponent(t: BalancedType) -> int:
    """Uniform sharp exponent of the full balanced family, in closed form.

    Equals j_max - edge_membership_count; the closed form divides exactly,
    and a failed division means an implementation bug, not bad input.
    """
    n = t.n
    num = math.factorial(n - 2) * (n * (n - 1) - sum(a * (a - 1) for a in t.lengths))
    den = math.prod(math.factorial(a) for a in t.lengths) * math.factorial(t.r_tilde)
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"balanced exponent of {t} is not an integer")
    if q <= 0:
        raise ArithmeticError(f"balanced exponent of {t} is not positive")
    return q


def overcount_factor(t: BalancedType) -> int:
    """Orderings of equal-length blocks: product of multiplicity factorials.

    Ordered assignments overcount unordered symmetries by exactly this
    factor, uniformly across the family."""
    return math.prod(math.factorial(c) for c in Counter(t.lengths).values())


def local_delta(fams: Sequence[Symmetry], exps: Sequence[int]) -> Fraction:
    """Growth exponent of the localized Euclidean inequality.

    delta = n - sum_J (n - |first block of J|) / p_J, evaluated exactly.
    The value is positive whenever ``exps`` are the per-function exponents
    of ``fams``; a nonpositive result flags inconsistent input.
    """
    if len(fams) != len(exps):
        raise ValueError("one exponent per family member required")
    if not fams:
        raise ValueError("empty symmetry family")
    n = fams[0].n
    delta = Fraction(n)
    for s, p in zip(fams, exps):
        if p < 1:
            raise ValueError("exponents must be >= 1")
        delta -= Fraction(n - s.alphas[0].weight, p)
    if delta <= 0:
        raise ValueError(f"delta = {delta} <= 0; exponents are inconsistent with the family")
    return delta


def balanced_local_delta(t: BalancedType) -> Fraction:
    """delta = n - (n - a_1) * j_max / p for the full balanced family."""
    return Fraction(t.n) - Fraction(t.n - t.lengths[0]) * j_max(t) / balanced_exponent(t)


# --- the radial divergence bracket -----------------------------------------
#
# Bounding the product of the extremal functions from below near a pole
# x_n = +-1 and reducing to polar coordinates leaves the 1-d integral
#
#     int_0^1 rho^(n - 2 - gamma * B) (1 - rho^2)^(-1/2) drho,
#
# where B aggregates how often each kind of singular factor appears across
# the family:
#
#     B = (sum_{i>=2} a_i + r) * M(n-1; a_1 - 1, a_2, ..., a_N, r)
#       + sum_{i>=2} (n - a_i) * M(n-1; a_1, ..., a_i - 1, ..., a_N, r)
#       + r (n-1)/n * j_max.
#
# The integral diverges exactly when the rho-exponent is <= -1, so the
# critical strength is gamma = (n-1)/B, and 1/gamma collapses to the
# balanced exponent.


def radial_bracket(t: BalancedType) -> int:
    """The integer B above; always divisible bookkeeping, no rounding."""
    lengths, r, n = t.lengths, t.r_tilde, t.n
    first = list(lengths) + [r]
    first[0] -= 1
    total = (sum(lengths[1:]) + r) * multinomial(first)
    for i in range(1, len(lengths)):
        parts = list(lengths) + [r]
        parts[i] -= 1
        total += (n - lengths[i]) * multinomial(parts)
    if r:
        num = r * (n - 1) * j_max(t)
        q, rem = divmod(num, n)
        if rem:
            raise ArithmeticError("free-coordinate term is not an integer")
        total += q
    return total


def critical_gamma(t: BalancedType) -> Fraction:
    """Singularity strength at which the product integral starts to diverge."""
    return Fraction(t.n - 1, radial_bracket(t))


def critical_gamma_closed_form(t: BalancedType) -> Fraction:
    """Independent route to the critical strength:

    1/gamma = (n-2)!/(a_1! ... a_N! r!) * [sum_i (n - a_i) a_i + (n-1) r].
    """
    n, r = t.n, t.r_tilde
    num = math.factorial(n - 2) * (sum((n - a) * a for a in t.lengths) + (n - 1) * r)
    den = math.prod(math.factorial(a) for a in t.lengths) * math.factorial(r)
    return Fraction(den, num)


# --- counting identities ----------------------------------------------------


def identity_exponent_count(t: BalancedType) -> bool:
    """Closed form == family size minus per-edge membership count."""
    return balanced_exponent(t) == j_max(t) - edge_membership_count(t)


def identity_partition(t: BalancedType) -> bool:
    """Classifying members by how they touch one fixed coordinate partitions
    the family: sum_i M(n-1; ..., a_i - 1, ...) + (r/n) j_max == j_max."""
    total = Fraction(t.r_tilde * j_max(t), t.n)
    for i in range(len(t.lengths)):
        parts = list(t.lengths) + [t.r_tilde]
        parts[i] -= 1
        total += multinomial(parts)
    return total == j_max(t)


def identity_critical_gamma(t: BalancedType) -> bool:
    """1/critical_gamma equals the balanced exponent, along both routes."""
    p = balanced_exponent(t)
    return (
        critical_gamma(t) == Fraction(1, p)
        and critical_gamma_closed_form(t) == Fraction(1, p)
    )


def all_balanced_types(n: int) -> Iterator[BalancedType]:
    """All block length profiles on the sphere in R^n, lexicographically."""

    def profiles(budget: int, max_part: int):
        for k in range(min(budget, max_part), 1, -1):
            for rest in profiles(budget - k, k):
                yield (k,) + rest
            yield (k,)

    for lengths in sorted(profiles(n, n - 1), reverse=True):
        yield BalancedType(n, lengths)


def balanced_types_upto(n_max: int) -> Iterator[BalancedType]:
    for n in range(3, n_max + 1):
        yield from all_balanced_types(n)


# --- aggregated report ------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    """All exponents and counts attached to one family."""

    p_uniform: int
    p_per_function: tuple[int, ...]
    j_count: int
    delta: Fraction
    overcount: int

    def __post_init__(self):
        if any(p > self.p_uniform for p in self.p_per_function):
            raise ValueError("per-function exponents cannot exceed the uniform one")
        if self.p_uniform > self.j_count:
            raise ValueError("the uniform exponent cannot exceed the family size")
        if self.delta <= 0:
            raise ValueError(f"delta = {self.delta} <= 0")


def report_for_type(t: BalancedType) -> ExponentReport:
    """Closed-form report for the full family of a balanced type.

    Every per-function exponent equals the uniform one; the list is
    collapsed to a single entry when the family is larger than
    ``REPORT_FAMILY_CAP``.
    """
    p = balanced_exponent(t)
    jm = j_max(t)
    per = (p,) * jm if jm <= REPORT_FAMILY_CAP else (p,)
    return ExponentReport(
        p_uniform=p,
        p_per_function=per,
        j_count=jm,
        delta=balanced_local_delta(t),
        overcount=overcount_factor(t),
    )


def report_for_family(fams: Sequence[Symmetry]) -> ExponentReport:
    """Report for an explicit family of symmetries.

    The ordering overcount is only meaningful when all members share one
    length profile; mixed families get the neutral factor 1.
    """
    edge_bits, counts = _family_edge_counts(fams)
    per = _per_function(edge_bits, counts)
    profiles = {s.length_profile() for s in fams}
    over = 1
    if len(profiles) == 1:  # a valid type: _per_function rejects a one-block full graph
        over = overcount_factor(BalancedType(fams[0].n, profiles.pop()))
    return ExponentReport(
        p_uniform=_uniform(counts),
        p_per_function=tuple(per),
        j_count=len(fams),
        delta=local_delta(fams, per),
        overcount=over,
    )

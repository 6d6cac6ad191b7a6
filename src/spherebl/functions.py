"""Built-in integrands for the verification experiments.

Everything here is even in each coordinate by construction (dependence is
through squares and block radii only), so the reflection-symmetry
assumption of the product inequalities holds automatically.

The random block invariants of a whole family are one kernel,
:func:`random_block_invariants`: an :class:`IntegrandStack` that fills every
member's row in a few large numpy calls, sharing the block radii the
members have in common.  Its rows are the logarithms of the values, as
for every stack; :func:`random_block_invariant` is exp of its one-member
case, so a function's values do not depend on which form evaluates it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .quadrature import Integrand, IntegrandStack
from .symmetry import Symmetry


def constant_integrand(n: int, value: float = 1.0,
                       tag: Symmetry | None = None) -> Integrand:
    if value < 0:
        raise ValueError("integrands are nonnegative")
    return Integrand(n=n, eval=lambda pts: np.full(len(pts), float(value)),
                     symmetry_tag=tag)


def coordinate_square_integrand(n: int, index: int, offset: float = 0.0,
                                tag: Symmetry | None = None) -> Integrand:
    """offset + x_index^2 (1-based index)."""
    col = index - 1
    return Integrand(n=n, eval=lambda pts: offset + pts[:, col] ** 2,
                     symmetry_tag=tag)


#: Floats of scratch space one :func:`random_block_invariants` evaluation
#: uses; it sets how many member rows are built together.
_SCRATCH_FLOATS = 1 << 16


def random_block_invariants(fams: Sequence[Symmetry], seeds: Sequence[int],
                            amplitude: float = 1.0) -> IntegrandStack:
    """:func:`random_block_invariant` of every ``fams[j]`` with seed
    ``seeds[j]``, as one stack.

    Like every stack, it writes the logarithms of the values: row j is
    member j's exponent sum S_j, whose exp equals the single function's
    values bit for bit, since each member draws its coefficients exactly as
    the single function does.  One evaluation computes the squared block
    radius of every distinct block and the square of every distinct free
    coordinate of the family once, into one small array, then builds each
    member's exponent sum in the single function's term order, a group of
    member rows at a time.
    """
    rows: dict[tuple[int, ...], int] = {}
    index, coeffs = [], []
    for s, seed in zip(fams, seeds, strict=True):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        terms = ([tuple(i - 1 for i in a.support()) for a in s.alphas]
                 + [(i - 1,) for i in s.r_mask.support()])
        coeffs.append(rng.uniform(-amplitude, amplitude, size=len(terms)))
        index.append([rows.setdefault(t, len(rows)) for t in terms])
    width = max(len(ix) for ix in index)
    # members with fewer terms add 0 times an all-zero last row
    idx = np.full((len(index), width), len(rows), dtype=np.intp)
    coef = np.zeros((len(index), width))
    for j, (ix, c) in enumerate(zip(index, coeffs)):
        idx[j, :len(ix)] = ix
        coef[j, :len(c)] = c
    cols = [np.array(t, dtype=int) for t in rows]

    def fill(pts: np.ndarray, out: np.ndarray) -> None:
        m = len(pts)
        u = np.empty((len(cols) + 1, m))
        for row, c in zip(u, cols):
            if len(c) == 1:
                np.square(pts[:, c[0]], out=row)
            else:
                x = pts[:, c]
                x *= x
                x.sum(axis=1, out=row)
        u[-1] = 0.0
        group = max(1, _SCRATCH_FLOATS // max(1, m))
        scratch = np.empty((min(group, len(out)), m))
        for g0 in range(0, len(out), group):
            acc = out[g0:g0 + group]
            ix, cf = idx[g0:g0 + group], coef[g0:g0 + group]
            tmp = scratch[:len(acc)]
            # mode="clip" lets take write into out= without a buffer copy
            np.take(u, ix[:, 0], axis=0, out=acc, mode="clip")
            acc *= cf[:, :1]
            for t in range(1, width):
                np.take(u, ix[:, t], axis=0, out=tmp, mode="clip")
                tmp *= cf[:, t:t + 1]
                acc += tmp

    return IntegrandStack(n=fams[0].n, tags=tuple(fams), fill=fill)


def random_block_invariant(s: Symmetry, seed: int, amplitude: float = 1.0) -> Integrand:
    """A random bounded positive function with the symmetry ``s``.

    Shape: exp(sum_i a_i u_i) where the u_i are the squared block radii and
    the squared free coordinates, and the a_i are uniform in
    [-amplitude, amplitude], drawn from a Philox stream seeded by ``seed``
    (blocks first, then free coordinates).  Values stay within
    e^(+-amplitude * #terms).  This is exp of the one-member case of
    :func:`random_block_invariants`.
    """
    stack = random_block_invariants([s], [seed], amplitude)

    def ev(pts: np.ndarray) -> np.ndarray:
        out = np.empty((1, len(pts)))
        stack.fill(pts, out)
        return np.exp(out[0], out=out[0])

    return Integrand(n=s.n, eval=ev, symmetry_tag=s)


def capped_power_profile(exponent: float):
    """r -> min(1, r^(-exponent)); bounded, integrable tails for small
    exponents, the workhorse of the local growth experiment."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.maximum(np.asarray(r, dtype=float), np.finfo(float).tiny)
        return np.minimum(1.0, r ** (-exponent))

    return profile


def bump_profile(radius: float = 1.0):
    """Compactly supported radial bump (1 - (r/radius)^2)_+ ."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.clip(1.0 - (r / radius) ** 2, 0.0, None)

    return profile

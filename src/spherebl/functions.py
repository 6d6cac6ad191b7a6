"""Built-in integrands for the verification experiments: constants and the
random block invariants of the Holder check.  (The local growth experiment
evaluates its capped power profiles itself, in logarithms.)

Everything here is even in each coordinate by construction (dependence is
through squares and block radii only), so the
reflection-symmetry assumption of the product inequalities holds
automatically.

The random block invariants of a whole family are one kernel,
:func:`random_block_invariants`.  Each member is exp(sum_k C[j, k] x_k^2)
for one row of a (members x n) coefficient matrix C, so the stack it
returns keeps C as :attr:`IntegrandStack.coef` and fills every member's
row with one product of C and the squared points.  Its rows are the
logarithms of the values, as for every stack; the Holder check instead
writes the product and the powers of such a stack from C directly.
:func:`random_block_invariant` is exp of the one-member case, so a
function's values do not depend on which form evaluates it.
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


def random_block_invariants(fams: Sequence[Symmetry], seeds: Sequence[int],
                            amplitude: float = 1.0) -> IntegrandStack:
    """:func:`random_block_invariant` of every ``fams[j]`` with seed
    ``seeds[j]``, as one stack.

    Member j is exp(sum_k C[j, k] x_k^2), where C[j, k] is the coefficient
    member j draws for the block or free coordinate that holds k, exactly
    as the single function draws it.  The stack keeps C as its ``coef``
    and, like every stack, writes the logarithms of the values: row j is
    C[j] times the squared points, whose exp equals the single function's
    values bit for bit.
    """
    coef = np.zeros((len(fams), fams[0].n))
    for row, s, seed in zip(coef, fams, seeds, strict=True):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        terms = [a.support() for a in s.alphas] + [(i,) for i in s.r_mask.support()]
        for c, term in zip(rng.uniform(-amplitude, amplitude, size=len(terms)), terms):
            row[[i - 1 for i in term]] = c
    return IntegrandStack.from_coef(tuple(fams), coef)


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

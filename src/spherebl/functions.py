"""Built-in integrands for the verification experiments: constants and the
random block invariants of the Holder check.  (The local growth experiment
evaluates its capped power profiles itself, in logarithms.)

Everything here is even in each coordinate by construction (dependence is
through squares and block radii only), so the
reflection-symmetry assumption of the product inequalities holds
automatically.

A random block invariant is exp(sum_k c_k x_k^2) for one row c of
coefficients, which it keeps as :attr:`Integrand.coef`.  The Holder check
writes the product and the powers of a set of such functions from their
rows at once; the function's own ``eval`` is exp of the one-row case, so its
values do not depend on which form evaluates it.
"""

from __future__ import annotations

import numpy as np

from .quadrature import Integrand, _square_forms
from .symmetry import Symmetry


def constant_integrand(n: int, value: float = 1.0,
                       tag: Symmetry | None = None) -> Integrand:
    if value < 0:
        raise ValueError("integrands are nonnegative")
    return Integrand(n=n, eval=lambda pts: np.full(len(pts), float(value)),
                     symmetry_tag=tag)


def random_block_invariant(s: Symmetry, seed: int, amplitude: float = 1.0) -> Integrand:
    """A random bounded positive function with the symmetry ``s``.

    Shape: exp(sum_i a_i u_i) where the u_i are the squared block radii and
    the squared free coordinates, and the a_i are uniform in
    [-amplitude, amplitude], drawn from a Philox stream seeded by ``seed``
    (blocks first, then free coordinates).  Values stay within
    e^(+-amplitude * #terms).  The function's ``coef`` is the row c with
    c_k = a_i for every coordinate k of term i, so it is
    exp(sum_k c_k x_k^2).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    terms = [a.support() for a in s.alphas] + [(i,) for i in s.r_mask.support()]
    coef = np.zeros(s.n)
    for c, term in zip(rng.uniform(-amplitude, amplitude, size=len(terms)), terms):
        coef[[i - 1 for i in term]] = c

    def ev(pts: np.ndarray) -> np.ndarray:
        out = np.empty((1, len(pts)))
        _square_forms(coef[None], pts, out)
        return np.exp(out[0], out=out[0])

    return Integrand(n=s.n, eval=ev, symmetry_tag=s, coef=coef)

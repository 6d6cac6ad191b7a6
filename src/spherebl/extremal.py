"""Extremal families and the experiments that witness sharpness.

The extremal function attached to a symmetry with blocks a_1, ..., a_N and
free coordinates R couples a product of singular powers with boundary
singularities:

    f = prod_{i>=2} |x_{a_i}|^(-g |a_i|) * prod_{j in R} |x_j|^(-g)
      + sum_{i>=2} (1 - |x_{a_i}|^2)^(-g (n-|a_i|)/2)
      + sum_{j in R} (1 - x_j^2)^(-g (n-1)/2),

with strength g > 0.  It depends only on the block radii and free
coordinates, so it has the right symmetry.  Its L^p norm is finite exactly
for g*p < 1, and at the critical strength g = 1/p_sharp the integral of
the product over the full balanced family diverges logarithmically, which
is what makes the exponent sharp: any p below p_sharp admits a family with
finite norms and a divergent product integral.

Numerically the singular bases are floored: |x| by max(|x|, eps) and
(1 - |x|^2) by max(., eps^2).  Flooring keeps the integrand total on the
sphere, monotone in eps (smaller eps, larger values), and gives clean 1-d
asymptotics for the truncated norms.  A floor changes a base only where
the base lies below it: on S^2 |x_j| < eps holds for an eps share of the
points, so over a dyadic grid about a quarter of the (eps, point) pairs
see a floor act.  One kernel therefore evaluates a whole eps grid as a
base row, the values under the smallest floor, plus the values at the
pairs where a larger floor acts; every other value of the grid equals
the base value to the last bit, and the experiments raise the base row
and the pairs to their power before they scatter them.  Every grid point
of an experiment is a value series of one estimator pass over one seeded
sample stream (common random numbers), so grid series are exactly
monotone where the integrand is, and a truncated norm that has converged
stops changing to the last bit once eps drops below the sample
resolution.  The local growth experiment likewise draws the unit ball once
and evaluates every radius R on R times those points.

The local growth experiment estimates the ball integral of a product of
capped power profiles pulled back from the coordinate projections; its
log-log slope approaches delta - eta * sum(1/p_J), slightly below the
sharp growth exponent delta, with the gap vanishing as the tail-weight
parameter eta goes to 0.

A sharpness run returns a :class:`DivergenceReport`, a truncated norm scan
a :class:`NormScanReport` and a local growth run a :class:`GrowthReport`;
each experiment checks its grid before it builds a kernel or samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .enumeration import DEFAULT_CAP, enumerate_symmetries
from .exponents import (
    BalancedType,
    balanced_exponent,
    local_delta,
    radial_bracket,
)
from .fitting import fit_line
from .functions import capped_power_profile
from .quadrature import (
    Estimate,
    Integrand,
    QuadConfig,
    ball_volume,
    mc_ball_estimates,
    mc_sphere_estimates,
    _power_transform,
)
from .symmetry import Symmetry


@dataclass(frozen=True)
class ExtremalParams:
    """Singularity strength and truncation floor: gamma must be positive,
    and the floor is checked as a one-point grid (see :func:`_grid`)."""

    gamma: float
    trunc: float

    def __post_init__(self):
        _positive("gamma", self.gamma)
        _grid([self.trunc], 1, descending=True)


def _positive(name: str, value: float) -> float:
    """``value``; the one check that ``name`` (``p``, ``eta``, ``gamma``) is positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


def default_eps_grid() -> list[float]:
    """Geometric truncation grid 2^-3, ..., 2^-20 (decreasing)."""
    return [2.0**-k for k in range(3, 21)]


def default_r_grid() -> list[float]:
    """Geometric radius grid 2^0, ..., 2^10 (increasing)."""
    return [2.0**k for k in range(0, 11)]


def _grid(values: Sequence[float], least: int, descending: bool) -> list[float]:
    """``values`` sorted; raises unless ``least`` or more, all distinct and
    positive, and, for a descending grid of truncation floors, all below
    1/2.  The one owner of these rules: every experiment checks its grid
    here before it samples, :class:`ExtremalParams` its floor, and the
    command line every grid it has parsed."""
    grid = sorted((float(v) for v in values), reverse=descending)
    if len(set(grid)) < max(least, len(grid)):
        raise ValueError(f"need {least} or more grid points, all distinct")
    if not all(v > 0 for v in grid):
        raise ValueError("grid values must be positive")
    if descending and not grid[0] < 0.5:
        raise ValueError("truncation floors must lie below 1/2")
    return grid


def _extremal_kernel(s: Symmetry, gamma: float, eps_grid: Sequence[float]):
    """The truncated extremal integrand of ``s`` at every floor of the
    non-increasing ``eps_grid``, as a base row plus the pairs that differ.

    The returned function maps (m, n) points to ``(base, k_idx, p_idx,
    vals)``: ``base[i]`` is the value at point i under the smallest floor
    ``eps_grid[-1]``, and the value under ``eps_grid[k]`` is ``vals[q]``
    where ``(k_idx[q], p_idx[q]) == (k, i)``, else ``base[i]``;
    :func:`_fill_rows` writes these (len(eps_grid), m) rows.

    A floor eps changes a base b (|x| or a block radius against eps,
    1 - |x|^2 against eps^2) only where b < eps, and then it changes it
    under every larger floor too.  So one ``searchsorted`` per base against
    the ascending floors counts the floors acting on each point, the
    largest count over its bases gives its pairs, and the floored formula
    is evaluated once over all pairs with one floor per pair.  Everywhere
    else max(b, eps) == b, which is the base value bit for bit.  The
    strength and floors are trusted: every caller has checked them.
    """
    n = s.n
    tail = [(np.array([i - 1 for i in a.support()], dtype=int), a.weight)
            for a in s.alphas[1:]]
    singles = np.array([i - 1 for i in s.r_mask.support()], dtype=int)
    grid = np.array(eps_grid, dtype=float)
    num = len(grid)
    # the floors of |x| and of 1 - |x|^2, ascending
    asc, asc2 = grid[::-1].copy(), (grid * grid)[::-1].copy()

    def floored(m: int, blocks, single, eps) -> np.ndarray:
        # eps is one floor (a numpy scalar) or one floor per point
        floor2 = eps * eps
        prod = np.ones(m)
        sums = np.zeros(m)
        for r, rest_b, w in blocks:
            prod = prod * np.maximum(r, eps) ** (-gamma * w)
            sums += np.maximum(rest_b, floor2) ** (-gamma * (n - w) / 2.0)
        if single is not None:
            ax, rest = single
            prod = prod * np.prod(np.maximum(ax, eps[..., None]) ** (-gamma), axis=1)
            sums += (np.maximum(rest, floor2[..., None])
                     ** (-gamma * (n - 1) / 2.0)).sum(axis=1)
        return prod + sums

    def ev(pts: np.ndarray):
        m = len(pts)
        # floors acting on point i: eps_grid[:num - untouched[i]]
        untouched = np.full(m, num)
        blocks = []
        for cols, w in tail:
            r2 = (pts[:, cols] ** 2).sum(axis=1)
            r, rest_b = np.sqrt(r2), 1.0 - r2
            blocks.append((r, rest_b, w))
            np.minimum(untouched, np.searchsorted(asc, r, "right"), out=untouched)
            np.minimum(untouched, np.searchsorted(asc2, rest_b, "right"), out=untouched)
        single = None
        if singles.size:
            x = pts[:, singles]
            single = (np.abs(x), 1.0 - x * x)
            for b, floors in zip(single, (asc, asc2)):
                np.minimum(untouched, np.searchsorted(floors, b, "right").min(axis=1),
                           out=untouched)
        # the last floor is the base's, so no pair needs it
        counts = num - np.maximum(untouched, 1)
        p_idx = np.repeat(np.arange(m), counts)
        k_idx = np.arange(len(p_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
        base = floored(m, blocks, single, grid[-1])
        vals = floored(len(p_idx), [(r[p_idx], rest_b[p_idx], w) for r, rest_b, w in blocks],
                       None if single is None else (single[0][p_idx], single[1][p_idx]),
                       grid[k_idx])
        return base, k_idx, p_idx, vals

    return ev


def _fill_rows(rows: np.ndarray, base: np.ndarray, k_idx: np.ndarray,
               p_idx: np.ndarray, vals: np.ndarray) -> None:
    """Write the (len(eps_grid), m) rows of one :func:`_extremal_kernel`
    result (or of a pointwise function of it) into ``rows``."""
    rows[...] = base
    rows[k_idx, p_idx] = vals


def extremal_function(s: Symmetry, params: ExtremalParams) -> Integrand:
    """The truncated extremal integrand of the symmetry ``s``.

    With a single block the product part runs over the free coordinates
    only and the first sum is empty; with no free coordinates the product
    runs over the tail blocks alone.
    """
    kernel = _extremal_kernel(s, params.gamma, [params.trunc])
    return Integrand(n=s.n, eval=lambda pts: kernel(pts)[0], symmetry_tag=s)


def radial_oracle(t: BalancedType, gamma) -> float | Fraction:
    """Exponent of rho in the polar lower bound for the product integral.

    Returns n - 2 - gamma * B with the occurrence bracket B; the integral
    diverges exactly when this is <= -1.  Exact when ``gamma`` is a
    Fraction, float otherwise.  The strength solving exponent == -1 is
    :func:`spherebl.exponents.critical_gamma`, whose reciprocal is the
    balanced exponent.
    """
    b = radial_bracket(t)
    if isinstance(gamma, Fraction):
        return Fraction(t.n - 2) - gamma * b
    return t.n - 2 - float(gamma) * b


# --- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class NormScanReport:
    """Series and verdict of a truncated norm scan: ``lhs`` holds the p-th
    powers of the norm; ``fit_model`` is "power" (log norm vs log eps) or
    "log" (p-th power vs log(1/eps))."""

    eps_grid: tuple[float, ...]
    lhs: tuple[Estimate, ...]
    fit_model: str
    slope: float
    slope_stderr: float
    classification: str
    gamma: float
    p: float


@dataclass(frozen=True)
class DivergenceReport:
    """Series and verdicts of a sharpness run: ``lhs`` holds the product
    integral, fitted against log(1/eps) (``fit_model`` "log"), and
    ``rhs_norms`` the member norms, one tuple per grid point.  The increment
    decay (see :func:`sharpness_experiment`) gives the log2 slope of the
    increments over the resolved window, its stderr and median per-step
    decay (None when too few levels resolve) and the resolved level count."""

    eps_grid: tuple[float, ...]
    lhs: tuple[Estimate, ...]
    rhs_norms: tuple[tuple[Estimate, ...], ...]
    fit_model: str
    slope: float
    slope_stderr: float
    classification: str
    gamma: float
    p: float
    rhs_converged: bool
    rhs_rel_change: float
    passed: bool
    incr_decay_slope: float | None
    incr_decay_stderr: float | None
    incr_decay_median: float | None
    incr_window_levels: int


@dataclass(frozen=True)
class GrowthReport:
    """Series and fit of a local growth experiment."""

    r_grid: tuple[float, ...]
    lhs: tuple[Estimate, ...]
    fitted_slope: float
    slope_stderr: float
    delta_target: Fraction
    eta: float
    profile_exponents: tuple[float, ...]

    def __post_init__(self):
        if not math.isfinite(self.fitted_slope):
            raise ValueError("fitted slope must be finite")


# --- truncated norm boundary scan -------------------------------------------


def truncated_norm_slope_prediction(n: int, gamma: float, p: float) -> float:
    """Asymptotic log-log slope of the truncated norm ||f_eps||_p vs eps.

    For g*p < 1 the norm converges (slope 0).  For g*p > 1 the blow-up is
    governed by the boundary factors (1 - x^2)^(-g(n-1)/2): flooring them
    at eps^2 leaves a mass eps^(-(n-1)(gp-1)) in the p-th power, hence
    slope -(n-1)(gp-1)/p for the norm itself.  At g*p = 1 the divergence
    is logarithmic and no power slope applies.
    """
    gp = gamma * p
    if gp < 1:
        return 0.0
    if gp == 1:
        raise ValueError("gamma * p == 1 is the logarithmic case")
    return -(n - 1) * (gp - 1) / p


def norm_boundary_scan(s: Symmetry, gamma: float, p: float,
                       eps_grid: Sequence[float], cfg: QuadConfig) -> NormScanReport:
    """Scan the truncated norm of one extremal function across ``eps_grid``.

    The series stores ||f_eps||_p^p estimates; the fit is on the norm:
    log ||f_eps||_p against log eps ("power" model), except at g*p == 1
    where ||f_eps||_p^p is fitted against log(1/eps) ("log" model).
    """
    eps_grid = _grid(eps_grid, 3, descending=True)
    _positive("p", p)
    ExtremalParams(gamma, eps_grid[-1])  # raises unless gamma > 0
    kernel = _extremal_kernel(s, gamma, eps_grid)

    def fill(pts: np.ndarray, out: np.ndarray) -> None:
        base, k_idx, p_idx, vals = kernel(pts)
        _fill_rows(out, base ** p, k_idx, p_idx, vals ** p)

    raw = mc_sphere_estimates(s.n, cfg, fill, len(eps_grid))

    log_case = abs(gamma * p - 1.0) < 1e-12
    if log_case:
        fit = fit_line(np.log(1.0 / np.array(eps_grid)), [e.value for e in raw])
        model = "log"
        classification = ("divergent-log" if fit.slope > 3 * fit.slope_stderr
                          else "converged")
    else:
        norms = [_power_transform(e, p) for e in raw]
        fit = fit_line(np.log(np.array(eps_grid)), np.log([e.value for e in norms]))
        model = "power"
        classification = "converged" if abs(fit.slope) <= 0.1 else "divergent-power"

    return NormScanReport(
        eps_grid=tuple(eps_grid),
        lhs=tuple(raw),
        fit_model=model,
        slope=fit.slope,
        slope_stderr=fit.slope_stderr,
        classification=classification,
        gamma=gamma,
        p=p,
    )


# --- sharpness experiment ----------------------------------------------------

#: Increments of a log-divergent series are constant per dyadic step, while
#: a convergent truncated integral has increments decaying like eps^theta.
#: The classifier separates the two by the log2 decay rate of the increments
#: over the resolved window; -1/6 sits between the transient decay observed
#: at criticality (>= -0.10 at 10^6 samples) and the slowest admissible
#: convergent rate (theta >= 0.2 gives <= -0.2).
INCREMENT_DECAY_THRESHOLD = -1.0 / 6.0

#: Dyadic pole annuli at scale rho hold samples once samples * rho^(n-1)
#: is a few; below that scale the estimates freeze and increments carry no
#: information.  The resolved window keeps eps >= (4/samples)^(1/(n-1)).
_RESOLUTION_CONSTANT = 4.0

#: Minimum resolved increments for the decay diagnostic to be meaningful.
_MIN_DECAY_POINTS = 4


def _increment_decay(eps_grid, values, samples, n):
    """Log2 decay rate of the series increments over the resolved window.

    Returns (fit, median, levels); fit is None when fewer than
    ``_MIN_DECAY_POINTS`` resolved increments exist.
    """
    floor = (_RESOLUTION_CONSTANT / samples) ** (1.0 / (n - 1))
    eps = np.asarray(eps_grid)
    vals = np.asarray(values)
    keep = eps >= floor
    levels = int(keep.sum())
    diffs = np.diff(vals[keep])
    if len(diffs) < _MIN_DECAY_POINTS or np.any(diffs <= 0):
        return None, None, levels
    x = np.log2(1.0 / eps[keep][1:])
    y = np.log2(diffs)
    fit = fit_line(x, y)
    median = float(np.median(np.diff(y) / np.diff(x)))
    return fit, median, levels


def _sharpness_gamma(t: BalancedType, p: float, gamma: float | None) -> float:
    """The strength of a sharpness run, ``gamma`` or by default 1/p_sharp of
    ``t``; the one check that gamma * p < 1, which keeps every norm finite."""
    g = float(gamma) if gamma is not None else 1.0 / balanced_exponent(t)
    if g * p >= 1.0 + 1e-12:
        raise ValueError(f"gamma * p = {g * p} >= 1 makes every norm infinite")
    return g


def sharpness_experiment(t: BalancedType, p: float, cfg: QuadConfig,
                         eps_grid: Sequence[float] | None = None,
                         gamma: float | None = None,
                         cap: int = DEFAULT_CAP) -> DivergenceReport:
    """Divergence run over the full balanced family.

    With the default strength gamma = 1/p_sharp, any p below the sharp
    exponent keeps every norm finite (g*p < 1) while the product integral
    sits exactly at the logarithmic divergence threshold.  The report
    carries (a) whether the norms have stabilised (relative change of the
    last two grid points below 5 percent) and (b) the divergence verdict;
    ``passed`` is the conjunction.  Passing an explicit subcritical
    ``gamma`` turns the run into a negative control that should classify
    as converged.

    The verdict combines two statistics.  The level fit (value against
    log(1/eps), full grid) must have slope positive at 3 sigma; that alone
    cannot tell a true log divergence from the slow transient of a barely
    subcritical run, because below the Monte Carlo resolution scale both
    series freeze.  The increments per dyadic step break the tie: constant
    for log growth, geometrically decaying for a convergent integral, so
    the run classifies as divergent only when their log2 decay rate over
    the resolved window stays above :data:`INCREMENT_DECAY_THRESHOLD`.
    When too few resolved increments exist the level test alone decides.
    """
    eps_grid = _grid(default_eps_grid() if eps_grid is None else eps_grid, 3,
                     descending=True)
    g = _sharpness_gamma(t, _positive("p", p), gamma)
    ExtremalParams(g, eps_grid[-1])  # raises unless g > 0

    fams = enumerate_symmetries(t, cap=cap)
    kernels = [_extremal_kernel(s, g, eps_grid) for s in fams]
    width = 1 + len(fams)

    def fill(pts: np.ndarray, out: np.ndarray) -> None:
        out = out.reshape(len(eps_grid), width, len(pts))
        parts = [k(pts) for k in kernels]
        for j, (base, k_idx, p_idx, vals) in enumerate(parts):
            _fill_rows(out[:, 1 + j, :], base, k_idx, p_idx, vals)
        # the product of the member rows, taken in member order
        np.multiply.reduce(out[:, 1:, :], axis=1, out=out[:, 0, :])
        # p-th powers: one of each base, broadcast, and one of the pairs
        for j, (base, k_idx, p_idx, vals) in enumerate(parts):
            _fill_rows(out[:, 1 + j, :], base ** p, k_idx, p_idx, vals ** p)

    ests = mc_sphere_estimates(t.n, cfg, fill, len(eps_grid) * width)
    lhs = [ests[k * width] for k in range(len(eps_grid))]
    norms = [tuple(_power_transform(e, p) for e in ests[k * width + 1:(k + 1) * width])
             for k in range(len(eps_grid))]

    last, prev = norms[-1], norms[-2]
    rel_change = max(
        abs(a.value - b.value) / b.value if b.value else 0.0
        for a, b in zip(last, prev)
    )
    rhs_converged = rel_change < 0.05

    fit = fit_line(np.log(1.0 / np.array(eps_grid)), [e.value for e in lhs])
    level_positive = fit.slope > 3 * fit.slope_stderr
    decay_fit, decay_median, levels = _increment_decay(
        eps_grid, [e.value for e in lhs], cfg.samples, t.n)
    if decay_fit is None:
        divergent = level_positive
    else:
        divergent = level_positive and decay_fit.slope >= INCREMENT_DECAY_THRESHOLD
    return DivergenceReport(
        eps_grid=tuple(eps_grid),
        lhs=tuple(lhs),
        rhs_norms=tuple(norms),
        fit_model="log",
        slope=fit.slope,
        slope_stderr=fit.slope_stderr,
        classification="divergent-log" if divergent else "converged",
        gamma=g,
        p=p,
        rhs_converged=rhs_converged,
        rhs_rel_change=rel_change,
        passed=bool(rhs_converged and divergent),
        incr_decay_slope=None if decay_fit is None else decay_fit.slope,
        incr_decay_stderr=None if decay_fit is None else decay_fit.slope_stderr,
        incr_decay_median=decay_median,
        incr_window_levels=levels,
    )


# --- local growth experiment --------------------------------------------------

#: Fraction of leading radius grid points excluded from the growth fit; the
#: capped profiles are identically 1 on the unit ball, so the series only
#: reaches its power law after a transient.
GROWTH_FIT_TAIL = 0.5


def local_growth_experiment(fams: Sequence[Symmetry], exps: Sequence[int],
                            eta: float, r_grid: Sequence[float],
                            cfg: QuadConfig,
                            profiles: Sequence[Callable] | None = None) -> GrowthReport:
    """Estimate the growth of the localized product integral over balls.

    Each member J contributes the pullback of a radial profile of
    |projection onto its non-block coordinates|; by default the profile is
    min(1, r^(-s_J)) with s_J = (d_J + eta)/p_J, d_J the projection
    dimension, so every norm on the right-hand side is finite and the
    expected asymptotic slope is delta - eta * sum(1/p_J).  The slope is
    fitted over the trailing half of the radius grid (log-log OLS).
    """
    r_grid = _grid(r_grid, 4, descending=False)
    _positive("eta", eta)
    n = fams[0].n
    delta = local_delta(fams, exps)

    free_cols = [np.array([i - 1 for i in s.alphas[0].complement().support()],
                          dtype=int) for s in fams]
    s_exps = [(len(cols) + eta) / p for cols, p in zip(free_cols, exps)]
    if profiles is None:
        profiles = [capped_power_profile(se) for se in s_exps]
    elif len(profiles) != len(fams):
        raise ValueError("one profile per family member required")

    # one draw of the unit ball serves every radius: the points of the ball
    # of radius R are R times those of the unit ball, and so are their
    # projection radii (exact for dyadic R)
    def fill(pts: np.ndarray, out: np.ndarray) -> None:
        out.fill(1.0)
        for cols, prof in zip(free_cols, profiles):
            r = np.sqrt((pts[:, cols] ** 2).sum(axis=1)) if cols.size else np.zeros(len(pts))
            for row, radius in zip(out, r_grid):
                row *= prof(radius * r)

    lhs = mc_ball_estimates(n, 1.0, cfg, fill, len(r_grid),
                            volumes=[ball_volume(n, radius) for radius in r_grid])

    tail = max(3, int(math.ceil(len(r_grid) * GROWTH_FIT_TAIL)))
    xs = np.log(np.array(r_grid[-tail:]))
    ys = np.log(np.array([max(e.value, np.finfo(float).tiny)
                          for e in lhs[-tail:]]))
    fit = fit_line(xs, ys)

    return GrowthReport(
        r_grid=tuple(r_grid),
        lhs=tuple(lhs),
        fitted_slope=fit.slope,
        slope_stderr=fit.slope_stderr,
        delta_target=delta,
        eta=eta,
        profile_exponents=tuple(s_exps),
    )

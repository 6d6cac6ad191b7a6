import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spherebl import (
    BalancedType,
    EdgeSet,
    ExtremalParams,
    QuadConfig,
    balanced_exponent,
    critical_gamma,
    decompose,
    default_eps_grid,
    default_r_grid,
    enumerate_symmetries,
    extremal_function,
    fit_line,
    local_growth_experiment,
    mc_ball_estimates,
    mc_sphere_estimates,
    norm_boundary_scan,
    per_function_exponents,
    sample_sphere,
    sharpness_experiment,
)
from spherebl.errors import NonFiniteSampleError
from spherebl.exponents import radial_bracket
from spherebl.extremal import _extremal_kernel
from spherebl.quadrature import _power_transform, _reduce
from oracles import radial_lower_bound_exponent, truncated_extremal_norm_p, written

CFG = QuadConfig(samples=200_000, seed=314, shards=4)


class TestExtremalFunction:
    def test_single_block_on_3(self):
        # one block, one free coordinate: f = |x3|^-g + (1-x3^2)^-g
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        f = extremal_function(s, ExtremalParams(gamma=0.5, trunc=0.01))
        pts = np.array([[0.6, 0.0, 0.8], [0.8, 0.6, 0.0]])
        vals = f.eval(pts)
        assert vals[0] == pytest.approx(0.8 ** -0.5 + (1 - 0.64) ** -0.5)
        # second point hits both floors: |x3| -> 0.01, 1-x3^2 stays 1
        assert vals[1] == pytest.approx(0.01 ** -0.5 + 1.0)

    def test_single_block_on_4_two_free(self):
        s = decompose(EdgeSet.of(4, [(1, 2)]))
        g = 0.5
        f = extremal_function(s, ExtremalParams(gamma=g, trunc=0.01))
        pt = np.array([[0.5, 0.5, 0.5, 0.5]])
        expected = (0.5 ** -g) ** 2 + 2 * (1 - 0.25) ** (-g * 3 / 2)
        assert f.eval(pt)[0] == pytest.approx(expected)

    def test_two_blocks_with_free(self):
        # blocks {1,2},{3,4} on n=5, free coordinate 5: tail block 2
        # contributes both the radial power and a boundary term
        s = decompose(EdgeSet.of(5, [(1, 2), (3, 4)]))
        g = 0.3
        f = extremal_function(s, ExtremalParams(gamma=g, trunc=0.01))
        x = np.array([[0.1, 0.2, 0.3, 0.4, math.sqrt(1 - 0.3)]])
        r2 = 0.09 + 0.16
        expected = ((math.sqrt(r2)) ** (-2 * g) * (x[0, 4]) ** (-g)
                    + (1 - r2) ** (-g * 3 / 2) + (1 - x[0, 4] ** 2) ** (-g * 2))
        assert f.eval(x)[0] == pytest.approx(expected)

    def test_truncation_inactive_beyond_floor(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        a = extremal_function(s, ExtremalParams(gamma=0.4, trunc=0.01))
        b = extremal_function(s, ExtremalParams(gamma=0.4, trunc=0.001))
        pts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
        assert np.allclose(a.eval(pts), b.eval(pts))

    def test_monotone_in_trunc(self):
        s = decompose(EdgeSet.of(4, [(1, 2), (3, 4)]))
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((500, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        coarse = extremal_function(s, ExtremalParams(gamma=0.3, trunc=0.1)).eval(pts)
        fine = extremal_function(s, ExtremalParams(gamma=0.3, trunc=0.01)).eval(pts)
        assert np.all(fine >= coarse - 1e-12)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ExtremalParams(gamma=0.0, trunc=0.1)
        with pytest.raises(ValueError):
            ExtremalParams(gamma=0.5, trunc=0.6)

    def test_mc_norm_matches_1d_oracle(self):
        # n=3 single-edge symmetry: the truncated p-norm reduces exactly to
        # a 1-d integral; Monte Carlo must agree within 3 sigma
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        for gamma, p, eps in [(0.25, 2.0, 1 / 64), (0.45, 1.8, 1 / 32)]:
            f = extremal_function(s, ExtremalParams(gamma=gamma, trunc=eps))

            def power(pts, out, f=f, p=p):
                out[0] = f.eval(pts) ** p

            est = mc_sphere_estimates(3, CFG, power, 1)[0]
            exact = truncated_extremal_norm_p(gamma, p, eps)
            assert abs(est.value - exact) <= 3 * est.stderr


class TestRadialOracle:
    def test_exact_critical_values(self):
        assert critical_gamma(BalancedType(3, (2,))) == Fraction(1, 2)
        assert critical_gamma(BalancedType(4, (2, 2))) == Fraction(1, 4)

    def test_exponent_at_critical_is_minus_one(self):
        for t in [BalancedType(3, (2,)), BalancedType(4, (2, 2)), BalancedType(5, (3, 2))]:
            g = critical_gamma(t)
            assert radial_lower_bound_exponent(t.n, g, radial_bracket(t)) == Fraction(-1)

    def test_float_evaluation(self):
        t = BalancedType(3, (2,))
        assert radial_lower_bound_exponent(t.n, 0.45, radial_bracket(t)) == pytest.approx(
            1 - 0.45 * 4)

    def test_reciprocal_matches_exponent_to_8(self):
        from spherebl import balanced_types_upto
        for t in balanced_types_upto(8):
            assert 1 / critical_gamma(t) == balanced_exponent(t)


class TestNormBoundaryScan:
    GRID = [2.0 ** -k for k in range(4, 10)]

    def test_convergent_slope_zero(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        rep = norm_boundary_scan(s, gamma=0.25, p=2.0, eps_grid=self.GRID, cfg=CFG)
        assert rep.fit_model == "power"
        assert rep.classification == "converged"
        assert abs(rep.slope) <= 0.1

    def test_divergent_slope(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        rep = norm_boundary_scan(s, gamma=0.75, p=2.0, eps_grid=self.GRID, cfg=CFG)
        assert rep.classification == "divergent-power"
        assert abs(rep.slope - (-0.5)) <= 0.1 + 3 * rep.slope_stderr

    def test_slope_matches_1d_oracle(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        rep = norm_boundary_scan(s, gamma=0.75, p=2.0, eps_grid=self.GRID, cfg=CFG)
        oracle_vals = [truncated_extremal_norm_p(0.75, 2.0, e) for e in self.GRID]
        oracle = fit_line(np.log(self.GRID), 0.5 * np.log(oracle_vals))
        assert abs(rep.slope - oracle.slope) <= 0.05

    def test_log_case_uses_log_model(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        rep = norm_boundary_scan(s, gamma=0.5, p=2.0, eps_grid=self.GRID, cfg=CFG)
        assert rep.fit_model == "log"
        assert rep.classification == "divergent-log"

    def test_monotone_series(self):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        rep = norm_boundary_scan(s, gamma=0.6, p=2.0, eps_grid=self.GRID, cfg=CFG)
        vals = [e.value for e in rep.lhs]  # eps decreasing, shared samples
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_nonpositive_p_rejected(self, p):
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        with pytest.raises(ValueError, match="p must be positive"):
            norm_boundary_scan(s, gamma=0.25, p=p, eps_grid=self.GRID, cfg=CFG)


class TestSharpness:
    def test_critical_run_detects_divergence(self):
        rep = sharpness_experiment(BalancedType(3, (2,)), p=1.8,
                                   cfg=QuadConfig(samples=300_000, seed=8, shards=4),
                                   gamma=0.5)
        assert rep.rhs_converged
        assert rep.classification == "divergent-log"
        assert rep.slope > 3 * rep.slope_stderr
        assert rep.passed

    def test_subcritical_control_converges(self):
        rep = sharpness_experiment(BalancedType(3, (2,)), p=2.0,
                                   cfg=QuadConfig(samples=300_000, seed=8, shards=4),
                                   gamma=0.45)
        assert rep.classification == "converged"
        assert not rep.passed

    def test_infinite_norms_rejected(self):
        # gamma * p = 1 is rejected too: with the default gamma = 1/2, and
        # where (1/49) * 49 rounds to just below 1
        for p, gamma in [(2.5, 0.5), (2.0, None), (49.0, 1 / 49)]:
            with pytest.raises(ValueError, match="makes every norm infinite"):
                sharpness_experiment(BalancedType(3, (2,)), p=p, cfg=CFG, gamma=gamma)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError, match="p must be positive"):
            sharpness_experiment(BalancedType(3, (2,)), p=0.0, cfg=CFG)

    def test_default_gamma_is_reciprocal_exponent(self):
        rep = sharpness_experiment(BalancedType(3, (2,)), p=1.8,
                                   cfg=QuadConfig(samples=100_000, seed=3, shards=2),
                                   eps_grid=[2.0 ** -k for k in range(3, 9)])
        assert rep.gamma == pytest.approx(0.5)

    def test_lhs_monotone(self):
        rep = sharpness_experiment(BalancedType(3, (2,)), p=1.8,
                                   cfg=QuadConfig(samples=100_000, seed=3, shards=2),
                                   eps_grid=[2.0 ** -k for k in range(3, 9)])
        vals = [e.value for e in rep.lhs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_report_round_trip(self):
        rep = sharpness_experiment(BalancedType(3, (2,)), p=1.8,
                                   cfg=QuadConfig(samples=100_000, seed=3, shards=2),
                                   eps_grid=[2.0 ** -k for k in range(3, 9)])
        text = written(rep)
        d = json.loads(text)
        assert json.dumps(d, indent=2) == text
        assert [e["value"] for e in d["lhs"]] == [e.value for e in rep.lhs]

    def test_holder_holds_along_divergent_family(self):
        # at p equal to the sharp exponent and critical strength (g*p = 1)
        # both sides blow up together: the inequality holds for every floor
        from spherebl import holder_verify
        t = BalancedType(3, (2,))
        fams = enumerate_symmetries(t)
        for eps in (2.0 ** -4, 2.0 ** -8, 2.0 ** -12):
            fs = [extremal_function(s, ExtremalParams(gamma=0.5, trunc=eps))
                  for s in fams]
            rec = holder_verify(fams, fs, [2.0] * 3, CFG)
            assert rec.passed, eps


class TestTruncatedNormRates:
    def test_ratio_approaches_grid_power(self):
        # successive truncated norms along a dyadic grid approach the ratio
        # 2^(gp-1) in the divergent regime (n=3, p=2) and 1 when convergent;
        # stay above the boundary-slab resolution (samples * eps^2 >> 1)
        s = decompose(EdgeSet.of(3, [(1, 2)]))
        cfg = QuadConfig(samples=1_000_000, seed=314, shards=4)
        grid = [2.0 ** -k for k in range(4, 8)]
        rep = norm_boundary_scan(s, gamma=0.75, p=2.0, eps_grid=grid, cfg=cfg)
        norms = [e.value ** 0.5 for e in rep.lhs]
        tail_ratio = norms[-1] / norms[-2]
        assert abs(tail_ratio - 2.0 ** 0.5) <= 0.1 * 2.0 ** 0.5
        rep0 = norm_boundary_scan(s, gamma=0.25, p=2.0, eps_grid=grid, cfg=cfg)
        norms0 = [e.value ** 0.5 for e in rep0.lhs]
        assert abs(norms0[-1] / norms0[-2] - 1.0) <= 0.01


class TestLocalGrowth:
    def test_capped_power_slope_in_window(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        exps = per_function_exponents(fams)
        rep = local_growth_experiment(fams, exps, eta=0.1,
                                      r_grid=default_r_grid(),
                                      cfg=QuadConfig(samples=300_000, seed=21, shards=4))
        assert rep.delta_target == Fraction(3, 2)
        # asymptotic slope is delta - eta * sum(1/p_J) = 1.35
        assert 1.2 <= rep.fitted_slope <= 1.6
        assert rep.fitted_slope <= float(rep.delta_target) + 3 * rep.slope_stderr

    def test_report_round_trip(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        exps = per_function_exponents(fams)
        rep = local_growth_experiment(fams, exps, eta=0.2,
                                      r_grid=[1.0, 2.0, 4.0, 8.0, 16.0],
                                      cfg=QuadConfig(samples=10_000, seed=4, shards=2))
        text = written(rep)
        d = json.loads(text)
        assert json.dumps(d, indent=2) == text
        assert [e["value"] for e in d["lhs"]] == [e.value for e in rep.lhs]

    @staticmethod
    def growth_fill(monkeypatch, fams, grid):
        """The fill that local_growth_experiment hands the estimator for
        ``grid``, with the run's report."""
        import spherebl.extremal as extremal
        estimator = extremal.mc_ball_estimates
        fills = []

        def spy(dim, radius, cfg, fill, num_series, volumes):
            fills.append(fill)
            return estimator(dim, radius, cfg, fill, num_series, volumes=volumes)

        monkeypatch.setattr(extremal, "mc_ball_estimates", spy)
        rep = local_growth_experiment(fams, per_function_exponents(fams), eta=0.1,
                                      r_grid=grid, cfg=QuadConfig(samples=2000, seed=5, shards=2))
        return fills[0], rep

    @pytest.mark.parametrize("edges", [
        None,  # type (3; 2): s_J = 0.55 for every member
        # s_J = 0.55, 1.05, 0.55: projections of dimension 1, 2 and 1
        ([(1, 2), (2, 3), (1, 3)], [(1, 4)], [(2, 4), (3, 4), (2, 3)]),
    ], ids=["type", "family"])
    def test_fill_matches_the_capped_profiles(self, monkeypatch, edges):
        # the fill works in logarithms: row R is exp(x) for a sum x of
        # -s_J max(0, log R + log r_J), whose rounding error is a few ulps
        # of |x|, and exp turns that into a relative error; so every row
        # stays within four ulps of 1 + |x| of prod_J min(1, (R r_J)^(-s_J))
        # computed directly (5e-15 and 7e-15 measured at R = 1e5, where |x|
        # reaches 12 and 25), on a grid whose radii are not powers of two
        if edges is None:
            fams = enumerate_symmetries(BalancedType(3, (2,)))
        else:
            fams = [decompose(EdgeSet.of(4, e)) for e in edges]
        n = fams[0].n
        grid = [1.0, 3.0, 10.0, 1e3, 1e5]
        fill, rep = self.growth_fill(monkeypatch, fams, grid)
        if edges is not None:
            assert rep.profile_exponents == pytest.approx((0.55, 1.05, 0.55), rel=1e-15)
        # points of the unit ball, the origin and the unit vectors among them
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((50_000, n))
        pts *= (rng.uniform(size=50_000) ** (1 / n) / np.linalg.norm(pts, axis=1))[:, None]
        pts = np.vstack([np.zeros(n), np.eye(n), pts])
        out = np.empty((len(grid), len(pts)))
        fill(pts, out)
        assert (out[0] == 1.0).all()  # R = 1: every r_J <= 1, no cap acts
        eps = np.finfo(float).eps
        for row, radius in zip(out, grid):
            ref = np.ones(len(pts))
            for s, se in zip(fams, rep.profile_exponents):
                cols = [i - 1 for i in s.alphas[0].complement().support()]
                r = np.maximum(radius * np.sqrt((pts[:, cols] ** 2).sum(axis=1)),
                               np.finfo(float).tiny)
                with np.errstate(over="ignore"):  # tiny^(-s) at the origin
                    ref *= np.minimum(1.0, r ** -se)
            assert np.all(np.abs(row - ref) <= 4 * eps * (1 - np.log(ref)) * ref)

    def test_fill_allocates_no_block_of_its_own(self, monkeypatch):
        # the fill works one member and one radius at a time in (m,) arrays:
        # its peak allocation stays below the (series, m) block it writes
        import tracemalloc
        fill, _ = self.growth_fill(monkeypatch, enumerate_symmetries(BalancedType(3, (2,))),
                                   default_r_grid())
        pts = np.random.default_rng(6).uniform(-0.5, 0.5, (20_000, 3))
        out = np.empty((len(default_r_grid()), len(pts)))
        tracemalloc.start()
        try:
            fill(pts, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 2


def test_default_grids():
    eps = default_eps_grid()
    assert eps[0] == 0.125 and eps[-1] == 2.0 ** -20 and len(eps) == 18
    rs = default_r_grid()
    assert rs[0] == 1.0 and rs[-1] == 1024.0 and len(rs) == 11


def _reference_extremal(s, gamma, eps, pts):
    """The extremal integrand evaluated one floor at a time, term by term."""
    n = s.n
    prod = np.ones(len(pts))
    sums = np.zeros(len(pts))
    for a in s.alphas[1:]:
        r2 = (pts[:, [i - 1 for i in a.support()]] ** 2).sum(axis=1)
        prod = prod * np.maximum(np.sqrt(r2), eps) ** (-gamma * a.weight)
        sums += np.maximum(1.0 - r2, eps * eps) ** (-gamma * (n - a.weight) / 2.0)
    singles = [i - 1 for i in s.r_mask.support()]
    if singles:
        x = pts[:, singles]
        prod = prod * np.prod(np.maximum(np.abs(x), eps) ** (-gamma), axis=1)
        sums += (np.maximum(1.0 - x * x, eps * eps) ** (-gamma * (n - 1) / 2.0)).sum(axis=1)
    return prod + sums


def _bases(s, pts):
    """The singular bases of ``s`` at ``pts``: |x| and the tail block radii,
    and 1 - |x|^2 of each of them."""
    bases, bases2 = [], []
    for a in s.alphas[1:]:
        r2 = (pts[:, [i - 1 for i in a.support()]] ** 2).sum(axis=1)
        bases.append(np.sqrt(r2))
        bases2.append(1.0 - r2)
    for j in s.r_mask.support():
        x = pts[:, j - 1]
        bases.append(np.abs(x))
        bases2.append(1.0 - x * x)
    return bases, bases2


def _acting_pairs(s, grid, pts):
    """Every (k, i) with k < len(grid) - 1 where some base of point i lies
    below floor k (|x| and block radii against eps, 1 - |x|^2 against
    eps^2), in point-major order."""
    bases, bases2 = _bases(s, pts)
    return [(k, i) for i in range(len(pts)) for k, eps in enumerate(grid[:-1])
            if any(b[i] < eps for b in bases) or any(b[i] < eps * eps for b in bases2)]


def _active_points(members, eps, pts):
    """Mask of the points where some base of some member lies below the
    floor ``eps``."""
    mask = np.zeros(len(pts), dtype=bool)
    for s in members:
        bases, bases2 = _bases(s, pts)
        for b in bases:
            mask |= b < eps
        for b in bases2:
            mask |= b < eps * eps
    return mask


def _fill_rows(rows, base, k_idx, p_idx, vals):
    """Write the (len(eps_grid), m) rows of one :func:`_extremal_kernel`
    result into ``rows``."""
    rows[...] = base
    rows[k_idx, p_idx] = vals


#: four squares summing to 4^e - 1, so that 1 - |x|^2 of a block is 4^-e
_FOUR_SQUARES = {3: (7, 3, 2, 1), 10: (1023, 43, 14, 1)}


def _rows_on_a_floor(s, e):
    """Points (off the sphere) each with a base exactly on the floor 2^-e
    and every other base above it: every |x_j|, one tail block radius, or
    1 - |x|^2 of one tail block against 4^-e."""
    rows = [np.full(s.n, 2.0 ** -e)]
    for a in s.alphas[1:]:
        cols = [i - 1 for i in a.support()]
        rows.append(np.full(s.n, 0.3))
        rows[-1][cols] = 0.0
        rows[-1][cols[0]] = 2.0 ** -e
        if len(cols) >= 4:
            rows.append(np.full(s.n, 0.3))
            rows[-1][cols] = 0.0
            rows[-1][cols[:4]] = [c * 2.0 ** -e for c in _FOUR_SQUARES[e]]
    return np.array(rows)


# every shard is one chunk of every pass below, so sums are taken over the
# same points in the same order whatever the number of series
FUSED_CFG = QuadConfig(samples=40_000, seed=61, shards=4)
FUSED_GRID = [2.0 ** -k for k in range(3, 21)]


def _sharpness_rows(fs, p):
    """The series of one sharpness pass at one floor: the product of the
    member values, taken in member order, and each member's p-th power."""
    def rows(pts):
        vals = [f.eval(pts) for f in fs]
        prod = vals[0]
        for v in vals[1:]:
            prod = prod * v
        return np.stack([prod] + [v ** p for v in vals])
    return rows


def _per_eps_pass(n, cfg, rows, num_series, active=None):
    """One estimator pass over the series ``rows(pts)`` of one floor.  Given
    ``active(pts)``, a mask of points, the fill writes the values at those
    points into the leading columns and reduces the others itself, as the
    fused grid passes do; otherwise it writes every value."""
    def fill(pts, out):
        vals = rows(pts)
        if active is None:
            out[...] = vals
            return None
        mask = active(pts)
        out[:, :mask.sum()] = vals[:, mask]
        # row by row, as the fused passes: vals[:, ~mask] would be laid out
        # column by column, and numpy would sum its rows in another order
        return _reduce(np.compress(~mask, vals, axis=1))

    return mc_sphere_estimates(n, cfg, fill, num_series)


def _assert_close(fused, dense, value_tol, stderr_tol):
    """Estimates that differ only in the last bits of their sums."""
    for a, b in zip(fused, dense):
        assert math.isfinite(a.value) and math.isfinite(a.stderr)
        assert a.value == pytest.approx(b.value, rel=value_tol, abs=0.0)
        assert a.stderr == pytest.approx(b.stderr, rel=stderr_tol, abs=0.0)


def _assert_sharpness_series_equal_per_eps_passes(t, p, gamma, cfg, grid=FUSED_GRID,
                                                  tol=(1e-13, 1e-12)):
    """The fused sharpness run equals bit for bit one pass per floor that
    reduces the same two sets of points apart (where the largest floor acts
    on some member, and elsewhere), each taking the product of the member
    values in member order; and it equals a plain pass per floor to the
    last bits of its sums."""
    rep = sharpness_experiment(t, p=p, cfg=cfg, eps_grid=grid, gamma=gamma)
    fams = enumerate_symmetries(t)
    for k, eps in enumerate(grid):
        fs = [extremal_function(s, ExtremalParams(gamma=gamma, trunc=eps)) for s in fams]
        rows = _sharpness_rows(fs, p)
        split = _per_eps_pass(t.n, cfg, rows, 1 + len(fams),
                              lambda pts: _active_points(fams, grid[0], pts))
        assert rep.lhs[k] == split[0], eps
        assert rep.rhs_norms[k] == tuple(_power_transform(e, p) for e in split[1:]), eps
        dense = _per_eps_pass(t.n, cfg, rows, 1 + len(fams))
        _assert_close([rep.lhs[k], *rep.rhs_norms[k]],
                      [dense[0], *(_power_transform(e, p) for e in dense[1:])], *tol)


def _assert_norm_scan_series_equal_per_eps_passes(s, gamma, p, cfg, grid=FUSED_GRID,
                                                  tol=(1e-13, 1e-12)):
    """The fused scan against per-floor passes, as the sharpness run in
    :func:`_assert_sharpness_series_equal_per_eps_passes`."""
    rep = norm_boundary_scan(s, gamma=gamma, p=p, eps_grid=grid, cfg=cfg)
    for k, eps in enumerate(grid):
        f = extremal_function(s, ExtremalParams(gamma=gamma, trunc=eps))

        def rows(pts, f=f):
            return (f.eval(pts) ** p)[None]

        split = _per_eps_pass(s.n, cfg, rows, 1, lambda pts: _active_points([s], grid[0], pts))
        assert rep.lhs[k] == split[0], eps
        _assert_close([rep.lhs[k]], _per_eps_pass(s.n, cfg, rows, 1), *tol)


class TestFusedGrids:
    def test_kernel_matches_reference(self):
        pts = next(iter(sample_sphere(5, QuadConfig(samples=2000, seed=3, shards=1))))
        pts[:5, 4] = [0.0, 1e-7, -1e-3, 0.02, -0.3]  # inside the floors
        for edges in ([(1, 2), (3, 4)], [(1, 2)], [(1, 2), (1, 3), (2, 3), (4, 5)]):
            s = decompose(EdgeSet.of(5, edges))
            for eps in (2.0 ** -3, 2.0 ** -10, 2.0 ** -20):
                f = extremal_function(s, ExtremalParams(gamma=0.3, trunc=eps))
                assert np.array_equal(f.eval(pts), _reference_extremal(s, 0.3, eps, pts))

    def test_kernel_rows_match_reference_at_every_floor(self):
        pts = next(iter(sample_sphere(5, QuadConfig(samples=2000, seed=5, shards=1))))
        pts[:6, 4] = [0.0, 2.0 ** -10, -2.0 ** -5, 2.0 ** -20, -(1 - 2.0 ** -30), 1.0]
        pts[6, :4] = [2.0 ** -7, 0.0, 0.0, 0.0]  # radius of {1,2} and {1,2,3} is a floor
        pts[7] = [0.0, 0.0, 0.0, 2.0 ** -12, 0.0]  # radius of {3,4} and {4,5} is a floor
        pts[8, :4] = [0.6, 0.8, 0.0, 0.0]  # a block radius of 1
        repeated = [2.0 ** -3, 2.0 ** -5, 2.0 ** -5, 2.0 ** -10, 2.0 ** -12, 2.0 ** -12]
        for edges in ([(1, 2), (3, 4)], [(1, 2)], [(1, 2), (1, 3), (2, 3), (4, 5)]):
            s = decompose(EdgeSet.of(5, edges))
            for grid in (FUSED_GRID, repeated):
                base, k_idx, p_idx, vals, act = _extremal_kernel(s, 0.3, grid)(pts)
                assert 0 < len(vals) < (len(grid) - 1) * len(pts)
                assert np.array_equal(act, np.unique(p_idx))
                rows = np.empty((len(grid), len(pts)))
                _fill_rows(rows, base, k_idx, p_idx, vals)
                for k, eps in enumerate(grid):
                    assert np.array_equal(rows[k], _reference_extremal(s, 0.3, eps, pts)), \
                        (edges, eps)

    @pytest.mark.parametrize("member", ["3;2", "4;2,2", "4;3", "5;3,2", "tail-9"])
    def test_pairs_are_the_acting_floors(self, member):
        if member == "tail-9":
            blocks = [range(1, 10), range(10, 19)]
            members = [decompose(EdgeSet.of(20, [(i, j) for b in blocks
                                                 for i in b for j in b if i < j]))]
            assert max(a.weight for a in members[0].alphas[1:]) == 9
        else:
            n, lengths = member.split(";")
            members = enumerate_symmetries(BalancedType(int(n), tuple(
                int(a) for a in lengths.split(","))))
        n = members[0].n
        sampled = next(iter(sample_sphere(n, QuadConfig(samples=400, seed=7, shards=1))))
        for s in members:
            edge = _rows_on_a_floor(s, 3)
            pts = np.concatenate([edge, _rows_on_a_floor(s, 10), sampled])
            kernel = _extremal_kernel(s, 0.3, FUSED_GRID)
            _, k_idx, p_idx, _, act = kernel(pts)
            pairs = _acting_pairs(s, FUSED_GRID, pts)
            assert list(zip(k_idx.tolist(), p_idx.tolist())) == pairs
            assert len(pairs) > 0 and pairs[0][1] >= len(edge)
            # the active points are exactly the points with a pair
            assert act.tolist() == sorted({i for _, i in pairs})
            # no floor acts on a base that equals it: a chunk of such points
            # has no pair, and every row is the base row
            base, k_idx, p_idx, vals, act = kernel(edge)
            assert len(k_idx) == len(p_idx) == len(vals) == len(act) == 0
            rows = np.empty((len(FUSED_GRID), len(edge)))
            _fill_rows(rows, base, k_idx, p_idx, vals)
            assert np.array_equal(rows, np.broadcast_to(base, rows.shape))
            for eps in (FUSED_GRID[0], FUSED_GRID[-1]):
                assert np.array_equal(base, _reference_extremal(s, 0.3, eps, edge))

    def test_power_does_not_depend_on_position(self):
        # the fused runs raise the base row and the pairs to a power apart
        # and scatter them; that equals the power of the whole row only if
        # numpy's power of an element does not depend on where it sits
        rng = np.random.default_rng(17)
        x = np.concatenate([np.logspace(-42, 3, 4001, base=2.0),
                            rng.random(6006) * 4.0, [2.0 ** -20, 0.5, 1.0]])
        idx = rng.integers(0, len(x), 3001)
        exps = {1.8, 2.0}  # the p of the tests and the benchmark
        for g in (0.3, 0.5, 0.75):
            for n in (3, 5):
                exps |= {-g, -g * (n - 1) / 2.0}
                exps |= {-g * w for w in range(2, n)} | {-g * (n - w) / 2.0 for w in range(2, n)}
        for e in sorted(exps):
            full = x ** e
            assert np.array_equal(x[idx] ** e, full[idx]), e
            assert np.array_equal(x[1::3] ** e, full[1::3]), e
            block = np.stack([x, x, x])
            view = block[1:, 5:]
            view **= e
            assert np.array_equal(view[1], full[5:]), e

    def test_sharpness_series_equal_per_eps_passes(self):
        _assert_sharpness_series_equal_per_eps_passes(BalancedType(3, (2,)), 1.8, 0.5,
                                                      FUSED_CFG)

    @pytest.mark.parametrize("t", [BalancedType(4, (2, 2)), BalancedType(4, (3,))])
    def test_sharpness_series_equal_per_eps_passes_at_n4(self, t):
        gamma = float(critical_gamma(t))
        _assert_sharpness_series_equal_per_eps_passes(
            t, 0.9 / gamma, gamma, QuadConfig(samples=20_000, seed=62, shards=4))

    def test_norm_scan_series_equal_per_eps_passes(self):
        _assert_norm_scan_series_equal_per_eps_passes(
            decompose(EdgeSet.of(3, [(1, 2)])), 0.75, 2.0, FUSED_CFG)

    def test_local_growth_series_equal_per_radius_passes(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        exps = per_function_exponents(fams)
        grid = [2.0 ** k for k in range(0, 6)]
        cfg = QuadConfig(samples=20_000, seed=9, shards=2)
        rep = local_growth_experiment(fams, exps, eta=0.1, r_grid=grid, cfg=cfg)
        free = [[i - 1 for i in s.alphas[0].complement().support()] for s in fams]

        def fill_at(radius):
            # the points of the ball of radius R, whose projection radii
            # divided by R are the unit ball's to the bit for dyadic R
            def fill(pts, out):
                row = np.zeros(len(pts))
                for cols, s in zip(free, rep.profile_exponents):
                    r = np.sqrt((pts[:, cols] ** 2).sum(axis=1)) / radius
                    log_r = np.log(np.maximum(r, np.finfo(float).tiny))
                    row = row + -s * np.maximum(np.log(radius) + log_r, 0.0)
                out[0] = np.exp(row)
            return fill

        for k, radius in enumerate(grid):
            ref = mc_ball_estimates(3, radius, cfg, fill_at(radius), 1)[0]
            assert rep.lhs[k] == ref

    def test_worker_width_does_not_change_fused_runs(self, monkeypatch):
        t = BalancedType(3, (2,))
        fams = enumerate_symmetries(t)
        exps = per_function_exponents(fams)
        runs = []
        for width in ("1", "2"):
            monkeypatch.setenv("SPHEREBL_WORKERS", width)
            runs.append((
                sharpness_experiment(t, p=1.8, cfg=CFG, eps_grid=FUSED_GRID, gamma=0.5),
                norm_boundary_scan(fams[0], gamma=0.75, p=2.0, eps_grid=FUSED_GRID, cfg=CFG),
                local_growth_experiment(fams, exps, eta=0.1, r_grid=default_r_grid(), cfg=CFG),
            ))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("t, gamma, p", [(BalancedType(3, (2,)), 0.5, 1.8),
                                         (BalancedType(4, (2, 2)), 0.2, 3.0)])
def test_scan_and_sharpness_agree_on_member_norms(t, gamma, p):
    # both experiments run one eps-grid pass over the same points; only the
    # chunk size, which follows the series count, differs between them
    cfg = QuadConfig(samples=20_000, seed=7, shards=2)
    rep = sharpness_experiment(t, p=p, cfg=cfg, eps_grid=FUSED_GRID, gamma=gamma)
    for j, s in enumerate(enumerate_symmetries(t)):
        scan = norm_boundary_scan(s, gamma=gamma, p=p, eps_grid=FUSED_GRID, cfg=cfg)
        for k, est in enumerate(scan.lhs):
            assert est.value ** (1 / p) == pytest.approx(rep.rhs_norms[k][j].value,
                                                         rel=1e-12, abs=0)

class TestSplitReduction:
    """The grid passes reduce the points where no floor acts apart from the
    others; the chunks where either set is empty are the edge cases."""

    T = BalancedType(3, (2,))

    def runs(self, cfg, grid):
        fams = enumerate_symmetries(self.T)
        _assert_sharpness_series_equal_per_eps_passes(self.T, 1.8, 0.5, cfg, grid,
                                                      tol=(1e-13, 1e-13))
        _assert_norm_scan_series_equal_per_eps_passes(fams[0], 0.75, 2.0, cfg, grid,
                                                      tol=(1e-13, 1e-13))

    def test_chunk_with_no_active_point(self):
        cfg = QuadConfig(samples=2000, seed=1, shards=4)
        grid = [2.0 ** -12, 2.0 ** -13, 2.0 ** -14]
        fams = enumerate_symmetries(self.T)
        # every shard is one chunk; some have no active point, some one
        counts = [int(_active_points(fams, grid[0], pts).sum())
                  for pts in sample_sphere(3, cfg)]
        assert 0 in counts and max(counts) > 0
        self.runs(cfg, grid)

    def test_chunk_where_every_point_is_active(self, monkeypatch):
        from spherebl import quadrature
        draw = quadrature._sphere_chunk

        def near_the_equator(rng, m, n):
            # |x_3| below the largest floor 1/8, so every point is active
            pts = draw(rng, m, n)
            pts[:, 2] *= 0.1
            pts[:, :2] *= np.sqrt((1.0 - pts[:, 2] ** 2)
                                  / (pts[:, :2] ** 2).sum(axis=1))[:, None]
            return pts

        monkeypatch.setattr(quadrature, "_sphere_chunk", near_the_equator)
        cfg = QuadConfig(samples=1000, seed=2, shards=2)
        fams = enumerate_symmetries(self.T)
        assert all(_active_points(fams, FUSED_GRID[0], pts).all()
                   for pts in sample_sphere(3, cfg))
        self.runs(cfg, FUSED_GRID)

    def test_nan_at_an_inactive_point_is_non_finite(self, monkeypatch):
        from spherebl import quadrature
        draw = quadrature._sphere_chunk
        fams = enumerate_symmetries(self.T)

        def with_a_nan(rng, m, n):
            pts = draw(rng, m, n)
            pts[0] = np.nan
            return pts

        monkeypatch.setattr(quadrature, "_sphere_chunk", with_a_nan)
        cfg = QuadConfig(samples=2000, seed=3, shards=2)
        for s in fams:
            pts = next(iter(sample_sphere(3, cfg)))
            assert 0 not in _extremal_kernel(s, 0.5, FUSED_GRID)(pts)[4]
        message = "integrand returned a non-finite value, or a negative value"
        with pytest.raises(NonFiniteSampleError, match=message):
            sharpness_experiment(self.T, p=1.8, cfg=cfg, eps_grid=FUSED_GRID, gamma=0.5)
        with pytest.raises(NonFiniteSampleError, match=message):
            norm_boundary_scan(fams[0], gamma=0.75, p=2.0, eps_grid=FUSED_GRID, cfg=cfg)

    @pytest.mark.parametrize("t", [BalancedType(3, (2,)), BalancedType(4, (2, 2)),
                                   BalancedType(4, (3,))])
    def test_series_never_fall_as_eps_shrinks(self, monkeypatch, t):
        # every level reduces its active columns by sums of one length over
        # rows that grow entrywise as eps shrinks, and merges in the same
        # partial of the other points, so every series is monotone to the bit
        import spherebl.extremal as extremal
        estimator = extremal.mc_sphere_estimates
        raw = []

        def spy(*args, **kwargs):
            raw.append(estimator(*args, **kwargs))
            return raw[-1]

        monkeypatch.setattr(extremal, "mc_sphere_estimates", spy)
        gamma = float(critical_gamma(t))
        p = 0.9 / gamma
        fams = enumerate_symmetries(t)
        width = 1 + len(fams)
        for seed in range(5):
            cfg = QuadConfig(samples=20_000, seed=seed, shards=4)
            sharpness_experiment(t, p=p, cfg=cfg, eps_grid=FUSED_GRID, gamma=gamma)
            scan = norm_boundary_scan(fams[0], gamma=gamma, p=p, eps_grid=FUSED_GRID,
                                      cfg=cfg)
            series = [[e.value for e in raw[-2][j::width]] for j in range(width)]
            series.append([e.value for e in scan.lhs])
            for vals in series:
                assert len(vals) == len(FUSED_GRID)
                assert all(b >= a for a, b in zip(vals, vals[1:])), (seed, vals)


def _run_experiment(kind, grid):
    t = BalancedType(3, (2,))
    fams = enumerate_symmetries(t)
    if kind == "sharpness":
        return sharpness_experiment(t, p=1.8, cfg=CFG, eps_grid=grid, gamma=0.5)
    if kind == "scan":
        return norm_boundary_scan(fams[0], gamma=0.5, p=1.8, eps_grid=grid, cfg=CFG)
    return local_growth_experiment(fams, per_function_exponents(fams), eta=0.1,
                                   r_grid=grid, cfg=CFG)


class TestGridContract:
    """Every experiment rejects a bad grid before it samples."""

    BAD = {
        "repeated": ([0.1, 0.1, 0.05, 0.01], [1.0, 2.0, 2.0, 4.0, 8.0]),
        "too-few": ([0.1, 0.05], [1.0, 2.0, 4.0]),
        "empty": ([], []),
        "zero": ([0.1, 0.05, 0.01, 0.0], [0.0, 1.0, 2.0, 4.0, 8.0]),
        "negative": ([0.1, 0.05, 0.01, -0.01], [-1.0, 1.0, 2.0, 4.0, 8.0]),
    }

    @pytest.fixture
    def no_estimator(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the estimator ran")
        monkeypatch.setattr("spherebl.extremal.mc_sphere_estimates", fail)
        monkeypatch.setattr("spherebl.extremal.mc_ball_estimates", fail)

    @pytest.mark.parametrize("kind", ["sharpness", "scan", "growth"])
    @pytest.mark.parametrize("case", list(BAD))
    def test_bad_grid_rejected_before_sampling(self, no_estimator, kind, case):
        eps_grid, r_grid = self.BAD[case]
        with pytest.raises(ValueError, match="grid"):
            _run_experiment(kind, r_grid if kind == "growth" else eps_grid)

    @pytest.mark.parametrize("kind", ["sharpness", "scan"])
    @pytest.mark.parametrize("grid, gamma, message", [
        ([0.6, 0.1, 0.01], 0.5, "below 1/2"),
        ([0.5, 0.1, 0.01], 0.5, "below 1/2"),
        ([0.1, 0.05, 0.01], 0.0, "gamma must be positive"),
        ([0.1, 0.05, 0.01], -0.5, "gamma must be positive"),
        # a subnormal floor overflows 1/eps in the fit
        ([0.25, 0.125, 1e-320], 0.5, "floors must be 2.2250738585072014e-308 or more"),
    ])
    def test_bad_floor_or_strength_rejected_before_sampling(self, no_estimator, kind,
                                                             grid, gamma, message):
        t = BalancedType(3, (2,))
        with pytest.raises(ValueError, match=message):
            if kind == "sharpness":
                sharpness_experiment(t, p=1.8, cfg=CFG, eps_grid=grid, gamma=gamma)
            else:
                norm_boundary_scan(enumerate_symmetries(t)[0], gamma=gamma, p=1.8,
                                   eps_grid=grid, cfg=CFG)

    def test_grid_is_sorted(self):
        cfg = QuadConfig(samples=2000, seed=1, shards=1)
        rep = norm_boundary_scan(enumerate_symmetries(BalancedType(3, (2,)))[0], gamma=0.5,
                                 p=1.8, eps_grid=[0.01, 0.1, 0.05], cfg=cfg)
        assert rep.eps_grid == (0.1, 0.05, 0.01)


def test_reports_have_no_defaults():
    from dataclasses import MISSING, fields
    from spherebl import DivergenceReport, NormScanReport
    for cls in (DivergenceReport, NormScanReport):
        assert all(f.default is MISSING for f in fields(cls))
    assert "__post_init__" not in vars(DivergenceReport)
    assert [f.name for f in fields(NormScanReport)] == [
        "eps_grid", "lhs", "fit_model", "slope", "slope_stderr", "classification",
        "gamma", "p"]

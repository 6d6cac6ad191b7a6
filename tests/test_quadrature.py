import dataclasses
import itertools
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from spherebl import quadrature
from spherebl import (
    BalancedType,
    EdgeSet,
    Estimate,
    Integrand,
    MultiIndex,
    NonFiniteSampleError,
    QuadConfig,
    ball_volume,
    constant_integrand,
    decompose,
    enumerate_symmetries,
    holder_verify,
    holder_verify_sets,
    mc_ball_estimates,
    mc_sphere_estimates,
    per_function_exponents,
    random_block_invariant,
    sample_sphere,
)
from oracles import square_forms_oracle, written

CFG = QuadConfig(samples=200_000, seed=91, shards=4)


def integrate(f, cfg):
    """The engine's estimate of the mean of ``f`` over the sphere."""
    def fill(pts, out):
        out[0] = f.eval(pts)

    return mc_sphere_estimates(f.n, cfg, fill, 1)[0]


def ball_reduced_integral(f, alpha, cfg):
    """Reference: the sphere integral of a function of the block ``alpha``,
    up to a dimensional constant, as the weighted ball integral
    int_{B_k} f(y) (1 - |y|^2)^((n-2-k)/2) dy with k = |alpha|.

    ``f.eval`` must factor through the alpha-coordinates; the other
    coordinates of the evaluation points keep each point on the sphere.
    """
    n, k = f.n, alpha.weight
    if not 1 <= k <= n - 1:
        raise ValueError("the block must be proper: 1 <= |alpha| <= n-1")
    cols = [i - 1 for i in alpha.support()]
    spare = next(i for i in range(n) if i not in cols)
    expo = (n - 2 - k) / 2.0

    def fill(ys, out):
        rest = np.clip(1.0 - (ys * ys).sum(axis=1), 0.0, None)
        pts = np.zeros((len(ys), n))
        pts[:, cols] = ys
        pts[:, spare] = np.sqrt(rest)
        weight = np.maximum(rest, np.finfo(float).tiny) ** expo if expo < 0 else rest ** expo
        out[0] = f.eval(pts) * weight

    return mc_ball_estimates(k, cfg, fill, 1, [ball_volume(k)])[0]


def block_rotation_residual(f, points=256):
    """Largest relative change of ``f`` under one random rotation inside
    each block of its symmetry tag; roundoff for a block-invariant ``f``."""
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((points, f.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    base = f.eval(pts)
    worst = 0.0
    for a in f.symmetry_tag.alphas:
        ci, cj = rng.choice(a.support(), size=2, replace=False) - 1
        theta = rng.random() * 2 * np.pi
        rot = pts.copy()
        rot[:, ci] = np.cos(theta) * pts[:, ci] - np.sin(theta) * pts[:, cj]
        rot[:, cj] = np.sin(theta) * pts[:, ci] + np.cos(theta) * pts[:, cj]
        worst = max(worst, float(np.max(np.abs(f.eval(rot) - base) / np.abs(base))))
    return worst


def within(est, target, k=3.0, floor=1e-12):
    return abs(est.value - target) <= k * max(est.stderr, floor)


class TestSampling:
    def test_unit_norm(self):
        cfg = QuadConfig(samples=10_000, seed=5, shards=2)
        for batch in sample_sphere(4, cfg):
            norms = np.linalg.norm(batch, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-12

    def test_first_moment_zero(self):
        est = integrate(Integrand(3, lambda p: p[:, 0]), CFG)
        assert within(est, 0.0)

    def test_second_moment(self):
        for n in (3, 5):
            est = integrate(Integrand(n, lambda p: p[:, 0] ** 2), CFG)
            assert within(est, 1.0 / n)

    def test_sample_count(self):
        cfg = QuadConfig(samples=1000, seed=5, shards=3)
        total = sum(len(b) for b in sample_sphere(3, cfg))
        assert total == 1000


class TestDeterminism:
    def test_bit_identical_rerun(self):
        f = Integrand(4, lambda p: np.exp(p[:, 0] * p[:, 1]))
        a = integrate(f, CFG)
        b = integrate(f, CFG)
        assert a == b

    def test_seed_changes_value(self):
        f = Integrand(4, lambda p: np.exp(p[:, 0] * p[:, 1]))
        a = integrate(f, CFG)
        b = integrate(f, dataclasses.replace(CFG, seed=92))
        assert a.value != b.value

    def test_shard_count_agreement(self):
        f = Integrand(3, lambda p: (1 + p[:, 2] ** 2) ** 2)
        a = integrate(f, QuadConfig(samples=400_000, seed=7, shards=1))
        b = integrate(f, QuadConfig(samples=400_000, seed=7, shards=8))
        assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_worker_width_does_not_change_values(self, monkeypatch):
        f = Integrand(4, lambda p: np.exp(p[:, 0] * p[:, 1]))
        monkeypatch.setenv("SPHEREBL_WORKERS", "1")
        serial = integrate(f, CFG)
        monkeypatch.setenv("SPHEREBL_WORKERS", "4")
        threaded = integrate(f, CFG)
        assert serial == threaded

    def test_shards_beyond_the_samples_cost_nothing(self, monkeypatch):
        # only the first min(shards, samples) shards can hold a sample
        monkeypatch.setenv("SPHEREBL_WORKERS", "1")
        f = Integrand(3, lambda p: p[:, 0] ** 2)
        few = integrate(f, QuadConfig(samples=100, seed=3, shards=100))
        tracemalloc.start()
        try:
            many = integrate(f, QuadConfig(samples=100, seed=3, shards=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert many == few
        assert peak < 2**20, peak

    @pytest.mark.parametrize("env", ["abc", "-3", "0", "2.5", " 2"])
    def test_invalid_worker_setting_names_the_variable(self, monkeypatch, env):
        monkeypatch.setenv("SPHEREBL_WORKERS", env)
        with pytest.raises(ValueError, match="SPHEREBL_WORKERS"):
            quadrature._worker_count(4)

    def test_default_shards_do_not_follow_the_machine(self, monkeypatch):
        default = QuadConfig().shards
        for cpus in (1, 3, 64, None):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert QuadConfig().shards == default

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(samples=50, seed=0, shards=1)
        with pytest.raises(ValueError):
            QuadConfig(samples=1000, seed=-1, shards=1)
        with pytest.raises(ValueError):
            QuadConfig(samples=1000, seed=0, shards=0)


class TestEngineBlock:
    @pytest.mark.parametrize("m", [9, 131, 1024, 4099, 70_001])
    def test_block_reduction_equals_per_row(self, m):
        # the engine reduces a whole (series, m) block at once; its sums and
        # deviations equal the per-row ones only if numpy sums each row of a
        # C-contiguous block exactly as it sums the row alone
        rng = np.random.default_rng(m)
        rows = np.exp(rng.normal(0.0, 4.0, size=(7, m)))
        block = np.empty(7 * (m + 5))[:7 * m].reshape(7, m)
        block[...] = rows
        sums = block.sum(axis=1)
        block -= (sums / m)[:, None]
        block *= block
        m2 = block.sum(axis=1)
        for i, row in enumerate(rows):
            assert sums[i] == row.sum()
            assert m2[i] == ((row - row.sum() / m) ** 2).sum()

    def test_fill_writes_into_one_block_per_shard(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)  # 1024-point chunks
        seen = []

        def fill(pts, out):
            seen.append((len(pts), out.shape, out.flags.c_contiguous,
                         out.__array_interface__["data"][0]))
            out[...] = pts[:, 0]

        mc_sphere_estimates(3, QuadConfig(samples=2500, seed=3, shards=1), fill, 4)
        assert [m for m, *_ in seen] == [1024, 1024, 452]
        assert all(shape == (4, m) and contiguous for m, shape, contiguous, _ in seen)
        assert len({ptr for *_, ptr in seen}) == 1


class TestIntegrate:
    def test_constant(self):
        est = integrate(constant_integrand(5, 1.0), CFG)
        assert est.value == 1.0 and est.stderr == 0.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_spread_is_non_finite(self, monkeypatch, workers):
        # finite values and sums, but the squared deviations overflow: an
        # infinite stderr would make any 3-sigma band vacuous
        monkeypatch.setenv("SPHEREBL_WORKERS", workers)
        f = Integrand(3, lambda pts: 1e160 * (1.0 + pts[:, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSampleError, match="overflows"):
                integrate(f, QuadConfig(samples=10_000, seed=2, shards=4))

    def test_large_mean_keeps_its_spread(self):
        # s2 - s1^2/m cancels to 0 here; merged deviations keep the spread
        cfg = QuadConfig(samples=1_000_000, seed=1, shards=4)
        plain = integrate(Integrand(3, lambda p: p[:, 0] ** 2), cfg)
        shifted = integrate(Integrand(3, lambda p: 1e8 + p[:, 0] ** 2), cfg)
        assert plain.stderr == pytest.approx(2.98e-4, rel=0.01)
        assert shifted.stderr == pytest.approx(plain.stderr, rel=0.01)

    def test_non_finite_rejected(self):
        bad = Integrand(3, lambda p: np.where(p[:, 0] < 2, np.inf, 1.0))
        with pytest.raises(NonFiniteSampleError):
            integrate(bad, CFG)

    def test_carries_provenance(self):
        est = integrate(constant_integrand(3, 2.0), CFG)
        assert est.samples == CFG.samples and est.seed == CFG.seed


class TestLpNorm:
    # the norms of the Hoelder check, the library's one L^p path
    FAMS = enumerate_symmetries(BalancedType(3, (2,)))

    def test_constant_any_p(self):
        for p in (2.0, 3.5):
            rec = holder_verify(self.FAMS, [constant_integrand(3, 2.5)] * 3, [p] * 3, CFG)
            assert all(abs(est.value - 2.5) < 1e-12 for est in rec.norms)

    def test_monotone_in_p(self):
        # probability measure: ||f||_p nondecreasing in p
        fs = [
            Integrand(3, lambda p: 1 + p[:, 0] ** 2),
            Integrand(3, lambda p: np.exp(p[:, 1] ** 2)),
            Integrand(3, lambda p: np.abs(p[:, 2]) + 0.1),
        ]
        for f in fs:
            norms = holder_verify(self.FAMS, [f] * 3, [2.0, 3.0, 4.0], CFG).norms
            for a, b in zip(norms, norms[1:]):
                assert b.value >= a.value - 3 * math.hypot(a.stderr, b.stderr)


class TestBallReduced:
    def test_exact_interval_for_one_variable_on_s2(self):
        # weight exponent (3-2-1)/2 = 0: plain length of [-1, 1]
        alpha = MultiIndex.from_support(3, [2])
        est = ball_reduced_integral(constant_integrand(3, 1.0), alpha, CFG)
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_ratio_constant_across_integrands(self):
        # the sphere and weighted-ball routes differ by one dimensional
        # constant, so ratios must agree across different integrands
        alpha = MultiIndex.from_support(4, [1, 2])
        ratios = []
        for ev in [lambda p: np.ones(len(p)),
                   lambda p: (p[:, :2] ** 2).sum(axis=1),
                   lambda p: 1 - (p[:, :2] ** 2).sum(axis=1)]:
            f = Integrand(4, ev)
            sph = integrate(f, CFG)
            bal = ball_reduced_integral(f, alpha, CFG)
            ratios.append((sph, bal))
        vals = [s.value / b.value for s, b in ratios]
        for (s1, b1), (s2, b2) in zip(ratios, ratios[1:]):
            r1, r2 = s1.value / b1.value, s2.value / b2.value
            sig = abs(r1) * math.hypot(s1.stderr / s1.value, b1.stderr / b1.value,
                                       s2.stderr / s2.value, b2.stderr / b2.value)
            assert abs(r1 - r2) <= 3 * max(sig, 1e-9), vals

    def test_block_indicator_cross_validation(self):
        # product of disjoint-block indicators, normalized by the constant-1
        # run on each route; the unknown route constant cancels
        def ev(p):
            return ((p[:, 0] ** 2 + p[:, 1] ** 2 < 0.55)
                    & (p[:, 2] ** 2 + p[:, 3] ** 2 > 0.45)).astype(float)

        alpha = MultiIndex.from_support(4, [1, 2])  # f factors through x_{1,2}
        f = Integrand(4, ev)
        cfg = QuadConfig(samples=400_000, seed=17, shards=4)
        sph_f, sph_1 = integrate(f, cfg), integrate(constant_integrand(4), cfg)
        bal_f, bal_1 = (ball_reduced_integral(f, alpha, cfg),
                        ball_reduced_integral(constant_integrand(4), alpha, cfg))
        lhs = sph_f.value / sph_1.value
        rhs = bal_f.value / bal_1.value
        sig = abs(lhs) * math.hypot(sph_f.stderr / sph_f.value, bal_f.stderr / bal_f.value,
                                    bal_1.stderr / bal_1.value)
        assert abs(lhs - rhs) <= 3 * max(sig, 1e-9)

    def test_boundary_weight_exponent(self):
        # |alpha| = n-1 gives the (1-r^2)^(-1/2) weight; finite for bounded f
        alpha = MultiIndex.from_support(3, [1, 2])
        est = ball_reduced_integral(constant_integrand(3, 1.0), alpha, CFG)
        # exact value: int_{B_2} (1-r^2)^(-1/2) = 2*pi*(1 - 0) = 2*pi... = 2pi
        assert est.value == pytest.approx(2 * math.pi, rel=0.02)

    def test_requires_proper_block(self):
        with pytest.raises(ValueError):
            ball_reduced_integral(constant_integrand(3), MultiIndex(3, 0b111), CFG)

    def test_ball_volume(self):
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3, 2.0) == pytest.approx(4 / 3 * math.pi * 8)

    @pytest.mark.parametrize("radius", [2.0 ** 400, 2.0 ** 341])
    def test_ball_volume_beyond_the_float_range(self, radius):
        # radius**3 overflows at 2^400; at 2^341 it is finite, its product not
        with pytest.raises(ValueError, match="ball volume at radius .* exceeds the float"):
            ball_volume(3, radius)


class TestBlockInvariance:
    def test_random_functions_are_invariant(self):
        s = decompose(EdgeSet.of(5, [(1, 2), (1, 3), (2, 3), (4, 5)]))
        f = random_block_invariant(s, seed=3)
        assert block_rotation_residual(f) < 1e-9

    def test_extremal_functions_are_invariant(self):
        from spherebl import ExtremalParams, extremal_function
        s = decompose(EdgeSet.of(5, [(1, 2), (4, 5)]))
        f = extremal_function(s, ExtremalParams(gamma=0.4, trunc=0.05))
        assert block_rotation_residual(f) < 1e-9

    def test_bounded(self):
        s = decompose(EdgeSet.of(4, [(1, 2)]))
        f = random_block_invariant(s, seed=11, amplitude=1.0)
        pts = next(iter(sample_sphere(4, QuadConfig(samples=1000, seed=0, shards=1))))
        vals = f.eval(pts)
        assert np.all(vals > 0) and vals.max() <= math.exp(3.0)


class TestHolder:
    def test_all_constant_is_equality(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 1.0, tag=s) for s in fams]
        rec = holder_verify(fams, fs, [2.0, 2.0, 2.0], CFG)
        assert rec.passed
        assert rec.lhs.value == pytest.approx(rec.rhs_value, abs=1e-12)

    def test_one_variable_squares(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        # the function tied to block {i,j} depends on the remaining coordinate
        fs = [Integrand(3, lambda p, k=s.r_mask.support()[0] - 1: 1.0 + p[:, k] ** 2, s)
              for s in fams]
        rec = holder_verify(fams, fs, [2.0] * 3, CFG)
        assert rec.passed
        assert rec.margin > 0

    def test_truncated_extremal_at_sharp_p(self):
        from spherebl import ExtremalParams, extremal_function
        fams = enumerate_symmetries(BalancedType(4, (2, 2)))
        params = ExtremalParams(gamma=0.2, trunc=0.05)  # gamma*p = 0.8 < 1
        fs = [extremal_function(s, params) for s in fams]
        rec = holder_verify(fams, fs, [4.0] * 6, CFG)
        assert rec.passed

    def test_p_below_sharp_rejected(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 1.0, tag=s) for s in fams]
        with pytest.raises(ValueError):
            holder_verify(fams, fs, [1.5, 2.0, 2.0], CFG)

    def test_untagged_flagged(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 1.0) for _ in fams]
        rec = holder_verify(fams, fs, [2.0] * 3, CFG)
        assert rec.flags

    def test_sets_share_one_pass(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        sets = [[random_block_invariant(s, seed=10 * k + j) for j, s in enumerate(fams)]
                for k in range(3)]
        fused = holder_verify_sets(fams, sets, [2.0] * 3, CFG)
        assert fused == [holder_verify(fams, fs, [2.0] * 3, CFG) for fs in sets]

    def test_stack_equals_list_of_integrands(self):
        # a list of random symmetric functions is evaluated as exp of their
        # stacked coefficient matrix, summed term by term
        fams = enumerate_symmetries(BalancedType(4, (2,)))
        ps = [6.0] * len(fams)
        fs = [random_block_invariant(s, seed=40 + 7 * j) for j, s in enumerate(fams)]
        coef = np.array([f.coef for f in fs])
        mat = np.vstack([coef.sum(axis=0), np.asarray(ps)[:, None] * coef])

        def stacked(pts, out):
            out[...] = np.exp(square_forms_oracle(mat, pts))

        ests = mc_sphere_estimates(4, CFG, stacked, 1 + len(fams))
        assert holder_verify(fams, fs, ps, CFG) == quadrature._holder_record(ests, ps, [])

    def test_log_space_matches_value_domain_at_p_78(self):
        fams = enumerate_symmetries(BalancedType(6, (2, 2)))
        ps = [78.0] * len(fams)
        coef = np.array([random_block_invariant(s, 3 + 101 * j).coef
                         for j, s in enumerate(fams)])
        cfg = QuadConfig(samples=20_000, seed=5, shards=2)
        width = 1 + len(fams)

        def log_space(pts, out):
            out[1:] = square_forms_oracle(coef, pts)
            quadrature._product_and_powers(out, ps)

        def value_domain(pts, out):
            out[1:] = square_forms_oracle(coef, pts)
            np.exp(out[1:], out=out[1:])
            np.multiply.reduce(out[1:], axis=0, out=out[0])
            out[1:] **= 78.0

        got = mc_sphere_estimates(6, cfg, log_space, width)
        ref = mc_sphere_estimates(6, cfg, value_domain, width)
        for a, b in zip(got, ref):
            assert a.value == pytest.approx(b.value, rel=1e-13, abs=0)
            assert a.stderr == pytest.approx(b.stderr, rel=1e-13, abs=0)

    @pytest.mark.parametrize("ps", [[5.5, 6, 5.5, 7.25, 9], [8, 5, 8, 5, 12.5],
                                    [5, 5, 6, 6, 6]])
    def test_powers_equal_the_per_run_loop(self, monkeypatch, ps):
        # the reference raises each run of equal exponents in its own call
        def per_run(out, ps):
            logs = out[1:]
            np.add.reduce(logs, axis=0, out=out[0])
            np.exp(out[0], out=out[0])
            start = 0
            for p, run in itertools.groupby(ps):
                stop = start + len(list(run))
                block = logs[start:stop]
                block *= p
                np.exp(block, out=block)
                start = stop

        ps = [float(p) for p in ps]
        fams = enumerate_symmetries(BalancedType(5, (2,)))[:5]
        coef = np.array([random_block_invariant(s, 11 + 3 * j).coef
                         for j, s in enumerate(fams)])
        lengths = []

        def fill(pts, out):
            out[1:] = square_forms_oracle(coef, pts)
            ref = out.copy()
            per_run(ref, ps)
            quadrature._product_and_powers(out, ps)
            assert out.tobytes() == ref.tobytes()
            lengths.append(len(pts))

        monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)  # chunks of 1024 points
        mc_sphere_estimates(5, QuadConfig(samples=2500, seed=3, shards=1), fill, 6)
        assert lengths == [1024, 1024, 452]

    @staticmethod
    def holder_rows(fams, fs, ps, pts):
        """The rows the Hoelder check's fill writes for the functions ``fs``
        at ``pts``."""
        class Captured(Exception):
            pass

        def capture(n, cfg, fill, num_series):
            raise Captured(fill)

        with pytest.MonkeyPatch.context() as mp, pytest.raises(Captured) as caught:
            mp.setattr(quadrature, "mc_sphere_estimates", capture)
            holder_verify_sets(fams, [fs], ps, CFG)
        out = np.empty((1 + len(ps), len(pts)))
        caught.value.args[0](pts, out)
        return out

    @pytest.mark.parametrize("mixed", [False, True])
    def test_coefficient_rows_match_the_log_rows(self, mixed):
        fams = enumerate_symmetries(BalancedType(6, (2, 2)))
        ps = [78.0 + (3.5 * (j % 4) if mixed else 0.0) for j in range(len(fams))]
        fs = [random_block_invariant(s, 3 + 101 * j) for j, s in enumerate(fams)]
        pts = next(iter(sample_sphere(6, QuadConfig(samples=5000, seed=8, shards=1))))
        fused = self.holder_rows(fams, fs, ps, pts)
        logged = self.holder_rows(fams, [dataclasses.replace(f, coef=None) for f in fs],
                                  ps, pts)
        assert np.all(np.isfinite(fused)) and np.all(fused > 0)
        assert np.allclose(fused, logged, rtol=1e-13, atol=0)

    def test_coefficient_rows_do_not_depend_on_the_workers(self, monkeypatch):
        fams = enumerate_symmetries(BalancedType(6, (2, 2)))
        sets = [[random_block_invariant(s, 5 + 101 * j + 977 * k) for j, s in enumerate(fams)]
                for k in range(2)]
        cfg = QuadConfig(samples=30_000, seed=611, shards=4)
        records = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SPHEREBL_WORKERS", workers)
            records.append(holder_verify_sets(fams, sets, [78.0] * len(fams), cfg))
        assert records[0] == records[1]

    def test_zero_function_gives_zero_without_warning(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 0.0, tag=s) for s in fams]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = holder_verify(fams, fs, [2.0] * 3, CFG)
            with np.errstate(divide="ignore"):  # as the engine runs the fill
                rows = self.holder_rows(fams, fs, [2.0] * 3, np.eye(3)[[0] * 10])
        assert rec.passed and rec.lhs.value == 0.0
        assert [e.value for e in rec.norms] == [0.0] * 3
        assert np.all(rows == 0.0)

    def test_sets_reject_mixed_dimensions(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, tag=s) for s in fams]
        mixed = [fs[0], constant_integrand(4), fs[2]]
        with pytest.raises(ValueError, match="integrand 1 has dimension 4, family has 3"):
            holder_verify_sets(fams, [fs, mixed], [2.0] * 3, CFG)

    def test_constant_among_random_functions_takes_the_log_route(self):
        fams = enumerate_symmetries(BalancedType(4, (2, 2)))
        ps = [4.0] * len(fams)
        fs = [random_block_invariant(s, seed=60 + j) for j, s in enumerate(fams)]
        fs[2] = constant_integrand(4, 1.5, tag=fams[2])
        rec = holder_verify(fams, fs, ps, CFG)
        assert rec.passed
        assert rec.norms[2].value == pytest.approx(1.5, rel=1e-12)
        # the random functions' rows are the logarithms of their values
        logged = [dataclasses.replace(f, coef=None) for f in fs]
        assert rec == holder_verify(fams, logged, ps, CFG)

    def test_negative_function_is_non_finite(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 1.0, tag=s) for s in fams]
        fs[1] = Integrand(3, lambda pts: 0.5 - pts[:, 0] ** 2, symmetry_tag=fams[1])
        with pytest.raises(NonFiniteSampleError, match="negative"):
            holder_verify(fams, fs, [2.0] * 3, CFG)

    @pytest.mark.parametrize("t", [BalancedType(3, (2,)), BalancedType(4, (2, 2))])
    def test_constants_pass_despite_rounding(self, t):
        # constants are the equality case: zero stderr, so only the rounding
        # allowance separates lhs and rhs
        fams = enumerate_symmetries(t)
        sharp = max(per_function_exponents(fams))
        cfg = QuadConfig(1000, 91, 1)
        for p in (sharp, sharp + 0.5, 2 * sharp + 0.1):
            for c in (0.1, 0.3, 0.7, 1.5, 2.0, 3.0, 7.0, 10.0):
                fs = [constant_integrand(t.n, c, tag=s) for s in fams]
                rec = holder_verify(fams, fs, [float(p)] * len(fams), cfg)
                assert rec.passed, (p, c, rec.margin / rec.rhs_value)

    def test_rounding_allowance_is_not_a_monte_carlo_band(self):
        def record(lhs):
            return quadrature._holder_record(
                [Estimate(lhs, 0.0, 100, 0), Estimate(1.0, 0.0, 100, 0)], [2.0], [])
        assert record(1.0 + 1e-13).passed
        assert not record(1.0 + 1e-9).passed

    def test_mixed_exponents_match_per_function_powers(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [random_block_invariant(s, seed=j) for j, s in enumerate(fams)]
        ps = [2.0, 3.0, 2.0]
        rec = holder_verify(fams, fs, ps, CFG)
        for f, p, norm in zip(fs, ps, rec.norms):
            def power(pts, out, f=f, p=p):
                out[0] = f.eval(pts) ** p

            alone = mc_sphere_estimates(3, CFG, power, 1)[0]
            assert norm.value == pytest.approx(alone.value ** (1 / p), rel=1e-12)

    def test_record_round_trip(self):
        fams = enumerate_symmetries(BalancedType(3, (2,)))
        fs = [constant_integrand(3, 2.0, tag=s) for s in fams]
        rec = holder_verify(fams, fs, [2.0] * 3, CFG)
        text = written(rec)
        d = json.loads(text)
        assert json.dumps(d, indent=2) == text
        assert [e["value"] for e in d["norms"]] == [e.value for e in rec.norms]


class TestRandomBlockInvariants:
    # a 9-coordinate block (numpy sums more than 8 terms pairwise) next to
    # members with two blocks and free coordinates: 2 and 8 terms
    FAMS = [decompose(EdgeSet.of(10, [(i, j) for i in range(1, 10)
                                      for j in range(i + 1, 10)])),
            decompose(EdgeSet.of(10, [(1, 2), (3, 4)])),
            decompose(EdgeSet.of(10, [(2, 5), (2, 7), (5, 7)]))]

    def points(self):
        return next(iter(sample_sphere(10, QuadConfig(samples=3000, seed=4, shards=1))))

    @pytest.mark.parametrize("amplitude", [1.0, 0.25])
    def test_rows_equal_single_functions_bit_for_bit(self, amplitude):
        fs = [random_block_invariant(s, seed, amplitude)
              for s, seed in zip(self.FAMS, [5, 17, 2**40])]
        pts = self.points()
        out = np.empty((len(fs), len(pts)))
        quadrature._square_forms(np.array([f.coef for f in fs]), pts, out)
        for row, f in zip(out, fs):
            assert np.array_equal(np.exp(row), f.eval(pts))  # rows hold log f

    def test_single_function_keeps_its_formula(self):
        s = self.FAMS[1]
        pts = self.points()
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        a = rng.uniform(-1.0, 1.0, size=8)  # 2 blocks, then 6 free coordinates
        u = [pts[:, 0] ** 2 + pts[:, 1] ** 2, pts[:, 2] ** 2 + pts[:, 3] ** 2]
        u += [pts[:, i] ** 2 for i in range(4, 10)]
        expected = np.exp(sum(c * v for c, v in zip(a, u)))
        assert np.allclose(random_block_invariant(s, 9).eval(pts), expected,
                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("fams", [FAMS, enumerate_symmetries(BalancedType(6, (2, 2)))],
                             ids=["n10", "holder-wide"])
    def test_rows_equal_the_term_by_term_oracle(self, monkeypatch, fams):
        coef = np.array([random_block_invariant(s, 7 + 13 * j).coef
                         for j, s in enumerate(fams)])
        lengths = []

        def fill(pts, out):
            quadrature._square_forms(coef, pts, out)
            assert out.tobytes() == square_forms_oracle(coef, pts).tobytes()
            lengths.append(len(pts))

        monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)  # chunks of 1024 points
        cfg = QuadConfig(samples=2500, seed=3, shards=1)
        mc_sphere_estimates(fams[0].n, cfg, fill, len(fams))
        assert lengths == [1024, 1024, 452]

    @pytest.mark.parametrize("fams", [FAMS, enumerate_symmetries(BalancedType(6, (2, 2)))],
                             ids=["n10", "holder-wide"])
    def test_point_alone_equals_the_batch(self, fams):
        fs = [random_block_invariant(s, 7 + 13 * j) for j, s in enumerate(fams)]
        coef = np.array([f.coef for f in fs])
        pts = next(iter(sample_sphere(fams[0].n, QuadConfig(samples=200, seed=4, shards=1))))
        batch = np.empty((len(fs), len(pts)))
        quadrature._square_forms(coef, pts, batch)
        alone = np.empty((len(fs), 1))
        for i in range(len(pts)):
            quadrature._square_forms(coef, pts[i:i + 1], alone)
            assert alone[:, 0].tobytes() == batch[:, i].tobytes()
        for f in fs:
            single = np.concatenate([f.eval(pts[i:i + 1]) for i in range(len(pts))])
            assert single.tobytes() == f.eval(pts).tobytes()

    def test_coefficients_are_the_draws(self):
        s = self.FAMS[1]  # blocks {1, 2} and {3, 4}, then free 5..10
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        a = rng.uniform(-1.0, 1.0, size=8)
        f = random_block_invariant(s, 9)
        assert f.n == 10 and f.symmetry_tag == s
        assert f.coef.tolist() == [a[0], a[0], a[1], a[1], *a[2:]]


class TestBallSampling:
    def test_uniform_ball_mean_r2(self):
        # E r^2 over the unit ball in R^d is d/(d+2); estimate of the
        # integral is vol * mean
        d = 3
        def fill(y, out):
            (y * y).sum(axis=1, out=out[0])

        est = mc_ball_estimates(d, CFG, fill, 1, [ball_volume(d)])[0]
        target = ball_volume(d) * d / (d + 2)
        assert within(est, target)

    def test_points_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # integer values sum exactly in any order, so equal values mean equal
        # points; the merged deviations may still differ in the last bits
        def fill(y, out):
            out[...] = np.floor(64 * y).T

        def run():
            return mc_ball_estimates(3, CFG, fill, 3, [ball_volume(3, 2.0)] * 3)

        reference = run()
        for budget in (1, 20_000, 100_003):  # 1024-point chunks and others
            monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", budget)
            ests = run()
            assert [e.value for e in ests] == [e.value for e in reference]
            for e, ref in zip(ests, reference):
                assert e.stderr == pytest.approx(ref.stderr, rel=1e-12)

    def test_radius_scaling(self):
        volume = ball_volume(2, 2.0)
        est = mc_ball_estimates(2, CFG, lambda y, out: out.fill(1.0), 1, [volume])[0]
        assert est.value == pytest.approx(volume, abs=1e-9)

"""Acceptance suite: one test per criterion, one printed verdict line each.

Stochastic criteria use pinned seeds and the sample budgets stated in each
test; determinism (criterion 9) reruns every stochastic pipeline with the
same configuration and compares reports field by field.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and timings.
"""

import itertools
import math
import time
from fractions import Fraction
from functools import cache

from spherebl import (
    BalancedType,
    EdgeSet,
    QuadConfig,
    balanced_exponent,
    balanced_types_upto,
    canonical_classes,
    critical_gamma,
    edge_membership_count,
    enumerate_symmetries,
    holder_verify_sets,
    identity_exponent_count,
    identity_partition,
    j_max,
    lie_closure,
    local_growth_experiment,
    norm_boundary_scan,
    overcount_factor,
    per_function_exponents,
    random_block_invariants,
    sharpness_experiment,
    uniform_exponent,
)
from spherebl.extremal import INCREMENT_DECAY_THRESHOLD, default_r_grid
from spherebl.symmetry import decompose
from oracles import bracket_closure_oracle


def verdict(num: int, ok: bool, desc: str, elapsed: float | None = None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


# --- criterion 1: exact counting identities, n <= 10, < 1 s -------------------


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    ok = True
    count = 0
    for t in balanced_types_upto(10):
        count += 1
        ok = ok and balanced_exponent(t) == j_max(t) - edge_membership_count(t)
        ok = ok and identity_exponent_count(t)
        ok = ok and identity_partition(t)
        ok = ok and 1 / critical_gamma(t) == balanced_exponent(t)
    elapsed = time.perf_counter() - start
    verdict(1, ok and elapsed < 1.0 and count > 30,
            f"counting, partition and critical-strength identities exact on "
            f"{count} types with n <= 10", elapsed)


# --- criterion 2: oracle equivalence over enumerated families, n <= 8 ---------


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for t in balanced_types_upto(8):
        fams = enumerate_symmetries(t)
        p = balanced_exponent(t)
        ok = ok and uniform_exponent(fams) == p
        ok = ok and all(q == p for q in per_function_exponents(fams))
        classes = canonical_classes(fams)
        ok = ok and len(classes) == j_max(t) // overcount_factor(t)
        ok = ok and all(len(c) == overcount_factor(t) for c in classes)
    elapsed = time.perf_counter() - start
    verdict(2, ok and elapsed < 30.0,
            "enumerated families reproduce the closed-form exponent and "
            "class counts for every type with n <= 8", elapsed)


# --- criterion 3: worked examples ----------------------------------------------


def test_criterion_3_worked_examples():
    ok = (balanced_exponent(BalancedType(3, (2,))) == 2
          == math.comb(3, 1) - math.comb(1, 1))
    ok = ok and (balanced_exponent(BalancedType(4, (2, 2))) == 4
                 == 2 * math.comb(2, 1))
    verdict(3, ok, "single-block n=3 gives p=2 and two-block n=4 gives p=4, "
                   "matching the binomial forms")


# --- criterion 4: Lie closure vs matrix bracket oracle --------------------------


def test_criterion_4_lie_closure_oracle():
    start = time.perf_counter()
    ok = True
    for n in (4, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            a = [e for k, e in enumerate(pairs) if mask >> k & 1]
            ok = ok and lie_closure(EdgeSet.of(n, a)).sorted_edges() == sorted(
                bracket_closure_oracle(n, a))
    elapsed = time.perf_counter() - start
    verdict(4, ok and elapsed < 120.0,
            "clique closure equals the matrix bracket closure on all 64 "
            "subsets at n=4 and all 1,024 subsets at n=5", elapsed)


# --- criterion 5: product inequality on randomized families ---------------------

HOLDER_TYPES = (BalancedType(3, (2,)), BalancedType(4, (2, 2)), BalancedType(5, (3, 2)))


@cache
def _holder_records(run: int = 0):
    out = {}
    for t in HOLDER_TYPES:
        fams = enumerate_symmetries(t)
        p = float(balanced_exponent(t))
        cfg = QuadConfig(samples=1_000_000, seed=555, shards=4)
        # the 20 function sets share one sample stream, so one pass checks them all
        fs_sets = [random_block_invariants(fams, [90_000 + 1000 * rep + j
                                                  for j in range(len(fams))])
                   for rep in range(20)]
        out[t.lengths] = holder_verify_sets(fams, fs_sets, [p] * len(fams), cfg)
    return out


def test_criterion_5_holder_verification():
    start = time.perf_counter()
    records = _holder_records(0)
    ok = all(rec.passed for recs in records.values() for rec in recs)
    elapsed = time.perf_counter() - start
    verdict(5, ok and elapsed < 300.0,
            "product <= product of sharp-exponent norms (3 sigma) on 20 "
            "randomized symmetric families for each of three types at 10^6 "
            "samples", elapsed)


# --- criterion 6: sharpness reproduction ----------------------------------------

SHARP_CFG = QuadConfig(samples=1_000_000, seed=2026, shards=4)
SHARP_GRID = [2.0 ** -k for k in range(3, 21)]


@cache
def _sharpness_runs(run: int = 0):
    t = BalancedType(3, (2,))
    critical = sharpness_experiment(t, p=1.8, cfg=SHARP_CFG,
                                    eps_grid=SHARP_GRID, gamma=0.5)
    control = sharpness_experiment(t, p=2.0, cfg=SHARP_CFG,
                                   eps_grid=SHARP_GRID, gamma=0.45)
    return critical, control


def test_criterion_6_sharpness_reproduction():
    start = time.perf_counter()
    critical, control = _sharpness_runs(0)
    ok = critical.rhs_converged and critical.rhs_rel_change < 0.05
    ok = ok and critical.slope > 3 * critical.slope_stderr
    ok = ok and critical.classification == "divergent-log" and critical.passed
    # the control's truncated series converges: its increments decay
    # geometrically (3 sigma below the log-growth regime), so the
    # extrapolated asymptotic slope is 0
    ok = ok and control.classification == "converged" and not control.passed
    ok = ok and (control.incr_decay_slope + 3 * control.incr_decay_stderr
                 < INCREMENT_DECAY_THRESHOLD)
    elapsed = time.perf_counter() - start
    verdict(6, ok and elapsed < 600.0,
            "critical run: norms stable (<5%) and product log-divergent at "
            "3 sigma; control at gamma=0.45 classifies as converged", elapsed)


# --- criterion 7: truncated norm slopes ------------------------------------------

SCAN_GRID = [2.0 ** -k for k in range(4, 10)]
SCAN_CFG = QuadConfig(samples=1_000_000, seed=777, shards=4)


@cache
def _norm_scans(run: int = 0):
    s = decompose(EdgeSet.of(3, [(1, 2)]))
    conv = norm_boundary_scan(s, gamma=0.25, p=2.0, eps_grid=SCAN_GRID, cfg=SCAN_CFG)
    div = norm_boundary_scan(s, gamma=0.75, p=2.0, eps_grid=SCAN_GRID, cfg=SCAN_CFG)
    return conv, div


def test_criterion_7_norm_boundary_slopes():
    start = time.perf_counter()
    conv, div = _norm_scans(0)
    ok = abs(conv.slope - 0.0) <= 0.1 + 3 * conv.slope_stderr
    ok = ok and conv.classification == "converged"
    ok = ok and abs(div.slope - (-0.5)) <= 0.1 + 3 * div.slope_stderr
    ok = ok and div.classification == "divergent-power"
    elapsed = time.perf_counter() - start
    verdict(7, ok, f"truncated-norm slopes {conv.slope:+.3f} vs 0 and "
                   f"{div.slope:+.3f} vs -0.5, within 0.1 + 3 sigma", elapsed)


# --- criterion 8: local growth ----------------------------------------------------

GROWTH_CFG = QuadConfig(samples=1_000_000, seed=424, shards=4)


@cache
def _growth_run(run: int = 0):
    fams = enumerate_symmetries(BalancedType(3, (2,)))
    exps = per_function_exponents(fams)
    return local_growth_experiment(fams, exps, eta=0.1,
                                   r_grid=default_r_grid(), cfg=GROWTH_CFG)


def test_criterion_8_local_growth():
    start = time.perf_counter()
    rep = _growth_run(0)
    ok = rep.delta_target == Fraction(3, 2)
    ok = ok and 1.2 <= rep.fitted_slope <= 1.6
    elapsed = time.perf_counter() - start
    verdict(8, ok and elapsed < 600.0,
            f"ball-integral growth slope {rep.fitted_slope:.3f} in [1.2, 1.6] "
            f"against delta = 3/2 over R = 2^0..2^10 at 10^6 samples/point",
            elapsed)


# --- criterion 9: determinism ------------------------------------------------------
#
# Criteria 5-8 ask for run 0 by its number: ``cache`` keys f() and f(0)
# apart, so run 0 is computed once and rerun here only as run 1.


def test_criterion_9_determinism():
    start = time.perf_counter()
    ok = True
    first = _holder_records(0)
    second = _holder_records(1)
    for key in first:
        ok = ok and first[key] == second[key]
    c1, k1 = _sharpness_runs(0)
    c2, k2 = _sharpness_runs(1)
    ok = ok and c1 == c2 and k1 == k2
    s1 = _norm_scans(0)
    s2 = _norm_scans(1)
    ok = ok and s1 == s2
    ok = ok and _growth_run(0) == _growth_run(1)
    elapsed = time.perf_counter() - start
    verdict(9, ok, "reruns of every stochastic criterion with the same seed "
                   "reproduce bit-identical reports", elapsed)

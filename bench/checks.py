"""Output checks made apart from the program.

Each check holds a run record against a property the method must have or
against a value the benchmark computes on its own (closed forms, a 1-d
quadrature, brute-force counts, its own Monte Carlo with another
generator).  None compares with a stored copy of earlier output.  Every
check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

import workloads as wl

#: Width, in standard errors, of every statistical agreement band.
Z = 5.0

#: A truncated norm is compared with the 1-d quadrature only where the
#: pole caps 1 - t^2 < eps^2, in which the truncation acts and f^p peaks at
#: about eps^(-p), hold this many samples on average (m eps^2 / 2 of them).
#: Below that the estimate hinges on whether a few samples land in the
#: caps: one sample at eps = 2^-13 moves the mean of 10^6 by about 11
#: while the standard deviation of the mean is 1.4, so no band of a few
#: sigma holds for every seed.
RESOLVED = 50

#: Points of the benchmark's own Monte Carlo in the holder-wide check.
OWN_SAMPLES = 1_000_000
OWN_CHUNK = 50_000

#: Relative band for the holder-wide norms.  f^p with p = 78 peaks within
#: about 1/78 of a pole of the sphere, so at 10^6 samples the p-th moment
#: rests on a few dozen points and the iid standard error is no honest
#: band.  In the norm the p-th root shrinks that error: a p-th moment off
#: by a factor of 3 moves the norm by ln(3)/78 = 1.4%.
NORM_REL = 0.03


# --- closed forms -------------------------------------------------------------


def multinomial(n: int, lengths) -> int:
    r = n - sum(lengths)
    den = math.prod(math.factorial(a) for a in lengths) * math.factorial(r)
    return math.factorial(n) // den


def balanced_p(n: int, lengths) -> Fraction:
    """(n-2)! (n(n-1) - sum a(a-1)) / (prod a! r!)."""
    r = n - sum(lengths)
    num = math.factorial(n - 2) * (n * (n - 1) - sum(a * (a - 1) for a in lengths))
    den = math.prod(math.factorial(a) for a in lengths) * math.factorial(r)
    return Fraction(num, den)


def overcount(lengths) -> int:
    return math.prod(math.factorial(c) for c in Counter(lengths).values())


def balanced_delta(n: int, lengths) -> Fraction:
    """n - (n - a_1) * (family size) / p for the full balanced family."""
    return n - Fraction(n - lengths[0]) * multinomial(n, lengths) / balanced_p(n, lengths)


def ordered_assignments(n: int, lengths) -> list[tuple[tuple[int, ...], ...]]:
    """Every ordered assignment of disjoint blocks, lexicographic on blocks."""
    def assign(remaining, lens):
        if not lens:
            yield ()
            return
        for block in itertools.combinations(remaining, lens[0]):
            rest = tuple(i for i in remaining if i not in block)
            for tail in assign(rest, lens[1:]):
                yield (block,) + tail
    return list(assign(tuple(range(1, n + 1)), tuple(lengths)))


# --- sharpness-critical ---------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _gauss(fun, breaks) -> float:
    b = np.asarray(sorted(set(breaks)), dtype=float)
    lo, hi = b[:-1], b[1:]
    x = (lo + hi) / 2 + (hi - lo) / 2 * _GL_X[:, None]
    w = (hi - lo) / 2 * _GL_W[:, None]
    return float((w * fun(x)).sum())


def _geometric(lo: float, hi: float) -> list[float]:
    out = [lo, hi]
    x = lo
    while x < hi:
        out.append(x)
        x *= 2
    return out


def extremal_moment(eps: float, g: float, q: float) -> float:
    """E f^q for the truncated extremal function of type (3; 2) on S^2.

    A member with free coordinate t has f = max(|t|, eps)^-g +
    max(1 - t^2, eps^2)^-g, and on S^2 one coordinate is uniform on
    [-1, 1], so E f^q is a 1-d integral over t in [0, 1].  It is split at
    t = 1/2; the upper half is written in s = 1 - t so that 1 - t^2 =
    s(2 - s) loses no digits near the pole.  Gauss-Legendre panels are
    graded geometrically toward both singular ends.
    """
    floor2 = eps * eps

    def lower(t):
        return (np.maximum(t, eps) ** -g + np.maximum(1 - t * t, floor2) ** -g) ** q

    def upper(s):
        return (np.maximum(1 - s, eps) ** -g + np.maximum(s * (2 - s), floor2) ** -g) ** q

    kink = floor2 / (1 + math.sqrt(1 - floor2))  # s(2 - s) = eps^2
    return (_gauss(lower, [0.0] + _geometric(eps, 0.5))
            + _gauss(upper, [0.0] + _geometric(kink, 0.5)))


def check_sharpness(payload: dict, results: dict) -> list[str]:
    rep = results["report"]
    bad = []
    if not (rep["passed"] and rep["rhs_converged"]
            and rep["classification"] == "divergent-log"):
        bad.append(f"verdict: passed={rep['passed']} rhs_converged="
                   f"{rep['rhs_converged']} classification={rep['classification']}")
    lhs = [e["value"] for e in rep["lhs"]]
    if any(b < a for a, b in zip(lhs, lhs[1:])):
        bad.append("lhs series decreases as eps shrinks")
    p, g = payload["p"], payload["gamma"]
    m = payload["quad"]["samples"]
    grid = payload["eps_grid"]
    eps_grid = [2.0**-k for k in range(grid["min_exp"], grid["max_exp"] + 1)]
    if rep["eps_grid"] != eps_grid or len(rep["rhs_norms"]) != len(eps_grid):
        bad.append("eps grid differs from the scenario")
        return bad
    for eps, row in zip(eps_grid, rep["rhs_norms"]):
        if m * eps * eps / 2 < RESOLVED:
            continue
        mean = extremal_moment(eps, g, p)
        sigma = math.sqrt((extremal_moment(eps, g, 2 * p) - mean * mean) / m)
        for j, est in enumerate(row):
            got = est["value"] ** p
            if abs(got - mean) > Z * sigma:
                bad.append(f"norm of member {j} at eps={eps:g}: {got:.6g} vs "
                           f"1-d quadrature {mean:.6g} (sigma {sigma:.3g})")
    return bad


# --- holder-wide --------------------------------------------------------------


def _own_sphere(n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x5EED])  # PCG64, not the program's Philox
    g = rng.standard_normal((m, n))
    return g / np.linalg.norm(g, axis=1)[:, None]


def holder_moments(fs, p: float, seed: int) -> tuple[np.ndarray, float, float]:
    """Own Monte Carlo of E f_j^p for every j and of E prod_j f_j.

    A random-symmetric function is exp(sum_i c_i u_i) over the squared
    block radii and squared free coordinates u_i, that is
    exp(sum_k d_k x_k^2) with d_k = log f(e_k) read off at the coordinate
    unit vectors.  The form is confirmed on sample points; then all the
    moments of a chunk come from one matrix product.  Returns the p-th
    moments, the product's mean and its standard error.
    """
    n = fs[0].n
    d = np.array([np.log(f.eval(np.eye(n))) for f in fs])
    pts = _own_sphere(n, 1000, seed + 1)
    for f, row in zip(fs, d):
        if not np.allclose(f.eval(pts), np.exp((pts * pts) @ row), rtol=1e-12):
            raise ValueError("integrand is not of the form exp(sum d_k x_k^2)")
    chunks = OWN_SAMPLES // OWN_CHUNK
    pth = np.zeros(len(fs))
    means, variances = [], []
    for k in range(chunks):
        x2 = _own_sphere(n, OWN_CHUNK, seed + 1000 * (k + 1)) ** 2
        pth += np.exp(p * (x2 @ d.T)).mean(axis=0) / chunks
        prod = np.exp(x2 @ d.sum(axis=0))
        means.append(prod.mean())
        variances.append(prod.var())
    # equal chunks: total variance = mean within + variance between
    mean = float(np.mean(means))
    var = float(np.mean(variances) + np.var(means))
    return pth, mean, math.sqrt(var / OWN_SAMPLES)


def check_holder(payload: dict, results: dict, seed: int) -> list[str]:
    from spherebl import Symmetry, random_block_invariant

    n, lengths = payload["type"]["n"], tuple(payload["type"]["lengths"])
    p = balanced_p(n, lengths)
    members = [Symmetry.from_blocks(n, blocks)
               for blocks in ordered_assignments(n, lengths)]
    bad = []
    if not results["all_pass"]:
        bad.append("all_pass is false")
    records = results["records"]
    if len(records) != payload["count"]:
        bad.append(f"{len(records)} records for count={payload['count']}")
    fseed = payload["functions"]["seed"]
    for rep, rec in enumerate(records):
        if rec["ps"] != [float(p)] * len(members):
            bad.append(f"rep {rep}: ps differ from the closed form p = {p}")
            continue
        lhs = rec["lhs"]
        if not lhs["value"] <= rec["rhs_value"]:
            bad.append(f"rep {rep}: LHS {lhs['value']} > RHS {rec['rhs_value']}")
        # the CLI's seeding rule for random-symmetric functions
        fs = [random_block_invariant(s, seed=fseed + 977 * rep + 101 * j)
              for j, s in enumerate(members)]
        pth, mean, se = holder_moments(fs, float(p), seed + rep)
        for j, (own, norm) in enumerate(zip(pth ** (1 / float(p)), rec["norms"])):
            if abs(norm["value"] / own - 1) > NORM_REL:
                bad.append(f"rep {rep}: norm of member {j} {norm['value']:.6g} vs "
                           f"own Monte Carlo {own:.6g}")
        if abs(lhs["value"] - mean) > Z * math.hypot(se, lhs["stderr"]):
            bad.append(f"rep {rep}: LHS {lhs['value']:.6g} vs own Monte Carlo "
                       f"{mean:.6g} (stderr {se:.3g})")
    return bad


# --- local-growth -------------------------------------------------------------


def check_local(payload: dict, results: dict) -> list[str]:
    rep = results["report"]
    n, lengths = payload["type"]["n"], tuple(payload["type"]["lengths"])
    delta = balanced_delta(n, lengths)
    bad = []
    if not results["passed"]:
        bad.append("passed is false")
    if Fraction(rep["delta_target"]["num"], rep["delta_target"]["den"]) != delta:
        bad.append(f"delta {rep['delta_target']} differs from {delta}")
    if rep["r_grid"][0] != 1.0:
        bad.append("the radius grid does not start at R = 1")
    else:
        # the capped profiles are 1 on the unit ball
        vol = 4.0 / 3.0 * math.pi
        if abs(rep["lhs"][0]["value"] - vol) > 1e-12 * vol:
            bad.append(f"R = 1 estimate {rep['lhs'][0]['value']!r} is not 4 pi / 3")
    slope, se = rep["fitted_slope"], rep["slope_stderr"]
    if not 1.2 <= slope <= 1.6:
        bad.append(f"slope {slope} outside [1.2, 1.6]")
    if not slope <= float(delta) + 3 * se:
        bad.append(f"slope {slope} above delta + 3 sigma")
    return bad


# --- exact-combinatorics ------------------------------------------------------


def check_enumerate(payload: dict, results: dict) -> list[str]:
    n, lengths = payload["n"], tuple(payload["lengths"])
    count, over = multinomial(n, lengths), overcount(lengths)
    bad = []
    if results["count"] != count:
        bad.append(f"count {results['count']} != multinomial {count}")
    if results["class_count"] != count // over or len(results["classes"]) != count // over:
        bad.append(f"class count {results['class_count']} != {count // over}")
    seen, keys = set(), set()
    for cl in results["classes"]:
        if len(cl) != over:
            bad.append(f"class of size {len(cl)}, expected {over}")
        cl_keys = set()
        for s in cl:
            covered = [0] * n
            for a, alpha in zip(lengths, s["alphas"]):
                if len(alpha) != n or sum(alpha) != a or set(alpha) - {0, 1}:
                    bad.append(f"block {alpha} is not a 0/1 block of size {a}")
                covered = [c + b for c, b in zip(covered, alpha)]
            if len(s["alphas"]) != len(lengths) or max(covered) > 1:
                bad.append(f"blocks {s['alphas']} overlap or miscount")
            if s["r"] != [1 - c for c in covered]:
                bad.append(f"free mask {s['r']} is not the uncovered set")
            member = tuple(map(tuple, s["alphas"]))
            if member in seen:
                bad.append(f"member {member} listed twice")
            seen.add(member)
            cl_keys.add(frozenset(member))
        if len(cl_keys) != 1 or cl_keys & keys:
            bad.append("a class mixes block sets or repeats another class")
        keys |= cl_keys
        if len(bad) > 20:
            break
    if len(seen) != count:
        bad.append(f"{len(seen)} distinct members listed, expected {count}")
    return bad


def _largest_component(n: int, edges) -> int:
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        parent[root(i)] = root(j)
    return max(Counter(root(v) for v in range(1, n + 1)).values())


def check_exponents(family: list[dict], results: dict) -> list[str]:
    rep = results["report"]
    n = family[0]["n"]
    edge_sets = [set(map(tuple, m["edges"])) for m in family]
    missing = {e: sum(e not in es for es in edge_sets)
               for e in itertools.combinations(range(1, n + 1), 2)}
    per = [max(c for e, c in missing.items() if e not in es) for es in edge_sets]
    delta = n - sum(Fraction(n - _largest_component(n, m["edges"]), q)
                    for m, q in zip(family, per))
    bad = []
    if rep["p_uniform"] != max(missing.values()):
        bad.append(f"p_uniform {rep['p_uniform']} != brute force {max(missing.values())}")
    if rep["p_per_function"] != per:
        bad.append("per-function exponents differ from the brute-force count")
    if Fraction(rep["delta"]["num"], rep["delta"]["den"]) != delta:
        bad.append(f"delta {rep['delta']} != brute force {delta}")
    if rep["j_count"] != len(family) or rep["overcount"] != overcount(wl.FAMILY_LENGTHS):
        bad.append("family size or overcount differs")
    return bad


# --- dispatch -------------------------------------------------------------------


def check(calls: list, records: list[dict], seed: int) -> list[str]:
    """Problems found in the run records of ``calls``, the (argv, payload)
    pairs of one pass made at ``seed``."""
    if len(records) != len(calls):
        return [f"{len(records)} records for {len(calls)} calls"]
    bad = []
    for (argv, payload), rec in zip(calls, records):
        res = rec["results"]
        if isinstance(payload, dict) and "quad" in payload:
            if rec["scenario"]["payload"]["quad"].get("shards") != wl.SHARDS:
                bad.append("the scenario does not pin quad.shards")
        if argv[0] == "verify-sharpness":
            bad += check_sharpness(payload, res)
        elif argv[0] == "verify-holder":
            bad += check_holder(payload, res, seed)
        elif argv[0] == "verify-local":
            bad += check_local(payload, res)
        elif argv[0] == "enumerate":
            bad += check_enumerate(payload, res)
        elif argv[0] == "exponents":
            bad += check_exponents(payload, res)
        else:
            bad.append(f"no check for mode {argv[0]!r}")
    return bad

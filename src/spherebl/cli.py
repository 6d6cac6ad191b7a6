"""Command-line surface: scenario files in, JSON/CSV reports out.

One subcommand per mode; every input beyond the global flags lives in a
scenario JSON file so runs are reproducible by passing the same file
around.  Every report embeds the scenario it came from.  Exit codes:
0 pass (or informational mode), 2 verification failure, 1 input or usage
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import __version__, extremal
from .enumeration import DEFAULT_CAP, canonical_classes, enumerate_symmetries
from .errors import CapExceededError, InputError, NonFiniteSampleError
from .exponents import (
    BalancedType,
    balanced_types_upto,
    identity_critical_gamma,
    identity_exponent_count,
    identity_partition,
    report_for_family,
    report_for_type,
)
from .extremal import (
    DivergenceReport,
    ExtremalParams,
    GrowthReport,
    NormScanReport,
    default_eps_grid,
    default_r_grid,
    extremal_function,
    local_growth_experiment,
    sharpness_experiment,
)
from .exponents import per_function_exponents
from .functions import constant_integrand, random_block_invariants
from .quadrature import (
    _WORKERS_ENV,
    RNG_ALGORITHM,
    QuadConfig,
    _worker_limit,
    holder_verify_sets,
)
from .symmetry import EdgeSet, MultiIndex, Symmetry, _check_dimension, decompose, lie_closure

MODES = ("decompose", "exponents", "enumerate", "identities",
         "verify-holder", "verify-sharpness", "verify-local")

#: The top-level fields of each mode's scenario object, with those that
#: :func:`main` sets from flags (``close``, ``classes``, ``quad``); any other
#: key is an input error, so a misspelt field cannot fall back to its default.
#: Only the modes with a ``quad`` field take ``--seed`` and ``--samples``.
_FIELDS = {
    "decompose": {"n", "edges", "close"},
    "exponents": {"n", "lengths", "families"},
    "enumerate": {"n", "lengths", "cap", "classes"},
    "identities": {"n_max"},
    "verify-holder": {"type", "families", "p", "ps", "count", "functions", "quad"},
    "verify-sharpness": {"type", "p", "gamma", "eps_grid", "cap", "quad"},
    "verify-local": {"type", "families", "eta", "r_grid", "slope_window", "quad"},
}

#: Fields that stand for one another: a scenario gives at most one of each
#: pair, and the second key it gives is an input error.
_ALTERNATIVES = ({"type", "families"}, {"p", "ps"}, {"families", "n"},
                 {"families", "lengths"})


@dataclass(frozen=True)
class Scenario:
    """A mode plus its validated JSON payload."""

    mode: str
    payload: dict


@dataclass(frozen=True)
class RunRecord:
    """Self-describing result envelope written by every run; ``results``
    holds the result objects, which :func:`_encode` turns into JSON values."""

    scenario: Scenario
    tool_version: str
    rng_algorithm: str
    wall_time_s: float
    results: dict
    passed: bool | None


# --- record encoding ----------------------------------------------------------

#: The two wire keys that differ from their field names: ``Symmetry.r_mask``
#: is written as ``r``, and the experiment reports lead with their kind.
_RENAMED = {"r_mask": "r"}
_KIND = {DivergenceReport: "divergence", NormScanReport: "scan", GrowthReport: "growth"}


@functools.cache
def _wire_fields(cls: type) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, _RENAMED.get(f.name, f.name)) for f in dataclasses.fields(cls))


def _encode(value: Any) -> Any:
    """The plain JSON values of a result, built eagerly for ``json.dump``.

    Dicts, lists and tuples are walked; a ``MultiIndex`` becomes its 0/1
    list, a ``frozenset`` a sorted list, a ``Fraction`` ``{"num", "den"}``
    and a dataclass a dict of its fields in declaration order.
    """
    if isinstance(value, MultiIndex):  # the most frequent value of a record
        return list(value.bits)
    if isinstance(value, (str, int, float, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        cls = type(value)
        out = {"kind": _KIND[cls]} if cls in _KIND else {}
        for name, key in _wire_fields(cls):
            out[key] = _encode(getattr(value, name))
        return out
    if isinstance(value, frozenset):
        return [_encode(v) for v in sorted(value)]
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"no JSON form for {type(value).__name__}")


# --- payload validation -------------------------------------------------------
#
# The library owns every rule on a value (dimension, grid, strength, ...);
# this layer parses JSON and reaches each rule under the path it came from.


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InputError(path, message)


def _at(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with its ValueError an input error at ``path``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def _number(value: Any, path: str, integer: bool = False) -> float | int:
    """A finite JSON number (an integer when ``integer``); strings, booleans
    and non-finite values are input errors."""
    kinds = int if integer else (int, float)
    _require(isinstance(value, kinds) and not isinstance(value, bool), path,
             "integer required" if integer else "number required")
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    _require(math.isfinite(value), path, "finite number required")
    return value


def _dimension(data: dict, at: str) -> int:
    n = _number(data.get("n"), f"{at}n", integer=True)
    _at(f"{at}n", _check_dimension, n)
    return n


def _edge_set(data: Any, path: str) -> EdgeSet:
    _require(isinstance(data, dict), path, "expected an object with n and edges")
    at = f"{path}." if path else ""
    n = _dimension(data, at)
    edges = data.get("edges")
    _require(isinstance(edges, list), f"{at}edges", "list of [i, j] pairs required")
    pairs = []
    for k, e in enumerate(edges):
        epath = f"{at}edges[{k}]"
        _require(isinstance(e, (list, tuple)) and len(e) == 2,
                 epath, "expected a pair [i, j]")
        i, j = _number(e[0], epath, integer=True), _number(e[1], epath, integer=True)
        _require(i < j, epath, "i<j required")
        _require(1 <= i and j <= n, epath, f"indices must lie in [1, {n}]")
        pairs.append((i, j))
    return EdgeSet.of(n, pairs)


def _balanced_type(data: Any, path: str) -> BalancedType:
    _require(isinstance(data, dict), path, "expected an object with n and lengths")
    at = f"{path}." if path else ""
    n = _dimension(data, at)
    lengths = data.get("lengths")
    _require(isinstance(lengths, list) and lengths, f"{at}lengths",
             "nonempty list of integer block lengths required")
    lengths = tuple(_number(a, f"{at}lengths", integer=True) for a in lengths)
    return _at(f"{at}lengths", BalancedType, n, lengths)


def _quad_config(data: Any, path: str) -> QuadConfig:
    if data is None:
        return QuadConfig()
    _require(isinstance(data, dict), path, "expected an object")
    for key, value in data.items():
        _require(key in ("samples", "seed", "shards"), f"{path}.{key}", "unknown field")
        _number(value, f"{path}.{key}", integer=True)
    return _at(path, QuadConfig, **data)


#: Largest |exponent| of a dyadic grid: 2^k stays a normal float.
_DYADIC_EXP = 1000


def _grid(data: Any, path: str, default: list[float], least: int,
          descending: bool) -> list[float]:
    """The grid at ``path``: only the parsing of a list of numbers or a
    dyadic spec (2^-k for floors, which run descending, 2^k otherwise).
    :func:`spherebl.extremal._grid` owns what a grid must satisfy and
    sorts it: ``least`` or more distinct positive points, floors below 1/2."""
    if data is None:
        vals = default
    elif isinstance(data, list):
        vals = [_number(v, f"{path}[{k}]") for k, v in enumerate(data)]
    elif isinstance(data, dict) and data.get("kind") == "dyadic":
        lo = _number(data.get("min_exp"), f"{path}.min_exp", integer=True)
        hi = _number(data.get("max_exp"), f"{path}.max_exp", integer=True)
        _require(-_DYADIC_EXP <= lo and hi <= _DYADIC_EXP, path,
                 f"dyadic exponents must lie in [-{_DYADIC_EXP}, {_DYADIC_EXP}]")
        vals = [2.0 ** (-k if descending else k) for k in range(lo, hi + 1)]
    else:
        raise InputError(path, "expected a list of values or a dyadic spec")
    return _at(path, extremal._grid, vals, least, descending)


def _flag(payload: dict, key: str) -> bool:
    value = payload.get(key, False)
    _require(isinstance(value, bool), key, "true or false required")
    return value


def _cap(payload: dict) -> int:
    cap = _number(payload.get("cap", DEFAULT_CAP), "cap", integer=True)
    _require(cap > 0, "cap", "positive integer required")
    return cap


def _enumerate(t: BalancedType, path: str, cap: int = DEFAULT_CAP) -> list[Symmetry]:
    try:
        return enumerate_symmetries(t, cap=cap)
    except CapExceededError as exc:
        raise InputError(path, str(exc)) from exc


def _family(items: Any, path: str) -> list[Symmetry]:
    """Decompose each edge set of the family list at ``path``."""
    _require(isinstance(items, list) and items, path or "input",
             "nonempty list of edge sets required")
    return [_at(f"{path}[{k}]", decompose, _edge_set(item, f"{path}[{k}]"))
            for k, item in enumerate(items)]


def _members(payload: dict) -> tuple[BalancedType | None, list[Symmetry], list[int]]:
    """The balanced type (None for a ``families`` list), the members and
    their per-function exponents of a verify scenario."""
    t = _balanced_type(payload["type"], "type") if "type" in payload else None
    fams = _family(payload.get("families"), "families") if t is None else _enumerate(t, "type")
    return t, fams, _at("families", per_function_exponents, fams)  # a degenerate member


# --- mode handlers ------------------------------------------------------------


def _run_decompose(payload: dict) -> tuple[dict, bool | None]:
    es = _edge_set(payload, "")
    if _flag(payload, "close"):
        es = lie_closure(es)
    return {"symmetry": _at("edges", decompose, es), "edges_closed": es}, None


def _run_exponents(payload: Any) -> tuple[dict, bool | None]:
    path = "families" if isinstance(payload, dict) and "families" in payload else ""
    if path or isinstance(payload, list):
        fams = _family(payload[path] if path else payload, path)
        report = _at(path or "input", report_for_family, fams)
        return {"report": report, "input_kind": "family"}, None
    t = _balanced_type(payload, "")
    return {"report": report_for_type(t), "input_kind": "balanced", "type": t}, None


def _run_enumerate(payload: dict) -> tuple[dict, bool | None]:
    t = _balanced_type(payload, "")
    fams = _enumerate(t, "cap", _cap(payload))
    results: dict = {"count": len(fams), "type": t}
    if _flag(payload, "classes"):
        classes = canonical_classes(fams)
        results["classes"] = classes
        results["class_count"] = len(classes)
    else:
        results["symmetries"] = fams
    return results, None


def _run_identities(payload: dict) -> tuple[dict, bool | None]:
    n_max = _number(payload.get("n_max", 10), "n_max", integer=True)
    _require(3 <= n_max <= 16, "n_max", "integer in [3, 16] required")
    checks = []
    all_pass = True
    for t in balanced_types_upto(n_max):
        a = identity_exponent_count(t)
        b = identity_partition(t)
        c = identity_critical_gamma(t)
        all_pass = all_pass and a and b and c
        checks.append({
            "type": t,
            "exponent_count": a,
            "partition": b,
            "critical_gamma": c,
        })
    return {"checks": checks, "all_pass": all_pass}, all_pass


def _holder_functions(fn_cfg: Any, fams: list[Symmetry], repetition: int,
                      fallback_seed: int):
    if fn_cfg is None:
        fn_cfg = {"kind": "random-symmetric"}
    _require(isinstance(fn_cfg, dict) and "kind" in fn_cfg, "functions",
             "expected an object with a 'kind'")
    kind = fn_cfg["kind"]
    if kind == "random-symmetric":
        amplitude = _number(fn_cfg.get("amplitude", 1.0), "functions.amplitude")
        _require(amplitude >= 0, "functions.amplitude", "nonnegative number required")
        seed = _number(fn_cfg.get("seed", fallback_seed), "functions.seed", integer=True)
        _require(seed >= 0, "functions.seed", "nonnegative integer required")
        base = seed + 977 * repetition
        try:
            return random_block_invariants(
                fams, [base + 101 * j for j in range(len(fams))], amplitude)
        except OverflowError as exc:  # a range [-amplitude, amplitude] too wide
            raise InputError("functions.amplitude", str(exc)) from exc
    if kind == "extremal":
        _require("gamma" in fn_cfg and "trunc" in fn_cfg, "functions",
                 "extremal functions need gamma and trunc")
        params = _at("functions", ExtremalParams,
                     gamma=_number(fn_cfg["gamma"], "functions.gamma"),
                     trunc=_number(fn_cfg["trunc"], "functions.trunc"))
        return [extremal_function(s, params) for s in fams]
    if kind == "constant":
        value = _number(fn_cfg.get("value", 1.0), "functions.value")
        _require(value >= 0, "functions.value", "nonnegative number required")
        return [constant_integrand(s.n, value, tag=s) for s in fams]
    raise InputError("functions.kind", f"unknown kind {kind!r}")


def _run_verify_holder(payload: dict) -> tuple[dict, bool | None]:
    quad = _quad_config(payload.get("quad"), "quad")
    t, fams, exps = _members(payload)
    if "ps" in payload:
        ps = payload["ps"]
        _require(isinstance(ps, list) and len(ps) == len(fams), "ps",
                 f"expected {len(fams)} exponents")
        ps = [_number(p, f"ps[{j}]") for j, p in enumerate(ps)]
    else:
        ps = [_number(payload.get("p", max(exps)), "p")] * len(fams)
    count = _number(payload.get("count", 1), "count", integer=True)
    _require(1 <= count <= 1000, "count", "integer in [1, 1000] required")
    fs_sets = [_holder_functions(payload.get("functions"), fams,
                                 repetition=rep, fallback_seed=quad.seed)
               for rep in range(count)]
    try:
        # a p below the sharp exponent, reported at the key that gave it
        records = _at("ps" if "ps" in payload else "p", holder_verify_sets,
                      fams, fs_sets, ps, quad)
    except NonFiniteSampleError as exc:
        raise InputError("functions", f"{exc} (or its p-th power overflows)") from exc
    ok = all(r.passed for r in records)
    return {
        "type_label": "family" if t is None else f"{t.n},{list(t.lengths)}",
        "records": records,
        "all_pass": ok,
    }, ok


def _run_verify_sharpness(payload: dict) -> tuple[dict, bool | None]:
    t = _balanced_type(payload.get("type"), "type")
    _require("p" in payload, "p", "exponent p required")
    p = _number(payload["p"], "p")
    _require(p > 0, "p", "positive exponent required")
    quad = _quad_config(payload.get("quad"), "quad")
    eps_grid = _grid(payload.get("eps_grid"), "eps_grid", default_eps_grid(), 3,
                     descending=True)
    gamma = payload.get("gamma")
    if gamma is not None:
        gamma = _number(gamma, "gamma")
        _at("gamma", ExtremalParams, gamma, eps_grid[-1])  # raises unless gamma > 0
    cap = _cap(payload)
    try:
        report = sharpness_experiment(t, p, quad, eps_grid=eps_grid, gamma=gamma, cap=cap)
    except (ValueError, OverflowError, CapExceededError, NonFiniteSampleError) as exc:
        raise InputError("input", str(exc)) from exc
    return {"report": report, "type": t}, report.passed


def _run_verify_local(payload: dict) -> tuple[dict, bool | None]:
    _, fams, exps = _members(payload)
    eta = _number(payload.get("eta", 0.1), "eta")
    _require(eta > 0, "eta", "positive eta required")
    quad = _quad_config(payload.get("quad"), "quad")
    r_grid = _grid(payload.get("r_grid"), "r_grid", default_r_grid(), 4,
                   descending=False)
    window = payload.get("slope_window")
    if window is not None:
        _require(isinstance(window, list) and len(window) == 2, "slope_window",
                 "expected [lo, hi]")
        window = [_number(w, f"slope_window[{k}]") for k, w in enumerate(window)]
        _require(window[0] <= window[1], "slope_window", "expected lo <= hi")
    try:
        report = local_growth_experiment(fams, exps, eta, r_grid, quad)
    except (ValueError, OverflowError) as exc:
        raise InputError("r_grid", str(exc)) from exc
    except NonFiniteSampleError as exc:
        raise InputError("input", str(exc)) from exc
    # the growth bound caps the admissible slope at delta
    passed = report.fitted_slope <= float(report.delta_target) + 3 * report.slope_stderr
    if window is not None:
        passed = passed and window[0] <= report.fitted_slope <= window[1]
    return {"report": report, "passed": passed}, passed


_HANDLERS = {
    "decompose": _run_decompose,
    "exponents": _run_exponents,
    "enumerate": _run_enumerate,
    "identities": _run_identities,
    "verify-holder": _run_verify_holder,
    "verify-sharpness": _run_verify_sharpness,
    "verify-local": _run_verify_local,
}


def run(scenario: Scenario) -> RunRecord:
    """Dispatch a validated scenario and wrap the results."""
    if scenario.mode not in _HANDLERS:
        raise InputError("mode", f"unknown mode {scenario.mode!r}")
    if scenario.mode != "exponents":  # the one mode that also takes a list
        _require(isinstance(scenario.payload, dict), "scenario", "expected a JSON object")
    if isinstance(scenario.payload, dict):
        given: list[str] = []
        for key in scenario.payload:
            _require(key in _FIELDS[scenario.mode], key, "unknown field")
            for first in given:
                _require({first, key} not in _ALTERNATIVES, key,
                         f"alternative to {first}: give only one of them")
            given.append(key)
    start = time.perf_counter()
    results, passed = _HANDLERS[scenario.mode](scenario.payload)
    return RunRecord(
        scenario=scenario,
        tool_version=__version__,
        rng_algorithm=RNG_ALGORITHM,
        wall_time_s=time.perf_counter() - start,
        results=results,
        passed=passed,
    )


# --- CSV ------------------------------------------------------------------------


def emit_csv(record: RunRecord, path: str) -> None:
    """Write the series data of a record as RFC 4180 CSV (header always)."""
    mode = record.scenario.mode
    results = record.results
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if mode == "verify-sharpness":
            writer.writerow(["eps", "lhs", "lhs_stderr", "pass"])
            rep = results["report"]
            for eps, est in zip(rep.eps_grid, rep.lhs):
                writer.writerow([repr(eps), repr(est.value), repr(est.stderr), rep.passed])
        elif mode == "verify-local":
            writer.writerow(["R", "lhs", "lhs_stderr"])
            rep = results["report"]
            for r, est in zip(rep.r_grid, rep.lhs):
                writer.writerow([repr(r), repr(est.value), repr(est.stderr)])
        elif mode == "verify-holder":
            writer.writerow(["type", "p", "LHS", "RHS", "margin", "pass"])
            for rec in results["records"]:
                writer.writerow([
                    results["type_label"],
                    rec.ps[0] if rec.ps else "",
                    repr(rec.lhs.value),
                    repr(rec.rhs_value),
                    repr(rec.margin),
                    rec.passed,
                ])
        else:
            raise InputError("csv", f"mode {mode!r} produces no series data")


# --- entry point -----------------------------------------------------------------


def _load_payload(arg: str | None) -> Any:
    if arg is None:
        return {}
    try:
        if arg == "-":
            return json.load(sys.stdin)
        with open(arg) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError("scenario", f"no such file: {arg}")
    except json.JSONDecodeError as exc:
        raise InputError("scenario", f"invalid JSON: {exc}")


def _summary(record: RunRecord) -> str:
    mode = record.scenario.mode
    res = record.results
    if mode == "decompose":
        sym = _encode(res["symmetry"])
        return f"blocks {sym['alphas']} free {sym['r']}"
    if mode == "exponents":
        rep = res["report"]
        return (f"p={rep.p_uniform} j_count={rep.j_count} "
                f"delta={rep.delta.numerator}/{rep.delta.denominator} "
                f"overcount={rep.overcount}")
    if mode == "enumerate":
        extra = f" classes={res['class_count']}" if "class_count" in res else ""
        return f"count={res['count']}{extra}"
    if mode == "identities":
        return f"checked {len(res['checks'])} types, all_pass={res['all_pass']}"
    if mode == "verify-holder":
        return f"{len(res['records'])} run(s), all_pass={res['all_pass']}"
    if mode == "verify-sharpness":
        rep = res["report"]
        return (f"slope={rep.slope:.4g} (+-{rep.slope_stderr:.2g}) "
                f"rhs_converged={rep.rhs_converged} passed={rep.passed}")
    if mode == "verify-local":
        rep = res["report"]
        tgt = rep.delta_target
        return (f"slope={rep.fitted_slope:.4g} (+-{rep.slope_stderr:.2g}) "
                f"target={tgt.numerator}/{tgt.denominator}")
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherebl",
        description="sharp product inequalities on spheres: exponents, "
                    "enumeration and Monte Carlo verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("scenario", nargs="?", default=None,
                        help="scenario JSON file ('-' for stdin)")
        if "quad" in _FIELDS[mode]:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the quadrature seed")
            sp.add_argument("--samples", type=int, default=None,
                            help="override the sample count")
        sp.add_argument("--json", action="store_true",
                        help="print the full run record as JSON")
        sp.add_argument("--csv", metavar="PATH", default=None,
                        help="write series data as CSV")
        if mode == "decompose":
            sp.add_argument("--close", action="store_true",
                            help="apply the Lie closure before decomposing")
        if mode == "enumerate":
            sp.add_argument("--classes", action="store_true",
                            help="group symmetries differing by block order")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version
        if exc.code:
            return 1
        raise
    try:
        try:
            _worker_limit()
        except ValueError as exc:
            raise InputError(_WORKERS_ENV, str(exc)) from exc
        payload = _load_payload(args.scenario)
        if isinstance(payload, dict):
            for flag in ("close", "classes"):
                if getattr(args, flag, False):
                    payload[flag] = True
            override = {key: value for key in ("seed", "samples")
                        if (value := getattr(args, key, None)) is not None}
            quad = payload.get("quad")
            if override and (quad is None or isinstance(quad, dict)):
                payload["quad"] = {**(quad or {}), **override}
        record = run(Scenario(mode=args.mode, payload=payload))
        if args.csv:
            emit_csv(record, args.csv)
        if args.json:
            json.dump(_encode(record), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(f"{args.mode}: {_summary(record)}")
        if record.passed is None:
            return 0
        return 0 if record.passed else 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

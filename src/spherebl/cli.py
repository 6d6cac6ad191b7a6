"""Command-line surface: scenario files in, JSON/CSV reports out.

One subcommand per mode; every input beyond the global flags lives in a
scenario JSON file so runs are reproducible by passing the same file
around.  Every report embeds the scenario it came from.  :func:`run` walks
a mode's entry of the table ``_MODES`` once: every object, at every level,
rejects the keys it does not read, and each value is parsed at its own JSON
path.  Exit codes: 0 pass (or informational mode), 2 verification failure,
1 input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import __version__, extremal
from .enumeration import DEFAULT_CAP, canonical_classes, enumerate_symmetries
from .errors import CapExceededError, InputError, NonFiniteSampleError
from .exponents import (
    BalancedType,
    balanced_types_upto,
    identity_critical_gamma,
    identity_exponent_count,
    identity_partition,
    per_function_exponents,
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
from .functions import constant_integrand, random_block_invariant
from .quadrature import (
    _WORKERS_ENV,
    RNG_ALGORITHM,
    QuadConfig,
    _worker_limit,
    holder_verify_sets,
)
from .symmetry import (EdgeSet, MultiIndex, Symmetry, _check_dimension, _check_edge,
                       decompose, lie_closure)


@dataclass(frozen=True)
class RunRecord:
    """Self-describing result envelope written by every run: ``scenario`` is
    the dict ``{"mode", "payload"}`` of the run, and ``results`` holds the
    result objects, which :func:`_write_json` writes as JSON."""

    scenario: dict
    tool_version: str
    rng_algorithm: str
    wall_time_s: float
    results: dict
    passed: bool | None


# --- record writing -------------------------------------------------------------

#: Objects whose members are not their fields: an ``EdgeSet`` is
#: ``{"n", "edges"}`` with its sorted [i, j] pairs, a ``Fraction`` ``{"num", "den"}``.
#: Any other dataclass is an object of its fields in declaration order, with
#: ``Symmetry.r_mask`` written as ``r`` and the experiment reports after their kind.
_OBJECTS = {EdgeSet: {"n": operator.attrgetter("n"), "edges": EdgeSet.sorted_edges},
            Fraction: {"num": operator.attrgetter("numerator"),
                       "den": operator.attrgetter("denominator")}}
_RENAMED = {"r_mask": "r"}
_KIND = {DivergenceReport: "divergence", NormScanReport: "scan", GrowthReport: "growth"}
_quote = json.encoder.encode_basestring_ascii  # a string as ensure_ascii writes it


@functools.cache
def _wire_fields(cls: type) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    """The ``"key": `` text and the getter of each member of an object of ``cls``."""
    members = _OBJECTS.get(cls) or {_RENAMED.get(f.name, f.name): operator.attrgetter(f.name)
                                    for f in dataclasses.fields(cls)}  # TypeError: no form
    kind = {"kind": lambda _: _KIND[cls]} if cls in _KIND else {}
    return tuple((_key(key), get) for key, get in {**kind, **members}.items())


def _scalar(value: Any) -> str | None:
    """The JSON text of a str, None, bool, int or float, with ``json``'s NaN
    and Infinity; None for any other value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    return None


def _key(key: Any) -> str:
    """The ``"key": `` text of a dict key: ``json`` writes a str, int, float,
    bool or None key as a string, and any other key is a TypeError."""
    return _quote(key if isinstance(key, str) else _scalar(key)) + ": "


@functools.lru_cache(maxsize=4096)  # the blocks of a family repeat across its members
def _row(n: int, mask: int, pad: str) -> str:
    """The 0/1 list of ``MultiIndex(n, mask)``, one digit a line, closed at ``pad``."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(format(mask, f"0{n}b")) + pad + "]"


def _write_json(value: Any, write: Callable[[str], Any]) -> None:
    """Write a result as JSON in one walk, byte for byte as ``json.dump(...,
    indent=2)`` writes its plain values (a ``MultiIndex`` is its 0/1 list)."""
    def walk(value: Any, pad: str) -> None:
        if isinstance(value, MultiIndex):  # the most frequent value of a record
            write(_row(value.n, value.mask, pad))
        elif (text := _scalar(value)) is not None:
            write(text)
        elif isinstance(value, (list, tuple)):
            members("[]", zip(itertools.repeat(""), value), pad)
        elif isinstance(value, dict):
            members("{}", [(_key(k), v) for k, v in value.items()], pad)
        else:
            members("{}", [(key, get(value)) for key, get in _wire_fields(type(value))], pad)

    def members(brackets: str, pairs: Iterable[tuple[str, Any]], pad: str) -> None:
        inner, lead = pad + "  ", brackets[0]
        for key, item in pairs:
            write(lead + inner + key)
            walk(item, inner)
            lead = ","
        write(brackets if lead != "," else pad + brackets[1])

    walk(value, "\n")


# --- field parsers --------------------------------------------------------------
#
# The library owns every rule on a value (dimension, edge, grid, strength,
# ...).  A parser ``parse(value, path)`` turns one JSON value into its
# library value and reaches each rule at ``path`` (``_at``).


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InputError(path, message)


def _at(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; a ValueError or exceeded cap is an error at ``path``."""
    try:
        return call(*args, **kwargs)
    except (ValueError, CapExceededError) as exc:
        raise InputError(path, str(exc)) from exc


def _fields(data: Any, path: str, parsers: dict, what: str = "an object",
            required: Iterable[str] = (), alternatives: Sequence[frozenset] = ()) -> dict:
    """The fields of the JSON object ``data`` at ``path`` (``""``: the root), each
    parsed at its own path unless its parser is None.  Errors: an unknown key, the later
    of two ``alternatives``, a ``required`` field that neither it nor an alternative gives."""
    _require(isinstance(data, dict), path or "scenario", f"expected {what}")
    at = f"{path}." if path else ""
    for key in data:
        _require(key in parsers, at + key, "unknown field")
    for first, key in itertools.combinations(data, 2):
        _require({first, key} not in alternatives, at + key,
                 f"alternative to {first}: give only one of them")
    values = {key: parsers[key](value, at + key) for key, value in data.items()
              if parsers[key] is not None}
    for key in required:
        if key not in values and not any(pair & values.keys()
                                         for pair in alternatives if key in pair):
            parsers[key](None, at + key)  # fails with the field's own message
    return values


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


_integer = functools.partial(_number, integer=True)


def _bounded(lo: float, hi: float = math.inf, integer: bool = False):
    """The parser of a number (an integer when ``integer``) in [lo, hi]."""
    bound = f"{'integer' if integer else 'number'} " + (
        f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}")

    def parse(value: Any, path: str) -> float | int:
        x = _number(value, path, integer)
        _require(lo <= x <= hi, path, f"{bound} required")
        return x
    return parse


def _positive(value: Any, path: str) -> float:
    return _at(path, extremal._positive, path, _number(value, path))


def _flag(value: Any, path: str) -> bool:
    _require(isinstance(value, bool), path, "true or false required")
    return value


def _numbers(value: Any, path: str) -> list[float]:
    _require(isinstance(value, list), path, "list of numbers required")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _window(value: Any, path: str) -> list[float] | None:
    window = None if value is None else _numbers(value, path)
    _require(window is None or len(window) == 2 and window[0] <= window[1], path,
             "expected [lo, hi] with lo <= hi")
    return window


def _dimension(value: Any, path: str) -> int:
    return _at(path, _check_dimension, _integer(value, path))


def _pairs(value: Any, path: str) -> list[tuple[int, int]]:
    """Integer pairs [i, j]; the edge rule needs ``n`` (see :func:`_edge_set`)."""
    _require(isinstance(value, list), path, "list of [i, j] pairs required")
    pairs = []
    for k, e in enumerate(value):
        epath = f"{path}[{k}]"
        _require(isinstance(e, (list, tuple)) and len(e) == 2, epath, "expected a pair [i, j]")
        pairs.append((_integer(e[0], epath), _integer(e[1], epath)))
    return pairs


def _lengths(value: Any, path: str) -> tuple[int, ...]:
    _require(isinstance(value, list) and value, path,
             "nonempty list of integer block lengths required")
    return tuple(_integer(a, path) for a in value)


def _edge_set(at: str, n: int, edges: list[tuple[int, int]]) -> EdgeSet:
    """The edge set of ``n`` and ``edges``; a bad edge is reported at its own path."""
    try:
        return EdgeSet.of(n, edges)
    except ValueError:
        for k, (i, j) in enumerate(edges):
            _at(f"{at}edges[{k}]", _check_edge, n, i, j)
        raise


_EDGES = {"n": _dimension, "edges": _pairs}
_TYPE = {"n": _dimension, "lengths": _lengths}
_QUAD = dict.fromkeys(("samples", "seed", "shards"), _integer)


def _type(value: Any, path: str) -> BalancedType:
    return _at(f"{path}.lengths", BalancedType, **_fields(
        value, path, _TYPE, "an object with n and lengths", required=_TYPE))


def _family(value: Any, path: str) -> list[Symmetry]:
    """The decomposed members of the list of edge sets at ``path``."""
    _require(isinstance(value, list) and value, path or "scenario",
             "nonempty list of edge sets required")
    fams = []
    for k, item in enumerate(value):
        at = f"{path}[{k}]"
        es = _edge_set(f"{at}.", **_fields(item, at, _EDGES, "an object with n and edges",
                                           required=_EDGES))
        fams.append(_at(at, decompose, es))
    return fams


def _quad(value: Any, path: str) -> QuadConfig:
    return _at(path, QuadConfig, **_fields({} if value is None else value, path, _QUAD))


#: Largest |exponent| of a dyadic grid: 2^k stays a normal float.
_DYADIC_EXP = 1000

_DYADIC = {"kind": None, "min_exp": _integer, "max_exp": _integer}
_EPS_GRID, _R_GRID = tuple(default_eps_grid()), tuple(default_r_grid())


def _grid(default: tuple[float, ...], least: int, descending: bool):
    """The parser of a grid: a list of numbers, a dyadic spec (2^-k for
    floors, which run descending, 2^k otherwise) or ``null`` for ``default``.
    :func:`spherebl.extremal._grid` owns the rules on a grid and sorts it."""
    def parse(value: Any, path: str) -> list[float]:
        if value is None:
            vals = default
        elif isinstance(value, list):
            vals = _numbers(value, path)
        elif isinstance(value, dict) and value.get("kind") == "dyadic":
            spec = _fields(value, path, _DYADIC, required=("min_exp", "max_exp"))
            lo, hi = spec["min_exp"], spec["max_exp"]
            _require(-_DYADIC_EXP <= lo and hi <= _DYADIC_EXP, path,
                     f"dyadic exponents must lie in [-{_DYADIC_EXP}, {_DYADIC_EXP}]")
            vals = [2.0 ** (-k if descending else k) for k in range(lo, hi + 1)]
        else:
            raise InputError(path, "expected a list of values or a dyadic spec")
        return _at(path, extremal._grid, vals, least, descending)
    return parse


#: The fields of each function kind of verify-holder.
_FUNCTIONS = {
    "random-symmetric": {"kind": None, "amplitude": _bounded(0),
                         "seed": _bounded(0, integer=True)},
    "extremal": {"kind": None, "gamma": _number, "trunc": _number},
    "constant": {"kind": None, "value": _bounded(0)},
}


def _functions(value: Any, path: str):
    """``make(fams, repetition, fallback_seed)``, the function set of one
    repetition; ``null`` selects random-symmetric functions."""
    value = {"kind": "random-symmetric"} if value is None else value
    _require(isinstance(value, dict) and "kind" in value, path,
             "expected an object with a 'kind'")
    kind = value["kind"]
    _require(isinstance(kind, str) and kind in _FUNCTIONS, f"{path}.kind",
             f"unknown kind {kind!r}")
    spec = _fields(value, path, _FUNCTIONS[kind])
    if kind == "extremal":
        _require(len(spec) == 2, path, "extremal functions need gamma and trunc")
        params = _at(path, ExtremalParams, spec["gamma"], spec["trunc"])
        return lambda fams, *_: [extremal_function(s, params) for s in fams]
    if kind == "constant":
        return lambda fams, *_: [constant_integrand(s.n, spec.get("value", 1.0), tag=s)
                                 for s in fams]

    def make(fams, repetition, fallback_seed):
        base = spec.get("seed", fallback_seed) + 977 * repetition
        try:
            return [random_block_invariant(s, base + 101 * j, spec.get("amplitude", 1.0))
                    for j, s in enumerate(fams)]
        except OverflowError as exc:  # a range [-amplitude, amplitude] too wide
            raise InputError(f"{path}.amplitude", str(exc)) from exc
    return make


# --- mode handlers ------------------------------------------------------------
#
# A handler gets the parsed fields as keyword arguments, with defaults for
# missing ones, and does only the work that spans fields.


def _members(type: BalancedType | None, families: list[Symmetry] | None):
    fams = families if type is None else _at("type", enumerate_symmetries, type)
    return fams, _at("families", per_function_exponents, fams)  # a degenerate member


def _run_decompose(n, edges, close=False):
    es = _edge_set("", n, edges)
    if close:
        es = lie_closure(es)
    return {"symmetry": _at("edges", decompose, es), "edges_closed": es}, None


def _run_exponents(n=None, lengths=None, families=None):
    if families is not None:  # already the family's report
        return {"report": families, "input_kind": "family"}, None
    t = _at("lengths", BalancedType, n, lengths)
    return {"report": report_for_type(t), "input_kind": "balanced", "type": t}, None


def _run_enumerate(n, lengths, cap=DEFAULT_CAP, classes=False):
    t = _at("lengths", BalancedType, n, lengths)
    fams = _at("cap", enumerate_symmetries, t, cap=cap)
    if not classes:
        return {"count": len(fams), "type": t, "symmetries": fams}, None
    found = canonical_classes(fams)
    return {"count": len(fams), "type": t, "classes": found, "class_count": len(found)}, None


def _run_identities(n_max=10):
    checks = [{"type": t, "exponent_count": identity_exponent_count(t),
               "partition": identity_partition(t), "critical_gamma": identity_critical_gamma(t)}
              for t in balanced_types_upto(n_max)]
    all_pass = all(c["exponent_count"] and c["partition"] and c["critical_gamma"]
                   for c in checks)
    return {"checks": checks, "all_pass": all_pass}, all_pass


def _run_verify_holder(type=None, families=None, p=None, ps=None, count=1,
                       functions=_functions(None, "functions"), quad=QuadConfig()):
    fams, exps = _members(type, families)
    key = "p" if ps is None else "ps"  # a p below the sharp exponent is reported here
    if ps is None:
        ps = [float(max(exps)) if p is None else p] * len(fams)
    fs_sets = [functions(fams, rep, quad.seed) for rep in range(count)]
    try:
        records = _at(key, holder_verify_sets, fams, fs_sets, ps, quad)
    except NonFiniteSampleError as exc:
        raise InputError("functions", str(exc)) from exc
    ok = all(r.passed for r in records)
    label = "family" if type is None else f"{type.n},{list(type.lengths)}"
    return {"type_label": label, "records": records, "all_pass": ok}, ok


def _run_verify_sharpness(type, p, gamma=None, eps_grid=_EPS_GRID, cap=DEFAULT_CAP,
                          quad=QuadConfig()):
    _at("p", extremal._sharpness_gamma, type, p, gamma)  # raises unless gamma * p < 1
    try:
        report = sharpness_experiment(type, p, quad, eps_grid=eps_grid, gamma=gamma, cap=cap)
    except CapExceededError as exc:
        raise InputError("cap", str(exc)) from exc
    except (NonFiniteSampleError, OverflowError) as exc:  # a p-th power overflows
        raise InputError("p", str(exc)) from exc
    return {"report": report, "type": type}, report.passed


def _run_verify_local(type=None, families=None, eta=0.1, r_grid=_R_GRID,
                      slope_window=None, quad=QuadConfig()):
    fams, exps = _members(type, families)
    try:
        report = local_growth_experiment(fams, exps, eta, r_grid, quad)
    except (ValueError, OverflowError, NonFiniteSampleError) as exc:
        raise InputError("r_grid", str(exc)) from exc
    # the growth bound caps the admissible slope at delta
    passed = report.fitted_slope <= float(report.delta_target) + 3 * report.slope_stderr
    if slope_window is not None:
        passed = passed and slope_window[0] <= report.fitted_slope <= slope_window[1]
    return {"report": report, "passed": passed}, passed


# --- the mode table -------------------------------------------------------------


@dataclass(frozen=True)
class _Mode:
    """One subcommand: ``run`` gets the fields that :func:`_fields` parses,
    ``summary`` and the rows of ``csv`` (header, rows) the results."""

    fields: dict[str, Callable[[Any, str], Any]]
    run: Callable[..., tuple[dict, bool | None]]
    summary: Callable[..., str]
    required: tuple[str, ...] = ()
    alternatives: tuple[frozenset, ...] = ()
    csv: tuple[tuple[str, ...], Callable[..., list]] | None = None
    flags: dict[str, str] = dataclasses.field(default_factory=dict)  # flag: help
    list_field: str | None = None  # the field that a JSON list at the root gives


#: Integer flags that override ``quad``; the others set their scenario field.
_QUAD_FLAGS = {"seed": "override the quadrature seed", "samples": "override the sample count"}
_MEMBERS = frozenset({"type", "families"})

_MODES = {
    "decompose": _Mode(
        {"n": _dimension, "edges": _pairs, "close": _flag}, _run_decompose,
        lambda symmetry, **_: (f"blocks {[list(a.bits) for a in symmetry.alphas]} "
                               f"free {list(symmetry.r_mask.bits)}"),
        required=("n", "edges"),
        flags={"close": "apply the Lie closure before decomposing"}),
    "exponents": _Mode(
        {"n": _dimension, "lengths": _lengths,
         "families": lambda value, path: _at(path or "scenario", report_for_family,
                                             _family(value, path))},
        _run_exponents,
        lambda report, **_: (f"p={report.p_uniform} j_count={report.j_count} "
                             f"delta={report.delta.numerator}/{report.delta.denominator} "
                             f"overcount={report.overcount}"),
        required=("n", "lengths"), list_field="families",
        alternatives=(frozenset({"families", "n"}), frozenset({"families", "lengths"}))),
    "enumerate": _Mode(
        {"n": _dimension, "lengths": _lengths, "cap": _bounded(1, integer=True),
         "classes": _flag}, _run_enumerate,
        lambda count, class_count=None, **_: f"count={count}" + (
            "" if class_count is None else f" classes={class_count}"),
        required=("n", "lengths"),
        flags={"classes": "group symmetries differing by block order"}),
    "identities": _Mode(
        {"n_max": _bounded(3, 16, integer=True)}, _run_identities,
        lambda checks, all_pass: f"checked {len(checks)} types, all_pass={all_pass}"),
    "verify-holder": _Mode(
        {"type": _type, "families": _family, "p": _number, "ps": _numbers,
         "count": _bounded(1, 1000, integer=True), "functions": _functions, "quad": _quad},
        _run_verify_holder,
        lambda records, all_pass, **_: f"{len(records)} run(s), all_pass={all_pass}",
        required=("families",), alternatives=(_MEMBERS, frozenset({"p", "ps"})),
        csv=(("type", "p", "LHS", "RHS", "margin", "pass"),
             lambda type_label, records, **_: [
                 [type_label, rec.ps[0] if rec.ps else "", repr(rec.lhs.value),
                  repr(rec.rhs_value), repr(rec.margin), rec.passed] for rec in records]),
        flags=_QUAD_FLAGS),
    "verify-sharpness": _Mode(
        {"type": _type, "p": _positive,
         "gamma": lambda value, path: None if value is None else _positive(value, path),
         "eps_grid": _grid(_EPS_GRID, 3, descending=True),
         "cap": _bounded(1, integer=True), "quad": _quad},
        _run_verify_sharpness,
        lambda report, **_: (f"slope={report.slope:.4g} (+-{report.slope_stderr:.2g}) "
                             f"rhs_converged={report.rhs_converged} passed={report.passed}"),
        required=("type", "p"),
        csv=(("eps", "lhs", "lhs_stderr", "pass"), lambda report, **_: [
            [repr(eps), repr(est.value), repr(est.stderr), report.passed]
            for eps, est in zip(report.eps_grid, report.lhs)]),
        flags=_QUAD_FLAGS),
    "verify-local": _Mode(
        {"type": _type, "families": _family, "eta": _positive,
         "r_grid": _grid(_R_GRID, 4, descending=False), "slope_window": _window,
         "quad": _quad},
        _run_verify_local,
        lambda report, **_: (
            f"slope={report.fitted_slope:.4g} (+-{report.slope_stderr:.2g}) "
            f"target={report.delta_target.numerator}/{report.delta_target.denominator}"),
        required=("families",), alternatives=(_MEMBERS,),
        csv=(("R", "lhs", "lhs_stderr"), lambda report, **_: [
            [repr(r), repr(est.value), repr(est.stderr)]
            for r, est in zip(report.r_grid, report.lhs)]),
        flags=_QUAD_FLAGS),
}


def run(mode: str, payload: Any) -> RunRecord:
    """Walk the scenario ``payload`` through the entry of ``mode`` and wrap
    the results."""
    _require(mode in _MODES, "mode", f"unknown mode {mode!r}")
    entry = _MODES[mode]
    start = time.perf_counter()
    if entry.list_field and isinstance(payload, list):
        values = {entry.list_field: entry.fields[entry.list_field](payload, "")}
    else:
        values = _fields(payload, "", entry.fields, "a JSON object", entry.required,
                         entry.alternatives)
    results, passed = entry.run(**values)
    return RunRecord({"mode": mode, "payload": payload}, __version__, RNG_ALGORITHM,
                     time.perf_counter() - start, results, passed)


def emit_csv(record: RunRecord, path: str) -> None:
    """Write the series data of a record as RFC 4180 CSV (header always)."""
    mode = record.scenario["mode"]
    _require(_MODES[mode].csv is not None, "csv", f"mode {mode!r} produces no series data")
    header, rows = _MODES[mode].csv
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows(**record.results))
    except OSError as exc:
        raise InputError("csv", f"{path}: {exc.strerror or exc}") from exc


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
    except OSError as exc:
        raise InputError("scenario", f"{arg}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise InputError("scenario", f"{arg}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherebl",
        description="sharp product inequalities on spheres: exponents, "
                    "enumeration and Monte Carlo verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, mode in _MODES.items():
        sp = sub.add_parser(name)
        sp.add_argument("scenario", nargs="?", default=None,
                        help="scenario JSON file ('-' for stdin)")
        for flag, text in mode.flags.items():
            sp.add_argument(f"--{flag}", help=text, **(
                {"type": int} if flag in _QUAD_FLAGS else {"action": "store_true"}))
        sp.add_argument("--json", action="store_true",
                        help="print the full run record as JSON")
        sp.add_argument("--csv", metavar="PATH", default=None,
                        help="write series data as CSV")
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
            payload.update({f: True for f in ("close", "classes") if getattr(args, f, False)})
            override = {key: value for key in ("seed", "samples")
                        if (value := getattr(args, key, None)) is not None}
            quad = payload.get("quad")
            if override and (quad is None or isinstance(quad, dict)):
                payload["quad"] = {**(quad or {}), **override}
        record = run(args.mode, payload)
        if args.csv:
            emit_csv(record, args.csv)
        if args.json:
            _write_json(record, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            print(f"{args.mode}: {_MODES[args.mode].summary(**record.results)}")
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return 2 if record.passed is False else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:  # the reader closed stdout: quiet the exit-time flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

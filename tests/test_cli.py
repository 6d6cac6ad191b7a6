import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spherebl.cli import Scenario, emit_csv, main, run
from spherebl.errors import InputError
from spherebl.exponents import BalancedType, ExponentReport
from spherebl.extremal import DivergenceReport, GrowthReport, NormScanReport
from spherebl.quadrature import Estimate, VerificationRecord
from spherebl.symmetry import EdgeSet, Symmetry
from oracles import record_json, written


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


#: a radius grid whose ball volumes exceed the float range
HUGE_R_GRID = {"kind": "dyadic", "min_exp": 0, "max_exp": 400}


class TestDecompose:
    def test_happy_path(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "edges": [[1, 2], [3, 4]]})
        assert main(["decompose", path, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["symmetry"]["alphas"] == [[1, 1, 0, 0], [0, 0, 1, 1]]
        assert record["results"]["symmetry"]["r"] == [0, 0, 0, 0]
        assert record["rng_algorithm"]

    def test_summary_line(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 5, "edges": [[1, 2], [3, 5]]})
        assert main(["decompose", path]) == 0
        assert capsys.readouterr().out == (
            "decompose: blocks [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1]] free [0, 0, 0, 1, 0]\n")

    def test_malformed_edge_order(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "edges": [[2, 1]]})
        assert main(["decompose", path]) == 1
        err = capsys.readouterr().err
        assert "edges[0]" in err and "i<j" in err

    def test_not_maximal_is_input_error(self, tmp_path):
        path = write(tmp_path, "s.json", {"n": 4, "edges": [[1, 2], [2, 3]]})
        assert main(["decompose", path]) == 1

    def test_close_flag(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "edges": [[1, 2], [2, 3]]})
        assert main(["decompose", path, "--close", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["symmetry"]["alphas"] == [[1, 1, 1, 0]]


class TestExponents:
    def test_balanced_report_values(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "lengths": [2, 2]})
        assert main(["exponents", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)["results"]["report"]
        assert rep["p_uniform"] == 4
        assert rep["j_count"] == 6
        assert rep["delta"] == {"num": 1, "den": 1}
        assert rep["overcount"] == 2

    def test_family_input(self, tmp_path, capsys):
        fams = [{"n": 3, "edges": [[1, 2]]}, {"n": 3, "edges": [[1, 3]]},
                {"n": 3, "edges": [[2, 3]]}]
        path = write(tmp_path, "s.json", fams)
        assert main(["exponents", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)["results"]["report"]
        assert rep["p_uniform"] == 2
        assert rep["p_per_function"] == [2, 2, 2]
        assert rep["delta"] == {"num": 3, "den": 2}

    def test_rationals_survive_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 5, "lengths": [3, 2]})
        main(["exponents", path, "--json"])
        rep = json.loads(capsys.readouterr().out)["results"]["report"]
        assert rep["delta"] == {"num": 5, "den": 3}


class TestEnumerate:
    def test_listing(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 3, "lengths": [2]})
        assert main(["enumerate", path, "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["count"] == 3
        assert len(res["symmetries"]) == 3

    def test_classes_flag(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "lengths": [2, 2]})
        assert main(["enumerate", path, "--classes", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["class_count"] == 3
        assert all(len(c) == 2 for c in res["classes"])

    def test_cap(self, tmp_path):
        path = write(tmp_path, "s.json", {"n": 6, "lengths": [2, 2, 2], "cap": 10})
        assert main(["enumerate", path]) == 1


class TestIdentities:
    def test_sweep_passes(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n_max": 8})
        assert main(["identities", path, "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["all_pass"] is True
        assert len(res["checks"]) > 10

    def test_default_scenario(self, capsys):
        assert main(["identities"]) == 0


class TestVerifyHolder:
    def scenario(self, tmp_path, **extra):
        payload = {
            "type": {"n": 3, "lengths": [2]},
            "p": 2.0,
            "functions": {"kind": "random-symmetric", "seed": 5},
            "quad": {"samples": 50_000, "seed": 11, "shards": 2},
        }
        payload.update(extra)
        return write(tmp_path, "s.json", payload)

    def test_passes(self, tmp_path, capsys):
        path = self.scenario(tmp_path, count=3)
        assert main(["verify-holder", path, "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["all_pass"] is True
        assert len(res["records"]) == 3

    def test_extremal_functions_pass(self, tmp_path, capsys):
        path = self.scenario(tmp_path, functions={"kind": "extremal", "gamma": 0.25,
                                                  "trunc": 0.01})
        assert main(["verify-holder", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["all_pass"] is True

    def test_csv_schema(self, tmp_path):
        path = self.scenario(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["verify-holder", path, "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "type,p,LHS,RHS,margin,pass"
        assert len(lines) == 2

    def test_seed_override_changes_results(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        main(["verify-holder", path, "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["verify-holder", path, "--json", "--seed", "99"])
        second = json.loads(capsys.readouterr().out)
        a = first["results"]["records"][0]["lhs"]["value"]
        b = second["results"]["records"][0]["lhs"]["value"]
        assert a != b

    def test_family_above_cap_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"type": {"n": 30, "lengths": [2, 2, 2]}})
        assert main(["verify-holder", path]) == 1
        assert "type: family has" in capsys.readouterr().err

    @pytest.mark.parametrize("quad", [{"samples": 1e3}, {"seed": True},
                                      {"shards": "2"}])
    def test_non_integer_quad_fields_are_input_errors(self, tmp_path, capsys, quad):
        path = self.scenario(tmp_path, quad=quad)
        assert main(["verify-holder", path]) == 1
        assert f"quad.{next(iter(quad))}: integer required" in capsys.readouterr().err

    def test_record_does_not_depend_on_workers(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "s.json", {
            "type": {"n": 5, "lengths": [2, 2]}, "count": 2,
            "functions": {"kind": "random-symmetric", "seed": 3},
            "quad": {"samples": 20_000, "seed": 4, "shards": 3}})
        results = []
        for width in ("1", "2"):
            monkeypatch.setenv("SPHEREBL_WORKERS", width)
            assert main(["verify-holder", path, "--json"]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[0] == results[1]

    def test_deterministic_rerun(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        main(["verify-holder", path, "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["verify-holder", path, "--json"])
        second = json.loads(capsys.readouterr().out)
        assert first["results"] == second["results"]


class TestVerifySharpness:
    def test_small_run_and_csv(self, tmp_path, capsys):
        payload = {
            "type": {"n": 3, "lengths": [2]},
            "p": 1.8,
            "gamma": 0.5,
            "eps_grid": {"kind": "dyadic", "min_exp": 3, "max_exp": 10},
            "quad": {"samples": 50_000, "seed": 13, "shards": 2},
        }
        path = write(tmp_path, "s.json", payload)
        out = tmp_path / "series.csv"
        code = main(["verify-sharpness", path, "--json", "--csv", str(out)])
        record = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,lhs,lhs_stderr,pass"
        assert len(lines) == 9
        rep = record["results"]["report"]
        assert rep["fit_model"] == "log"

    def test_record_does_not_depend_on_workers(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "s.json", {
            "type": {"n": 3, "lengths": [2]}, "p": 1.8, "gamma": 0.5,
            "eps_grid": {"kind": "dyadic", "min_exp": 3, "max_exp": 20},
            "quad": {"samples": 30_000, "seed": 5, "shards": 3}})
        results = []
        for width in ("1", "2"):
            monkeypatch.setenv("SPHEREBL_WORKERS", width)
            assert main(["verify-sharpness", path, "--json"]) in (0, 2)
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[0] == results[1]

    def test_gamma_p_guard(self, tmp_path):
        payload = {"type": {"n": 3, "lengths": [2]}, "p": 2.5, "gamma": 0.5,
                   "quad": {"samples": 1000, "seed": 1, "shards": 1}}
        path = write(tmp_path, "s.json", payload)
        assert main(["verify-sharpness", path]) == 1


class TestVerifyLocal:
    def test_run_and_csv(self, tmp_path, capsys):
        payload = {
            "type": {"n": 3, "lengths": [2]},
            "eta": 0.1,
            "r_grid": {"kind": "dyadic", "min_exp": 0, "max_exp": 10},
            "quad": {"samples": 50_000, "seed": 17, "shards": 2},
        }
        path = write(tmp_path, "s.json", payload)
        out = tmp_path / "series.csv"
        assert main(["verify-local", path, "--json", "--csv", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "R,lhs,lhs_stderr"
        assert len(lines) == 12
        rep = record["results"]["report"]
        assert rep["delta_target"] == {"num": 3, "den": 2}

    @pytest.mark.parametrize("window, code", [([0.0, 3.0], 0), ([2.0, 3.0], 2)])
    def test_slope_window_decides(self, tmp_path, capsys, window, code):
        # the fitted slope of this run is about 1.44
        payload = {"type": {"n": 3, "lengths": [2]}, "slope_window": window,
                   "quad": {"samples": 50_000, "seed": 17, "shards": 2}}
        assert main(["verify-local", write(tmp_path, "s.json", payload), "--json"]) == code
        rep = json.loads(capsys.readouterr().out)["results"]["report"]
        assert (window[0] <= rep["fitted_slope"] <= window[1]) == (code == 0)

    def test_three_point_grid_is_input_error(self, tmp_path, capsys):
        payload = {"type": {"n": 3, "lengths": [2]}, "r_grid": [1.0, 2.0, 4.0],
                   "quad": {"samples": 1000, "seed": 1, "shards": 1}}
        assert main(["verify-local", write(tmp_path, "s.json", payload)]) == 1
        assert "r_grid" in capsys.readouterr().err


class TestRunAndRecord:
    def test_unknown_mode(self):
        with pytest.raises(InputError):
            run(Scenario(mode="nope", payload={}))

    def test_record_embeds_scenario(self):
        record = run(Scenario(mode="exponents", payload={"n": 3, "lengths": [2]}))
        text = written(record)
        d = json.loads(text)
        assert d["scenario"]["payload"] == {"n": 3, "lengths": [2]}
        assert d["tool_version"]
        assert json.dumps(d, indent=2) == text  # JSON round trip, bytes included

    def test_csv_rejected_without_series(self, tmp_path):
        record = run(Scenario(mode="exponents", payload={"n": 3, "lengths": [2]}))
        with pytest.raises(InputError):
            emit_csv(record, str(tmp_path / "x.csv"))

    def test_missing_file(self, capsys):
        assert main(["decompose", "/nonexistent/x.json"]) == 1

    def test_directory_as_scenario(self, tmp_path, capsys):
        assert main(["exponents", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: scenario: {tmp_path}: Is a directory\n"

    def test_scenario_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"n": 4, "lengths": [\xff]}')
        assert main(["exponents", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario: {path}: ") and "utf-8" in err

    def test_csv_in_a_missing_directory(self, tmp_path, capsys):
        payload = {"type": {"n": 3, "lengths": [2]},
                   "quad": {"samples": 1000, "seed": 1, "shards": 1}}
        out = tmp_path / "no" / "x.csv"
        assert main(["verify-local", write(tmp_path, "s.json", payload), "--csv", str(out)]) == 1
        assert capsys.readouterr().err == f"error: csv: {out}: No such file or directory\n"

    @pytest.mark.parametrize("mode, extra, code", [
        ("verify-holder", {"p": 1e300}, 1),
        ("verify-sharpness", {"p": 1e300, "gamma": 1e-301}, 1),
        ("verify-local", {"eta": 1e300}, 0),
    ])
    def test_overflow_prints_no_numpy_warning(self, mode, extra, code):
        # a separate process, so standard error is exactly what a user sees;
        # two workers, so the shard jobs run in pool threads
        payload = {"type": {"n": 3, "lengths": [2]},
                   "quad": {"samples": 1000, "seed": 1, "shards": 4}, **extra}
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, SPHEREBL_WORKERS="2",
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-m", "spherebl.cli", mode, "-"],
                              input=json.dumps(payload), env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
        else:  # the CLI's own line only
            assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr


def est(value, stderr, seed):
    return Estimate(value, stderr, 1000, seed)


def estd(value, stderr, seed):
    return {"value": value, "stderr": stderr, "samples": 1000, "seed": seed}


class TestRecordEncoder:
    """The encoder against records written by the hand-written per-class
    encoders it replaced, key order included."""

    CASES = {
        "scan": (
            NormScanReport(
                eps_grid=(0.5, 0.25, 0.125),
                lhs=(est(1.5, 0.01, 3), est(2.25, 0.02, 3), est(3.375, 0.04, 3)),
                fit_model="power", slope=-0.58, slope_stderr=0.003,
                classification="power-law", gamma=0.5, p=1.8),
            {"kind": "scan", "eps_grid": [0.5, 0.25, 0.125],
             "lhs": [estd(1.5, 0.01, 3), estd(2.25, 0.02, 3), estd(3.375, 0.04, 3)],
             "fit_model": "power", "slope": -0.58,
             "slope_stderr": 0.003, "classification": "power-law", "gamma": 0.5,
             "p": 1.8}),
        "sharpness": (
            DivergenceReport(
                eps_grid=(0.25, 0.125, 0.0625),
                lhs=(est(1.0, 0.1, 9), est(1.5, 0.125, 9), est(2.0, 0.25, 9)),
                rhs_norms=((est(0.75, 0.5, 9), est(0.5, 0.25, 9)),
                           (est(0.875, 0.5, 9), est(0.625, 0.25, 9)),
                           (est(0.9375, 0.5, 9), est(0.6875, 0.25, 9))),
                fit_model="log", slope=0.72, slope_stderr=0.05,
                classification="log-divergent", gamma=0.5, p=1.8,
                rhs_converged=True, rhs_rel_change=0.0125, passed=False,
                incr_decay_slope=-0.03, incr_decay_stderr=0.02, incr_decay_median=0.4,
                incr_window_levels=6),
            {"kind": "divergence", "eps_grid": [0.25, 0.125, 0.0625],
             "lhs": [estd(1.0, 0.1, 9), estd(1.5, 0.125, 9), estd(2.0, 0.25, 9)],
             "rhs_norms": [[estd(0.75, 0.5, 9), estd(0.5, 0.25, 9)],
                           [estd(0.875, 0.5, 9), estd(0.625, 0.25, 9)],
                           [estd(0.9375, 0.5, 9), estd(0.6875, 0.25, 9)]],
             "fit_model": "log", "slope": 0.72, "slope_stderr": 0.05,
             "classification": "log-divergent", "gamma": 0.5, "p": 1.8,
             "rhs_converged": True, "rhs_rel_change": 0.0125, "passed": False,
             "incr_decay_slope": -0.03, "incr_decay_stderr": 0.02,
             "incr_decay_median": 0.4, "incr_window_levels": 6}),
        "growth": (
            GrowthReport(
                r_grid=(1.0, 2.0, 4.0),
                lhs=(est(0.5, 0.01, 5), est(1.25, 0.02, 5), est(3.5, 0.05, 5)),
                fitted_slope=1.46, slope_stderr=0.011, delta_target=Fraction(3, 2),
                eta=0.1, profile_exponents=(0.75, 0.75, 0.75)),
            {"kind": "growth", "r_grid": [1.0, 2.0, 4.0],
             "lhs": [estd(0.5, 0.01, 5), estd(1.25, 0.02, 5), estd(3.5, 0.05, 5)],
             "fitted_slope": 1.46, "slope_stderr": 0.011,
             "delta_target": {"num": 3, "den": 2}, "eta": 0.1,
             "profile_exponents": [0.75, 0.75, 0.75]}),
        "verification": (
            VerificationRecord(
                ps=(2.0, 3.5), lhs=est(0.25, 0.001, 11),
                norms=(est(1.0, 0.0, 11), est(0.5, 0.002, 11)), rhs_value=0.5,
                rhs_stderr=0.002, margin=0.25, rel_stderr_joint=0.0045, passed=True,
                flags=("untagged integrand 0", "untagged integrand 1")),
            {"ps": [2.0, 3.5], "lhs": estd(0.25, 0.001, 11),
             "norms": [estd(1.0, 0.0, 11), estd(0.5, 0.002, 11)], "rhs_value": 0.5,
             "rhs_stderr": 0.002, "margin": 0.25, "rel_stderr_joint": 0.0045,
             "passed": True, "flags": ["untagged integrand 0", "untagged integrand 1"]}),
        "exponents": (
            ExponentReport(p_uniform=3, p_per_function=(3, 2, 3), j_count=4,
                           delta=Fraction(7, 4), overcount=2),
            {"p_uniform": 3, "p_per_function": [3, 2, 3], "j_count": 4,
             "delta": {"num": 7, "den": 4}, "overcount": 2}),
        "type": (BalancedType(7, (3, 2)), {"n": 7, "lengths": [3, 2]}),
        "symmetry": (
            Symmetry.from_blocks(7, [(2, 5, 6), (1, 3)]),
            {"n": 7, "alphas": [[0, 1, 0, 0, 1, 1, 0], [1, 0, 1, 0, 0, 0, 0]],
             "r": [0, 0, 0, 1, 0, 0, 1]}),
        "edges": (
            EdgeSet.of(5, [(3, 4), (1, 2), (2, 5), (1, 3)]),
            {"n": 5, "edges": [[1, 2], [1, 3], [2, 5], [3, 4]]}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_record_bytes(self, case):
        value, expected = self.CASES[case]
        assert written(value) == json.dumps(expected, indent=2)


class TestScenarioValues:
    QUAD = {"samples": 1000, "seed": 1, "shards": 1}
    BASE = {
        "decompose": {"n": 4, "edges": [[1, 2], [2, 3]]},
        "exponents": {"n": 4, "lengths": [2]},
        "enumerate": {"n": 4, "lengths": [2]},
        "identities": {"n_max": 4},
        "verify-holder": {"type": {"n": 3, "lengths": [2]}, "p": 2.0,
                          "functions": {"kind": "random-symmetric", "seed": 5},
                          "quad": QUAD},
        "verify-sharpness": {"type": {"n": 3, "lengths": [2]}, "p": 1.8, "gamma": 0.5,
                             "quad": QUAD},
        "verify-local": {"type": {"n": 3, "lengths": [2]}, "eta": 0.1, "quad": QUAD},
    }
    ALTERNATIVES = {"families": ("type", "n", "lengths"), "ps": ("p",)}

    @pytest.mark.parametrize("mode, key, value, path", [
        ("verify-local", "eta", "abc", "eta"),
        ("verify-sharpness", "p", "x", "p"),
        ("verify-holder", "functions", {"kind": "random-symmetric", "amplitude": "big"},
         "functions.amplitude"),
        ("verify-sharpness", "eps_grid", [0.1, "0.01", 0.001], "eps_grid[1]"),
        ("verify-sharpness", "gamma", True, "gamma"),
        ("verify-local", "eta", math.nan, "eta"),
        ("verify-local", "r_grid", [1.0, 2.0, 4.0, math.inf], "r_grid[3]"),
        ("verify-local", "slope_window", [0, "1"], "slope_window[1]"),
        ("verify-holder", "ps", [2.0, "2", 2.0], "ps[1]"),
        ("verify-holder", "functions", {"kind": "random-symmetric", "seed": 1.5},
         "functions.seed"),
        ("verify-holder", "functions", {"kind": "random-symmetric", "seed": -1},
         "functions.seed"),
        ("verify-holder", "functions", {"kind": "constant", "value": "one"},
         "functions.value"),
        ("verify-holder", "functions", {"kind": "constant", "value": -1.0},
         "functions.value"),
        ("verify-holder", "functions", {"kind": "random-symmetric", "amplitude": 1e308},
         "functions.amplitude"),
        ("verify-holder", "functions", {"kind": "extremal", "gamma": 0.2, "trunc": 0.7},
         "functions"),
        ("verify-holder", "functions", {"kind": "extremal", "gamma": "g", "trunc": 0.1},
         "functions.gamma"),
        ("verify-holder", "functions", {"kind": "extremal", "gamma": 0.2, "trunc": None},
         "functions.trunc"),
        ("verify-holder", "type", {"n": 3, "lengths": [None]}, "type.lengths"),
        ("verify-sharpness", "eps_grid", {"kind": "dyadic", "min_exp": 3,
                                          "max_exp": 5000}, "eps_grid"),
        # only a missing or null value selects the default functions
        ("verify-holder", "functions", 0, "functions"),
        ("verify-holder", "functions", [], "functions"),
        ("verify-holder", "functions", "", "functions"),
        ("verify-holder", "functions", False, "functions"),
        ("verify-holder", "functions", {}, "functions"),
        # booleans are not integers
        ("decompose", "n", True, "n"),
        ("decompose", "edges", [[True, 2], [3, 4]], "edges[0]"),
        ("verify-holder", "type", {"n": True, "lengths": [2]}, "type.n"),
        ("verify-holder", "count", True, "count"),
        ("identities", "n_max", True, "n_max"),
        ("verify-local", "r_grid", {"kind": "dyadic", "min_exp": False, "max_exp": 3},
         "r_grid.min_exp"),
        ("verify-local", "r_grid", {"kind": "dyadic", "min_exp": 0, "max_exp": True},
         "r_grid.max_exp"),
        # and flags are JSON booleans: "no" would close the chain above
        ("decompose", "close", "no", "close"),
        ("enumerate", "classes", 1, "classes"),
        # grids are checked before any sampling: repeated values, and
        # truncation floors of 1/2 or more
        ("verify-sharpness", "eps_grid", [0.1, 0.1, 0.05, 0.01], "eps_grid"),
        ("verify-sharpness", "eps_grid", [0.9, 0.1, 0.01], "eps_grid"),
        ("verify-sharpness", "eps_grid", {"kind": "dyadic", "min_exp": -1,
                                          "max_exp": 5}, "eps_grid"),
        ("verify-sharpness", "eps_grid", {"kind": "dyadic", "min_exp": 1,
                                          "max_exp": 5}, "eps_grid"),
        ("verify-local", "r_grid", [1, 2, 2, 4, 8], "r_grid"),
        # an out-of-range dimension is reported at its n
        ("exponents", "n", 2, "n"),
        ("decompose", "n", 70, "n"),
        ("exponents", "families", [{"n": 70, "edges": [[1, 2]]}], "families[0].n"),
        ("verify-holder", "type", {"n": 2, "lengths": [2]}, "type.n"),
        # a degenerate member (its function is constant) is reported at families
        ("verify-holder", "families", [{"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}],
         "families"),
        ("verify-local", "families", [{"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}],
         "families"),
        # a key marked "+" comes beside its alternative: the second is an error
        ("verify-holder", "+families", "nonsense", "families"),
        ("verify-local", "+families", "nonsense", "families"),
        ("verify-holder", "+ps", [2.0, 2.0, 2.0], "ps"),
        ("exponents", "+families", [{"n": 4, "edges": [[1, 2]]}], "families"),
        # an inverted window could never pass
        ("verify-local", "slope_window", [2, 1], "slope_window"),
        # a library rule is reported at the key the scenario used
        ("verify-sharpness", "gamma", -0.5, "gamma"),
        ("verify-sharpness", "gamma", 0, "gamma"),
        ("verify-holder", "p", 1.5, "p"),
        # the rules of the sharpness run, reported at the key that sets them:
        # gamma * p < 1 (gamma given or 1/p_sharp), the cap, finite p-th powers
        ("verify-sharpness", "p", 2.5, "p"),
        ("verify-sharpness", "*", {"p": 2.5, "gamma": None}, "p"),
        ("verify-sharpness", "*", {"type": {"n": 9, "lengths": [2]}, "cap": 10}, "cap"),
        ("verify-sharpness", "*", {"p": 1e300, "gamma": 1e-301}, "p"),
        # the library's positivity and edge rules
        ("verify-sharpness", "p", 0, "p"),
        ("verify-local", "eta", 0, "eta"),
        ("decompose", "edges", [[1, 2], [3, 5]], "edges[1]"),
        ("exponents", "families", [{"n": 4, "edges": [[0, 1]]}], "families[0].edges[0]"),
        # gamma * p = 1 makes the norms infinite too (gamma = 1/p_sharp = 1/2)
        ("verify-sharpness", "*", {"p": 2.0, "gamma": None}, "p"),
        # a radius too large for the growth profile's powers
        ("verify-local", "r_grid", HUGE_R_GRID, "r_grid"),
        # a subnormal truncation floor, whose reciprocal overflows
        ("verify-sharpness", "eps_grid", [0.25, 0.125, 1e-320], "eps_grid"),
        ("verify-holder", "functions", {"kind": "extremal", "gamma": 0.2, "trunc": 1e-320},
         "functions"),
    ])
    def test_bad_value_is_input_error(self, tmp_path, capsys, mode, key, value, path):
        payload = dict(self.BASE[mode])
        if key == "*":  # several fields at once, None dropping one
            payload = {k: v for k, v in {**payload, **value}.items() if v is not None}
        elif key.startswith("+"):
            payload[key[1:]] = value
        else:  # a family list stands in for the type (or n and lengths), ps for p
            for alternative in self.ALTERNATIVES.get(key, ()):
                payload.pop(alternative, None)
            payload[key] = value
        assert main([mode, write(tmp_path, "s.json", payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        if value == HUGE_R_GRID:  # the least radius whose 3-ball volume is inf
            assert err == (f"error: r_grid: the ball volume at radius {2.0 ** 341} "
                           "exceeds the float range\n")

    def test_bad_gamma_is_reported_in_document_order(self, tmp_path, capsys):
        # gamma is parsed in the field walk, so of two bad fields the first wins
        base = {"type": {"n": 3, "lengths": [2]}, "p": 1.8}
        for payload, path in [({**base, "gamma": -0.5, "eps_grid": [1, 2]}, "gamma"),
                              ({**base, "eps_grid": [1, 2], "gamma": -0.5}, "eps_grid")]:
            assert main(["verify-sharpness", write(tmp_path, "s.json", payload)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ")
        assert main(["verify-sharpness", write(tmp_path, "s.json", {**base, "gamma": 0})]) == 1
        assert capsys.readouterr().err == "error: gamma: gamma must be positive\n"

    def test_null_functions_select_the_default(self, tmp_path, capsys):
        payload = dict(self.BASE["verify-holder"], functions=None)
        assert main(["verify-holder", write(tmp_path, "s.json", payload)]) == 0

    @pytest.mark.parametrize("mode, key", [("verify-sharpness", "eps_grid"),
                                           ("verify-local", "r_grid")])
    def test_null_grid_selects_the_default(self, tmp_path, capsys, mode, key):
        runs = []
        for payload in (self.BASE[mode], dict(self.BASE[mode], **{key: None})):
            code = main([mode, write(tmp_path, "s.json", payload), "--json"])
            runs.append((code, json.loads(capsys.readouterr().out)["results"]))
        assert runs[0] == runs[1]

    def test_non_object_scenario_is_input_error(self, tmp_path, capsys):
        assert main(["identities", write(tmp_path, "s.json", [1, 2])]) == 1
        assert "scenario: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ([], "nonempty list of edge sets required"),
        ([{"n": 3, "edges": [[1, 2]]}, {"n": 4, "edges": [[1, 2]]}], "family mixes"),
        (7, "expected a JSON object"),
    ])
    def test_root_of_a_scenario_is_named_scenario(self, tmp_path, capsys, payload, message):
        assert main(["exponents", write(tmp_path, "s.json", payload)]) == 1
        assert capsys.readouterr().err.startswith(f"error: scenario: {message}")

    def test_overrides_leave_a_bad_quad_to_validation(self, tmp_path, capsys):
        payload = dict(self.BASE["verify-local"], quad="fast")
        assert main(["verify-local", write(tmp_path, "s.json", payload),
                     "--samples", "1000"]) == 1
        assert "quad: expected an object" in capsys.readouterr().err


class TestUnknownFields:
    VALID = {
        "decompose": {"n": 4, "edges": [[1, 2], [3, 4]]},
        "exponents": {"n": 4, "lengths": [2, 2]},
        "enumerate": {"n": 4, "lengths": [2, 2]},
        "identities": {"n_max": 4},
        "verify-holder": {"type": {"n": 3, "lengths": [2]}, "p": 2.0,
                          "quad": {"samples": 1000, "seed": 1, "shards": 1}},
        "verify-sharpness": {"type": {"n": 3, "lengths": [2]}, "p": 1.8, "gamma": 0.5,
                             "quad": {"samples": 1000, "seed": 1, "shards": 1}},
        "verify-local": {"type": {"n": 3, "lengths": [2]},
                         "quad": {"samples": 1000, "seed": 1, "shards": 1}},
    }

    @pytest.mark.parametrize("mode", sorted(VALID))
    def test_unknown_key_is_input_error(self, tmp_path, capsys, mode):
        payload = dict(self.VALID[mode], sampels=5)
        assert main([mode, write(tmp_path, "s.json", payload)]) == 1
        assert capsys.readouterr().err.startswith("error: sampels: unknown field")

    @pytest.mark.parametrize("mode, payload, key", [
        ("verify-holder", {**VALID["verify-holder"], "functions": {
            "kind": "random-symmetric", "seed": 3, "amplitud": 5}}, ("functions", "amplitud")),
        ("verify-holder", {**VALID["verify-holder"], "functions": {
            "kind": "constant", "value": 2.0, "amplitude": 1}}, ("functions", "amplitude")),
        ("verify-local", {**VALID["verify-local"], "r_grid": {
            "kind": "dyadic", "min_exp": 0, "max_exp": 10, "base": 3}}, ("r_grid", "base")),
        ("verify-sharpness", {**VALID["verify-sharpness"], "type": {
            "n": 3, "lengths": [2], "x": 1}}, ("type", "x")),
        ("exponents", {"families": [{"n": 3, "edges": [[1, 2]], "extra": 1}]},
         ("families", 0, "extra")),
    ])
    def test_unknown_nested_key_is_input_error(self, tmp_path, capsys, mode, payload, key):
        *head, last = key
        parent = payload
        for step in head:
            parent = parent[step]
        value = parent.pop(last)
        assert main([mode, write(tmp_path, "s.json", payload)]) == 0
        parent[last] = value
        assert main([mode, write(tmp_path, "s.json", payload)]) == 1
        path = ".".join(str(k) for k in key).replace(".0.", "[0].")
        assert capsys.readouterr().err.startswith(f"error: {path}: unknown field")

    def test_second_of_two_alternatives_is_the_error(self, tmp_path, capsys):
        payload = {"families": [{"n": 3, "edges": [[1, 2]]}],
                   "type": {"n": 3, "lengths": [2]}}
        assert main(["verify-local", write(tmp_path, "s.json", payload)]) == 1
        assert capsys.readouterr().err.startswith("error: type: alternative to families")

    @pytest.mark.parametrize("mode, flags", [
        ("decompose", ["--close"]),
        ("enumerate", ["--classes"]),
        ("verify-local", ["--seed", "3", "--samples", "1000"]),
    ])
    def test_keys_set_by_flags_are_known(self, tmp_path, mode, flags):
        assert main([mode, write(tmp_path, "s.json", self.VALID[mode])] + flags) == 0

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    @pytest.mark.parametrize("mode", ["decompose", "exponents", "enumerate", "identities"])
    def test_quadrature_flags_need_a_quadrature_mode(self, tmp_path, capsys, mode, flag):
        assert main([mode, write(tmp_path, "s.json", self.VALID[mode]), flag, "3"]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["decompose", "-", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0


class TestRecordWriter:
    """The one-pass writer against ``json.dumps(..., indent=2)`` of the eagerly
    built values (``oracles.record_json``), byte for byte."""

    QUAD = {"samples": 1000, "seed": 1, "shards": 2}
    RECORDS = {
        "decompose": ("decompose", {"n": 5, "edges": [[1, 2], [2, 3], [4, 5]], "close": True}),
        "exponents": ("exponents", {"n": 6, "lengths": [3, 2]}),
        "exponents-family": ("exponents", [{"n": 4, "edges": [[1, 2]]},
                                           {"n": 4, "edges": [[3, 4], [1, 3], [1, 4]]}]),
        "enumerate": ("enumerate", {"n": 5, "lengths": [2, 2]}),
        "enumerate-classes": ("enumerate", {"n": 7, "lengths": [3, 2, 2], "classes": True}),
        "identities": ("identities", {"n_max": 6}),
        "verify-holder": ("verify-holder", {"type": {"n": 4, "lengths": [2]}, "count": 2,
                                            "quad": QUAD}),
        "verify-sharpness": ("verify-sharpness", {"type": {"n": 3, "lengths": [2]}, "p": 1.8,
                                                  "gamma": 0.5, "quad": QUAD}),
        "verify-local": ("verify-local", {"type": {"n": 3, "lengths": [2]}, "eta": 0.1,
                                          "quad": QUAD}),
    }
    WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')

    @pytest.mark.parametrize("case", list(RECORDS))
    def test_record_of_every_mode(self, case, tmp_path, capsys):
        mode, payload = self.RECORDS[case]
        record = run(Scenario(mode, copy.deepcopy(payload)))
        assert written(record) == record_json(record)
        main([mode, write(tmp_path, "s.json", payload), "--json"])
        out = self.WALL_TIME.sub("", capsys.readouterr().out)
        assert out == self.WALL_TIME.sub("", record_json(record)) + "\n"

    VALUES = {
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "1e300": 1e300,
        "float-subclass": np.float64(0.1), "big-int": -(3 ** 200), "true": True,
        "false": False, "none": None, "empty": [(), [], {}, [[], {}], {"a": ()}],
        "fraction": Fraction(-22, 7), "no-edges": EdgeSet(6, 0),
        "non-ascii": "\u00e9t\u00e9 \u2603 \U0001d11e \"q\" \\ \n\t\x00\x7f",
        "kind": NormScanReport(
            eps_grid=(0.5, 0.25), lhs=(est(math.inf, math.nan, 5),) * 2, fit_model="power",
            slope=-math.inf, slope_stderr=-0.0, classification="", gamma=1e-300, p=2.0),
        "nested": {"s": Symmetry.from_blocks(5, [(1, 4), (2, 5)]),
                   "deep": [[[Symmetry.from_blocks(3, [(1, 3)]).r_mask]]]},
        "non-str-keys": {7: "int", 2.5: "float", False: "bool", None: "null",
                         math.nan: "nan", -math.inf: "-inf", 10 ** 30: "big"},
    }

    @pytest.mark.parametrize("case", list(VALUES))
    def test_value_bytes(self, case):
        assert written(self.VALUES[case]) == record_json(self.VALUES[case])

    @pytest.mark.parametrize("value", [{(1, 2): 3}, {Fraction(1, 2): 0}, object(),
                                       [1, {2, 3}]])
    def test_no_json_form_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            record_json(value)
        with pytest.raises(TypeError):
            written(value)

    @pytest.mark.parametrize("payload, lines", [
        ({"n": 9, "lengths": [3, 3, 2], "classes": True}, 2),  # 4 MB, far beyond a pipe
        ({"n": 3, "lengths": [2]}, 0),  # closed before the record leaves the buffer
    ])
    def test_closed_stdout_ends_without_a_traceback(self, tmp_path, payload, lines):
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
        proc = subprocess.Popen(
            [sys.executable, "-m", "spherebl.cli", "enumerate",
             write(tmp_path, "s.json", payload), "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = [proc.stdout.readline() for _ in range(lines)]
        assert head == [b"{\n", b'  "scenario": {\n'][:lines]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"error: stdout: Broken pipe\n")


class TestWireFormat:
    """Golden hashes of two records (wall time masked), taken before the
    exact core moved to bitmasks: any change to the bytes fails here."""

    WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')

    def record_hash(self, tmp_path, capsys, argv, payload):
        assert main([argv[0], write(tmp_path, "s.json", payload), "--json"] + argv[1:]) == 0
        text = self.WALL_TIME.sub('"wall_time_s": 0', capsys.readouterr().out, count=1)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_enumerate_classes_record(self, tmp_path, capsys):
        digest = self.record_hash(tmp_path, capsys, ["enumerate", "--classes"],
                                  {"n": 6, "lengths": [2, 2]})
        assert digest == "54c8d33490b8424bf2c2aba7c4350f0988d24c78be2eaabf7db8fdf8677aef15"

    def test_exponents_family_record(self, tmp_path, capsys):
        family = [{"n": 6, "edges": [list(a), list(b)]}
                  for a in itertools.combinations(range(1, 7), 2)
                  for b in itertools.combinations([i for i in range(1, 7) if i not in a], 2)]
        family.append({"n": 6, "edges": [[1, 2], [1, 3], [2, 3], [4, 5]]})
        digest = self.record_hash(tmp_path, capsys, ["exponents"], family)
        assert digest == "9d5488728988571abc077cfbf56ad4a64a4db14372fc634e72f1ebbc92871ec0"


class TestWorkersSetting:
    @pytest.mark.parametrize("mode", ["verify-holder", "verify-local"])
    @pytest.mark.parametrize("env", ["abc", "-3"])
    def test_invalid_setting_is_input_error(self, tmp_path, capsys, monkeypatch,
                                            mode, env):
        monkeypatch.setenv("SPHEREBL_WORKERS", env)
        payload = {"type": {"n": 3, "lengths": [2]},
                   "quad": {"samples": 1000, "seed": 1, "shards": 2}}
        assert main([mode, write(tmp_path, "s.json", payload)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: SPHEREBL_WORKERS: SPHEREBL_WORKERS must be a positive integer")


# --- fuzzing the README scenarios -------------------------------------------

README_SCENARIOS = [
    ("decompose", {"n": 4, "edges": [[1, 2], [3, 4]]}),
    ("exponents", {"n": 4, "lengths": [2, 2]}),
    ("enumerate", {"n": 4, "lengths": [2, 2]}),
    ("identities", {"n_max": 6}),
    ("verify-holder", {"type": {"n": 3, "lengths": [2]}, "p": 2.0, "count": 20,
                       "functions": {"kind": "random-symmetric", "seed": 7},
                       "quad": {"samples": 1000000, "seed": 1, "shards": 4}}),
    ("verify-sharpness", {"type": {"n": 3, "lengths": [2]}, "p": 1.8, "gamma": 0.5,
                          "eps_grid": {"kind": "dyadic", "min_exp": 3, "max_exp": 20},
                          "quad": {"samples": 1000000, "seed": 1, "shards": 4}}),
    ("verify-local", {"type": {"n": 3, "lengths": [2]}, "eta": 0.1,
                      "r_grid": {"kind": "dyadic", "min_exp": 0, "max_exp": 10},
                      "quad": {"samples": 1000000, "seed": 1, "shards": 4}}),
]

JUNK = ["abc", "", "2", -1, -3, -0.5, 0, 1e300, True, None, [], {}, [1, "x"],
        {"kind": "dyadic"}, math.nan, -math.inf]


ALTERNATIVE = {"type": "families", "p": "ps"}


def _nodes(value, path=()):
    """Paths of every value inside a JSON tree."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield path + (k,)
            yield from _nodes(item, path + (k,))


def _mutate(payload, path, action, junk):
    *head, last = path
    parent = payload
    for step in head:
        parent = parent[step]
    if action == "drop":
        del parent[last]
    elif action == "add" and isinstance(parent, dict):
        parent[f"extra_{last}"] = junk
    elif action == "alternative":  # families beside type, ps beside p
        payload.update({ALTERNATIVE[k]: junk for k in list(payload) if k in ALTERNATIVE})
    else:
        parent[last] = junk


@st.composite
def mutated_scenarios(draw):
    mode, base = draw(st.sampled_from(README_SCENARIOS))
    payload = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_nodes(payload))
        if not paths:
            break
        _mutate(payload, draw(st.sampled_from(paths)),
                draw(st.sampled_from(["drop", "swap", "add", "alternative"])),
                copy.deepcopy(draw(st.sampled_from(JUNK))))
    return mode, payload


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
def test_mutated_readme_scenarios_never_raise(scenario):
    mode, payload = scenario
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the override keeps every Monte Carlo run at 1,000 samples
        flags = ["--samples", "1000"] if mode.startswith("verify-") else []
        code = main([mode, "-", "--json"] + flags)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    # an unknown key is rejected at whatever level it was added
    if any(isinstance(p[-1], str) and p[-1].startswith("extra_") for p in _nodes(payload)):
        assert code == 1

import json

import pytest

from spherebl.cli import Scenario, emit_csv, main, run
from spherebl.errors import InputError


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDecompose:
    def test_happy_path(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"n": 4, "edges": [[1, 2], [3, 4]]})
        assert main(["decompose", path, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["symmetry"]["alphas"] == [[1, 1, 0, 0], [0, 0, 1, 1]]
        assert record["results"]["symmetry"]["r"] == [0, 0, 0, 0]
        assert record["rng_algorithm"]

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
        d = record.to_dict()
        assert d["scenario"]["payload"] == {"n": 3, "lengths": [2]}
        assert d["tool_version"]
        assert json.loads(json.dumps(d)) == d  # JSON-serialisable round trip

    def test_csv_rejected_without_series(self, tmp_path):
        record = run(Scenario(mode="exponents", payload={"n": 3, "lengths": [2]}))
        with pytest.raises(InputError):
            emit_csv(record, str(tmp_path / "x.csv"))

    def test_missing_file(self, capsys):
        assert main(["decompose", "/nonexistent/x.json"]) == 1

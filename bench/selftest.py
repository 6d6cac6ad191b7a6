"""Quick self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs every workload's CLI calls in process at tiny sample counts (fixed
seed, so the outcome is fixed too), confirms that the checks accept the
untouched records, then corrupts one field at a time and confirms that
the checks reject each corrupted copy.  Also confirms that the run tally
flags two passes of one seed whose outputs differ.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SAMPLES = 100_000


def run_calls(workload: str) -> tuple[list, list[dict]]:
    from spherebl import cli

    calls = workloads.calls(workload, SEED)
    records = []
    for argv, payload in calls:
        if isinstance(payload, dict) and "quad" in payload:
            payload["quad"]["samples"] = SAMPLES
        if argv[0] == "verify-holder":
            payload["count"] = 1
        records.append(json.loads(workloads.invoke(cli, argv, json.dumps(payload))[1]))
    return calls, records


def _scale(est: dict, factor: float) -> None:
    est["value"] *= factor


# Each corruption edits the results of one record in place.
CORRUPTIONS = {
    "sharpness-critical": {
        "verdict flipped": lambda r: r[0]["results"]["report"].update(passed=False),
        "lhs not monotone": lambda r: _scale(r[0]["results"]["report"]["lhs"][-1], 0.5),
        "norm 2% high at eps=1/8": lambda r: _scale(r[0]["results"]["report"]["rhs_norms"][0][1], 1.02),
        "shards not pinned": lambda r: r[0]["scenario"]["payload"]["quad"].pop("shards"),
    },
    "holder-wide": {
        "p off by one": lambda r: r[0]["results"]["records"][0].update(
            ps=[p - 1 for p in r[0]["results"]["records"][0]["ps"]]),
        "LHS above RHS": lambda r: r[0]["results"]["records"][0]["lhs"].update(
            value=2 * r[0]["results"]["records"][0]["rhs_value"]),
        "norm 5% high": lambda r: _scale(r[0]["results"]["records"][0]["norms"][7], 1.05),
        "LHS 20% high": lambda r: _scale(r[0]["results"]["records"][0]["lhs"], 1.2),
    },
    "local-growth": {
        "delta 4/3": lambda r: r[0]["results"]["report"].update(
            delta_target={"num": 4, "den": 3}),
        "R=1 estimate off by 1e-9": lambda r: _scale(r[0]["results"]["report"]["lhs"][0], 1 + 1e-9),
        "slope 1.7": lambda r: r[0]["results"]["report"].update(fitted_slope=1.7),
    },
    "exact-combinatorics": {
        "count + 1": lambda r: r[0]["results"].update(count=r[0]["results"]["count"] + 1),
        "member dropped": lambda r: r[0]["results"]["classes"][5].pop(),
        "member repeated": lambda r: r[0]["results"]["classes"][5].__setitem__(
            0, r[0]["results"]["classes"][6][0]),
        "blocks overlap": lambda r: r[0]["results"]["classes"][0][0]["alphas"][1].__setitem__(
            r[0]["results"]["classes"][0][0]["alphas"][0].index(1), 1),
        "p_uniform + 1": lambda r: r[1]["results"]["report"].update(
            p_uniform=r[1]["results"]["report"]["p_uniform"] + 1),
        "one exponent - 1": lambda r: r[1]["results"]["report"]["p_per_function"].__setitem__(
            3, r[1]["results"]["report"]["p_per_function"][3] - 1),
        "delta changed": lambda r: r[1]["results"]["report"]["delta"].update(
            num=r[1]["results"]["report"]["delta"]["num"] + 1),
    },
}


def main() -> int:
    import run

    misses = 0
    for workload in workloads.WORKLOADS:
        calls, records = run_calls(workload)
        clean = checks.check(calls, records, SEED)
        print(f"{'ok  ' if not clean else 'FAIL'} {workload}: untouched output accepted")
        for q in clean:
            print(f"       {q}")
        misses += bool(clean)
        for name, corrupt in CORRUPTIONS[workload].items():
            bad = copy.deepcopy(records)
            corrupt(bad)
            caught = checks.check(calls, bad, SEED)
            print(f"{'ok  ' if caught else 'FAIL'} {workload}: {name} rejected"
                  + (f" ({caught[0][:70]})" if caught else ""))
            misses += not caught
    runner = run.Pass("local-growth", SEED, deadline=0.0)
    passes = [{"codes": [0], "digest": "a"}, {"codes": [0], "digest": "b"}]
    caught = not run.tally(runner, passes)[2]
    print(f"{'ok  ' if caught else 'FAIL'} run tally: differing outputs of one seed rejected")
    misses += not caught
    print(f"{misses} miss(es)")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the spherebl command line: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a fresh
Python process (``child.py``) that calls ``spherebl.cli.main(..., --json)``
in process and times each call by its wall time.  With ``--trace 0`` the run
repeats whole rounds until the next round would end after S seconds; a
round is one pass with SPHEREBL_WORKERS=2 and one with SPHEREBL_WORKERS=1,
in alternating order.
The last line printed is the result: the medians of the end-to-end metrics
over the run's passes, the CLI calls attempted and failed, and whether
every output passed the checks in ``checks.py``.  With ``--trace 1`` the
workload runs untraced, traced, traced and untraced, all with one worker,
and the result holds the per-layer metrics.  Raw figures of each run are kept in
``.bench_runs/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_runs"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

#: Every run ends within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

#: An interpreter-bound call is timed against the reference work of
#: ``timing.py`` run just before and just after it, and scaled to a CPU
#: on which that work takes REFERENCE_S.  Between slow and fast phases of
#: a CPU the call's time moves as the reference's to the power 0.74 (a fit
#: of log times over 88 passes), so the scale is the speed ratio to the
#: power SPEED_POWER.  A pass whose reference times differ by more than
#: the factor STEADY changed speed mid-way.
REFERENCE_S = 0.06
SPEED_POWER = 0.75
STEADY = 1.25

#: A pass during whose calls other processes used more than this share of
#: the machine's CPU capacity was disturbed by them.  Unsteady and
#: disturbed passes enter the medians only when no pass of their worker
#: count was clean; they are never corrected.
QUIET = 0.10


class Pass:
    """Starts the passes of one run."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.ncalls = len(workloads.calls(workload, seed))

    def __call__(self, workers: int, *extra: str) -> dict | None:
        env = dict(os.environ, SPHEREBL_WORKERS=str(workers))
        timeout = max(1.0, self.deadline - time.monotonic())
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra, "--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"pass with {workers} worker(s) timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pass with {workers} worker(s) failed:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        res = json.loads(lines[-1])
        res["workers"] = workers
        return res


def wall(res: dict) -> float:
    """Seconds in ``cli.main`` over the pass, scaled to the reference speed
    for an interpreter-bound workload."""
    r = res["refs"]
    if not r:
        return sum(res["walls"])
    return sum(w * (2 * REFERENCE_S / (r[k] + r[k + 1])) ** SPEED_POWER
               for k, w in enumerate(res["walls"]))


def others(res: dict) -> float:
    """Share of the machine's CPU capacity other processes used during
    the pass's calls."""
    return sum(w * o for w, o in zip(res["walls"], res["others"])) / sum(res["walls"])


def clean(passes: list[dict]) -> list[dict]:
    """The passes that held steady and that others left alone, or all of
    them when none did."""
    kept = [p for p in passes if others(p) <= QUIET and (
        not p["refs"] or max(p["refs"]) <= STEADY * min(p["refs"]))]
    return kept or passes


def tally(runner: Pass, passes: list) -> tuple[int, int, bool, list[str]]:
    """Calls attempted and failed, and whether every output checks out."""
    attempted = runner.ncalls * len(passes)
    done = [p for p in passes if p is not None]
    failed = runner.ncalls * (len(passes) - len(done))
    failed += sum(code != 0 for p in done for code in p["codes"])
    problems = [q for p in done for q in p.get("problems", [])]
    if len({p["digest"] for p in done}) > 1:
        problems.append("passes of one seed gave different outputs")
    return attempted, failed, not problems, problems


def timed_run(runner: Pass, seconds: float) -> tuple[list, dict]:
    passes: list = []
    start = time.monotonic()
    rounds = 0
    while True:
        for workers in ((2, 1) if rounds % 2 == 0 else (1, 2)):
            passes.append(runner(workers, *([] if passes else ["--check"])))
        rounds += 1
        elapsed = time.monotonic() - start
        if (None in passes or elapsed + elapsed / rounds > seconds
                or time.monotonic() + elapsed / rounds > runner.deadline):
            break
    done = [p for p in passes if p is not None]
    two = [p for p in done if p["workers"] == 2]
    one = [p for p in done if p["workers"] == 1]
    metrics = {}
    if two and one:
        metrics = {
            "wall_s": (statistics.median(map(wall, clean(two))), "s"),
            "wall_1w_s": (statistics.median(map(wall, clean(one))), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in done), "s"),
            # one worker: the peak does not hang on how two threads overlap
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in one), "MB"),
        }
    return passes, metrics


LAYER_UNITS = {"busy_s": "s", "self_s": "s", "overhead_s": "s", "mb": "MB",
               "per_s": "1/s", "bytes": "bytes"}


def traced_run(runner: Pass) -> tuple[list, dict]:
    """Untraced, traced, traced, untraced: the overhead is the mean traced
    minus the mean untraced time, so a drift of the host's speed over the
    four passes cancels out."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.json"
    passes = [runner(1, "--check"), runner(1, "--trace", str(spans)),
              runner(1, "--trace", str(spans)), runner(1)]
    if None in passes:
        return passes, {}
    plain, traced = passes[0::3], passes[1:3]
    layers = dict(traced[-1]["layers"])
    layers["trace.overhead_s"] = (sum(map(wall, traced)) - sum(map(wall, plain))) / 2
    metrics = {}
    for name, value in sorted(layers.items()):
        suffix = name.split(".", 1)[1]
        unit = next((u for key, u in LAYER_UNITS.items() if suffix.endswith(key)),
                    "count")
        metrics[name] = (value, unit)
    return passes, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "spherebl" / "cli.py").is_file():
        print(f"error: no spherebl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Pass(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        passes, metrics = traced_run(runner)
    else:
        passes, metrics = timed_run(runner, args.seconds)
    attempted, failed, correct, problems = tally(runner, passes)
    for q in problems[:20]:
        print(f"check failed: {q}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "passes": passes,
                               "problems": problems}, indent=1))
    if not metrics:
        print("error: no pass completed for every worker count", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

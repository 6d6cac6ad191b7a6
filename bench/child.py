"""One pass of a workload in a fresh Python process.

Started by ``run.py``; prints one JSON line on standard output.  The
process imports numpy and spherebl and builds the scenarios (set-up,
timed from just before ``run.py`` started the process), then feeds each
scenario to ``spherebl.cli.main(..., "--json")`` in process and times that
call by its wall time (``timing.py``).  An interpreter-bound workload also
times a reference work before and after each call.  Peak RSS is read from
``getrusage`` of this process before any check runs.  With ``--check`` the
records are then held against the checks in ``checks.py``; with ``--trace
PATH`` the calls run under the span recorder of ``spans.py`` and the spans
are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

WALL_FIELD = re.compile(r'\n *"wall_time_s": [^,\n]*,')


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before the process was started")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="record spans, write them to PATH, probe sampling")
    args = ap.parse_args()

    import numpy  # noqa: F401  (set-up cost every CLI user pays)
    from spherebl import cli
    import timing
    import workloads

    scenarios = workloads.calls(args.workload, args.seed)
    texts = [json.dumps(payload) for _, payload in scenarios]
    setup_s = time.monotonic() - args.t0
    timed_ref = args.workload in workloads.INTERPRETER_BOUND
    if timed_ref:
        # the interpreter specialises the reference work's code on its
        # first runs; the timed references all see it specialised
        timing.reference_seconds()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        cli = sys.modules["spherebl.cli"]

    walls, others, refs, runs = [], [], [], []
    for (argv, _), text in zip(scenarios, texts):
        if timed_ref:
            refs.append(timing.reference_seconds())
        wall, other = timing.timed(
            lambda: runs.append(workloads.invoke(cli, argv, text)))
        walls.append(wall)
        others.append(other)
    if timed_ref:
        refs.append(timing.reference_seconds())
    codes = [code for code, _ in runs]
    outputs = [out for _, out in runs]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the reported wall time is the only part of a record that may differ
    # between passes of one seed
    stripped = [WALL_FIELD.sub("", out, count=1) for out in outputs]
    digest = hashlib.sha256("\n".join(stripped).encode()).hexdigest()

    result = {"codes": codes, "walls": walls, "others": others, "refs": refs,
              "setup_s": setup_s, "rss_mb": rss_mb, "digest": digest}
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = sum(len(out.encode()) for out in stripped)
        metrics["sampling.points_per_s"] = probe(args.workload, args.seed)
        tracer.dump(args.trace)
        result["layers"] = metrics
    if args.check:
        import checks
        records = [json.loads(out) for out in outputs]
        result["problems"] = checks.check(scenarios, records, args.seed)
    print(json.dumps(result))


def probe(workload: str, seed: int) -> float:
    """Points per second of ``sample_sphere`` at the workload's
    (n, samples, shards); 0 for a workload that samples nothing."""
    from spherebl import QuadConfig, sample_sphere
    import workloads

    payload = workloads.calls(workload, seed)[0][1]
    if not (isinstance(payload, dict) and "quad" in payload):
        return 0.0
    cfg = QuadConfig(**payload["quad"])
    t0 = time.perf_counter()
    for _ in sample_sphere(payload["type"]["n"], cfg):
        pass
    return cfg.samples / (time.perf_counter() - t0)


if __name__ == "__main__":
    main()

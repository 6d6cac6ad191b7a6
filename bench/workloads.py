"""The benchmark's workloads: CLI scenarios made from the run's seed.

Each workload is a list of calls, and each call is the argument list of
``spherebl.cli.main`` (without the scenario path) together with the
scenario payload that is fed to it on standard input.  Only ``--seed``
varies a workload: it keys the quadrature seed of the Monte Carlo
scenarios and the random edge-set family of the exact one.  Every Monte
Carlo scenario pins ``quad.shards``, so its numbers do not depend on the
machine.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

WORKLOADS = ("sharpness-critical", "holder-wide", "local-growth",
             "exact-combinatorics")

#: Workloads that run no threads and spend their time in the interpreter.
INTERPRETER_BOUND = {"exact-combinatorics"}

SHARDS = 4
SAMPLES = 1_000_000

#: Repetitions of the Hoelder check in one holder-wide call.
HOLDER_COUNT = 1

#: Balanced type listed with ``enumerate --classes``.
ENUM_TYPE = (9, (3, 3, 2))

#: Random edge-set family handed to ``exponents``: members on n coordinates,
#: each the cliques on randomly placed blocks of these lengths.
FAMILY_N = 12
FAMILY_SIZE = 600
FAMILY_LENGTHS = (4, 3, 2)


def _quad(seed: int) -> dict:
    return {"samples": SAMPLES, "seed": seed, "shards": SHARDS}


def random_family(seed: int) -> list[dict]:
    """``FAMILY_SIZE`` edge sets, each a union of cliques on disjoint blocks."""
    rng = random.Random(seed)
    family = []
    for _ in range(FAMILY_SIZE):
        coords = rng.sample(range(1, FAMILY_N + 1), sum(FAMILY_LENGTHS))
        edges = []
        start = 0
        for a in FAMILY_LENGTHS:
            block = sorted(coords[start:start + a])
            start += a
            edges += [[block[i], block[j]]
                      for i in range(a) for j in range(i + 1, a)]
        family.append({"n": FAMILY_N, "edges": sorted(edges)})
    return family


def calls(workload: str, seed: int) -> list[tuple[list[str], object]]:
    """The CLI calls of one pass of ``workload`` at ``seed``."""
    if workload == "sharpness-critical":
        return [(["verify-sharpness"], {
            "type": {"n": 3, "lengths": [2]},
            "p": 1.8, "gamma": 0.5,
            "eps_grid": {"kind": "dyadic", "min_exp": 3, "max_exp": 20},
            "quad": _quad(seed)})]
    if workload == "holder-wide":
        # no "p": the CLI derives it from the family, and the check compares
        # it with the closed form
        return [(["verify-holder"], {
            "type": {"n": 6, "lengths": [2, 2]},
            "count": HOLDER_COUNT,
            "functions": {"kind": "random-symmetric", "seed": seed + 1},
            "quad": _quad(seed)})]
    if workload == "local-growth":
        return [(["verify-local"], {
            "type": {"n": 3, "lengths": [2]},
            "eta": 0.1,
            "r_grid": {"kind": "dyadic", "min_exp": 0, "max_exp": 10},
            "quad": _quad(seed)})]
    if workload == "exact-combinatorics":
        n, lengths = ENUM_TYPE
        return [(["enumerate", "--classes"], {"n": n, "lengths": list(lengths)}),
                (["exponents"], random_family(seed))]
    raise ValueError(f"unknown workload {workload!r}")


def invoke(cli, argv: list[str], text: str) -> tuple[int, str]:
    """Feed the scenario ``text`` to ``cli.main(argv + ["-", "--json"])``
    in process; return its exit code and what it printed."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["-", "--json"])
    finally:
        sys.stdin = stdin
    return code, buf.getvalue()

"""Timing on a shared host.

Every time the benchmark reports is a wall time of the program's own
work, taken with ``time.perf_counter``.  Nothing is rescaled by how much
of the CPUs the program got: a change that makes the program's threads
contend with each other, or leaves a thread asleep while another works,
shows in full.

Other tenants of the machine still slow a call down, so each call also
reports the share of the machine's CPU capacity that others used while
it ran: the busy time of all CPUs (``/proc/stat``, steal included) minus
this process's own CPU time (``getrusage``), over the number of CPUs
times the wall time.  The run uses that share only to set aside passes
that others disturbed (``run.QUIET``), never to correct a time.

Interpreter-bound work further runs in fast and slow phases of the CPU
that no counter shows (a busy sibling hardware thread).  Such a call is
timed against :func:`python_work`, run just before and just after it in
the same process (``run.wall``).  The reference work never calls
spherebl, so a change to the program leaves it alone.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time

_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def _machine_busy_ns() -> tuple[int, int]:
    """Busy nanoseconds of all CPUs of the machine so far (steal
    included), and the number of CPUs (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        lines = fh.read().splitlines()
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(
        int, lines[0].split()[1:9])
    ncpus = sum(ln.startswith("cpu") and ln[3].isdigit() for ln in lines)
    return (user + nice + system + irq + softirq + steal) * _TICK_NS, ncpus


def _own_cpu_ns() -> int:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return int((r.ru_utime + r.ru_stime) * 1e9)


def timed(fn) -> tuple[float, float]:
    """Wall seconds of ``fn()``, and the share of the machine's CPU
    capacity that other processes used meanwhile (0 on a quiet host)."""
    busy, ncpus = _machine_busy_ns()
    own = _own_cpu_ns()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    others = (_machine_busy_ns()[0] - busy) - (_own_cpu_ns() - own)
    return wall, max(0.0, others / (ncpus * wall * 1e9))


def reference_seconds(repeat: int = 3) -> float:
    """Least wall seconds of :func:`python_work` over ``repeat`` runs; the
    least leaves out a run that lost the CPU or met a timer interrupt."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        python_work()
        best = min(best, time.perf_counter() - t0)
    return best


def python_work() -> None:
    """Interpreter-bound reference work like the exact path: tuples,
    frozensets, dicts, sorting and a JSON dump.  The cyclic garbage
    collector is off meanwhile: a collection would walk whatever heap the
    calls before left behind, which is not the speed of the CPU."""
    gc.disable()
    try:
        groups: dict = {}
        for i in range(3_000):
            key = (i % 61, (i * 7) % 13)
            groups.setdefault(key, []).append(
                frozenset(((i % 11, i % 5), (i % 3, i % 7), (i % 13, i % 2))))
        rows = [[sorted(map(sorted, fs)) for fs in groups[k]] for k in sorted(groups)]
        json.dumps(rows, indent=2)
    finally:
        gc.enable()

"""Span recorder for the traced run, installed from the benchmark's files.

:func:`install` replaces every public function of the spherebl modules, in
every module namespace that holds it, with a wrapper that records a span
(name, layer, start, end, parent).  It also wraps ``Symmetry.edges`` and
the ``eval`` of every integrand and profile the function factories return,
which is the kernel layer.  Generator functions are left alone: their work
counts toward the caller's self time.  The recorder keeps one call stack,
so it is meant for a run with one worker thread; then the self times of
the spans partition the wall time of the outermost call.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time

#: Module -> layer.  The grid loops and fits of extremal/fitting are the
#: experiment layer.
LAYERS = {
    "spherebl.cli": "cli",
    "spherebl.symmetry": "symmetry",
    "spherebl.enumeration": "enumeration",
    "spherebl.exponents": "exponents",
    "spherebl.quadrature": "quadrature",
    "spherebl.extremal": "experiment",
    "spherebl.fitting": "experiment",
}

#: Functions returning an integrand or a profile; their products are kernels.
KERNEL_FACTORIES = {"extremal_function", "random_block_invariant",
                    "constant_integrand", "coordinate_square_integrand",
                    "capped_power_profile", "bump_profile"}

#: Entry points of the estimator engine: one call is one pass over samples.
ENGINE = {"mc_sphere_estimates", "mc_ball_estimates"}

# span fields
NAME, LAYER, START, END, PARENT, INFO = range(6)


def _engine_info(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return {"samples": a["cfg"].samples, "dim": a.get("n", a.get("dim")),
                "series": a["num_series"]}
    return info


def _grid_info(args, kwargs, result):
    grid = getattr(result, "eps_grid", None) or getattr(result, "r_grid", None)
    return None if grid is None else {"grid": len(grid)}


def _members_info(args, kwargs, result):
    return {"members": len(result)}


def _points_info(args, kwargs, result):
    return {"points": len(args[0])}


class Tracer:
    """In-memory spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result
        return traced

    def _kernel(self, obj, name: str):
        if callable(getattr(obj, "eval", None)):
            return dataclasses.replace(
                obj, eval=self.wrap(obj.eval, name, "kernel", _points_info))
        return self.wrap(obj, name, "kernel", _points_info)

    def _factory(self, fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            return self._kernel(fn(*args, **kwargs), fn.__name__)
        return make

    def install(self) -> None:
        """Wrap the public functions of every loaded spherebl module."""
        from spherebl.symmetry import Symmetry

        done: dict = {}
        for modname, module in list(sys.modules.items()):
            if modname != "spherebl" and not modname.startswith("spherebl."):
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if obj not in done:
                    if obj.__name__ in KERNEL_FACTORIES:
                        done[obj] = self._factory(obj)
                    elif obj.__module__ in LAYERS:
                        info = (_engine_info(obj) if obj.__name__ in ENGINE
                                else _members_info if obj.__name__ == "enumerate_symmetries"
                                else _grid_info if obj.__module__ == "spherebl.extremal"
                                else None)
                        done[obj] = self.wrap(obj, obj.__name__,
                                              LAYERS[obj.__module__], info)
                    else:
                        continue
                setattr(module, attr, done[obj])
        Symmetry.edges = self.wrap(Symmetry.edges, "Symmetry.edges", "symmetry")

    def dump(self, path) -> None:
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def metrics(self) -> dict:
        """Per-layer busy and self times and the counts of the run."""
        spans = self.spans
        dur = [(s[END] - s[START]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        outer_layers: list[frozenset] = []
        for k, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += dur[k]
                outer_layers.append(outer_layers[p] | {spans[p][LAYER]})
            else:
                outer_layers.append(frozenset())
        busy: dict = {}
        self_t: dict = {}
        for k, s in enumerate(spans):
            lay = s[LAYER]
            self_t[lay] = self_t.get(lay, 0.0) + dur[k] - child[k]
            if lay not in outer_layers[k]:
                busy[lay] = busy.get(lay, 0.0) + dur[k]

        def total(name, key):
            return sum(s[INFO][key] for s in spans
                       if s[NAME] == name and s[INFO] is not None)

        engine = [s[INFO] for s in spans if s[NAME] in ENGINE]
        points = sum(e["samples"] for e in engine)
        kpoints = sum(s[INFO]["points"] for s in spans if s[LAYER] == "kernel")
        classes = sum(dur[k] for k, s in enumerate(spans)
                      if s[NAME] == "canonical_classes"
                      and "enumeration" not in outer_layers[k])

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        return {
            "cli.busy_s": busy.get("cli", 0.0),
            "cli.self_s": self_t.get("cli", 0.0),
            "symmetry.busy_s": busy.get("symmetry", 0.0),
            "symmetry.edge_sets_built": sum(s[NAME] == "Symmetry.edges" for s in spans),
            "enumeration.busy_s": busy.get("enumeration", 0.0),
            "enumeration.members": total("enumerate_symmetries", "members"),
            "enumeration.classes_busy_s": classes,
            "exponents.busy_s": busy.get("exponents", 0.0),
            "exponents.calls": sum(s[LAYER] == "exponents" for s in spans),
            "quadrature.calls": len(engine),
            "quadrature.points": points,
            "quadrature.series_evals": sum(e["samples"] * e["series"] for e in engine),
            "quadrature.busy_s": busy.get("quadrature", 0.0),
            "quadrature.self_s": self_t.get("quadrature", 0.0),
            "quadrature.points_per_s": rate(points, busy.get("quadrature", 0.0)),
            # float64 sample points plus value rows, from array sizes
            "quadrature.computed_mb": sum(e["samples"] * (e["dim"] + e["series"]) * 8
                                          for e in engine) / 1e6,
            "kernel.calls": sum(s[LAYER] == "kernel" for s in spans),
            "kernel.points": kpoints,
            "kernel.busy_s": busy.get("kernel", 0.0),
            "kernel.points_per_s": rate(kpoints, busy.get("kernel", 0.0)),
            "experiment.busy_s": busy.get("experiment", 0.0),
            "experiment.self_s": self_t.get("experiment", 0.0),
            "experiment.grid_points": total("sharpness_experiment", "grid")
            + total("local_growth_experiment", "grid")
            + total("norm_boundary_scan", "grid"),
        }

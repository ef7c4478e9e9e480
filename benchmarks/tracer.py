"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``instrument`` rebinds
each public circleopt function named in ``TARGETS`` to a wrapper at every
place the function object is bound (its defining module, the aliases that
``from .x import y`` created in other circleopt modules, and the package
re-exports), and puts the originals back on exit.  Two methods are
wrapped on their classes.  The library itself is not modified.

Each span keeps (name, start, end, parent, job) in memory; ``layer_metrics``
turns a list of spans into ``<module>.<function>.{calls,time_s,self_s}``
plus the work counters that the wrappers read off arguments and results.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "outer", "tag", "counts")

    def __init__(self, name, start, end=0.0, parent=-1, job="", outer=True, tag=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.job = job
        self.outer = outer  # no enclosing span of the same name
        self.tag = tag  # route label, e.g. "fd" / "sd" for convexity_defect
        self.counts = counts  # work counters read off the call

    def row(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "tag": self.tag,
            "counts": self.counts,
        }


class Recorder:
    """In-memory span list for one single-threaded traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def call(self, name, fn, args, kwargs, counter=None):
        depth = self._depth.get(name, 0)
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    job=self.job, outer=depth == 0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] = depth + 1
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._depth[name] = depth
        if counter is not None:
            span.tag, span.counts = counter(args, kwargs, result)
        return result


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


# ---------------------------------------------------------------- counters

def _solve_counts(args, kwargs, sol):
    return None, {"sweeps": sol.iterations, "node_sweeps": sol.iterations * sol.d * sol.g.n}


def _orbit_counts(args, kwargs, table):
    return None, {"orbits": len(table.orbits)}


def _convexity_counts(args, kwargs, rep):
    if rep.method == "finite_difference":
        return "fd", {"fd.shift_evals": rep.grid_n * (rep.grid_n // 2)}
    return "sd", None


def _sample_counts(args, kwargs, grid):
    return None, {"points": grid.n}


def _spec_call_counts(args, kwargs, out):
    return None, {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


# (module, function name, counter); the label is "<module>.<name>"
TARGETS = [
    ("cli", "main", None),
    ("criteria", "scan_translates", None),
    ("criteria", "check_kappa", None),
    ("criteria", "check_class_b", None),
    ("criteria", "check_class_a", None),
    ("criteria", "check_theorem_sturm", None),
    ("criteria", "search_c", None),
    ("transfer", "solve_calibrated", _solve_counts),
    ("transfer", "calibration_residual", None),
    ("transfer", "max_transfer", None),
    ("transfer", "beta_lower_bound", _orbit_counts),
    ("sturmian", "best_sturmian", None),
    ("sturmian", "sturmian_measure", None),
    ("sturmian", "sturmian_certificate", None),
    ("sturmian", "antipodal_difference", None),
    ("sturmian", "preimage_branch_bound", None),
    ("convexity", "convexity_defect", _convexity_counts),
    ("convexity", "uniform_defect", None),
    ("convexity", "pointwise_defect", None),
    ("torus", "sample", _sample_counts),
    ("torus", "refine_linear", None),
    ("torus", "lipschitz_estimate", None),
    ("validate", "suite_cone_laws", None),
    ("validate", "suite_transfer_laws", None),
    ("validate", "suite_defect_contraction", None),
    ("validate", "suite_derivative_gap", None),
    ("validate", "suite_orbit_closure", None),
    ("validate", "suite_branch_bound", None),
]

# (module, class, method, label, counter); FunctionSpec.__call__ is the
# spec-tree evaluation every layer funnels through, GridFunction.to_csv
# serializes g.csv
METHOD_TARGETS = [
    ("torus", "FunctionSpec", "__call__", "torus.FunctionSpec.call", _spec_call_counts),
    ("torus", "GridFunction", "to_csv", "torus.GridFunction.to_csv", None),
]

LABELS = [f"{m}.{n}" for m, n, _ in TARGETS] + [label for _, _, _, label, _ in METHOD_TARGETS]
TAGGED = {"convexity.convexity_defect": ("fd", "sd")}
COUNTERS = {
    "transfer.solve_calibrated": ("sweeps", "node_sweeps"),
    "transfer.beta_lower_bound": ("orbits",),
    "convexity.convexity_defect": ("fd.shift_evals",),
    "torus.sample": ("points",),
    "torus.FunctionSpec.call": ("points",),
}


def _wrap(rec, label, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(label, fn, args, kwargs, counter)

    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Wrap every target at every circleopt binding; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "circleopt" or name.startswith("circleopt."))]
    undo = []
    try:
        for mod, name, counter in TARGETS:
            orig = getattr(sys.modules[f"circleopt.{mod}"], name)
            wrapper = _wrap(rec, f"{mod}.{name}", orig, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for mod, cls_name, meth, label, counter in METHOD_TARGETS:
            cls = getattr(sys.modules[f"circleopt.{mod}"], cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(rec, label, orig, counter))
        yield rec
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ----------------------------------------------------------------- metrics

def layer_metric_names() -> list[str]:
    names = []
    for label in LABELS:
        names += [f"{label}.calls", f"{label}.time_s", f"{label}.self_s"]
        for tag in TAGGED.get(label, ()):
            names += [f"{label}.{tag}.calls", f"{label}.{tag}.time_s", f"{label}.{tag}.self_s"]
        names += [f"{label}.{c}" for c in COUNTERS.get(label, ())]
    return names + [
        "transfer.solve_calibrated.sweeps_max",
        "transfer.solve_calibrated.ns_per_node_sweep",
    ]


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (all names always present).

    ``time_s`` sums only outermost spans of a name, so a function that
    re-enters itself is not counted twice; ``self_s`` sums every span.
    """
    out = dict.fromkeys(layer_metric_names(), 0.0)
    sweeps_max = 0
    for span, self_s in zip(spans, self_times(spans)):
        keys = [span.name] if span.tag is None else [span.name, f"{span.name}.{span.tag}"]
        for key in keys:
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += self_s
            if span.outer:
                out[f"{key}.time_s"] += span.end - span.start
        for c, v in (span.counts or {}).items():
            out[f"{span.name}.{c}"] += v
        if span.name == "transfer.solve_calibrated" and span.counts:
            sweeps_max = max(sweeps_max, span.counts["sweeps"])
    out["transfer.solve_calibrated.sweeps_max"] = float(sweeps_max)
    node_sweeps = out["transfer.solve_calibrated.node_sweeps"]
    if node_sweeps:
        out["transfer.solve_calibrated.ns_per_node_sweep"] = (
            out["transfer.solve_calibrated.time_s"] * 1e9 / node_sweeps
        )
    return out

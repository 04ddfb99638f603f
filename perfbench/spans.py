"""In-memory span tracing around jknet's public functions.

A ``Tracer`` replaces each traced function under every name its callers
look it up by (the defining module, the modules that import it, and the
``jknet`` package namespace) with a wrapper that records a span: name,
start, end and parent span. ``InteractionMatrix`` is traced through its
``__post_init__`` validation, which every construction path runs. Spans
stay in memory until ``summary`` aggregates them; nothing is written while
a run is being timed. The program itself is not edited.
"""
from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from unittest import mock

# (defining module, attribute, span name, counter read from the result or
# None); a span's counter is a size in bytes or steps, or for run_adaptive
# the trace's invariant violations
TRACED = (
    ("graph", "sample_er_digraph", "graph.sample_er_digraph", None),
    ("graph", "resample_vertex", "graph.resample_vertex", None),
    ("graph", "strongly_connected_components",
     "graph.strongly_connected_components", None),
    ("graph", "has_directed_cycle", "graph.has_directed_cycle", None),
    ("graph", "is_acs", "graph.is_acs", None),
    ("graph", "spectral_radius_pf", "graph.spectral_radius_pf", None),
    ("dynamics", "equilibrium", "dynamics.equilibrium", None),
    ("dynamics", "integrate", "dynamics.integrate",
     lambda traj: len(traj.times) - 1),
    ("dynamics", "trajectory_to_csv", "dynamics.trajectory_to_csv", len),
    ("adaptation", "jk_step", "adaptation.jk_step", None),
    ("adaptation", "run_adaptive", "adaptation.run_adaptive",
     lambda trace: trace.invariant_violations),
    ("adaptation", "trace_to_json_lines", "adaptation.trace_to_json_lines", len),
    ("experiments", "conjecture_scan", "experiments.conjecture_scan", None),
    ("cli", "main", "cli.main", None),
)
MODULES = ("graph", "dynamics", "adaptation", "experiments", "cli")
TRIAL = "experiments.trial"


class Tracer:
    """Records nested spans while installed; aggregates them afterwards.

    ``spans`` holds ``[name, start, end, parent, counter]`` lists in start
    order; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._open: list[int] = []

    def _record(self, name, fn, counter=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, 0]
            spans.append(span)
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        pkg = self.package
        mods = [pkg] + [getattr(pkg, m) for m in MODULES]
        with ExitStack() as stack:
            for home, attr, name, counter in TRACED:
                orig = getattr(getattr(pkg, home), attr)
                wrapped = self._record(name, orig, counter)
                for mod in mods:
                    if getattr(mod, attr, None) is orig:
                        stack.enter_context(mock.patch.object(mod, attr, wrapped))
            # experiments calls run_adaptive once per trial: give the trial
            # its own span around the run_adaptive span
            exp = pkg.experiments
            stack.enter_context(mock.patch.object(
                exp, "run_adaptive", self._record(TRIAL, exp.run_adaptive)))
            cls = pkg.graph.InteractionMatrix
            stack.enter_context(mock.patch.object(
                cls, "__post_init__",
                self._record("graph.InteractionMatrix", cls.__post_init__)))
            yield self

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, durations, counter."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, counter) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": [],
                                        "count": 0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[i]
            agg["durations"].append(t1 - t0)
            agg["count"] += counter
        return out

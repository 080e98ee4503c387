"""Spans around the calls into each module, and the per-layer metrics.

The tracer replaces a function with a wrapper on the name its caller looks
up: the solver's calls into assembly and LU inside ``maviscid.solve``, and
the workload's own calls inside ``workloads``.  Each span records its name,
start, end, parent span and run id, plus a few values read from the call's
arguments or result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import maviscid.solve
import workloads

# (module, attribute, span name, observer); an observer maps the call's
# arguments and result to values stored on the span
TARGETS = (
    (maviscid.solve, "assemble_residual_and_jacobian", "assembly.resjac",
     lambda args, out: {"space": id(args[0].space),
                        "residual": float(np.abs(out[0]).max()),
                        "nnz": out[1].nnz}),
    (maviscid.solve, "assemble_nonlinear_residual", "assembly.residual",
     lambda args, out: {"residual": float(np.abs(out).max())}),
    (maviscid.solve, "sparse_solve", "solve.lu", None),
    (maviscid.solve, "newton_solve", "solve.newton", None),
    (workloads, "build_structured_mesh", "mesh.build", None),
    (workloads, "FeSpace", "elements.fespace",
     lambda args, out: {"ndofs": out.ndofs}),
    (workloads, "continuation_solve", "solve.continuation", None),
    (workloads, "error_norms", "analysis.error_norms", None),
    (workloads, "verify_miranda_talenti", "analysis.mt_probe", None),
    (workloads, "verify_discrete_sobolev", "analysis.sobolev_probe", None),
)

# per-layer metric: (unit, better); every traced run reports all of them,
# with 0 where the workload does not run the layer
LAYER_METRICS = {
    "mesh.build_s": ("s", "lower"),
    "elements.fespace_s": ("s", "lower"),
    "elements.ndofs": ("count", "lower"),
    "assembly.first_call_s": ("s", "lower"),
    "assembly.resjac_s": ("s", "lower"),
    "assembly.resjac_calls": ("count", "lower"),
    "assembly.residual_s": ("s", "lower"),
    "assembly.residual_calls": ("count", "lower"),
    "assembly.jac_nnz": ("count", "lower"),
    "solve.lu_s": ("s", "lower"),
    "solve.lu_calls": ("count", "lower"),
    "solve.newton_self_s": ("s", "lower"),
    "solve.newton_iters": ("count", "lower"),
    "solve.rungs": ("count", "lower"),
    "solve.halvings": ("count", "lower"),
    "solve.evals_per_iter": ("ratio", "lower"),
    "analysis.error_norms_s": ("s", "lower"),
    "analysis.mt_probe_s": ("s", "lower"),
    "analysis.sobolev_probe_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts and their ratios must repeat exactly between repetitions
EXACT_METRICS = frozenset(k for k, (unit, _) in LAYER_METRICS.items()
                          if unit in ("count", "ratio"))


class TraceError(Exception):
    """The trace misses a layer or disagrees with the solver's report."""


class Tracer:
    """Records nested spans of wrapped calls, tagged with a run id."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def _wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.update(observe(args, out))
            return out

        return traced

    @contextmanager
    def run(self, run_id):
        """Trace the calls made inside the block under one run id."""
        saved = []
        self.run_id = run_id
        try:
            for module, attr, name, observe in TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, observe))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.run_id = None

    def run_spans(self, run_id):
        """(index, span) pairs of one run, in start order."""
        return [(i, s) for i, s in enumerate(self.spans) if s["run"] == run_id]


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(tracer, run_id, workload, answer):
    """Per-layer metrics of one traced repetition, checked for completeness
    and against the solver's own counts in ``answer``."""
    spans = tracer.run_spans(run_id)
    calls = Counter(s["name"] for _, s in spans)
    missing = sorted(workload.layers - set(calls))
    extra = sorted(set(calls) - workload.layers)
    if missing or extra:
        raise TraceError(
            f"{workload.name}: layers without spans {missing}, "
            f"unexpected spans {extra}"
        )

    def total(name):
        return sum(_dur(s) for _, s in spans if s["name"] == name)

    resjac = [s for _, s in spans if s["name"] == "assembly.resjac"]
    first_on_space = {}
    for s in resjac:
        first_on_space.setdefault(s["space"], s)
    # a line-search residual that does not beat the residual of the last
    # Jacobian assembly is a halving
    halvings, current = 0, None
    for _, s in spans:
        if s["name"] == "assembly.resjac":
            current = s["residual"]
        elif s["name"] == "assembly.residual" and not s["residual"] < current:
            halvings += 1
    # children of one span run one after another in this single thread, so
    # the part of the parent they cover is the sum of their durations
    child_time = Counter()
    for _, s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _dur(s)
    newton_self = sum(_dur(s) - child_time[i] for i, s in spans
                      if s["name"] == "solve.newton")

    iters = answer.get("newton_iters", 0)
    rungs = answer.get("rungs", 0)
    m = {
        "mesh.build_s": total("mesh.build"),
        "elements.fespace_s": total("elements.fespace"),
        "elements.ndofs": sum(s["ndofs"] for _, s in spans
                              if s["name"] == "elements.fespace"),
        "assembly.first_call_s": sum(_dur(s) for s in first_on_space.values()),
        "assembly.resjac_s": total("assembly.resjac"),
        "assembly.resjac_calls": calls["assembly.resjac"],
        "assembly.residual_s": total("assembly.residual"),
        "assembly.residual_calls": calls["assembly.residual"],
        "assembly.jac_nnz": resjac[-1]["nnz"] if resjac else 0,
        "solve.lu_s": total("solve.lu"),
        "solve.lu_calls": calls["solve.lu"],
        "solve.newton_self_s": newton_self,
        "solve.newton_iters": iters,
        "solve.rungs": rungs,
        "solve.halvings": halvings,
        "solve.evals_per_iter": (
            (calls["assembly.resjac"] + calls["assembly.residual"]) / iters
            if iters else 0.0
        ),
        "analysis.error_norms_s": total("analysis.error_norms"),
        "analysis.mt_probe_s": total("analysis.mt_probe"),
        "analysis.sobolev_probe_s": total("analysis.sobolev_probe"),
    }
    # every Newton step assembles one Jacobian, and so does the converged
    # check closing each rung; every step and every halving costs one
    # line-search residual
    checks = (
        ("assembly.resjac_calls", iters + rungs),
        ("assembly.residual_calls", iters + halvings),
        ("solve.lu_calls", iters),
        ("elements.ndofs", sum(answer["ndofs"])),
    )
    for name, want in checks:
        if m[name] != want:
            raise TraceError(
                f"{workload.name}: {name} = {m[name]}, but the solver "
                f"report implies {want}"
            )
    return m

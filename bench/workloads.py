"""The four benchmark workloads, built from the package's built-in cases.

Each workload builds its spaces (the timed set-up), then solves on them (the
timed solve) and returns an answer record that ``check`` compares with the
expected answer.  Every call into the package that the trace wraps is looked
up through this module's namespace, so ``tracing.TARGETS`` can replace it.

The full sizes are scaled down from the acceptance-size runs (case VI at
n=12 alone takes minutes), so that one repetition takes a few seconds; the
smoke sizes run the same code paths in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from maviscid.analysis import (
    error_norms,
    rate_table,
    verify_discrete_sobolev,
    verify_miranda_talenti,
)
from maviscid.cases import builtin_case
from maviscid.elements import FeSpace
from maviscid.mesh import build_structured_mesh
from maviscid.solve import NewtonConfig, continuation_solve

# the residual tolerance of the CLI's case runs and of the acceptance tests
NEWTON_TOL = 1e-8
PROBE_SAMPLES = 20

NEWTON_LAYERS = frozenset({
    "mesh.build", "elements.fespace", "solve.continuation", "solve.newton",
    "assembly.resjac", "assembly.residual", "solve.lu",
})


class AnswerError(Exception):
    """A workload's answer lies outside its tolerance."""


@dataclass(frozen=True)
class Workload:
    """One fixed problem: its spaces, its solve and its expected answer.

    ``sizes`` and ``smoke_sizes`` are mesh divisions per axis, one space per
    entry.  ``expect`` maps a size tuple to the reference answer at that
    size.  ``layers`` names every span a traced repetition must record.
    """

    name: str
    dim: int
    degree: int
    sizes: tuple
    smoke_sizes: tuple
    solve: Callable
    check: Callable
    expect: dict
    layers: frozenset
    seeded: bool = False

    def build(self, sizes):
        return [FeSpace(build_structured_mesh(self.dim, n), self.degree)
                for n in sizes]


def _continuation(space, spec, eps):
    config = NewtonConfig(abs_tol=NEWTON_TOL)
    return continuation_solve(
        space, None, None, spec.sigma, eps, config,
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )


def _newton_record(spaces, reports):
    return {
        "ndofs": [s.ndofs for s in spaces],
        "newton_iters": sum(r.iterations for r in reports),
        "rungs": sum(len(r.rungs) for r in reports),
        "final_residual": max(r.residual_history[-1] for r in reports),
    }


def _solve_profile(case_id):
    def solve(spaces, seed):
        spec = builtin_case(case_id)
        (space,) = spaces
        u, rep = _continuation(space, spec, spec.eps_list[0])
        rec = _newton_record(spaces, [rep])
        rec["min_dof"] = float(u.coeffs.min())
        # axis-swap symmetry at fixed points, as in acceptance check 5
        pts = np.random.default_rng(11).uniform(0.05, 0.95, size=(60, spec.dim))
        base = u.evaluate(pts)
        sym = 0.0
        for a in range(spec.dim - 1):
            q = pts.copy()
            q[:, [a, a + 1]] = q[:, [a + 1, a]]
            sym = max(sym, float(np.abs(u.evaluate(q) - base).max()))
        rec["swap_symmetry"] = sym
        return rec

    return solve


def _check_profile(rec, expect):
    if abs(rec["min_dof"] - expect["min_dof"]) > 1e-5:
        raise AnswerError(
            f"min dof {rec['min_dof']:.6f}, expected {expect['min_dof']:.6f}"
        )
    if rec["swap_symmetry"] > 1e-8:
        raise AnswerError(f"axis-swap asymmetry {rec['swap_symmetry']:.1e} > 1e-8")


def _solve_refine(spaces, seed):
    spec = builtin_case("II")
    eps = spec.eps_list[0]
    rows, reports = [], []
    for space in spaces:
        u, rep = _continuation(space, spec, eps)
        reports.append(rep)
        rows.append((space.mesh.h, error_norms(spec.exact_solution, u)))
    last = rate_table(rows)[-1]
    rec = _newton_record(spaces, reports)
    rec.update(l2_order=last.l2_order, h1_order=last.h1_order,
               h2_order=last.h2_order, h2_error=last.h2)
    return rec


def _check_refine(rec, expect):
    if abs(rec["h2_order"] - expect["h2_order"]) > 0.10:
        raise AnswerError(
            f"last-pair H2 order {rec['h2_order']:.3f}, expected "
            f"{expect['h2_order']:.2f} +- 0.10"
        )


def _solve_probe(spaces, seed):
    (space,) = spaces
    return {
        "ndofs": [space.ndofs],
        "miranda_talenti": float(
            verify_miranda_talenti(space, PROBE_SAMPLES, seed=seed)),
        "sobolev": float(verify_discrete_sobolev(space, PROBE_SAMPLES, seed=seed)),
    }


def _check_probe(rec, expect):
    for key in ("miranda_talenti", "sobolev"):
        c = rec[key]
        if not (np.isfinite(c) and c > 0.0):
            raise AnswerError(f"{key} constant {c!r} is not finite and positive")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "visc2d", dim=2, degree=2, sizes=(32,), smoke_sizes=(4,),
            solve=_solve_profile("III"), check=_check_profile,
            expect={(32,): {"min_dof": -0.156578}, (4,): {"min_dof": -0.155151}},
            layers=NEWTON_LAYERS,
        ),
        Workload(
            "visc3d", dim=3, degree=2, sizes=(6,), smoke_sizes=(4,),
            solve=_solve_profile("VI"), check=_check_profile,
            expect={(6,): {"min_dof": -0.175245}, (4,): {"min_dof": -0.189670}},
            layers=NEWTON_LAYERS,
        ),
        Workload(
            "refine2d_k3", dim=2, degree=3, sizes=(8, 16, 32),
            smoke_sizes=(2, 4), solve=_solve_refine, check=_check_refine,
            expect={(8, 16, 32): {"h2_order": 2.00}, (2, 4): {"h2_order": 2.00}},
            layers=NEWTON_LAYERS | {"analysis.error_norms"},
        ),
        Workload(
            "probe3d", dim=3, degree=2, sizes=(12,), smoke_sizes=(2,),
            solve=_solve_probe, check=_check_probe, expect={},
            layers=frozenset({"mesh.build", "elements.fespace",
                              "analysis.mt_probe", "analysis.sobolev_probe"}),
            seeded=True,
        ),
    )
}

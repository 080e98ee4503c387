"""Error norms, convergence orders, and inequality verification.

Provides L2 / H1 / broken-H2 errors against analytic solutions, the
mesh-dependent norm

  norm_h(v)^2 = ||D^2 v||^2_{L2, broken} + sum_F h_F^{-1} ||jump grad v||^2_F

on discrete functions vanishing at boundary dofs, Monte-Carlo probes of the
discrete Miranda-Talenti and Sobolev inequalities and of coercivity, which
score sample i drawn from ``default_rng(seed + i)`` as ``maviscid verify``
does, and order tables with log-ratio slopes between consecutive rows.
The norms read assembly's cached matrices; analysis builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from maviscid.assembly import (
    _bilap,
    _cell_blocks,
    _cell_tables,
    _discrete_hessians,
    _face_penalty_consistency,
    _hess_gram,
    _hessian_map,
    _on_pattern,
    _phys_points,
    assemble_jacobian,
)
from maviscid.elements import _MAX_EXACTNESS

__all__ = [
    "ScalarField",
    "ErrorNorms",
    "RateRow",
    "error_norms",
    "mesh_norm",
    "verify_miranda_talenti",
    "verify_discrete_sobolev",
    "rate_table",
    "format_rate_table",
]


class ScalarField:
    """Analytic scalar field with point-evaluated gradient and Hessian.

    ``value(points) -> (N,)``, ``gradient(points) -> (N, d)``,
    ``hessian(points) -> (N, d, d)``.
    """

    def __init__(self, value, gradient=None, hessian=None):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian

    def __call__(self, points):
        return self.value(points)


@dataclass(frozen=True)
class ErrorNorms:
    """Full L2 / H1 / broken-H2 norms of an error."""

    l2: float
    h1: float
    h2_broken: float

    def __post_init__(self):
        for name in ("l2", "h1", "h2_broken"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RateRow:
    """One refinement row: parameter, errors, and slopes vs the row above."""

    parameter: float
    l2: float
    h1: float
    h2: float
    l2_order: Optional[float] = None
    h1_order: Optional[float] = None
    h2_order: Optional[float] = None


def _elevated_exactness(space):
    return min(space.cell_rule.exactness + 2, _MAX_EXACTNESS[space.dim])


def error_norms(u_exact, u_h):
    """L2, H1, and broken H2 norms of u_exact - u_h by elevated quadrature."""
    space = u_h.space
    if u_exact.gradient is None or u_exact.hessian is None:
        raise ValueError("u_exact needs gradient and hessian callables")
    rule, val, grad, hess = _cell_tables(space, _elevated_exactness(space))
    l2 = h1s = h2s = 0.0
    for cells, wq in _cell_blocks(space, rule):
        ji = space.jac_inv[cells]
        coef = u_h.coeffs[space.cell_dofs[cells]]
        vh = np.einsum("qb,cb->cq", val, coef)
        gh = np.einsum("qbj,cji,cb->cqi", grad, ji, coef, optimize=True)
        hh = _discrete_hessians(_hessian_map(space, cells), coef, hess)
        pf = _phys_points(space, cells, rule.points).reshape(-1, space.dim)
        ev = vh - np.asarray(u_exact.value(pf)).reshape(vh.shape)
        eg = gh - np.asarray(u_exact.gradient(pf)).reshape(gh.shape)
        eh = hh - np.asarray(u_exact.hessian(pf)).reshape(hh.shape)
        l2 += np.einsum("cq,cq->", wq, ev**2)
        h1s += np.einsum("cq,cqi->", wq, eg**2)
        h2s += np.einsum("cq,cqij->", wq, eh**2)
    return ErrorNorms(
        l2=float(np.sqrt(l2)),
        h1=float(np.sqrt(l2 + h1s)),
        h2_broken=float(np.sqrt(l2 + h1s + h2s)),
    )


def _samples(space, samples, seed):
    """(ndofs, samples) block whose column i is uniform on (-1, 1) at the
    interior dofs, drawn from ``default_rng(seed + i)``, and zero elsewhere."""
    if samples < 1:
        raise ValueError("need at least one sample")
    ii = space.interior_dofs
    V = np.zeros((space.ndofs, samples))
    for i in range(samples):
        V[ii, i] = np.random.default_rng(seed + i).uniform(-1.0, 1.0, len(ii))
    return V


def _norm_pieces(space, coeffs):
    """(broken Hessian norm, broken Laplacian norm, jump seminorm) of a
    coefficient vector, or of each column of an (ndofs, samples) block."""
    P, _ = _face_penalty_consistency(space)
    return tuple(
        np.sqrt(np.maximum((coeffs * (_on_pattern(space, data) @ coeffs)).sum(axis=0), 0.0))
        for data in (_hess_gram(space), _bilap(space), P)
    )


def mesh_norm(v_h):
    """Mesh-dependent norm on discrete functions vanishing at boundary dofs."""
    space = v_h.space
    bvals = v_h.coeffs[space.boundary_dofs]
    scale = max(1.0, float(np.abs(v_h.coeffs).max()) if len(v_h.coeffs) else 1.0)
    if len(bvals) and np.abs(bvals).max() > 1e-13 * scale:
        raise ValueError("mesh_norm requires zero boundary dofs")
    hess, _, jump = _norm_pieces(space, v_h.coeffs)
    return float(np.sqrt(hess**2 + jump**2))


def _miranda_talenti_constants(space, V):
    """max(||D^2 v|| - ||lap v||, 0) / |v|_jump for each column v of V; 0 for
    a jump-free v, which must satisfy ||D^2 v|| <= ||lap v||."""
    hess, lap, jump = _norm_pieces(space, V)
    jump_free = jump < 1e-14 * np.maximum(1.0, hess)
    if np.any(jump_free & (hess > lap + 1e-12)):
        raise AssertionError("Miranda-Talenti violated on a jump-free sample")
    return np.divide(
        np.maximum(hess - lap, 0.0), jump, out=np.zeros_like(jump), where=~jump_free
    )


def verify_miranda_talenti(space, samples, seed=0):
    """Max observed constant in the discrete Miranda-Talenti bound.

    For random v in the zero-boundary subspace, the bound reads
    ||D^2 v|| <= ||lap v|| + C (sum_F h_F^{-1} ||jump grad v||^2)^{1/2};
    samples with vanishing jump seminorm are asserted directly.  Sample i
    comes from ``default_rng(seed + i)``, as in ``maviscid verify``.
    """
    V = _samples(space, samples, seed)
    return float(_miranda_talenti_constants(space, V).max())


def _linf_estimate(space, coeffs):
    """Max of |v| over dof nodes and cell quadrature points, for a vector or
    each column of an (ndofs, samples) block."""
    best = np.abs(coeffs).max(axis=0, initial=0.0)
    rule, val, _, _ = _cell_tables(space)
    for cells, _ in _cell_blocks(space, rule):
        vh = np.einsum("qb,cb...->cq...", val, coeffs[space.cell_dofs[cells]])
        # max |vh| as max(max, -min), and vh dropped before the next block
        # is formed: one block-sized array is live at a time
        best = np.maximum(best, np.maximum(vh.max(axis=(0, 1)), -vh.min(axis=(0, 1))))
        del vh
    return best


def _sobolev_constants(space, V):
    """||v||_inf / ||v||_h for each column v of V; 0 where ||v||_h = 0."""
    hess, _, jump = _norm_pieces(space, V)
    nh = np.sqrt(hess**2 + jump**2)
    return np.divide(_linf_estimate(space, V), nh, out=np.zeros_like(nh), where=nh > 0)


def verify_discrete_sobolev(space, samples, seed=0):
    """Max observed constant in ||v||_inf <= C ||v||_h over random samples;
    sample i comes from ``default_rng(seed + i)``, as in ``maviscid verify``."""
    return float(_sobolev_constants(space, _samples(space, samples, seed)).max())


def _coercivity_values(w, params, V):
    """v'Av for each column v of V, where A = A_h(cof(D^2 w)) is minus the
    Newton Jacobian at w."""
    A = -assemble_jacobian(w, params)
    return (V * (A @ V)).sum(axis=0)


def _order(e_prev, e_cur, p_prev, p_cur):
    if e_prev is None or e_prev <= 0 or e_cur <= 0:
        return None
    return float(np.log(e_prev / e_cur) / np.log(p_prev / p_cur))


def rate_table(rows):
    """Log-ratio convergence orders between consecutive refinement rows."""
    if len(rows) < 2:
        raise ValueError("need at least two rows")
    params = [float(p) for p, _ in rows]
    if any(b >= a for a, b in zip(params, params[1:])):
        raise ValueError("parameters must be strictly decreasing")
    out = []
    prev_param, prev_errs = None, (None, None, None)
    for param, err in rows:
        errs = (err.l2, err.h1, err.h2_broken)
        orders = [_order(e0, e1, prev_param, param) for e0, e1 in zip(prev_errs, errs)]
        out.append(RateRow(param, *errs, *orders))
        prev_param, prev_errs = param, errs
    return out


def _row_cells(row, missing="-"):
    """The text cells of a rate-table row: the parameter, then each error in
    scientific notation and its order to 2 decimals (``missing`` if none)."""
    cells = [f"{row.parameter:g}"]
    for err, order in ((row.l2, row.l2_order), (row.h1, row.h1_order),
                       (row.h2, row.h2_order)):
        cells += [f"{err:.2e}", missing if order is None else f"{order:.2f}"]
    return cells


def format_rate_table(rows, parameter_name="h"):
    """Markdown table with errors in scientific notation, orders to 2 decimals."""
    head = (
        f"| {parameter_name} | L2 error | order | H1 error | order "
        "| H2 error | order |"
    )
    sep = "|---" * 7 + "|"
    return "\n".join([head, sep] + ["| " + " | ".join(_row_cells(r)) + " |" for r in rows])

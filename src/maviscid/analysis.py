"""Error norms, convergence orders, and inequality verification.

Provides L2 / H1 / broken-H2 errors against analytic solutions, the
mesh-dependent norm

  norm_h(v)^2 = ||D^2 v||^2_{L2, broken} + sum_F h_F^{-1} ||jump grad v||^2_F

on discrete functions vanishing at boundary dofs, Monte-Carlo probes of the
discrete Miranda-Talenti and Sobolev inequalities, and order tables with
log-ratio slopes between consecutive refinement rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from maviscid.assembly import (
    _bilap_csr,
    _cached,
    _cell_blocks,
    _cell_tables,
    _face_penalty_consistency,
    _phys_hessians,
    _phys_points,
    _scatter_matrix,
)
from maviscid.elements import _MAX_EXACTNESS, cell_quadrature

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
    rule = cell_quadrature(space.dim, _elevated_exactness(space))
    val, grad, hess = space.ref.tabulate(rule.points)
    l2 = h1s = h2s = 0.0
    for cells, wq in _cell_blocks(space, rule):
        ji = space.jac_inv[cells]
        coef = u_h.coeffs[space.cell_dofs[cells]]
        vh = np.einsum("qb,cb->cq", val, coef)
        gh = np.einsum("qbj,cji,cb->cqi", grad, ji, coef, optimize=True)
        hh = np.einsum("cki,qbkl,clj,cb->cqij", ji, hess, ji, coef, optimize=True)
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


@_cached
def _hess_gram(space):
    """Gram matrix of the broken Hessian inner product, cached per space."""
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))

    def block(cells, wq):
        hp = _phys_hessians(space, cells, hess_ref)
        local = np.einsum("cq,cqaij,cqbij->cab", wq, hp, hp, optimize=True)
        return _scatter_matrix(space, space.cell_dofs[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


def _norm_pieces(space, coeffs):
    """(broken Hessian norm, broken Laplacian norm, jump seminorm)."""
    G = _hess_gram(space)
    B = _bilap_csr(space)
    P, _ = _face_penalty_consistency(space)
    hess2 = max(float(coeffs @ (G @ coeffs)), 0.0)
    lap2 = max(float(coeffs @ (B @ coeffs)), 0.0)
    jump2 = max(float(coeffs @ (P @ coeffs)), 0.0)
    return np.sqrt(hess2), np.sqrt(lap2), np.sqrt(jump2)


def mesh_norm(v_h):
    """Mesh-dependent norm on discrete functions vanishing at boundary dofs."""
    space = v_h.space
    bvals = v_h.coeffs[space.boundary_dofs]
    scale = max(1.0, float(np.abs(v_h.coeffs).max()) if len(v_h.coeffs) else 1.0)
    if len(bvals) and np.abs(bvals).max() > 1e-13 * scale:
        raise ValueError("mesh_norm requires zero boundary dofs")
    hess, _, jump = _norm_pieces(space, v_h.coeffs)
    return float(np.sqrt(hess**2 + jump**2))


def _random_v0(space, rng):
    v = np.zeros(space.ndofs)
    v[space.interior_dofs] = rng.uniform(-1.0, 1.0, len(space.interior_dofs))
    return v


def verify_miranda_talenti(space, samples, seed=0):
    """Max observed constant in the discrete Miranda-Talenti bound.

    For random v in the zero-boundary subspace, the bound reads
    ||D^2 v|| <= ||lap v|| + C (sum_F h_F^{-1} ||jump grad v||^2)^{1/2};
    samples with vanishing jump seminorm are asserted directly.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = _random_v0(space, rng)
        hess, lap, jump = _norm_pieces(space, v)
        if jump < 1e-14 * max(1.0, hess):
            if hess > lap + 1e-12:
                raise AssertionError(
                    "Miranda-Talenti violated on a jump-free sample"
                )
            continue
        worst = max(worst, max(hess - lap, 0.0) / jump)
    return worst


def _linf_estimate(space, coeffs):
    """Max of |v| over dof nodes and cell quadrature points."""
    best = float(np.abs(coeffs).max()) if len(coeffs) else 0.0
    rule, val, _, _ = _cell_tables(space)
    for cells, _ in _cell_blocks(space, rule):
        vh = np.einsum("qb,cb->cq", val, coeffs[space.cell_dofs[cells]])
        best = max(best, float(np.abs(vh).max()))
    return best


def verify_discrete_sobolev(space, samples, seed=0):
    """Max observed constant in ||v||_inf <= C ||v||_h over random samples."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = _random_v0(space, rng)
        hess, _, jump = _norm_pieces(space, v)
        nh = np.sqrt(hess**2 + jump**2)
        if nh == 0.0:
            continue
        worst = max(worst, _linf_estimate(space, v) / nh)
    return worst


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


def format_rate_table(rows, parameter_name="h"):
    """Markdown table with errors in scientific notation, orders to 2 decimals."""
    head = (
        f"| {parameter_name} | L2 error | order | H1 error | order "
        "| H2 error | order |"
    )
    sep = "|---" * 7 + "|"
    lines = [head, sep]
    for r in rows:
        def fmt_err(e):
            return f"{e:.2e}"

        def fmt_ord(o):
            return "-" if o is None else f"{o:.2f}"

        lines.append(
            f"| {r.parameter:g} | {fmt_err(r.l2)} | {fmt_ord(r.l2_order)} "
            f"| {fmt_err(r.h1)} | {fmt_ord(r.h1_order)} "
            f"| {fmt_err(r.h2)} | {fmt_ord(r.h2_order)} |"
        )
    return "\n".join(lines)

"""Error norms, convergence orders, and inequality verification.

Provides L2 / H1 / broken-H2 errors against analytic solutions, the
mesh-dependent norm

  norm_h(v)^2 = ||D^2 v||^2_{L2, broken} + sum_F h_F^{-1} ||jump grad v||^2_F

on discrete functions vanishing at boundary dofs, Monte-Carlo probes of the
discrete Miranda-Talenti and Sobolev inequalities and of coercivity, which
score sample i drawn from ``default_rng(seed + i)`` as ``maviscid verify``
does, and order tables with log-ratio slopes between consecutive rows.
The sample block and its norm pieces are cached per space and
(samples, seed): the two probes, and ``maviscid verify``, share one draw
and one evaluation.  The norm pieces are sums of weighted squares of
point values, formed cell block by cell block and face chunk by face
chunk: no matrix is assembled, and the only tables they read are the
reference basis tables of the cell rule and of the interior-face rule,
cached per space and shared with the assembly passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from maviscid.assembly import (
    _cached,
    _cell_blocks,
    _cell_chunks,
    _cell_tables,
    _face_chunks,
    _face_weights,
    _hessian_map,
    _interior_face_tables,
    _normal_derivatives,
    _phys_points,
    assemble_jacobian,
)
from maviscid.elements import _MAX_EXACTNESS
from maviscid.mesh import _integer

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
    nq, nb, d = hess.shape[:3]
    # (nb, nq d d): basis function b's reference Hessians at all points
    hess_table = hess.swapaxes(0, 1).reshape(nb, -1)
    l2 = h1s = h2s = 0.0
    for cells, wq in _cell_blocks(space, rule):
        ji = space.jac_inv[cells]
        coef = u_h.coeffs[space.cell_dofs[cells]]
        vh = np.einsum("qb,cb->cq", val, coef)
        gh = np.einsum("qbj,cji,cb->cqi", grad, ji, coef, optimize=True)
        # D^2 u_h formed on the reference cell and pushed forward
        href = (coef @ hess_table).reshape(len(cells), nq, d * d)
        hh = href @ _hessian_map(space, cells).swapaxes(1, 2)
        hh = hh.reshape(len(cells), nq, d, d)
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
    ii = space.interior_dofs
    V = np.zeros((space.ndofs, samples))
    for i in range(samples):
        V[ii, i] = np.random.default_rng(seed + i).uniform(-1.0, 1.0, len(ii))
    return V


def _norm_pieces(space, V):
    """(broken Hessian norm, broken Laplacian norm, jump seminorm) of each
    column of an (ndofs, samples) block V, as three (samples,) arrays.

    Each piece is a sum of weighted squares of point values: D^2 v at the
    points of a cell rule exact to 2 (k - 2), pushed forward from the
    reference Hessians, and jump grad v . n at those of the interior-face
    rule, weighted by h_F^-1.  The interior-face tables are cached per
    space and shared with the face pass (``_interior_face_tables``); the
    face rule enters through its weights alone (``_face_weights``)."""
    d, samples = space.dim, V.shape[1]
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))
    nq, nb = hess_ref.shape[:2]
    # (nb, nq d d): basis function b's flattened reference Hessians at all points
    table = hess_ref.swapaxes(0, 1).reshape(nb, -1)
    hess2, lap2, jump2 = np.zeros((3, samples))
    for cells, wq in _cell_blocks(space, rule):
        m = len(cells)
        local = np.take(V, space.cell_dofs[cells], axis=0)
        # (m, samples nq, d d) reference Hessians, pushed forward per cell
        href = (local.swapaxes(1, 2) @ table).reshape(m, -1, d * d)
        hp = (href @ _hessian_map(space, cells).swapaxes(1, 2)).reshape(m, samples, nq, -1)
        lap = hp[..., :: d + 1].sum(axis=3)
        hess2 += np.einsum("cq,csqk->s", wq, hp**2)
        lap2 += np.einsum("cq,csq->s", wq, lap**2)
    mesh = space.mesh
    rule, grad, _, placement = _interior_face_tables(space)
    for faces in _face_chunks(space):
        cells = mesh.iface_cells[faces]
        wq = _face_weights(space, rule, mesh.iface_measures[faces])
        normals = mesh.iface_normals[faces]
        # (F, nq, samples): side 0's normal derivative plus side 1's
        jump = sum(
            _normal_derivatives(space, grad, placement[faces, side], cells[:, side],
                                (normals, -normals)[side])
            @ np.take(V, space.cell_dofs[cells[:, side]], axis=0)
            for side in (0, 1)
        )
        wj = wq / mesh.iface_diameters[faces][:, None]
        jump2 += np.einsum("fq,fqs->s", wj, jump**2)
    return np.sqrt(hess2), np.sqrt(lap2), np.sqrt(jump2)


def _probe_block(space, samples, seed):
    """The read-only block V = ``_samples(space, samples, seed)`` and its
    ``_norm_pieces``, cached per space and (samples, seed) and shared by
    both probes.  ``samples`` must be an integer >= 1 and ``seed`` one >= 0
    (not a bool): they are checked before the cache is read, so a call's
    outcome cannot depend on the calls before it."""
    return _sampled_pieces(
        space, _integer("samples", samples, 1), _integer("seed", seed, 0)
    )


@_cached
def _sampled_pieces(space, samples, seed):
    """``_probe_block`` on checked Python ints."""
    V = _samples(space, samples, seed)
    V.flags.writeable = False
    return V, _norm_pieces(space, V)


def mesh_norm(v_h):
    """Mesh-dependent norm on discrete functions vanishing at boundary dofs."""
    space = v_h.space
    if not np.all(np.isfinite(v_h.coeffs)):
        raise ValueError("mesh_norm requires finite coefficients")
    bvals = v_h.coeffs[space.boundary_dofs]
    scale = max(1.0, float(np.abs(v_h.coeffs).max()) if len(v_h.coeffs) else 1.0)
    if len(bvals) and np.abs(bvals).max() > 1e-13 * scale:
        raise ValueError("mesh_norm requires zero boundary dofs")
    hess, _, jump = _norm_pieces(space, v_h.coeffs[:, None])
    return float(np.sqrt(hess[0] ** 2 + jump[0] ** 2))


# A jump seminorm below this many units of eps max|v| (sum_F |F| h_F^-3)^(1/2)
# is the roundoff of the face point values of grad v, which scales like
# eps max|v| / h_F.  Jump-free polynomials of degree 2 and 3 read 0.6-40 such
# units at every n tried (2D n <= 128, 3D n <= 16), random samples about 1e16.
_JUMP_ROUNDOFF = 1e3


def _miranda_talenti_constants(space, V, pieces):
    """max(||D^2 v|| - ||lap v||, 0) / |v|_jump for each column v of V, given
    its ``_norm_pieces``; 0 for a jump-free v, which must satisfy
    ||D^2 v|| <= ||lap v||.  A jump within ``_JUMP_ROUNDOFF`` units of
    roundoff counts as none."""
    hess, lap, jump = pieces
    mesh = space.mesh
    unit = np.finfo(float).eps * np.sqrt(
        (mesh.iface_measures / mesh.iface_diameters**3).sum())
    jump_free = jump <= _JUMP_ROUNDOFF * unit * np.abs(V).max(axis=0)
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
    comes from ``default_rng(seed + i)``, as in ``maviscid verify``.  The
    sample block and its norm pieces are cached per space and
    (samples, seed) and shared with ``verify_discrete_sobolev``.
    """
    V, pieces = _probe_block(space, samples, seed)
    return float(_miranda_talenti_constants(space, V, pieces).max())


def _linf_estimate(space, V):
    """Max of |v| over dof nodes and cell quadrature points for each column
    v of an (ndofs, samples) block V.  The point values are formed
    sample-major, (samples, m, nq), so each sample's maximum is a reduction
    over contiguous trailing axes."""
    best = np.abs(V).max(axis=0, initial=0.0)
    val = _cell_tables(space)[1]
    for cells in _cell_chunks(space):
        local = np.take(V, space.cell_dofs[cells], axis=0)
        vh = local.transpose(2, 0, 1) @ val.T
        # max |vh| as max(max, -min) over the trailing axes, and vh dropped
        # before the next block is formed: one block-sized array is live at a time
        best = np.maximum(best, np.maximum(vh.max(axis=(-2, -1)), -vh.min(axis=(-2, -1))))
        del vh
    return best


def _sobolev_constants(space, V, pieces):
    """||v||_inf / ||v||_h for each column v of V, given its
    ``_norm_pieces``; 0 where ||v||_h = 0."""
    hess, _, jump = pieces
    nh = np.sqrt(hess**2 + jump**2)
    return np.divide(_linf_estimate(space, V), nh, out=np.zeros_like(nh), where=nh > 0)


def verify_discrete_sobolev(space, samples, seed=0):
    """Max observed constant in ||v||_inf <= C ||v||_h over random samples;
    sample i comes from ``default_rng(seed + i)``, as in ``maviscid verify``.
    The sample block and its norm pieces are cached per space and
    (samples, seed) and shared with ``verify_miranda_talenti``."""
    V, pieces = _probe_block(space, samples, seed)
    return float(_sobolev_constants(space, V, pieces).max())


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
    """Log-ratio convergence orders between consecutive refinement rows
    (one row or more); the first row's orders are None."""
    if not rows:
        raise ValueError("need at least one row")
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

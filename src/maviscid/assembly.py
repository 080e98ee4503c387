"""Bilinear forms, residuals, Jacobians, and right-hand sides.

The discrete operator is split into ingredient matrices that are cached per
space and summed with coefficients:

* the broken bilaplacian matrix (lap v, lap w),
* the interior-face gradient-jump penalty P with entries
  sum_F h_F^{-1} (jump grad v, jump grad w),
* the interior-face consistency matrix C with entries
  sum_F ({lap v}, jump grad w) + ({lap w}, jump grad v),
* the low-order matrix (Phi : D^2 v, w) for a symmetric coefficient field,
* the pointwise-determinant load vector (det(D^2 u_h), w).

The jump of a gradient across a face is the scalar
grad v+ . n+ + grad v- . n-, and {.} is the two-sided average; both are
independent of which neighbor is labeled plus.  The stabilized form is

  A(v, w) = eps (lap v, lap w) - eps C(v, w) - (Phi : D^2 v, w)
            + weight * P(v, w),

with weight = sigma (eps + eps^-3) ("full"), sigma (eps + eps^-2)
("reduced"), or sigma eps ("plain").  The nonlinear residual and its
Jacobian reuse the same ingredients with the cofactor of the current
iterate's Hessian as the coefficient field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from maviscid.elements import cell_quadrature, face_quadrature

__all__ = [
    "CoefficientField",
    "PenaltyParams",
    "BoundaryData",
    "det_and_cofactor",
    "assemble_Ah_sigma",
    "assemble_linearized_rhs",
    "assemble_nonlinear_residual",
    "assemble_jacobian",
    "apply_dirichlet",
    "dump_matrix_market",
]

_CELL_CHUNK = 1024
_FACE_CHUNK = 2048


# --------------------------------------------------------------------- types


def _check_finite(A):
    """Return the sparse matrix ``A``, raising ValueError on a NaN or inf entry."""
    if not np.all(np.isfinite(A.data)):
        raise ValueError("non-finite matrix entries")
    return A


def dump_matrix_market(matrix, path):
    """Write a matrix in MatrixMarket coordinate text format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))


class CoefficientField:
    """Symmetric matrix-valued field evaluated at quadrature points.

    ``fn(points, cells)`` returns an (N, d, d) array; ``cells`` names the
    cell each point lies in so fields backed by discrete functions can use
    the elementwise Hessian directly.  Every evaluation is checked for
    symmetry.
    """

    def __init__(self, dim, fn):
        self.dim = dim
        self._fn = fn

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)

        def fn(points, cells=None):
            return np.broadcast_to(mat, (len(points),) + mat.shape)

        return cls(mat.shape[0], fn)

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    @classmethod
    def zero(cls, dim):
        return cls.constant(np.zeros((dim, dim)))

    @classmethod
    def from_function(cls, dim, fn):
        """Wrap ``fn(points) -> (N, d, d)``."""
        return cls(dim, lambda points, cells=None: fn(points))

    @classmethod
    def cofactor_of_hessian(cls, u_h):
        """Field cof(D^2 u_h), using the elementwise Hessian of ``u_h``."""
        space = u_h.space

        def fn(points, cells=None):
            if cells is None:
                cells = space.mesh.locate(points)
            ref = space.reference_coords(cells, points)
            _, _, hess = space.ref.tabulate(ref)
            ji = space.jac_inv[cells]
            coef = u_h.coeffs[space.cell_dofs[cells]]
            h_ref = np.einsum("nbij,nb->nij", hess, coef)
            h_phys = np.einsum("nki,nkl,nlj->nij", ji, h_ref, ji)
            _, cof = det_and_cofactor(h_phys)
            return cof

        return cls(space.mesh.dim, fn)

    def __call__(self, points, cells=None):
        vals = np.asarray(self._fn(points, cells), dtype=float)
        if vals.shape != (len(points), self.dim, self.dim):
            raise ValueError("coefficient field returned wrong shape")
        skew = np.max(np.abs(vals - np.swapaxes(vals, -1, -2))) if len(vals) else 0.0
        if skew > 1e-12:
            raise ValueError(f"coefficient field asymmetric by {skew:.2e}")
        return vals


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty strength sigma, regularization epsilon, and the weight mode."""

    sigma: float
    epsilon: float
    weight_mode: str = "full"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.weight_mode not in ("full", "reduced", "plain"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")

    @property
    def jump_weight(self):
        eps = self.epsilon
        if self.weight_mode == "full":
            return self.sigma * (eps + eps**-3)
        if self.weight_mode == "reduced":
            return self.sigma * (eps + eps**-2)
        return self.sigma * eps


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet trace g and Laplacian trace psi (None = the constant eps)."""

    g: Callable
    psi: Optional[Callable] = None

    def psi_field(self, epsilon):
        if self.psi is not None:
            return self.psi
        return lambda points: np.full(len(points), float(epsilon))


# ---------------------------------------------------------- small dense math


def det_and_cofactor(H):
    """Determinant and cofactor matrix of symmetric 2x2/3x3 matrices.

    Accepts a single matrix or any batch (..., d, d); the identity
    H cof(H)^T = det(H) I holds for singular H as well.
    """
    H = np.asarray(H, dtype=float)
    d = H.shape[-1]
    if H.shape[-2] != d or d not in (2, 3):
        raise ValueError("expected (..., d, d) with d in {2, 3}")
    if d == 2:
        det = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]
        cof = np.empty_like(H)
        cof[..., 0, 0] = H[..., 1, 1]
        cof[..., 0, 1] = -H[..., 1, 0]
        cof[..., 1, 0] = -H[..., 0, 1]
        cof[..., 1, 1] = H[..., 0, 0]
        return det, cof
    cof = np.empty_like(H)
    idx = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        r1, r2 = idx[i]
        for j in range(3):
            c1, c2 = idx[j]
            minor = H[..., r1, c1] * H[..., r2, c2] - H[..., r1, c2] * H[..., r2, c1]
            cof[..., i, j] = minor if (i + j) % 2 == 0 else -minor
    det = (
        H[..., 0, 0] * cof[..., 0, 0]
        + H[..., 0, 1] * cof[..., 0, 1]
        + H[..., 0, 2] * cof[..., 0, 2]
    )
    return det, cof


# ------------------------------------------------------------ cached tables


def _cell_tables(space, exactness):
    key = ("cell_tables", exactness)
    if key not in space._cache:
        rule = cell_quadrature(space.dim, exactness)
        val, grad, hess = space.ref.tabulate(rule.points)
        space._cache[key] = (rule, val, grad, hess)
    return space._cache[key]


def _phys_hessians(space, cells, hess_ref):
    """Physical-space basis Hessians for a block of cells: (m, nq, nb, d, d)."""
    ji = space.jac_inv[cells]
    return np.einsum("cki,qbkl,clj->cqbij", ji, hess_ref, ji, optimize=True)


def _phys_points(space, cells, ref_pts):
    return space.cell_origin[cells][:, None, :] + np.einsum(
        "cij,qj->cqi", space.jac[cells], ref_pts
    )


def _scatter_matrix(space, dof_blocks, local_blocks):
    """Accumulate (m, a, b) local blocks into a global CSR matrix."""
    nb = dof_blocks.shape[1]
    rows = np.repeat(dof_blocks, nb, axis=1).ravel()
    cols = np.tile(dof_blocks, (1, nb)).ravel()
    return sp.coo_matrix(
        (local_blocks.ravel(), (rows, cols)), shape=(space.ndofs, space.ndofs)
    ).tocsr()


def _bilap_csr(space, exactness):
    """(lap v, lap w) over all cells, cached (epsilon-independent)."""
    key = ("bilap", exactness)
    if key in space._cache:
        return space._cache[key]
    rule, _, _, hess_ref = _cell_tables(space, exactness)
    acc = None
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        cells = np.arange(start, min(start + _CELL_CHUNK, M))
        hp = _phys_hessians(space, cells, hess_ref)
        lap = np.einsum("cqbii->cqb", hp)
        wq = rule.weights[None, :] * space.jac_det[cells][:, None]
        local = np.einsum("cq,cqa,cqb->cab", wq, lap, lap)
        part = _scatter_matrix(space, space.cell_dofs[cells], local)
        acc = part if acc is None else acc + part
    space._cache[key] = acc
    return acc


def _face_tables(space, exactness):
    """Per-face jump/average tabulations and the stacked dof map, cached."""
    key = ("face_tables", exactness)
    if key in space._cache:
        return space._cache[key]
    mesh = space.mesh
    d = mesh.dim
    rule = face_quadrature(d, exactness)
    nq = len(rule.weights)
    nb = space.ref.node_count
    F = len(mesh.iface_cells)
    fdofs = np.hstack(
        [space.cell_dofs[mesh.iface_cells[:, 0]], space.cell_dofs[mesh.iface_cells[:, 1]]]
    )
    jump = np.empty((F, nq, 2 * nb))
    avg = np.empty((F, nq, 2 * nb))
    # physical quadrature points on each face
    fc = mesh.vertices[mesh.iface_vertex_ids]  # (F, d, d)
    phys = fc[:, None, 0, :] + np.einsum("qm,fmi->fqi", rule.points, fc[:, 1:] - fc[:, :1])
    for side, sign in ((0, 1.0), (1, -1.0)):
        cells = mesh.iface_cells[:, side]
        for start in range(0, F, _FACE_CHUNK):
            sl = slice(start, min(start + _FACE_CHUNK, F))
            csl = cells[sl]
            m = csl.shape[0]
            rel = phys[sl] - space.cell_origin[csl][:, None, :]
            ref = np.einsum("cij,cqj->cqi", space.jac_inv[csl], rel)
            val, grad, hess = space.ref.tabulate(ref.reshape(-1, d))
            grad = grad.reshape(m, nq, nb, d)
            hess = hess.reshape(m, nq, nb, d, d)
            ji = space.jac_inv[csl]
            gphys = np.einsum("cqbj,cji->cqbi", grad, ji)
            hphys = np.einsum("cki,cqbkl,clj->cqbij", ji, hess, ji, optimize=True)
            lap = np.einsum("cqbii->cqb", hphys)
            gn = np.einsum("cqbi,ci->cqb", gphys, mesh.iface_normals[sl])
            jump[sl, :, side * nb : (side + 1) * nb] = sign * gn
            avg[sl, :, side * nb : (side + 1) * nb] = 0.5 * lap
    scale = math.factorial(d - 1) * mesh.iface_measures  # map ref face -> face
    wq = rule.weights[None, :] * scale[:, None]
    tables = (fdofs, jump, avg, wq, mesh.iface_diameters)
    space._cache[key] = tables
    return tables


def _face_penalty_consistency(space, exactness):
    """Cached CSR pair (P, C): gradient-jump penalty and consistency terms."""
    key = ("face_pc", exactness)
    if key in space._cache:
        return space._cache[key]
    fdofs, jump, avg, wq, hf = _face_tables(space, exactness)
    F = len(fdofs)
    P = sp.csr_matrix((space.ndofs, space.ndofs))
    C = sp.csr_matrix((space.ndofs, space.ndofs))
    for start in range(0, F, _FACE_CHUNK):
        sl = slice(start, min(start + _FACE_CHUNK, F))
        wj = wq[sl] / hf[sl][:, None]
        p_local = np.einsum("fq,fqa,fqb->fab", wj, jump[sl], jump[sl])
        c_local = np.einsum("fq,fqa,fqb->fab", wq[sl], jump[sl], avg[sl])
        c_local = c_local + np.swapaxes(c_local, 1, 2)
        P = P + _scatter_matrix(space, fdofs[sl], p_local)
        C = C + _scatter_matrix(space, fdofs[sl], c_local)
    space._cache[key] = (P, C)
    return P, C


def _boundary_tables(space, exactness):
    """Outward normal-gradient tabulation on boundary faces, cached."""
    key = ("bnd_tables", exactness)
    if key in space._cache:
        return space._cache[key]
    mesh = space.mesh
    d = mesh.dim
    rule = face_quadrature(d, exactness)
    nq = len(rule.weights)
    nb = space.ref.node_count
    cells = mesh.bface_cells
    B = len(cells)
    fc = mesh.vertices[mesh.bface_vertex_ids]
    phys = fc[:, None, 0, :] + np.einsum("qm,fmi->fqi", rule.points, fc[:, 1:] - fc[:, :1])
    rel = phys - space.cell_origin[cells][:, None, :]
    ref = np.einsum("cij,cqj->cqi", space.jac_inv[cells], rel)
    val, grad, _ = space.ref.tabulate(ref.reshape(-1, d))
    grad = grad.reshape(B, nq, nb, d)
    gphys = np.einsum("cqbj,cji->cqbi", grad, space.jac_inv[cells])
    gradn = np.einsum("cqbi,ci->cqb", gphys, mesh.bface_normals)
    wq = rule.weights[None, :] * (math.factorial(d - 1) * mesh.bface_measures)[:, None]
    tables = (space.cell_dofs[cells], phys, gradn, wq)
    space._cache[key] = tables
    return tables


# ----------------------------------------------------------- vector pieces


def _load_vector(space, f, exactness):
    """Entries int f w_i over the whole space (no boundary-row zeroing)."""
    rule, val, _, _ = _cell_tables(space, exactness)
    out = np.zeros(space.ndofs)
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        cells = np.arange(start, min(start + _CELL_CHUNK, M))
        phys = _phys_points(space, cells, rule.points)
        fv = np.asarray(f(phys.reshape(-1, space.dim)), dtype=float)
        fv = fv.reshape(len(cells), -1)
        wq = rule.weights[None, :] * space.jac_det[cells][:, None]
        local = np.einsum("cq,cq,qa->ca", wq, fv, val)
        out += np.bincount(
            space.cell_dofs[cells].ravel(), weights=local.ravel(), minlength=space.ndofs
        )
    return out


def _boundary_flux_vector(space, psi, exactness):
    """Entries int_boundary psi (grad w_i . n) (no zeroing)."""
    bdofs, phys, gradn, wq = _boundary_tables(space, exactness)
    pv = np.asarray(psi(phys.reshape(-1, space.dim)), dtype=float).reshape(phys.shape[:2])
    local = np.einsum("cq,cq,cqb->cb", wq, pv, gradn)
    return np.bincount(bdofs.ravel(), weights=local.ravel(), minlength=space.ndofs)


def _loworder_csr(space, field, exactness):
    """(Phi : D^2 v, w): trial Hessian against test value."""
    rule, val, _, hess_ref = _cell_tables(space, exactness)
    acc = None
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        cells = np.arange(start, min(start + _CELL_CHUNK, M))
        hp = _phys_hessians(space, cells, hess_ref)
        phys = _phys_points(space, cells, rule.points)
        nq = len(rule.weights)
        flat_cells = np.repeat(cells, nq)
        phi = field(phys.reshape(-1, space.dim), flat_cells).reshape(
            len(cells), nq, space.dim, space.dim
        )
        contracted = np.einsum("cqij,cqbij->cqb", phi, hp)
        wq = rule.weights[None, :] * space.jac_det[cells][:, None]
        local = np.einsum("cq,qa,cqb->cab", wq, val, contracted)
        part = _scatter_matrix(space, space.cell_dofs[cells], local)
        acc = part if acc is None else acc + part
    return acc


def _nonlinear_cell_terms(space, coeffs, exactness):
    """Shared pass for the Newton step: (det(D^2 u_h), w_i) vector and the
    cofactor low-order matrix (cof(D^2 u_h) : D^2 v, w)."""
    rule, val, _, hess_ref = _cell_tables(space, exactness)
    det_vec = np.zeros(space.ndofs)
    acc = None
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        cells = np.arange(start, min(start + _CELL_CHUNK, M))
        hp = _phys_hessians(space, cells, hess_ref)
        coef = coeffs[space.cell_dofs[cells]]
        hu = np.einsum("cqbij,cb->cqij", hp, coef)
        det, cof = det_and_cofactor(hu)
        wq = rule.weights[None, :] * space.jac_det[cells][:, None]
        local_vec = np.einsum("cq,cq,qa->ca", wq, det, val)
        det_vec += np.bincount(
            space.cell_dofs[cells].ravel(), weights=local_vec.ravel(),
            minlength=space.ndofs,
        )
        contracted = np.einsum("cqij,cqbij->cqb", cof, hp)
        local_mat = np.einsum("cq,qa,cqb->cab", wq, val, contracted)
        part = _scatter_matrix(space, space.cell_dofs[cells], local_mat)
        acc = part if acc is None else acc + part
    return det_vec, acc


# ------------------------------------------------------------- public ops


def assemble_Ah_sigma(space, field, params, cell_exactness=None, face_exactness=None):
    """Stabilized linearized operator; rows are test dofs, columns trial dofs.

    Realizes eps (lap v, lap w) minus the two face consistency terms minus
    (Phi : D^2 v, w) plus the weighted gradient-jump penalty.  Non-symmetric
    whenever Phi is nonzero.
    """
    if field.dim != space.dim:
        raise ValueError("coefficient field dimension does not match the mesh")
    cell_ex = cell_exactness or space.default_cell_exactness()
    face_ex = face_exactness or space.default_face_exactness()
    eps = params.epsilon
    bilap = _bilap_csr(space, cell_ex)
    P, C = _face_penalty_consistency(space, face_ex)
    low = _loworder_csr(space, field, cell_ex)
    return _check_finite(eps * bilap - eps * C - low + params.jump_weight * P)


def assemble_linearized_rhs(space, phi, psi, params, cell_exactness=None,
                            face_exactness=None):
    """RHS of the linearized scheme: (phi, w_i) + eps (psi, grad w_i . n) on
    interior test dofs; boundary rows are zeroed."""
    cell_ex = cell_exactness or space.default_cell_exactness()
    face_ex = face_exactness or space.default_face_exactness()
    rhs = _load_vector(space, phi, cell_ex)
    rhs += params.epsilon * _boundary_flux_vector(space, psi, face_ex)
    rhs[space.boundary_dofs] = 0.0
    return rhs


def _b_form_csr(space, params, face_exactness):
    P, C = _face_penalty_consistency(space, face_exactness)
    return params.jump_weight * P - params.epsilon * C


def _check_dirichlet(u_h, g_data):
    space = u_h.space
    bvals, _ = apply_dirichlet(space, g_data.g)
    gap = np.max(np.abs(u_h.coeffs[space.boundary_dofs] - bvals)) if len(bvals) else 0.0
    if gap > 1e-10:
        raise ValueError(f"u_h violates Dirichlet dofs by {gap:.2e}")


def _linearization(u_h, params, cell_exactness, face_exactness):
    """Pieces the residual and the Jacobian at ``u_h`` share: the quadrature
    exactness pair, the (det(D^2 u_h), v_i) vector, the cofactor low-order
    matrix and the face form b."""
    space = u_h.space
    cell_ex = cell_exactness or space.default_cell_exactness()
    face_ex = face_exactness or space.default_face_exactness()
    det_vec, low_cof = _nonlinear_cell_terms(space, u_h.coeffs, cell_ex)
    return cell_ex, face_ex, det_vec, low_cof, _b_form_csr(space, params, face_ex)


def _residual(u_h, f, g_data, params, lin):
    space, eps = u_h.space, params.epsilon
    cell_ex, face_ex, det_vec, _, b_form = lin
    r = -eps * (_bilap_csr(space, cell_ex) @ u_h.coeffs) + det_vec - b_form @ u_h.coeffs
    r -= _load_vector(space, f, cell_ex)
    r += eps * _boundary_flux_vector(space, g_data.psi_field(eps), face_ex)
    r[space.boundary_dofs] = 0.0
    return r


def _jacobian(space, params, lin):
    cell_ex, _, _, low_cof, b_form = lin
    return _check_finite(-params.epsilon * _bilap_csr(space, cell_ex) + low_cof - b_form)


def assemble_nonlinear_residual(u_h, f, g_data, params, cell_exactness=None,
                                face_exactness=None):
    """Residual of the nonlinear scheme at ``u_h``.

    entry_i = -eps (lap u_h, lap v_i) + (det(D^2 u_h), v_i) - b(u_h, v_i)
              - (f, v_i) + eps (psi, grad v_i . n)  on interior dofs,
    with b the penalty-plus-consistency face form; boundary rows are zero.
    """
    _check_dirichlet(u_h, g_data)
    lin = _linearization(u_h, params, cell_exactness, face_exactness)
    return _residual(u_h, f, g_data, params, lin)


def assemble_jacobian(u_h, params, cell_exactness=None, face_exactness=None):
    """Frechet derivative of the nonlinear residual at ``u_h``:
    J(v_i, w_j) = -eps (lap w_j, lap v_i) + (cof(D^2 u_h) : D^2 w_j, v_i)
                  - b(w_j, v_i)."""
    lin = _linearization(u_h, params, cell_exactness, face_exactness)
    return _jacobian(u_h.space, params, lin)


def assemble_residual_and_jacobian(u_h, f, g_data, params, cell_exactness=None,
                                   face_exactness=None):
    """Residual and Jacobian in one pass (shares the Hessian tabulation)."""
    _check_dirichlet(u_h, g_data)
    lin = _linearization(u_h, params, cell_exactness, face_exactness)
    return _residual(u_h, f, g_data, params, lin), _jacobian(u_h.space, params, lin)


def apply_dirichlet(space, g):
    """Boundary dof values of g and the interior dof index set."""
    coords = space.dof_coords[space.boundary_dofs]
    vals = np.asarray(g(coords), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(space.boundary_dofs), float(vals))
    return vals, space.interior_dofs

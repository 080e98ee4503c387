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
("reduced"), or sigma eps ("plain").

Everything but the low-order term is fixed within a continuation rung and
cached per rung: A_h(0) = eps (B - C) + weight P (``_operator``, keyed by
the penalty parameters) and the data vector eps (psi, grad w . n) - (f, w)
(``_data_vector``, keyed by f, the boundary data and the parameters).  The
operator is A_h(Phi) = A_h(0) - (Phi : D^2 v, w), the Newton Jacobian is
-A_h(cof(D^2 u_h)), and the residual is (det(D^2 u_h), w) - A_h(0) u_h plus
the data vector.

Each form that is a polynomial on the affine cells is integrated with a
rule of exactly its degree, exact with the fewest points:
(det D^2 u_h, v) and (cof D^2 u_h : D^2 v, w) in the Newton step and the
line-search residual (degree d (k - 2) + k), B and the Hessian Gram matrix
(2 (k - 2)), and P and C on interior faces (2 (k - 1)).  Forms of data
given as functions (f, psi, coefficient fields) are not polynomials and
keep the space's high ``FeSpace.cell_rule`` and ``face_rule``, as does the
cell-point maximum of the discrete Sobolev probe, whose value depends on
the points.  Cell tables are built on first use and cached on the space
per exactness.  A space caches those tables, B, P and C, the boundary-face
tables (the data vector reads them on every rung), and the current rung's
A_h(0) and data vector.  Interior faces keep no per-face arrays: P and C
are formed one chunk of faces at a time.  Every cell integral runs through
one loop over blocks of cells (``_cell_blocks``) and per-block matrices are
summed in block order.  The residual alone (the line-search evaluation)
forms the determinant vector from that loop and assembles no matrix; the
Newton step forms the residual and the Jacobian in one pass.
"""

from __future__ import annotations

import functools
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
        # written so that NaN fails each test
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
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


def _cached(build):
    """Cache ``build(space, *key)`` on the space under the builder's name.

    Each builder keeps one (key, value) entry and rebuilds it when called
    with another key; tables fixed by the space take the empty key.
    """

    @functools.wraps(build)
    def get(space, *key):
        entry = space._cache.get(build.__name__)
        if entry is None or entry[0] != key:
            entry = space._cache[build.__name__] = (key, build(space, *key))
        return entry[1]

    return get


def _cell_tables(space, degree=None):
    """A cell rule exact for polynomials of ``degree`` and the reference basis
    tables on it, built on first use and cached per exactness.  ``None`` takes
    the exactness of ``space.cell_rule``, the rule for non-polynomial data.

    Not ``_cached``: that keeps one entry per builder, and forms on different
    rules alternate within one Newton step.
    """
    exactness = space.cell_rule.exactness if degree is None else max(1, degree)
    key = ("cell tables", exactness)
    if key not in space._cache:
        rule = cell_quadrature(space.dim, exactness)
        space._cache[key] = (rule,) + space.ref.tabulate(rule.points)
    return space._cache[key]


def _cell_blocks(space, rule):
    """Yield (cells, rule weights times |det J|) for each block of cells."""
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        cells = np.arange(start, min(start + _CELL_CHUNK, M))
        yield cells, rule.weights[None, :] * space.jac_det[cells][:, None]


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
    A = sp.coo_matrix(
        (local_blocks.ravel(), (rows, cols)), shape=(space.ndofs, space.ndofs)
    ).tocsr()
    A.eliminate_zeros()
    return A


def _scatter_vector(space, cells, local):
    """Accumulate (m, nb) local vectors on ``cells`` into a global vector."""
    return np.bincount(
        space.cell_dofs[cells].ravel(), weights=local.ravel(), minlength=space.ndofs
    )


def _load_block(wq, q, val):
    """Local (q, w) vectors of a quadrature-point field q: (m, nb)."""
    return np.einsum("cq,cq,qa->ca", wq, q, val)


def _loworder_block(wq, val, phi, hp):
    """Local (Phi : D^2 v, w) blocks: trial Hessian against test value."""
    contracted = np.einsum("cqij,cqbij->cqb", phi, hp)
    return np.einsum("cq,qa,cqb->cab", wq, val, contracted)


@_cached
def _bilap_csr(space):
    """(lap v, lap w) over all cells, cached (epsilon-independent)."""
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))

    def block(cells, wq):
        lap = np.einsum("cqbii->cqb", _phys_hessians(space, cells, hess_ref))
        local = np.einsum("cq,cqa,cqb->cab", wq, lap, lap)
        return _scatter_matrix(space, space.cell_dofs[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


def _face_points(space, rule, vertex_ids, measures):
    """Physical points (F, nq, d) and weights (F, nq) of a face rule on faces."""
    d = space.dim
    fc = space.mesh.vertices[vertex_ids]  # (F, d, d)
    phys = fc[:, None, 0, :] + np.einsum("qm,fmi->fqi", rule.points, fc[:, 1:] - fc[:, :1])
    scale = math.factorial(d - 1) * measures  # map ref face -> face
    return phys, rule.weights[None, :] * scale[:, None]


def _pulled_back_basis(space, cells, phys):
    """Basis gradients (physical) and Hessians (reference) of each cell in
    ``cells`` at its points ``phys`` (m, nq, d)."""
    m, nq, d = phys.shape
    nb = space.ref.node_count
    ji = space.jac_inv[cells]
    rel = phys - space.cell_origin[cells][:, None, :]
    ref = np.einsum("cij,cqj->cqi", ji, rel)
    _, grad, hess = space.ref.tabulate(ref.reshape(-1, d))
    gphys = np.einsum("cqbj,cji->cqbi", grad.reshape(m, nq, nb, d), ji)
    return gphys, hess.reshape(m, nq, nb, d, d)


@_cached
def _face_penalty_consistency(space):
    """Cached CSR pair (P, C): gradient-jump penalty and consistency terms,
    summed over chunks of interior faces tabulated on both sides, plus first."""
    mesh = space.mesh
    # (jump grad v, jump grad w) has degree 2 (k - 1), ({lap v}, jump grad w) less
    rule = face_quadrature(space.dim, 2 * (space.degree - 1))
    P = C = sp.csr_matrix((space.ndofs, space.ndofs))
    for start in range(0, len(mesh.iface_cells), _FACE_CHUNK):
        sl = slice(start, start + _FACE_CHUNK)
        phys, wq = _face_points(
            space, rule, mesh.iface_vertex_ids[sl], mesh.iface_measures[sl]
        )
        jump, avg = [], []
        for cells, sign in zip(mesh.iface_cells[sl].T, (1.0, -1.0)):
            gphys, hess = _pulled_back_basis(space, cells, phys)
            ji = space.jac_inv[cells]
            hphys = np.einsum("cki,cqbkl,clj->cqbij", ji, hess, ji, optimize=True)
            jump.append(sign * np.einsum("cqbi,ci->cqb", gphys, mesh.iface_normals[sl]))
            avg.append(0.5 * np.einsum("cqbii->cqb", hphys))
        jump, avg = np.concatenate(jump, axis=2), np.concatenate(avg, axis=2)
        fdofs = space.cell_dofs[mesh.iface_cells[sl]].reshape(len(phys), -1)
        wj = wq / mesh.iface_diameters[sl][:, None]
        P = P + _scatter_matrix(space, fdofs, np.einsum("fq,fqa,fqb->fab", wj, jump, jump))
        local = np.einsum("fq,fqa,fqb->fab", wq, jump, avg)
        C = C + _scatter_matrix(space, fdofs, local + np.swapaxes(local, 1, 2))
    return P, C


@_cached
def _boundary_tables(space):
    """Outward normal-gradient tabulation on boundary faces, cached."""
    mesh = space.mesh
    cells = mesh.bface_cells
    phys, wq = _face_points(
        space, space.face_rule, mesh.bface_vertex_ids, mesh.bface_measures
    )
    gphys, _ = _pulled_back_basis(space, cells, phys)
    gradn = np.einsum("cqbi,ci->cqb", gphys, mesh.bface_normals)
    return space.cell_dofs[cells], phys, gradn, wq


# ----------------------------------------------------------- vector pieces


def _load_vector(space, f):
    """Entries int f w_i over the whole space (no boundary-row zeroing)."""
    rule, val, _, _ = _cell_tables(space)
    out = np.zeros(space.ndofs)
    for cells, wq in _cell_blocks(space, rule):
        phys = _phys_points(space, cells, rule.points)
        fv = np.asarray(f(phys.reshape(-1, space.dim)), dtype=float)
        out += _scatter_vector(space, cells, _load_block(wq, fv.reshape(len(cells), -1), val))
    return out


def _boundary_flux_vector(space, psi):
    """Entries int_boundary psi (grad w_i . n) (no zeroing)."""
    bdofs, phys, gradn, wq = _boundary_tables(space)
    pv = np.asarray(psi(phys.reshape(-1, space.dim)), dtype=float).reshape(phys.shape[:2])
    local = np.einsum("cq,cq,cqb->cb", wq, pv, gradn)
    return np.bincount(bdofs.ravel(), weights=local.ravel(), minlength=space.ndofs)


def _loworder_csr(space, field):
    """(Phi : D^2 v, w) for a coefficient field Phi."""
    rule, val, _, hess_ref = _cell_tables(space)
    nq = len(rule.weights)

    def block(cells, wq):
        phys = _phys_points(space, cells, rule.points)
        phi = field(phys.reshape(-1, space.dim), np.repeat(cells, nq)).reshape(
            len(cells), nq, space.dim, space.dim
        )
        local = _loworder_block(wq, val, phi, _phys_hessians(space, cells, hess_ref))
        return _scatter_matrix(space, space.cell_dofs[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


def _newton_tables(space):
    """Cell tables of the Newton pass: (det D^2 u_h, v) and
    (cof D^2 u_h : D^2 v, w) are polynomials of degree d (k - 2) + k."""
    return _cell_tables(space, space.dim * (space.degree - 2) + space.degree)


def _iterate_hessians(space, coeffs):
    """Yield, per cell block, (cells, weights, physical basis Hessians,
    det(D^2 u_h), cof(D^2 u_h)) at the Newton-pass quadrature points."""
    rule, _, _, hess_ref = _newton_tables(space)
    for cells, wq in _cell_blocks(space, rule):
        hp = _phys_hessians(space, cells, hess_ref)
        hu = np.einsum("cqbij,cb->cqij", hp, coeffs[space.cell_dofs[cells]])
        yield (cells, wq, hp) + det_and_cofactor(hu)


def _det_vector(space, coeffs):
    """The (det(D^2 u_h), v_i) vector alone: the line-search residual's pass."""
    _, val, _, _ = _newton_tables(space)
    return sum(
        _scatter_vector(space, cells, _load_block(wq, det, val))
        for cells, wq, _, det, _ in _iterate_hessians(space, coeffs)
    )


def _nonlinear_cell_terms(space, coeffs):
    """One pass for the Newton step: the (det(D^2 u_h), v_i) vector and the
    cofactor low-order matrix (cof(D^2 u_h) : D^2 v, w)."""
    _, val, _, _ = _newton_tables(space)
    det_vec = low_cof = 0
    for cells, wq, hp, det, cof in _iterate_hessians(space, coeffs):
        det_vec = det_vec + _scatter_vector(space, cells, _load_block(wq, det, val))
        local = _loworder_block(wq, val, cof, hp)
        low_cof = low_cof + _scatter_matrix(space, space.cell_dofs[cells], local)
    return det_vec, low_cof


# ------------------------------------------------------ per-rung constants


@_cached
def _operator(space, params):
    """A_h(0) = eps (lap v, lap w) - eps C + weight P, cached per params."""
    P, C = _face_penalty_consistency(space)
    return params.epsilon * (_bilap_csr(space) - C) + params.jump_weight * P


@_cached
def _data_vector(space, f, g_data, params):
    """eps (psi, grad v_i . n) - (f, v_i), cached per (f, g_data, params)."""
    psi = g_data.psi_field(params.epsilon)
    return params.epsilon * _boundary_flux_vector(space, psi) - _load_vector(space, f)


# ------------------------------------------------------------- public ops


def assemble_Ah_sigma(space, field, params):
    """Stabilized linearized operator; rows are test dofs, columns trial dofs.

    Realizes eps (lap v, lap w) minus the two face consistency terms minus
    (Phi : D^2 v, w) plus the weighted gradient-jump penalty.  Non-symmetric
    whenever Phi is nonzero.
    """
    if field.dim != space.dim:
        raise ValueError("coefficient field dimension does not match the mesh")
    return _check_finite(_operator(space, params) - _loworder_csr(space, field))


def assemble_linearized_rhs(space, phi, psi, params):
    """RHS of the linearized scheme: (phi, w_i) + eps (psi, grad w_i . n) on
    interior test dofs; boundary rows are zeroed."""
    rhs = _load_vector(space, phi)
    rhs += params.epsilon * _boundary_flux_vector(space, psi)
    rhs[space.boundary_dofs] = 0.0
    return rhs


def _check_dirichlet(u_h, g_data):
    space = u_h.space
    bvals, _ = apply_dirichlet(space, g_data.g)
    gap = np.max(np.abs(u_h.coeffs[space.boundary_dofs] - bvals)) if len(bvals) else 0.0
    if gap > 1e-10:
        raise ValueError(f"u_h violates Dirichlet dofs by {gap:.2e}")


def _residual(u_h, f, g_data, params, det_vec):
    """The residual at ``u_h`` given its (det(D^2 u_h), v_i) vector."""
    space = u_h.space
    r = det_vec - _operator(space, params) @ u_h.coeffs
    r += _data_vector(space, f, g_data, params)
    r[space.boundary_dofs] = 0.0
    return r


def assemble_nonlinear_residual(u_h, f, g_data, params):
    """Residual of the nonlinear scheme at ``u_h``.

    entry_i = -eps (lap u_h, lap v_i) + (det(D^2 u_h), v_i) - b(u_h, v_i)
              - (f, v_i) + eps (psi, grad v_i . n)  on interior dofs,
    with b the penalty-plus-consistency face form; boundary rows are zero.
    ``f`` and ``g_data`` must be pure: their load and boundary-flux vectors
    are cached on the space and reused while the same ``f``, ``g_data`` and
    ``params`` come back, which in the solver is one continuation rung.
    """
    _check_dirichlet(u_h, g_data)
    det_vec = _det_vector(u_h.space, u_h.coeffs)
    return _residual(u_h, f, g_data, params, det_vec)


def assemble_jacobian(u_h, params):
    """Frechet derivative of the nonlinear residual at ``u_h``:
    J(v_i, w_j) = -eps (lap w_j, lap v_i) + (cof(D^2 u_h) : D^2 w_j, v_i)
                  - b(w_j, v_i), that is -A_h(cof(D^2 u_h))."""
    space = u_h.space
    _, low_cof = _nonlinear_cell_terms(space, u_h.coeffs)
    return _check_finite(low_cof - _operator(space, params))


def assemble_residual_and_jacobian(u_h, f, g_data, params):
    """Residual and Jacobian from one pass over the cells.

    As in ``assemble_nonlinear_residual``, ``f`` and ``g_data`` must be pure:
    their vectors are reused while the same data and ``params`` come back.
    """
    _check_dirichlet(u_h, g_data)
    space = u_h.space
    det_vec, low_cof = _nonlinear_cell_terms(space, u_h.coeffs)
    return (_residual(u_h, f, g_data, params, det_vec),
            _check_finite(low_cof - _operator(space, params)))


def apply_dirichlet(space, g):
    """Boundary dof values of g and the interior dof index set."""
    coords = space.dof_coords[space.boundary_dofs]
    vals = np.asarray(g(coords), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(space.boundary_dofs), float(vals))
    return vals, space.interior_dofs

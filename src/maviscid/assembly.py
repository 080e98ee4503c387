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

with the weight of the penalty's mode in ``WEIGHT_MODES``.

Everything but the low-order term is fixed within a continuation rung and
cached per rung: A_h(0) = eps (B - C) + weight P (``_operator``, keyed by
the penalty parameters) and the data vector eps (psi, grad w . n) - (f, w)
(``_data_vector``, keyed by f, the boundary data and the parameters).  The
operator is A_h(Phi) = A_h(0) - (Phi : D^2 v, w), the Newton Jacobian is
-A_h(cof(D^2 u_h)), and the residual is (det(D^2 u_h), w) - A_h(0) u_h plus
the data vector.

Every matrix lives on one sparsity pattern per space (``_pattern``): the
union of the couplings of dofs sharing a cell and of dofs on the two cells
of an interior face, in CSR form with sorted columns.  B, P, C, A_h(0) and
the low-order matrices are ``data`` vectors on it.  Each pass adds its
blocks into one data vector with ``np.add.at`` over pattern slots: a cell
block through the cached cell-slot map, a chunk of faces on their face
patches (``_face_patch``).  A face patch holds side 0's dofs and side 1's
dofs off the shared face; side 1's jump and average values at a shared dof
are added into side 0's, so each shared dof is scattered once.  Every
patch coupling but those of one side's off-face dofs with the other side's
lies in a cell's slots, and only those are looked up, for that chunk alone.
Sums and differences of matrices are sums and differences of their data,
and the Newton solver takes the interior-dof block through a cached map of
the slots it keeps (``_interior_block``).  Matrices handed out share the
pattern's read-only index arrays.

The Newton step and the line-search residual need (det D^2 u_h, v) and
(cof D^2 u_h : D^2 v, w).  On an affine cell D^2 u_h = J^-T H J^-1, with H
the reference Hessian of u_h, so det D^2 u_h = det H / det J^2 and
cof D^2 u_h : D^2 v = cof H : H_v / det J^2: each integrand is phi_i times
a polynomial of degree r = d (k - 2) and equals its interpolant on the
principal lattice of degree r.  So H, det H and cof H are formed only at
the lattice nodes (1 per cell for k = 2, 6 for 2D k = 3, 20 for 3D k = 3),
and met with the reference moment matrix M[i, beta] = int phi_i psi_beta of
the basis against the lattice's Lagrange basis psi (``_newton_tables``):
the determinant vector is (det H / |det J|) M^T and a cell's cofactor block
is M [cof H : H_j] / |det J| at the nodes.  The other forms that are
polynomials on the affine cells are integrated with a rule of exactly
their degree, exact with the fewest points: B (2 (k - 2)), and P and C on
interior faces (2 (k - 1), ``_interior_face_tables``).  Forms of data
given as functions (f, psi, coefficient fields) are not polynomials and
keep the space's high ``FeSpace.cell_rule`` and ``face_rule``, as does the
cell-point maximum of the discrete Sobolev probe, whose value depends on
the points.  The basis is tabulated on reference points only: cell tables
are built on first use and cached on the space per exactness, and a face
rule once per placement of a face in its cell (``_face_tables``).  One
helper gives the normal derivatives of the basis on every face
(``_normal_derivatives``): the face pass and the mesh-norm pieces of
``analysis`` add its values on an interior face's two sides, taken along
opposite normals, into the gradient jump, and the boundary tables hold its
values along the outward normal.  Outside the Newton pass every physical
Hessian goes through one map per cell (``_hessian_map``): a
coefficient field Phi is pulled back by it and met with the reference
Hessian tables, and D^2 v in the error norms and the mesh-norm pieces is
formed from those tables and pushed forward by it as one d x d matrix per
point; lap v is D^2_ref v : J^-1 J^-T.

A space caches the pattern (int32 index arrays and the cell-slot map), the
interior map once a Newton step needs it, the cell tables, the Newton
pass's lattice Hessian table, moment matrix and cofactor table (built on
its first call), the data of B, P and C, the boundary-face tables
(``_boundary_tables``: points, normal derivatives and weights of
``FeSpace.face_rule``; the data vector reads them on every rung), the
interior-face tables and their per-face placement index
(``_interior_face_tables``: one int32 per face side, built once and shared
by the face pass and the mesh-norm pieces),
the load vector (f, v) of the last f (``_source_vector``: rungs that share
one f evaluate it once), and the current rung's A_h(0) and data vector.
Beyond that index, interior faces keep no per-face arrays: P and C are
formed one chunk of faces at a time, each chunk's face patches and
looked-up slots are dropped after use, and its rule weights come from the
face measures alone (``_face_weights``), with no physical points.  Every cell
integral runs through one loop over blocks of cells (``_cell_chunks``), in
block order.  The residual alone (the line-search evaluation) forms the
determinant vector from that loop and assembles no matrix; the Newton step
forms the residual and the Jacobian in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from maviscid.elements import ReferenceElement, cell_quadrature, face_quadrature
from maviscid.mesh import _number_rows, det_and_cofactor

__all__ = [
    "CoefficientField",
    "PenaltyParams",
    "BoundaryData",
    "det_and_cofactor",
    "assemble_Ah_sigma",
    "assemble_linearized_rhs",
    "assemble_nonlinear_residual",
    "assemble_jacobian",
    "assemble_residual_and_jacobian",
    "apply_dirichlet",
]

_CELL_CHUNK = 1024
_FACE_CHUNK = 2048

# the gradient-jump penalty's weight in each mode, from sigma and eps
WEIGHT_MODES = {
    "full": lambda sigma, eps: sigma * (eps + eps**-3),
    "reduced": lambda sigma, eps: sigma * (eps + eps**-2),
    "plain": lambda sigma, eps: sigma * eps,
}
DEFAULT_WEIGHT_MODE = "plain"


# --------------------------------------------------------------------- types


def _check_finite(A):
    """Return the sparse matrix ``A``, raising ValueError on a NaN or inf entry."""
    if not np.all(np.isfinite(A.data)):
        raise ValueError("non-finite matrix entries")
    return A


class CoefficientField:
    """Symmetric matrix-valued field evaluated at quadrature points.

    ``fn(points)`` returns an (N, d, d) array at (N, d) physical points, and
    ``constant(np.eye(d))`` is the identity field.  Every evaluation is
    checked for symmetry.  The cofactor of a discrete Hessian is not a
    field: the Newton pass forms cof(D^2 w) : D^2 v itself, so
    A_h(cof(D^2 w)) is ``-assemble_jacobian(w, params)``.
    """

    def __init__(self, dim, fn):
        self.dim = dim
        self._fn = fn

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)

        def fn(points):
            return np.broadcast_to(mat, (len(points),) + mat.shape)

        return cls(mat.shape[0], fn)

    def __call__(self, points):
        vals = np.asarray(self._fn(points), dtype=float)
        if vals.shape != (len(points), self.dim, self.dim):
            raise ValueError("coefficient field returned wrong shape")
        skew = np.max(np.abs(vals - np.swapaxes(vals, -1, -2))) if len(vals) else 0.0
        if skew > 1e-12:
            raise ValueError(f"coefficient field asymmetric by {skew:.2e}")
        return vals


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty strength sigma, regularization epsilon, and the weight mode,
    a key of ``WEIGHT_MODES``."""

    sigma: float
    epsilon: float
    weight_mode: str = DEFAULT_WEIGHT_MODE

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")

    @property
    def jump_weight(self):
        return WEIGHT_MODES[self.weight_mode](self.sigma, self.epsilon)


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet trace g and Laplacian trace psi (None = the constant eps)."""

    g: Callable
    psi: Optional[Callable] = None

    def psi_field(self, epsilon):
        if self.psi is not None:
            return self.psi
        return lambda points: np.full(len(points), float(epsilon))


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
    tables on it, built on first use and cached for one exactness at a time:
    a rung asks for its rules before its first Newton step, never inside one.
    ``None`` takes the exactness of ``space.cell_rule``, the rule for
    non-polynomial data.
    """
    return _rule_tables(space, space.cell_rule.exactness if degree is None else max(1, degree))


@_cached
def _rule_tables(space, exactness):
    rule = cell_quadrature(space.dim, exactness)
    return (rule,) + space.ref.tabulate(rule.points)


def _cell_chunks(space):
    """Yield the cell indices of each block of cells."""
    M = space.mesh.num_cells
    for start in range(0, M, _CELL_CHUNK):
        yield np.arange(start, min(start + _CELL_CHUNK, M))


def _cell_blocks(space, rule):
    """Yield (cells, rule weights times |det J|) for each block of cells."""
    for cells in _cell_chunks(space):
        yield cells, rule.weights[None, :] * space.jac_det[cells][:, None]


def _hessian_map(space, cells):
    """Per cell, the (d * d, d * d) matrix K with K[(i, j), (k, l)] =
    (J^-1)_ki (J^-1)_lj.  A flattened reference Hessian H pushes forward to
    J^-T H J^-1 = K H, and a flattened coefficient Phi pulls back to
    J^-1 Phi J^-T = Phi K, so that Phi : D^2 v = (Phi K) : D^2_ref v."""
    ji = space.jac_inv[cells]
    m, d, _ = ji.shape
    return np.einsum("cki,clj->cijkl", ji, ji).reshape(m, d * d, d * d)


def _phys_points(space, cells, ref_pts):
    """Physical images (m, nq, d) of reference points on a block of cells."""
    return space.cell_origin[cells][:, None, :] + ref_pts @ np.swapaxes(
        space.jac[cells], 1, 2
    )


class _Pattern(NamedTuple):
    """A space's sparsity pattern: CSR ``indptr`` and sorted ``indices``, and
    ``cell_slots`` (M, nb * nb), the position in ``indices`` of each cell's
    (test dof, trial dof) pair in row-major order."""

    indptr: np.ndarray
    indices: np.ndarray
    cell_slots: np.ndarray


def _read_only(*arrays):
    """Lock cached index arrays: a matrix built on them cannot change them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _slot_finder(indptr, indices):
    """Map row dofs (m, a) and column dofs (m, b) to the slots (m, a, b) of
    their pairs in a pattern with sorted columns.  Every pair must be in it."""
    n = len(indptr) - 1
    lookup = sp.csr_array(
        (np.arange(len(indices), dtype=np.int32), indices, indptr), shape=(n, n)
    )

    def find(rows, cols):
        m, a, b = len(rows), rows.shape[1], cols.shape[1]
        pairs = np.repeat(rows, b, axis=1).ravel(), np.tile(cols, (1, a)).ravel()
        return lookup[pairs].reshape(m, a, b)

    return find


@_cached
def _pattern(space):
    """The union of the cell and interior-face couplings, cached per space.

    With E the cell-dof incidence and L the identity plus the interior-face
    cell adjacency, dofs i and j couple exactly where (E^T L E)_ij is
    nonzero: they share a cell or sit on the two cells of an interior face.
    """
    mesh, n = space.mesh, space.ndofs
    M, nb = space.cell_dofs.shape
    E = sp.csr_matrix(
        (np.ones(M * nb, dtype=bool), space.cell_dofs.ravel(),
         np.arange(0, M * nb + 1, nb)),
        shape=(M, n),
    )
    cells = np.arange(M)
    c0, c1 = mesh.iface_cells.T
    L = sp.csr_matrix(
        (np.ones(M + 2 * len(c0), dtype=bool),
         (np.concatenate([cells, c0, c1]), np.concatenate([cells, c1, c0]))),
        shape=(M, M),
    )
    union = sp.csr_matrix(E.T) @ (L @ E)
    union.sort_indices()
    indptr = union.indptr.astype(np.int32)
    indices = union.indices.astype(np.int32)
    del union
    find = _slot_finder(indptr, indices)
    cell_slots = np.concatenate([
        find(space.cell_dofs[cells], space.cell_dofs[cells]).reshape(len(cells), -1)
        for cells in _cell_chunks(space)
    ])
    return _Pattern(*_read_only(indptr, indices, cell_slots))


@_cached
def _interior_pattern(space):
    """(kept, indptr, indices): the pattern slots whose row and column are
    interior dofs, in order, and the CSR index arrays of that block."""
    pattern = _pattern(space)
    interior = np.zeros(space.ndofs, dtype=bool)
    interior[space.interior_dofs] = True
    row_interior = np.repeat(interior, np.diff(pattern.indptr))
    kept = np.flatnonzero(row_interior & interior[pattern.indices]).astype(np.int32)
    renumber = (np.cumsum(interior) - 1).astype(np.int32)
    indices = renumber[pattern.indices[kept]]
    # kept slots are sorted and rows are contiguous runs of slots
    starts = np.searchsorted(kept, pattern.indptr[space.interior_dofs])
    indptr = np.append(starts, len(kept)).astype(np.int32)
    return _read_only(kept, indptr, indices)


def _on_pattern(space, data):
    """The CSR matrix with ``data`` on the space's pattern."""
    pattern = _pattern(space)
    return sp.csr_matrix(
        (data, pattern.indices, pattern.indptr), shape=(space.ndofs, space.ndofs)
    )


def _interior_block(space, A):
    """The interior-dof block of a matrix on the space's pattern."""
    kept, indptr, indices = _interior_pattern(space)
    n = len(indptr) - 1
    return sp.csr_matrix((A.data[kept], indices, indptr), shape=(n, n))


def _scatter_data(data, slots, local):
    """Add (m, a, b) local blocks into a data vector on the pattern in place;
    ``slots`` holds the blocks' positions in it, (m, a, b) or (m, a * b)."""
    np.add.at(data, slots.ravel(), local.ravel())


def _scatter_vector(space, cells, local):
    """Accumulate (m, nb) local vectors on ``cells`` into a global vector."""
    return np.bincount(
        space.cell_dofs[cells].ravel(), weights=local.ravel(), minlength=space.ndofs
    )


@_cached
def _bilap(space):
    """Data of (lap v, lap w) over all cells, cached (epsilon-independent)."""
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))
    pattern = _pattern(space)
    data = np.zeros(len(pattern.indices))
    for cells, wq in _cell_blocks(space, rule):
        # lap v = D^2_ref v : J^-1 J^-T
        ji = space.jac_inv[cells]
        metric = ji @ np.swapaxes(ji, 1, 2)
        lap = np.einsum("qbkl,ckl->cqb", hess_ref, metric)
        local = np.einsum("cq,cqa,cqb->cab", wq, lap, lap)
        _scatter_data(data, pattern.cell_slots[cells], local)
    return data


def _face_chunks(space):
    """Yield the slice of each chunk of interior faces."""
    F = len(space.mesh.iface_cells)
    for start in range(0, F, _FACE_CHUNK):
        yield slice(start, min(start + _FACE_CHUNK, F))


def _face_weights(space, rule, measures):
    """Weights (F, nq) of a face rule on faces of the given measures."""
    scale = math.factorial(space.dim - 1) * measures  # map ref face -> face
    return rule.weights[None, :] * scale[:, None]


def _face_tables(space, rule, cells, vertex_ids):
    """Reference basis gradients (p, nq, nb, d) and Hessians (p, nq, nb, d, d)
    at a face rule's points for each placement p of a face in a cell, and the
    int32 placement index (F, s) of the sides ``cells`` (F, s) of faces
    ``vertex_ids`` (F, d).  A placement is where the face's sorted vertices
    sit among its cell's vertices; a simplex has (d + 1)! of them.
    """
    d = space.dim
    local = np.argmax(
        space.mesh.cells[cells][:, :, None, :] == vertex_ids[:, None, :, None], axis=3
    ).reshape(-1, d)
    first, index = _number_rows(local.T)
    placements = local[first]
    corners = np.vstack([np.zeros(d), np.eye(d)])  # reference cell vertices
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    ref = np.einsum("qm,pmi->pqi", bary, corners[placements])
    _, grad, hess = space.ref.tabulate(ref.reshape(-1, d))
    shape = (len(placements), len(rule.weights), space.ref.node_count, d)
    placement = index.astype(np.int32).reshape(cells.shape)
    return grad.reshape(shape), hess.reshape(shape + (d,)), placement


@_cached
def _interior_face_tables(space):
    """The interior-face rule exact to 2 (k - 1), the degree of
    (jump grad v, jump grad w), and ``_face_tables`` on it for both sides of
    every interior face, cached: the face pass and the mesh-norm pieces
    share one build."""
    mesh = space.mesh
    rule = face_quadrature(space.dim, 2 * (space.degree - 1))
    return (rule,) + _face_tables(space, rule, mesh.iface_cells, mesh.iface_vertex_ids)


def _normal_derivatives(space, grad, placement, cells, normals):
    """Normal derivatives (F, nq, nb) of the basis on ``cells`` (F,) along
    ``normals`` (F, d) at a face rule's points, from the ``grad`` of
    ``_face_tables`` and each face's placement (F,) in its cell:
    grad v . n = grad_ref v . J^-1 n.  On an interior face, side 0 takes the
    face normal and side 1 its negative, and the jump of grad v across the
    face is the sum of the two sides' values; on a boundary face the normal
    points outward."""
    p_count, nq, nb, d = grad.shape
    conormal = space.jac_inv[cells] @ normals[:, :, None]
    gp = grad.reshape(p_count, nq * nb, d)[placement]
    return (gp @ conormal).reshape(len(cells), nq, nb)


def _face_patch(space, find, cells):
    """The face patch of interior faces with sides ``cells`` (F, 2): side 0's
    nb dofs, then side 1's dofs off the shared face, whose count a conforming
    mesh keeps the same on every face.  Returns the patch column (F, nb) of
    each side-1 dof, a shared dof taking side 0's, and the slots (F, n, n) of
    the patch couplings: each side's block from its cell's slots, and only
    the couplings of one side's off-face dofs with the other's from ``find``."""
    cell_slots = _pattern(space).cell_slots
    d0, d1 = space.cell_dofs[cells[:, 0]], space.cell_dofs[cells[:, 1]]
    F, nb = d0.shape
    match = d1[:, :, None] == d0[:, None, :]  # (F, side-1 dof, side-0 dof)
    on1 = match.any(axis=2)
    off0 = np.nonzero(~match.any(axis=1))[1].reshape(F, -1)
    off1 = np.nonzero(~on1)[1].reshape(F, -1)
    no = off1.shape[1]
    col1 = match.argmax(axis=2)
    col1[~on1] = np.tile(np.arange(nb, nb + no), F)
    faces, cols1 = np.arange(F)[:, None, None], np.arange(nb, nb + no)
    slots = np.empty((F, nb + no, nb + no), dtype=cell_slots.dtype)
    slots[faces, col1[:, :, None], col1[:, None, :]] = (
        cell_slots[cells[:, 1]].reshape(F, nb, nb)
    )
    slots[:, :nb, :nb] = cell_slots[cells[:, 0]].reshape(F, nb, nb)
    o0, o1 = np.take_along_axis(d0, off0, 1), np.take_along_axis(d1, off1, 1)
    slots[faces, off0[:, :, None], cols1] = find(o0, o1)
    slots[faces, cols1[:, None], off0[:, None, :]] = find(o1, o0)
    return col1, slots


@_cached
def _face_penalty_consistency(space):
    """Cached data pair (P, C): gradient-jump penalty and consistency terms,
    summed over chunks of interior faces.  A face's jump and average values
    live on its face patch (``_face_patch``): side 1's values at the shared
    dofs are added into side 0's, so each shared coupling is scattered once.
    Each chunk looks up its off-face slots and drops them after use."""
    mesh, d = space.mesh, space.dim
    # ({lap v}, jump grad w) has a lower degree than (jump grad v, jump grad w)
    rule, grad, hess, placement = _interior_face_tables(space)
    p_count, nq, nb = grad.shape[:3]
    hess = hess.reshape(p_count, nq * nb, d * d)
    pattern = _pattern(space)
    find = _slot_finder(pattern.indptr, pattern.indices)
    P, C = np.zeros(len(pattern.indices)), np.zeros(len(pattern.indices))
    for sl in _face_chunks(space):
        cells = mesh.iface_cells[sl]
        wq = _face_weights(space, rule, mesh.iface_measures[sl])
        col1, slots = _face_patch(space, find, cells)
        F, normals = len(cells), mesh.iface_normals[sl]
        jump = np.zeros((F, nq, slots.shape[1]))
        avg = np.zeros_like(jump)
        for side in (0, 1):
            # lap v = D^2_ref v : J^-1 J^-T
            ji = space.jac_inv[cells[:, side]]
            metric = (ji @ ji.swapaxes(1, 2)).reshape(F, d * d, 1)
            j = _normal_derivatives(space, grad, placement[sl, side], cells[:, side],
                                    (normals, -normals)[side])
            a = 0.5 * (hess[placement[sl, side]] @ metric).reshape(F, nq, nb)
            if side == 0:
                jump[:, :, :nb], avg[:, :, :nb] = j, a
            else:  # a face's columns col1 are distinct: += adds each once
                faces = np.arange(F)[:, None]
                jump[faces, :, col1] += j.swapaxes(1, 2)
                avg[faces, :, col1] += a.swapaxes(1, 2)
        wj = wq / mesh.iface_diameters[sl][:, None]
        jt = jump.swapaxes(1, 2)
        _scatter_data(P, slots, jt @ (wj[:, :, None] * jump))
        local = jt @ (wq[:, :, None] * avg)
        _scatter_data(C, slots, local + local.swapaxes(1, 2))
    return P, C


@_cached
def _boundary_tables(space):
    """Physical points (F, nq, d), outward normal derivatives (F, nq, nb) of
    the basis and weights (F, nq) of ``space.face_rule`` on the boundary
    faces, cached."""
    mesh, rule = space.mesh, space.face_rule
    cells = mesh.bface_cells
    fc = mesh.vertices[mesh.bface_vertex_ids]  # (F, d, d)
    phys = fc[:, None, 0, :] + np.einsum("qm,fmi->fqi", rule.points, fc[:, 1:] - fc[:, :1])
    grad, _, placement = _face_tables(space, rule, cells[:, None], mesh.bface_vertex_ids)
    gradn = _normal_derivatives(space, grad, placement[:, 0], cells, mesh.bface_normals)
    return phys, gradn, _face_weights(space, rule, mesh.bface_measures)


# ----------------------------------------------------------- vector pieces


def _load_vector(space, f):
    """Entries int f w_i over the whole space (no boundary-row zeroing)."""
    rule, val, _, _ = _cell_tables(space)
    out = np.zeros(space.ndofs)
    for cells, wq in _cell_blocks(space, rule):
        phys = _phys_points(space, cells, rule.points)
        fv = np.asarray(f(phys.reshape(-1, space.dim)), dtype=float)
        local = np.einsum("cq,cq,qa->ca", wq, fv.reshape(len(cells), -1), val)
        out += _scatter_vector(space, cells, local)
    return out


def _boundary_flux_vector(space, psi):
    """Entries int_boundary psi (grad w_i . n) (no zeroing)."""
    phys, gradn, wq = _boundary_tables(space)
    pv = np.asarray(psi(phys.reshape(-1, space.dim)), dtype=float).reshape(phys.shape[:2])
    local = np.einsum("cq,cq,cqb->cb", wq, pv, gradn)
    return _scatter_vector(space, space.mesh.bface_cells, local)


def _loworder(space, field):
    """Data of (Phi : D^2 v, w) for a coefficient field Phi: its pull-back
    (see ``_hessian_map``) against the trial reference Hessians, times the
    test values."""
    rule, val, _, hess_ref = _cell_tables(space)
    nq, nb, d = hess_ref.shape[:3]
    # (nq, d d, nb): the basis's flattened reference Hessians at each point
    hess_t = hess_ref.reshape(nq, nb, d * d).swapaxes(1, 2)
    pattern = _pattern(space)
    data = np.zeros(len(pattern.indices))
    for cells, wq in _cell_blocks(space, rule):
        phys = _phys_points(space, cells, rule.points).reshape(-1, d)
        phi = field(phys).reshape(len(cells), nq, d * d)
        pulled = phi @ _hessian_map(space, cells)
        # one product per quadrature point
        contracted = (pulled.swapaxes(0, 1) @ hess_t).swapaxes(0, 1)
        local = (wq[:, :, None] * val).swapaxes(1, 2) @ contracted
        _scatter_data(data, pattern.cell_slots[cells], local)
    return data


@_cached
def _newton_tables(space):
    """The Newton pass's tables on the principal lattice of degree
    r = d (k - 2) (see the module docstring), built on its first call: the
    basis's flattened reference Hessians (nb, nl d d) at the nl nodes, the
    moment matrix M (nb, nl) of int phi_i psi_beta on a rule exact to k + r,
    and the cofactor table (nl d d, nb nb) of M[i, beta] H_j(x_beta), which
    a cell's flattened cof H at the nodes meets in one product."""
    d, k = space.dim, space.degree
    lattice = ReferenceElement(d, d * (k - 2))
    _, _, hess = space.ref.tabulate(lattice.node_coords)  # (nl, nb, d, d)
    rule = cell_quadrature(d, k + lattice.degree)
    val, _, _ = space.ref.tabulate(rule.points)
    psi, _, _ = lattice.tabulate(rule.points)
    moments = val.T @ (rule.weights[:, None] * psi)
    nl, nb = hess.shape[:2]
    cof_table = np.einsum("ib,bjxy->bxyij", moments, hess).reshape(nl * d * d, nb * nb)
    return hess.swapaxes(0, 1).reshape(nb, nl * d * d), moments, cof_table


def _iterate_hessians(space, coeffs):
    """Yield, per cell block, (cells, local (det(D^2 u_h), v_i) vectors
    (m, nb), cof H / |det J| (m, nl d d)) with H the reference Hessian of
    u_h at the lattice nodes of ``_newton_tables``."""
    hess, moments, _ = _newton_tables(space)
    d = space.dim
    for cells in _cell_chunks(space):
        href = (coeffs[space.cell_dofs[cells]] @ hess).reshape(len(cells), -1, d, d)
        det, cof = det_and_cofactor(href)
        scale = 1.0 / space.jac_det[cells]
        yield (cells, (scale[:, None] * det) @ moments.T,
               scale[:, None] * cof.reshape(len(cells), -1))


def _det_vector(space, coeffs):
    """The (det(D^2 u_h), v_i) vector alone: the line-search residual's pass."""
    return sum(
        _scatter_vector(space, cells, local)
        for cells, local, _ in _iterate_hessians(space, coeffs)
    )


def _nonlinear_cell_terms(space, coeffs):
    """One pass for the Newton step: the (det(D^2 u_h), v_i) vector and the
    data of the cofactor low-order matrix (cof(D^2 u_h) : D^2 v, w)."""
    _, _, cof_table = _newton_tables(space)
    pattern = _pattern(space)
    det_vec, low_cof = 0, np.zeros(len(pattern.indices))
    for cells, local, cof in _iterate_hessians(space, coeffs):
        det_vec = det_vec + _scatter_vector(space, cells, local)
        _scatter_data(low_cof, pattern.cell_slots[cells], cof @ cof_table)
    return det_vec, low_cof


# ------------------------------------------------------ per-rung constants


@_cached
def _operator(space, params):
    """Data of A_h(0) = eps (lap v, lap w) - eps C + weight P, cached per
    params."""
    P, C = _face_penalty_consistency(space)
    return params.epsilon * (_bilap(space) - C) + params.jump_weight * P


@_cached
def _source_vector(space, f):
    """The load vector (f, v_i), cached per f: a ladder whose rungs share one
    f evaluates it once per space."""
    return _load_vector(space, f)


@_cached
def _data_vector(space, f, g_data, params):
    """eps (psi, grad v_i . n) - (f, v_i), cached per (f, g_data, params)."""
    psi = g_data.psi_field(params.epsilon)
    return params.epsilon * _boundary_flux_vector(space, psi) - _source_vector(space, f)


# ------------------------------------------------------------- public ops


def assemble_Ah_sigma(space, field, params):
    """Stabilized linearized operator; rows are test dofs, columns trial dofs.

    Realizes eps (lap v, lap w) minus the two face consistency terms minus
    (Phi : D^2 v, w) plus the weighted gradient-jump penalty.  Non-symmetric
    whenever Phi is nonzero.
    """
    if field.dim != space.dim:
        raise ValueError("coefficient field dimension does not match the mesh")
    return _check_finite(
        _on_pattern(space, _operator(space, params) - _loworder(space, field))
    )


def assemble_linearized_rhs(space, phi, psi, params):
    """RHS of the linearized scheme: (phi, w_i) + eps (psi, grad w_i . n) on
    interior test dofs; boundary rows are zeroed."""
    rhs = _load_vector(space, phi)
    rhs += params.epsilon * _boundary_flux_vector(space, psi)
    rhs[space.boundary_dofs] = 0.0
    return rhs


def _check_dirichlet(u_h, g_data):
    space = u_h.space
    bvals = apply_dirichlet(space, g_data.g)
    gap = np.max(np.abs(u_h.coeffs[space.boundary_dofs] - bvals)) if len(bvals) else 0.0
    if gap > 1e-10:
        raise ValueError(f"u_h violates Dirichlet dofs by {gap:.2e}")


def _residual(u_h, f, g_data, params, det_vec):
    """The residual at ``u_h`` given its (det(D^2 u_h), v_i) vector."""
    space = u_h.space
    r = det_vec - _on_pattern(space, _operator(space, params)) @ u_h.coeffs
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
    return _check_finite(_on_pattern(space, low_cof - _operator(space, params)))


def assemble_residual_and_jacobian(u_h, f, g_data, params):
    """Residual and Jacobian from one pass over the cells.

    As in ``assemble_nonlinear_residual``, ``f`` and ``g_data`` must be pure:
    their vectors are reused while the same data and ``params`` come back.
    """
    _check_dirichlet(u_h, g_data)
    space = u_h.space
    det_vec, low_cof = _nonlinear_cell_terms(space, u_h.coeffs)
    return (_residual(u_h, f, g_data, params, det_vec),
            _check_finite(_on_pattern(space, low_cof - _operator(space, params))))


def apply_dirichlet(space, g):
    """Values of g at the boundary dofs, in ``space.boundary_dofs`` order; a
    g that returns a scalar gives that value at every boundary dof."""
    coords = space.dof_coords[space.boundary_dofs]
    vals = np.asarray(g(coords), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(space.boundary_dofs), float(vals))
    return vals

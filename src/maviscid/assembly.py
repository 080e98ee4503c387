"""Bilinear forms, residuals, Jacobians, and right-hand sides.

The discrete operator is split into ingredient matrices that are cached per
space and summed with coefficients:

* the broken bilaplacian matrix (lap v, lap w),
* the interior-face gradient-jump penalty P with entries
  sum_F h_F^{-1} (jump grad v, jump grad w),
* the interior-face consistency matrix C with entries
  sum_F ({lap v}, jump grad w) + ({lap w}, jump grad v),
* the low-order matrix (Phi : D^2 v, w) for a symmetric coefficient field,
* the pointwise-determinant load vector (det(D^2 u_h), w),
* the Hessian Gram matrix (D^2 v, D^2 w) of the mesh-dependent norm.

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

Every matrix lives on one sparsity pattern per space (``_pattern``): the
union of the couplings of dofs sharing a cell and of dofs on the two cells
of an interior face, in CSR form with sorted columns.  B, P, C, the Hessian
Gram matrix, A_h(0) and the low-order matrices are ``data`` vectors on it,
accumulated with ``np.bincount`` over pattern slots: a cell block through
the cached cell-slot map, a chunk of faces through slots looked up for that
chunk alone.  Sums and differences of matrices are sums and differences of
their data, and the Newton solver takes the interior-dof block through a
cached map of the slots it keeps (``_interior_block``).  Matrices handed out
share the pattern's read-only index arrays.

Each form that is a polynomial on the affine cells is integrated with a
rule of exactly its degree, exact with the fewest points:
(det D^2 u_h, v) and (cof D^2 u_h : D^2 v, w) in the Newton step and the
line-search residual (degree d (k - 2) + k), B and the Hessian Gram matrix
(2 (k - 2)), and P and C on interior faces (2 (k - 1)).  Forms of data
given as functions (f, psi, coefficient fields) are not polynomials and
keep the space's high ``FeSpace.cell_rule`` and ``face_rule``, as does the
cell-point maximum of the discrete Sobolev probe, whose value depends on
the points.  The basis is tabulated on reference points only: cell tables
are built on first use and cached on the space per exactness, and a face
rule once per placement of a face in its cell (``_face_tables``).  Every
physical Hessian goes through one map per cell (``_hessian_map``): a
coefficient Phi (cof D^2 u_h in the Newton pass) is pulled back by it and
met with the reference Hessian tables, D^2 u_h (in the Newton pass and the
error norms) is formed from those tables and pushed forward by it as one
d x d matrix per point, and so are the basis Hessians of the Gram matrix;
lap v is D^2_ref v : J^-1 J^-T.

A space caches the pattern (int32 index arrays and the cell-slot map), the
interior map once a Newton step needs it, the cell tables, the data of B,
P and C (and of the Gram matrix once a norm needs it), the boundary-face
tables (the data vector reads them on every rung), and the current rung's
A_h(0) and data vector.  Interior faces keep no per-face arrays: P and C
are formed one chunk of faces at a time.  Every cell integral runs through
one loop over blocks of cells (``_cell_blocks``) and per-block data are
summed in block order.  The residual alone (the line-search evaluation)
forms the determinant vector from that loop and assembles no matrix; the
Newton step forms the residual and the Jacobian in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from maviscid.elements import cell_quadrature, face_quadrature
from maviscid.mesh import _number_rows

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

    ``fn(points)`` returns an (N, d, d) array at (N, d) physical points.
    Every evaluation is checked for symmetry.  The cofactor of a discrete
    Hessian is not a field: the Newton pass forms cof(D^2 w) : D^2 v itself,
    so A_h(cof(D^2 w)) is ``-assemble_jacobian(w, params)``.
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

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    @classmethod
    def zero(cls, dim):
        return cls.constant(np.zeros((dim, dim)))

    @classmethod
    def from_function(cls, dim, fn):
        """Wrap ``fn(points) -> (N, d, d)``."""
        return cls(dim, fn)

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


def _hessian_map(space, cells):
    """Per cell, the (d * d, d * d) matrix K with K[(i, j), (k, l)] =
    (J^-1)_ki (J^-1)_lj.  A flattened reference Hessian H pushes forward to
    J^-T H J^-1 = K H, and a flattened coefficient Phi pulls back to
    J^-1 Phi J^-T = Phi K, so that Phi : D^2 v = (Phi K) : D^2_ref v."""
    ji = space.jac_inv[cells]
    m, d, _ = ji.shape
    return np.einsum("cki,clj->cijkl", ji, ji).reshape(m, d * d, d * d)


def _discrete_hessians(K, coef, hess_ref):
    """D^2 u_h (m, nq, d, d) from its dof values ``coef`` (m, nb) on a block
    of cells with Hessian maps ``K``, at the points of a reference Hessian
    table (nq, nb, d, d): formed on the reference cell and pushed forward."""
    (m, nb), (nq, _, d) = coef.shape, hess_ref.shape[:3]
    # (nb, nq d d): basis function b's reference Hessians at all points
    href = (coef @ hess_ref.swapaxes(0, 1).reshape(nb, -1)).reshape(m, nq, d * d)
    return (href @ K.swapaxes(1, 2)).reshape(m, nq, d, d)


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
        find(dofs, dofs).reshape(len(dofs), -1)
        for dofs in np.split(space.cell_dofs, range(_CELL_CHUNK, M, _CELL_CHUNK))
    ])
    return _Pattern(*_read_only(indptr, indices, cell_slots))


def _face_slots(space, find, cells):
    """Slots (F, 2 nb, 2 nb) of the couplings of the dofs of both sides
    ``cells`` (F, 2) of faces, side 0 first: the blocks within a side from
    the cell-slot map, the blocks across the face from ``find``."""
    nb = space.ref.node_count
    within = _pattern(space).cell_slots[cells].reshape(len(cells), 2, nb, nb)
    d0, d1 = space.cell_dofs[cells[:, 0]], space.cell_dofs[cells[:, 1]]
    return np.concatenate([
        np.concatenate([within[:, 0], find(d0, d1)], axis=2),
        np.concatenate([find(d1, d0), within[:, 1]], axis=2),
    ], axis=1)


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


def _scatter_data(space, slots, local):
    """Accumulate (m, a, b) local blocks into a data vector on the pattern;
    ``slots`` holds the blocks' positions in it, (m, a, b) or (m, a * b)."""
    return np.bincount(
        slots.ravel(), weights=local.ravel(), minlength=len(_pattern(space).indices)
    )


def _scatter_vector(space, cells, local):
    """Accumulate (m, nb) local vectors on ``cells`` into a global vector."""
    return np.bincount(
        space.cell_dofs[cells].ravel(), weights=local.ravel(), minlength=space.ndofs
    )


def _load_block(wq, q, val):
    """Local (q, w) vectors of a quadrature-point field q: (m, nb)."""
    return np.einsum("cq,cq,qa->ca", wq, q, val)


def _loworder_block(wq, val, phi, K, hess_ref):
    """Local (Phi : D^2 v, w) blocks of a coefficient phi (m, nq, d, d): its
    pull-back (see ``_hessian_map``) against the trial reference Hessians,
    times the test values."""
    m, nq, d, _ = phi.shape
    pulled = phi.reshape(m, nq, d * d) @ K
    # (nq, m, d d) @ (nq, d d, nb): one product per quadrature point
    hess_t = hess_ref.reshape(nq, -1, d * d).swapaxes(1, 2)
    contracted = (pulled.swapaxes(0, 1) @ hess_t).swapaxes(0, 1)
    return (wq[:, :, None] * val).swapaxes(1, 2) @ contracted


@_cached
def _bilap(space):
    """Data of (lap v, lap w) over all cells, cached (epsilon-independent)."""
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))
    slots = _pattern(space).cell_slots

    def block(cells, wq):
        # lap v = D^2_ref v : J^-1 J^-T
        ji = space.jac_inv[cells]
        metric = ji @ np.swapaxes(ji, 1, 2)
        lap = np.einsum("qbkl,ckl->cqb", hess_ref, metric)
        local = np.einsum("cq,cqa,cqb->cab", wq, lap, lap)
        return _scatter_data(space, slots[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


@_cached
def _hess_gram(space):
    """Data of the Gram matrix (D^2 v, D^2 w) of the broken Hessian inner
    product, cached per space (built when a norm needs it)."""
    rule, _, _, hess_ref = _cell_tables(space, 2 * (space.degree - 2))
    nq, nb, d = hess_ref.shape[:3]
    # (nb nq, d d): the basis functions' flattened reference Hessians
    table = hess_ref.swapaxes(0, 1).reshape(nb * nq, d * d)
    slots = _pattern(space).cell_slots

    def block(cells, wq):
        # (m, nb, nq d d) physical Hessians, met pairwise under the weights
        hp = (table @ _hessian_map(space, cells).swapaxes(1, 2)).reshape(len(cells), nb, -1)
        local = (np.repeat(wq, d * d, axis=1)[:, None, :] * hp) @ hp.swapaxes(1, 2)
        return _scatter_data(space, slots[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


def _face_points(space, rule, vertex_ids, measures):
    """Physical points (F, nq, d) and weights (F, nq) of a face rule on faces."""
    d = space.dim
    fc = space.mesh.vertices[vertex_ids]  # (F, d, d)
    phys = fc[:, None, 0, :] + np.einsum("qm,fmi->fqi", rule.points, fc[:, 1:] - fc[:, :1])
    scale = math.factorial(d - 1) * measures  # map ref face -> face
    return phys, rule.weights[None, :] * scale[:, None]


def _face_tables(space, rule, cells, vertex_ids):
    """Reference basis gradients (p, nq, nb, d) and Hessians (p, nq, nb, d, d)
    at a face rule's points for each placement p of a face in a cell, and the
    placement index (F, s) of the sides ``cells`` (F, s) of faces
    ``vertex_ids`` (F, d).  A placement is where the face's sorted vertices
    sit among its cell's vertices; a simplex has (d + 1)! of them.
    """
    d = space.dim
    local = np.argmax(
        space.mesh.cells[cells][:, :, None, :] == vertex_ids[:, None, :, None], axis=3
    ).reshape(-1, d)
    first, index = _number_rows(local)
    placements = local[first]
    corners = np.vstack([np.zeros(d), np.eye(d)])  # reference cell vertices
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    ref = np.einsum("qm,pmi->pqi", bary, corners[placements])
    _, grad, hess = space.ref.tabulate(ref.reshape(-1, d))
    shape = (len(placements), len(rule.weights), space.ref.node_count, d)
    return grad.reshape(shape), hess.reshape(shape + (d,)), index.reshape(cells.shape)


@_cached
def _face_penalty_consistency(space):
    """Cached data pair (P, C): gradient-jump penalty and consistency terms,
    summed over chunks of interior faces gathered on both sides, plus first.
    Each chunk looks up its faces' pattern slots and drops them after use."""
    mesh = space.mesh
    # (jump grad v, jump grad w) has degree 2 (k - 1), ({lap v}, jump grad w) less
    rule = face_quadrature(space.dim, 2 * (space.degree - 1))
    grad, hess, placement = _face_tables(
        space, rule, mesh.iface_cells, mesh.iface_vertex_ids
    )
    pattern = _pattern(space)
    find = _slot_finder(pattern.indptr, pattern.indices)
    P, C = np.zeros(len(pattern.indices)), np.zeros(len(pattern.indices))
    for start in range(0, len(mesh.iface_cells), _FACE_CHUNK):
        sl = slice(start, start + _FACE_CHUNK)
        _, wq = _face_points(
            space, rule, mesh.iface_vertex_ids[sl], mesh.iface_measures[sl]
        )
        jump, avg = [], []
        for side, sign in ((0, 1.0), (1, -1.0)):
            # grad v . n = grad_ref v . J^-1 n and lap v = D^2_ref v : J^-1 J^-T
            ji = space.jac_inv[mesh.iface_cells[sl, side]]
            conormal = sign * np.einsum("cji,ci->cj", ji, mesh.iface_normals[sl])
            p = placement[sl, side]
            jump.append(np.einsum("cqbj,cj->cqb", grad[p], conormal))
            avg.append(0.5 * np.einsum("cqbkl,cki,cli->cqb", hess[p], ji, ji, optimize=True))
        jump, avg = np.concatenate(jump, axis=2), np.concatenate(avg, axis=2)
        slots = _face_slots(space, find, mesh.iface_cells[sl])
        wj = wq / mesh.iface_diameters[sl][:, None]
        P += _scatter_data(space, slots, np.einsum("fq,fqa,fqb->fab", wj, jump, jump))
        local = np.einsum("fq,fqa,fqb->fab", wq, jump, avg)
        C += _scatter_data(space, slots, local + np.swapaxes(local, 1, 2))
    return P, C


@_cached
def _boundary_tables(space):
    """Outward normal-gradient tabulation on boundary faces, cached."""
    mesh = space.mesh
    cells = mesh.bface_cells
    phys, wq = _face_points(
        space, space.face_rule, mesh.bface_vertex_ids, mesh.bface_measures
    )
    grad, _, placement = _face_tables(
        space, space.face_rule, cells[:, None], mesh.bface_vertex_ids
    )
    conormal = np.einsum("cji,ci->cj", space.jac_inv[cells], mesh.bface_normals)
    gradn = np.einsum("cqbj,cj->cqb", grad[placement[:, 0]], conormal)
    return space.cell_dofs[cells].astype(np.int32), phys, gradn, wq


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


def _loworder(space, field):
    """Data of (Phi : D^2 v, w) for a coefficient field Phi."""
    rule, val, _, hess_ref = _cell_tables(space)
    slots = _pattern(space).cell_slots

    def block(cells, wq):
        phys = _phys_points(space, cells, rule.points)
        phi = field(phys.reshape(-1, space.dim)).reshape(phys.shape + (space.dim,))
        local = _loworder_block(wq, val, phi, _hessian_map(space, cells), hess_ref)
        return _scatter_data(space, slots[cells], local)

    return sum(block(cells, wq) for cells, wq in _cell_blocks(space, rule))


def _newton_tables(space):
    """Cell tables of the Newton pass: (det D^2 u_h, v) and
    (cof D^2 u_h : D^2 v, w) are polynomials of degree d (k - 2) + k."""
    return _cell_tables(space, space.dim * (space.degree - 2) + space.degree)


def _iterate_hessians(space, coeffs):
    """Yield, per cell block, (cells, weights, Hessian maps, det(D^2 u_h),
    cof(D^2 u_h)) at the Newton-pass quadrature points."""
    rule, _, _, hess_ref = _newton_tables(space)
    for cells, wq in _cell_blocks(space, rule):
        K = _hessian_map(space, cells)
        hu = _discrete_hessians(K, coeffs[space.cell_dofs[cells]], hess_ref)
        yield (cells, wq, K) + det_and_cofactor(hu)


def _det_vector(space, coeffs):
    """The (det(D^2 u_h), v_i) vector alone: the line-search residual's pass."""
    _, val, _, _ = _newton_tables(space)
    return sum(
        _scatter_vector(space, cells, _load_block(wq, det, val))
        for cells, wq, _, det, _ in _iterate_hessians(space, coeffs)
    )


def _nonlinear_cell_terms(space, coeffs):
    """One pass for the Newton step: the (det(D^2 u_h), v_i) vector and the
    data of the cofactor low-order matrix (cof(D^2 u_h) : D^2 v, w)."""
    _, val, _, hess_ref = _newton_tables(space)
    slots = _pattern(space).cell_slots
    det_vec = low_cof = 0
    for cells, wq, K, det, cof in _iterate_hessians(space, coeffs):
        det_vec = det_vec + _scatter_vector(space, cells, _load_block(wq, det, val))
        local = _loworder_block(wq, val, cof, K, hess_ref)
        low_cof = low_cof + _scatter_data(space, slots[cells], local)
    return det_vec, low_cof


# ------------------------------------------------------ per-rung constants


@_cached
def _operator(space, params):
    """Data of A_h(0) = eps (lap v, lap w) - eps C + weight P, cached per
    params."""
    P, C = _face_penalty_consistency(space)
    return params.epsilon * (_bilap(space) - C) + params.jump_weight * P


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
    bvals, _ = apply_dirichlet(space, g_data.g)
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
    """Boundary dof values of g and the interior dof index set."""
    coords = space.dof_coords[space.boundary_dofs]
    vals = np.asarray(g(coords), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(space.boundary_dofs), float(vals))
    return vals, space.interior_dofs

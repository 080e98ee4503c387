"""Lagrange P2/P3 reference elements, simplex quadrature, and FE spaces.

Reference bases are built from the monomial basis through the inverted node
Vandermonde matrix, so values, gradients, and Hessians are all evaluated from
one coefficient table.  Quadrature rules are collapsed (Duffy) Gauss-Jacobi
tensor rules: positive weights, points strictly inside the simplex, arbitrary
requested exactness up to the supported caps.  Global spaces number shared
degrees of freedom by mesh topology: a node is keyed by the global ids of the
vertices it combines and its integer barycentric weights, so nodes on shared
vertices, edges and faces get one dof without comparing coordinates.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "QuadratureRule",
    "ReferenceElement",
    "FeSpace",
    "FeFunction",
    "cell_quadrature",
    "face_quadrature",
    "eval_fe",
    "interpolate",
]

_MAX_EXACTNESS = {2: 10, 3: 8}


class QuadratureRule(NamedTuple):
    """Quadrature on a reference simplex: positive weights, stated exactness."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


def _gauss01(m):
    x, w = roots_legendre(m)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(m, alpha):
    """Nodes/weights for int_0^1 (1-x)^alpha f(x) dx."""
    x, w = roots_jacobi(m, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _simplex_rule(sdim, exactness):
    m = (exactness + 2) // 2  # Gauss: 2m-1 >= exactness
    if sdim == 1:
        x, w = _gauss01(m)
        return x[:, None], w
    if sdim == 2:
        # Duffy map (a,b) -> (a, b(1-a)); the (1-a) Jacobian is the Jacobi weight
        a, wa = _jacobi01(m, 1)
        b, wb = _gauss01(m)
        A, B = np.meshgrid(a, b, indexing="ij")
        pts = np.column_stack([A.ravel(), (B * (1 - A)).ravel()])
        w = np.outer(wa, wb).ravel()
        return pts, w
    if sdim == 3:
        # (a,b,c) -> (a, b(1-a), c(1-a)(1-b)); Jacobian (1-a)^2 (1-b)
        a, wa = _jacobi01(m, 2)
        b, wb = _jacobi01(m, 1)
        c, wc = _gauss01(m)
        A, B, C = np.meshgrid(a, b, c, indexing="ij")
        x = A.ravel()
        y = (B * (1 - A)).ravel()
        z = (C * (1 - A) * (1 - B)).ravel()
        pts = np.column_stack([x, y, z])
        w = (wa[:, None, None] * wb[None, :, None] * wc[None, None, :]).ravel()
        return pts, w
    raise ValueError(f"unsupported simplex dimension {sdim}")


def cell_quadrature(dim, exactness):
    """Rule on the reference simplex of dimension ``dim`` (2 or 3)."""
    _check_exactness(dim, exactness)
    pts, w = _simplex_rule(dim, exactness)
    return QuadratureRule(pts, w, int(exactness))


def face_quadrature(dim, exactness):
    """Rule on the reference face simplex (dimension ``dim`` - 1)."""
    _check_exactness(dim, exactness)
    pts, w = _simplex_rule(dim - 1, exactness)
    return QuadratureRule(pts, w, int(exactness))


def _check_exactness(dim, exactness):
    if dim not in _MAX_EXACTNESS:
        raise ValueError("dim must be 2 or 3")
    if not 1 <= exactness <= _MAX_EXACTNESS[dim]:
        raise ValueError(
            f"exactness {exactness} unsupported in {dim}D "
            f"(1..{_MAX_EXACTNESS[dim]})"
        )


class ReferenceElement:
    """Lagrange element of degree ``k`` on the reference simplex.

    Nodes are the principal lattice points with coordinates i/k.  The basis is
    monomials times the inverted node Vandermonde, which gives the Kronecker
    property by construction and exact analytic derivatives.
    """

    def __init__(self, dim, degree):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if degree not in (2, 3):
            raise ValueError("degree must be 2 or 3")
        self.dim = dim
        self.degree = degree
        multis = sorted(
            m
            for m in itertools.product(range(degree + 1), repeat=dim)
            if sum(m) <= degree
        )
        self.node_coords = np.array(multis, dtype=float) / degree
        self.exponents = np.array(multis, dtype=np.int64)
        self.node_count = len(multis)
        vander = self._monomials(self.node_coords)
        self.coeffs = np.linalg.inv(vander).T  # coeffs[b] = basis b in monomials

    def _monomials(self, pts):
        vals = np.ones((len(pts), self.node_count))
        for j, exp in enumerate(self.exponents):
            for i, e in enumerate(exp):
                if e:
                    vals[:, j] *= pts[:, i] ** e
        return vals

    def tabulate(self, pts):
        """Basis values/gradients/Hessians at reference points.

        Returns arrays of shape (N, nb), (N, nb, dim), (N, nb, dim, dim).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.dim
        # per-axis power tables up to the element degree
        pows = [
            np.vander(pts[:, i], self.degree + 1, increasing=True) for i in range(d)
        ]

        def derivative(*axes):
            """d/dx_axes of every monomial: (N, nb)."""
            exps = self.exponents.copy()
            coef = np.ones(self.node_count)  # falling factorial of the exponents
            for a in axes:
                coef *= exps[:, a]
                exps[:, a] -= 1
            # a power lowered below zero has a zero coefficient; take() keeps
            # the table C-ordered, which fixes the rounding of mono @ C.T
            term = np.broadcast_to(coef, (len(pts), self.node_count))
            for i in range(d):
                term = term * pows[i].take(np.maximum(exps[:, i], 0), axis=1)
            return term

        mono = derivative()
        dmono = np.stack([derivative(a) for a in range(d)], axis=-1)
        hmono = np.stack(
            [np.stack([derivative(a, b) for b in range(d)], axis=-1) for a in range(d)],
            axis=-2,
        )
        C = self.coeffs
        val = mono @ C.T
        grad = np.einsum("njd,bj->nbd", dmono, C)
        hess = np.einsum("njab,cj->ncab", hmono, C)
        return val, grad, hess

    def evaluate(self, point):
        """(values, gradients, Hessians) of all basis functions at one point."""
        val, grad, hess = self.tabulate(np.asarray(point)[None, :])
        return val[0], grad[0], hess[0]


class FeSpace:
    """Continuous Lagrange space of degree ``k`` on a simplicial mesh.

    Carries the global dof table (coordinates, cell-to-dof map, boundary dof
    set) and the per-cell affine geometry used to push reference derivatives
    to physical space.  Immutable after construction.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.ref = ReferenceElement(mesh.dim, self.degree)

        d, k = mesh.dim, self.degree
        # the rules for non-polynomial data (f, psi, coefficient fields);
        # polynomial forms build rules of their own degree on first use
        self.cell_rule = cell_quadrature(d, max(2 * k, d * (k - 2) + k) + 2)
        self.face_rule = face_quadrature(d, 2 * (k - 1) + 2)
        pts = mesh.vertices[mesh.cells]  # (M, d+1, d)
        self.cell_origin = np.ascontiguousarray(pts[:, 0, :])
        # jacobian columns are the edge vectors
        self.jac = np.ascontiguousarray(np.swapaxes(pts[:, 1:, :] - pts[:, :1, :], 1, 2))
        self.jac_inv = np.linalg.inv(self.jac)
        self.jac_det = np.abs(np.linalg.det(self.jac))

        # physical node coordinates per cell: x = v0 + J @ ref_node
        phys = self.cell_origin[:, None, :] + np.einsum(
            "cij,nj->cni", self.jac, self.ref.node_coords
        )
        # a node is keyed by the mesh vertices it combines: each global vertex
        # id paired with the node's integer barycentric weight on it (packed
        # as id * (k+1) + weight), zero-weight vertices blanked to -1, sorted
        M, nb = mesh.num_cells, self.ref.node_count
        exps = self.ref.exponents
        weights = np.column_stack([k - exps.sum(axis=1), exps])  # (nb, d+1)
        pairs = np.where(weights > 0, mesh.cells[:, None, :] * (k + 1) + weights, -1)
        keys = np.sort(pairs, axis=2).reshape(M * nb, -1)
        _, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        # number dofs in order of first occurrence over (cell, local node)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.cell_dofs = rank[inverse.ravel()].reshape(M, nb)
        self.dof_coords = phys.reshape(M * nb, d)[first[order]]
        self.ndofs = len(self.dof_coords)

        # local nodes on local face f: zero weight on local vertex f
        on_face = np.array([np.flatnonzero(w == 0) for w in weights.T])
        self.boundary_dofs = np.unique(
            self.cell_dofs[mesh.bface_cells[:, None], on_face[mesh.bface_locals]]
        )
        mask = np.ones(self.ndofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.flatnonzero(mask)
        self._cache = {}

    @property
    def dim(self):
        return self.mesh.dim

    def reference_coords(self, cells, points):
        """Pull physical points back to reference coordinates of given cells."""
        rel = points - self.cell_origin[cells]
        return np.einsum("cij,cj->ci", self.jac_inv[cells], rel)

    def function(self, coeffs=None):
        return FeFunction(self, coeffs)


class FeFunction:
    """Finite element function: a coefficient per global dof of its space."""

    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.ndofs)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.ndofs,):
            raise ValueError("coefficient vector length does not match space")
        self.coeffs = coeffs

    def copy(self):
        return FeFunction(self.space, self.coeffs.copy())

    def evaluate(self, points):
        """Point values anywhere in the domain (locates the containing cells)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.space.mesh.locate(pts)
        ref = self.space.reference_coords(cells, pts)
        val, _, _ = self.space.ref.tabulate(ref)
        return np.einsum("nb,nb->n", val, self.coeffs[self.space.cell_dofs[cells]])


def eval_fe(f, cell, ref_point):
    """Value, physical gradient, and physical Hessian of ``f`` on one cell.

    The affine map gives gradient = J^{-T} grad_ref and
    hessian = J^{-T} H_ref J^{-1} (no curvature term on affine cells).
    """
    space = f.space
    if not 0 <= cell < space.mesh.num_cells:
        raise IndexError(f"cell index {cell} out of range")
    val, grad, hess = space.ref.tabulate(np.asarray(ref_point, dtype=float)[None, :])
    dofs = space.cell_dofs[cell]
    coef = f.coeffs[dofs]
    jinv = space.jac_inv[cell]
    value = float(val[0] @ coef)
    g_ref = grad[0].T @ coef  # (d,)
    h_ref = np.einsum("bij,b->ij", hess[0], coef)
    gradient = jinv.T @ g_ref
    hessian = jinv.T @ h_ref @ jinv
    return value, gradient, hessian


def interpolate(space, g):
    """Nodal interpolant: coefficient at each dof = g(dof coordinate)."""
    vals = g(space.dof_coords)
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        vals = np.full(space.ndofs, float(vals))
    return FeFunction(space, vals)

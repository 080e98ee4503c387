"""Lagrange reference elements, simplex quadrature, and P2/P3 FE spaces.

Reference bases are built from the monomial basis through the inverted node
Vandermonde matrix, so values, gradients, and Hessians are all evaluated from
one coefficient table; the Vandermonde matrix and the derivatives met with it
come from one monomial table (``ReferenceElement._monomial_derivative``).
Quadrature rules are collapsed (Duffy) Gauss-Jacobi tensor rules, one
construction for segments, triangles and tetrahedra: positive weights, points
strictly inside the simplex, arbitrary requested exactness up to the
supported caps.  Global spaces number shared degrees of freedom by mesh
topology: a node is keyed by the global ids of the vertices it combines and
its integer barycentric weights, so nodes on shared vertices, edges and faces
get one dof without comparing coordinates.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from maviscid.mesh import _integer, _number_rows, _sorted_columns

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
    """Collapsed (Duffy) rule on the reference simplex of dimension ``sdim``.

    Coordinate i is x_i (1 - x_0) ... (1 - x_{i-1}); the map's Jacobian
    (1 - x_i)^(sdim - 1 - i) on axis i is taken up by a Gauss-Jacobi rule
    there, and the last axis is plain Gauss.
    """
    m = (exactness + 2) // 2  # Gauss: 2m-1 >= exactness
    rules = [_jacobi01(m, sdim - 1 - i) for i in range(sdim - 1)] + [_gauss01(m)]
    grid = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    coords = []
    for i, x in enumerate(grid):
        for prev in grid[:i]:
            x = x * (1 - prev)
        coords.append(x.ravel())
    w = rules[0][1]
    for _, wi in rules[1:]:
        w = np.multiply.outer(w, wi)
    return np.column_stack(coords), w.ravel()


def cell_quadrature(dim, exactness):
    """Rule on the reference simplex of dimension ``dim`` (2 or 3)."""
    dim, exactness = _check_exactness(dim, exactness)
    pts, w = _simplex_rule(dim, exactness)
    return QuadratureRule(pts, w, exactness)


def face_quadrature(dim, exactness):
    """Rule on the reference face simplex (dimension ``dim`` - 1)."""
    dim, exactness = _check_exactness(dim, exactness)
    pts, w = _simplex_rule(dim - 1, exactness)
    return QuadratureRule(pts, w, exactness)


def _check_exactness(dim, exactness):
    """``(dim, exactness)`` as Python ints; ValueError unless both are
    integers and the exactness is supported in that dimension."""
    dim = _integer("dim", dim, 2, 3)
    return dim, _integer(f"exactness in {dim}D", exactness, 1, _MAX_EXACTNESS[dim])


def check_degree(degree):
    """``degree`` as a Python int; ValueError unless it is an integer 2 or 3
    (floats and bools are refused, numpy integers accepted)."""
    return _integer("degree", degree, 2, 3)


class ReferenceElement:
    """Lagrange element of degree ``k`` (0 to 3) on the reference simplex.

    Nodes are the principal lattice points with coordinates i/k; degree 0 has
    the centroid.  The basis is monomials times the inverted node Vandermonde,
    which gives the Kronecker property by construction and exact analytic
    derivatives.  Spaces take degrees 2 and 3 (``check_degree``); the others
    serve as lattice bases.
    """

    def __init__(self, dim, degree):
        self.dim = dim = _integer("dim", dim, 2, 3)
        self.degree = degree = _integer("degree", degree, 0, 3)
        multis = sorted(
            m
            for m in itertools.product(range(degree + 1), repeat=dim)
            if sum(m) <= degree
        )
        if degree:
            self.node_coords = np.array(multis, dtype=float) / degree
        else:
            self.node_coords = np.full((1, dim), 1.0 / (dim + 1))
        self.exponents = np.array(multis, dtype=np.int64)
        self.node_count = len(multis)
        vander = self._monomial_derivative(self._powers(self.node_coords))
        self.coeffs = np.linalg.inv(vander).T  # coeffs[b] = basis b in monomials

    def _powers(self, pts):
        """Per-axis power tables of reference points up to the degree."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return [np.vander(pts[:, i], self.degree + 1, increasing=True)
                for i in range(self.dim)]

    def _monomial_derivative(self, pows, axes=()):
        """d/dx_axes of every monomial at the points of ``pows``: (N, nb)."""
        exps = self.exponents.copy()
        coef = np.ones(self.node_count)  # falling factorial of the exponents
        for a in axes:
            coef *= exps[:, a]
            exps[:, a] -= 1
        # a power lowered below zero has a zero coefficient; take() keeps
        # the table C-ordered, which fixes the rounding of mono @ C.T
        term = np.broadcast_to(coef, (len(pows[0]), self.node_count))
        for i in range(self.dim):
            term = term * pows[i].take(np.maximum(exps[:, i], 0), axis=1)
        return term

    def values(self, pts):
        """Basis values at reference points, (N, nb): the first array of
        ``tabulate``, bit for bit, without its derivatives."""
        return self._monomial_derivative(self._powers(pts)) @ self.coeffs.T

    def tabulate(self, pts):
        """Basis values/gradients/Hessians at reference points.

        Returns arrays of shape (N, nb), (N, nb, dim), (N, nb, dim, dim).
        """
        pows = self._powers(pts)
        d = self.dim

        def derivative(*axes):
            return self._monomial_derivative(pows, axes)

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


class FeSpace:
    """Continuous Lagrange space of degree ``k`` on a simplicial mesh.

    Carries the global dof table (coordinates, cell-to-dof map, boundary dof
    set) and reads the per-cell affine maps that push reference derivatives
    to physical space from its mesh.  Immutable after construction.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = check_degree(degree)
        self.ref = ReferenceElement(mesh.dim, self.degree)

        d, k = mesh.dim, self.degree
        # the rules for non-polynomial data (f, psi, coefficient fields);
        # polynomial forms build rules of their own degree on first use
        self.cell_rule = cell_quadrature(d, max(2 * k, d * (k - 2) + k) + 2)
        self.face_rule = face_quadrature(d, 2 * (k - 1) + 2)
        # a node is keyed by the mesh vertices it combines, each repeated by
        # the node's integer barycentric weight on it: k vertex ids, sorted
        M, nb = mesh.num_cells, self.ref.node_count
        exps = self.ref.exponents
        weights = np.column_stack([k - exps.sum(axis=1), exps])  # (nb, d+1)
        combines = np.array([np.repeat(np.arange(d + 1), w) for w in weights])  # (nb, k)
        keys = _sorted_columns(mesh.cells[:, combines[:, j]].ravel() for j in range(k))
        # number dofs in order of first occurrence over (cell, local node),
        # each placed by its first node: x = v0 + J @ ref_node
        first, inverse = _number_rows(keys)
        self.cell_dofs = inverse.reshape(M, nb)
        cell, node = np.divmod(first, nb)
        self.dof_coords = self.cell_origin[cell] + np.einsum(
            "uij,uj->ui", self.jac[cell], self.ref.node_coords[node]
        )
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

    # each cell's affine map is the mesh's own (``SimplicialMesh``)
    cell_origin = property(lambda self: self.mesh.cell_origin)
    jac = property(lambda self: self.mesh.jac)
    jac_inv = property(lambda self: self.mesh.jac_inv)
    jac_det = property(lambda self: self.mesh.jac_det)


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
        ref = self.space.mesh.reference_coords(cells, pts)
        val = self.space.ref.values(ref)
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

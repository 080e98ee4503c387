"""Conforming simplicial meshes with face topology, and the Kuhn generator.

Cells are affine simplices with positive orientation.  Every mesh carries its
full interior/boundary face data (vertex ids, unit normals, diameters,
measures) so interior-penalty face terms can be assembled without re-deriving
topology.  The built-in generator is the Kuhn subdivision of (0,1)^d for d = 2
and 3: each grid cube is split into d! simplices, one per axis permutation
(two triangles sharing the (0,0)-(1,1) diagonal, six tetrahedra sharing the
main diagonal), so the mesh is conforming and quasi-uniform.  Generation,
point location, face geometry and the conformity check are written once for
both dimensions.

Each cell carries its affine map x = ``cell_origin`` + ``jac`` x_ref, with
``jac_inv`` and ``jac_det`` = |det jac|, computed once, here: ``FeSpace``
reads these arrays, not copies, and point location pulls points back
through ``reference_coords``; ``cell_volumes`` is ``jac_det`` / d!.

Construction works on whole arrays.  Determinants and inverses come from one
closed form, ``det_and_cofactor`` (J^-1 = cof(J)^T / det J), with no batched
LAPACK call: one pass over the cells' edge matrices, and a cell reoriented by
swapping its last two vertices evaluated again on its own.  A cell's diameter
is its longest edge, over the d(d+1)/2 edges rather than all vertex pairs;
squared lengths and the 3D face cross product are written out by components.
Face keys (and the node keys of ``FeSpace``) are sorted row by row by a
compare-exchange network of np.minimum/np.maximum and numbered through one
packed int64 key (``_number_rows``); ``FeSpace`` places each dof by one
product x = v0 + J x_ref at its first node.  Every array but ``jac_inv`` and
``jac_det`` (and so the cell volumes) is bitwise equal to the per-pair
formulas (all-pair diameters, np.sort keys, a full second cofactor pass,
``mean`` face midpoints, every node placed), and those two to a per-cell
adjugate formula; the tests keep both as oracles.

Input that cannot make a mesh is refused with ValueError naming the vertex
or cell: non-finite vertices, cell entries that are not integer indices of
existing vertices, no cells, a cell flat to roundoff (|det J| at most
``_FLAT_CELL`` machine epsilons times the product of its edge lengths, its
Hadamard bound), a cell whose squared Hadamard bound, |det J| or J^-1
leaves the normal float64 range (no overflow or underflow is let through
as a warning or read as flatness), a face shared by three cells, and, on
meshes not made by the generator only, two cells on one side of their
shared face (a repeated or overlapping cell) and a vertex hanging on a
boundary face.  Inside the float64 range no verdict depends on the mesh's
scale: the hanging-vertex check and point location on such meshes share
one search (``SimplicialMesh._search``) that compares barycentric
coordinates from each cell's own inverse map.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

__all__ = [
    "SimplicialMesh",
    "build_structured_mesh",
]

# (box, point) pairs per block of ``SimplicialMesh._search``, so that its
# (pairs, d, d) gathers of the cells' inverse maps stay near 5 MB each
_SEARCH_PAIRS = 2**16

# a cell with |det J| <= _FLAT_CELL * eps * (product of its edge lengths) is
# flat to roundoff.  Collinear or coplanar cells with vertices given to two
# decimals in the unit square or cube reach 62 eps in 2D and 7 eps in 3D
# over 2e5 random draws; a valid cell of aspect 1e-6 sits near 1e-6.
_FLAT_CELL = 256


def _integer(name, value, least, most=None):
    """``value`` as a Python int; ValueError naming ``name`` and the value
    unless it is an integer from ``least`` to ``most`` (None: no bound).
    Floats and bools are refused, numpy integers accepted."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bound = (f"an integer >= {least}" if most is None
                 else f"{least} or {most}" if most == least + 1
                 else f"an integer {least} to {most}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


# compare-exchange networks that sort 2 or 3 values
_SORTING_NETWORKS = {2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 1)]}


def _sorted_columns(columns):
    """Sort every row of an int table given as its 2 or 3 columns (N,):
    one np.minimum and one np.maximum per compare-exchange."""
    cols = list(columns)
    for a, b in _SORTING_NETWORKS[len(cols)]:
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    return cols


def _number_rows(columns):
    """Number the distinct rows of an int table, given as its c int64
    columns (N,) of values >= 0, in order of first occurrence: returns
    ``first`` (U,), the first row of each number, and ``inverse`` (N,), each
    row's number.  A row is packed into one int64 key in base ``size`` (its
    largest value + 1), so ValueError is raised when size^c exceeds 2^63."""
    size = 1 + max(int(c.max(initial=0)) for c in columns)
    if size ** len(columns) > 2**63:
        raise ValueError(
            f"rows of {len(columns)} values below {size} do not pack into an int64"
        )
    key = columns[0]
    for c in columns[1:]:
        key = key * size + c
    order = np.argsort(key, kind="stable")  # stable: equal rows keep row order
    ordered = key[order]
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    heads = order[starts]  # each group's first row, in key order
    is_first = np.zeros(len(key), dtype=bool)
    is_first[heads] = True
    number = np.cumsum(is_first) - 1  # at a first row: its group's number
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = number[heads][np.cumsum(starts) - 1]
    return np.flatnonzero(is_first), inverse


def det_and_cofactor(H):
    """Determinant and cofactor matrix of 2x2/3x3 matrices, by the closed
    form: each cofactor a signed 2x2 minor (an entry in 2D), the
    determinant expanded along the first row.

    Accepts a single matrix or any batch (..., d, d), symmetric or not.
    The identity H cof(H)^T = det(H) I holds for singular H as well, and
    for invertible H the inverse is cof(H)^T / det(H).
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


def _squared_lengths(v):
    """Squared length of each vector of ``v`` (..., d), d = 2 or 3: the
    components' squares added in turn, as ``np.linalg.norm`` adds them."""
    sq = v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
    if v.shape[-1] == 3:
        sq += v[..., 2] * v[..., 2]
    return sq


def _longest_edges(pts):
    """Length of the longest edge of each simplex of ``pts`` (N, p, d): the
    root of the largest squared length (roots keep the order)."""
    return np.sqrt(functools.reduce(np.maximum, (
        _squared_lengths(pts[:, b] - pts[:, a])
        for a, b in itertools.combinations(range(pts.shape[1]), 2)
    )))


def _local_face_indices(dim):
    # local face i omits local vertex i
    all_ix = range(dim + 1)
    return [tuple(j for j in all_ix if j != i) for i in all_ix]


class SimplicialMesh:
    """Conforming simplicial mesh of a polygon or polyhedron.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    vertices : array_like, shape (V, dim)
        Vertex coordinates.
    cells : array_like of int, shape (M, dim+1)
        Vertex indices per cell.  Cells with negative signed volume are
        reoriented (last two vertices swapped) on construction.

    ``structure`` is ``("kuhn", n)`` on the meshes of ``build_structured_mesh``
    and None on every other: it selects direct point location (cell d! * cube
    + rank of the local coordinate order) and skips the hanging-vertex check
    and the overlap check (generator meshes are conforming by construction);
    other meshes are checked for both and locate points by a bucketed search
    over the cells' bounding boxes.  ``locate`` rejects points outside the
    mesh on both paths.

    Cell c maps the reference simplex by x = ``cell_origin[c]`` + ``jac[c]``
    x_ref, the columns of ``jac[c]`` its edges from its first vertex;
    ``jac_inv[c]`` is the inverse and ``jac_det[c]`` = |det jac[c]|.

    Faces are stored as arrays, numbered in order of first occurrence over
    (cell, local face); local face i omits local vertex i.  Interior face f
    has sorted ``iface_vertex_ids[f]``, cells ``iface_cells[f] = (plus,
    minus)`` with plus the smaller cell index, local face numbers
    ``iface_locals[f]``, and the unit normal ``iface_normals[f]`` pointing out
    of the plus cell; ``iface_diameters`` and ``iface_measures`` hold its
    longest edge and its length/area.  The ``bface_*`` arrays hold the same
    for boundary faces, with one owning cell and the outward normal.

    Immutable after construction; safe to share read-only across threads.
    """

    structure = None

    def __init__(self, dim, vertices, cells):
        self.dim = dim = _integer("dim", dim, 2, 3)
        self.vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError("vertices must have shape (V, dim)")
        bad = ~np.all(np.isfinite(self.vertices), axis=1)
        if np.any(bad):  # before det, which would warn on NaN
            v = int(np.argmax(bad))
            raise ValueError(f"vertex {v} {self.vertices[v].tolist()} is not finite")
        cells = self._checked_cells(cells, len(self.vertices))

        # J's columns are the edges from the first vertex, so J^T's rows are,
        # and J^-1 = cof(J)^T / det J = cof(J^T) / det J^T.  One cofactor
        # pass; a reoriented cell (last two vertices swapped, so last two
        # edge rows swapped) is evaluated again on its own.  Its edge lengths
        # and diameter come from the points as given.
        pts = self.vertices[cells]
        edges = pts[:, 1:, :] - pts[:, :1, :]
        with np.errstate(all="ignore"):  # a cell out of range is refused below
            det, cof = det_and_cofactor(edges)
            # Hadamard: |det J| is at most the product of the edge lengths
            # from the first vertex, 0 for a repeated vertex
            bound_sq = functools.reduce(np.multiply, (
                _squared_lengths(edges[:, i]) for i in range(dim)))
            flip = np.flatnonzero(det < 0)
            cells[flip, dim - 1:] = cells[flip, dim - 1:][:, ::-1]
            edges[flip, dim - 2:] = edges[flip, dim - 2:][:, ::-1]
            det[flip], cof[flip] = det_and_cofactor(edges[flip])
            cof /= det[:, None, None]
        self._check_affine_maps(cells, edges, det, bound_sq, cof)
        self.cells = cells
        # each cell's affine map x = cell_origin + jac x_ref, its inverse and
        # |det jac| (det > 0 after the flat check)
        self.cell_origin = np.ascontiguousarray(pts[:, 0, :])
        self.jac = np.ascontiguousarray(np.swapaxes(edges, 1, 2))
        self.jac_inv, self.jac_det = cof, det

        self.cell_diameters = _longest_edges(pts)
        self.h = float(self.cell_diameters.max())
        del pts, edges  # not held through the face pass

        self._build_faces()

    def _checked_cells(self, cells, num_vertices):
        """A fresh int64 copy of ``cells``; ValueError, naming the first bad
        cell, unless it holds integer indices of existing vertices."""
        cells = np.asarray(cells)
        if cells.ndim != 2 or cells.shape[1] != self.dim + 1:
            raise ValueError("cells must have shape (M, dim+1)")
        if len(cells) == 0:
            raise ValueError("mesh has no cells")
        if cells.dtype.kind not in "iu":
            whole = np.zeros(cells.shape, dtype=bool)
            if cells.dtype.kind == "f":
                whole = np.isfinite(cells) & (cells == np.trunc(cells))
            c = int(np.argmin(np.all(whole, axis=1)))
            raise ValueError(
                f"cell {c} {cells[c].tolist()} is not integer vertex indices"
            )
        bad = np.any((cells < 0) | (cells >= num_vertices), axis=1)
        if np.any(bad):
            c = int(np.argmax(bad))
            raise ValueError(
                f"cell {c} {cells[c].tolist()} names a vertex outside 0..{num_vertices - 1}"
            )
        return cells.astype(np.int64)

    @staticmethod
    def _check_affine_maps(cells, edges, det, bound_sq, inv):
        """ValueError naming the first cell that is flat to roundoff, or
        whose squared Hadamard bound, determinant or inverse leaves the
        normal float64 range, given each cell's edge rows from its first
        vertex, det J, the squared bound and J^-1."""
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        in_range = (bound_sq >= tiny) & (bound_sq <= huge) & (det <= huge)
        # below tiny, the squared bound is in range only as the exact 0 of a
        # cell with a zero edge
        small = np.flatnonzero(bound_sq < tiny)
        in_range[small] = ~np.all(np.any(edges[small], axis=2), axis=1)
        eps = np.finfo(float).eps
        flat = in_range & (det <= _FLAT_CELL * eps * np.sqrt(bound_sq))
        if not np.isfinite(inv).all():  # per cell only when some entry is not
            in_range &= flat | np.all(np.isfinite(inv), axis=(1, 2))
        bad = flat | ~in_range
        if np.any(bad):
            c = int(np.argmax(bad))
            if flat[c]:
                raise ValueError(
                    f"degenerate cell {c} {cells[c].tolist()} (zero signed volume)")
            raise ValueError(
                f"cell {c} {cells[c].tolist()} leaves the float64 range "
                f"[{tiny:.3g}, {huge:.3g}]: its squared Hadamard bound (the "
                f"product of its squared edge lengths from its first vertex) "
                f"is {bound_sq[c]:.3g} and |det J| {det[c]:.3g}, and J^-1 must "
                f"be finite")

    @property
    def cell_volumes(self):
        return self.jac_det / math.factorial(self.dim)

    def reference_coords(self, cells, points):
        """Pull physical points back to reference coordinates of the cells
        ``cells`` indexes (``slice(None)``: every cell)."""
        rel = points - self.cell_origin[cells]
        return np.einsum("cij,cj->ci", self.jac_inv[cells], rel)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    # ------------------------------------------------------------------ faces

    def _build_faces(self):
        dim = self.dim
        # one row per (cell, local face), keyed by the face's sorted vertex
        # ids; an interior face's first owner has the smaller cell index
        local = np.array(_local_face_indices(dim))  # (dim+1, dim)
        cols = _sorted_columns(self.cells[:, local[:, j]].ravel() for j in range(dim))
        first, inverse = _number_rows(cols)
        faces = np.stack([c[first] for c in cols], axis=1)
        counts = np.bincount(inverse)
        shared = counts > 2
        if np.any(shared):
            f = np.argmax(shared)
            raise ValueError(
                f"non-conforming mesh: face {tuple(int(v) for v in faces[f])} "
                f"shared by {counts[f]} cells"
            )
        interior = np.flatnonzero(counts == 2)
        boundary = np.flatnonzero(counts == 1)
        # an interior face's second owner is the last row with its key
        last = np.zeros(len(first), dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(len(inverse)))
        rows = np.column_stack([first[interior], last[interior]])
        self.iface_vertex_ids = faces[interior]
        self.iface_cells, self.iface_locals = np.divmod(rows, dim + 1)
        self.bface_vertex_ids = faces[boundary]
        self.bface_cells, self.bface_locals = np.divmod(first[boundary], dim + 1)

        opp = self.vertices[
            self.cells[self.iface_cells[:, 0], self.iface_locals[:, 0]]
        ]
        n, diam, meas = self._face_geometry(self.iface_vertex_ids, opp)
        self.iface_normals = n
        self.iface_diameters = diam
        self.iface_measures = meas

        opp_b = self.vertices[self.cells[self.bface_cells, self.bface_locals]]
        n, diam, meas = self._face_geometry(self.bface_vertex_ids, opp_b)
        self.bface_normals = n
        self.bface_diameters = diam
        self.bface_measures = meas

        self._check_no_hanging_vertices()
        self._check_no_overlapping_cells()

    def _face_geometry(self, vertex_ids, opposite):
        """Unit normals (pointing away from ``opposite``), diameters, measures.

        The generalized cross product of a face's edge vectors is normal to
        it with length (d - 1)! times its measure; the diameter is its
        longest edge.
        """
        fc = self.vertices[vertex_ids]  # (F, dim, dim)
        e = fc[:, 1:] - fc[:, :1]
        if self.dim == 2:
            cr = np.stack([e[:, 0, 1], -e[:, 0, 0]], axis=1)
        else:  # as np.cross forms it
            a, b = e[:, 0], e[:, 1]
            cr = np.stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                           a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                           a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]], axis=1)
        size = np.sqrt(_squared_lengths(cr))
        n = cr / size[:, None]
        meas = size / math.factorial(self.dim - 1)
        diam = _longest_edges(fc)
        mid = functools.reduce(np.add, (fc[:, i] for i in range(self.dim))) / self.dim
        wrong = np.einsum("fd,fd->f", n, mid - opposite) < 0
        n[wrong] *= -1.0
        return n, diam, meas

    def _check_no_overlapping_cells(self):
        # the two cells of an interior face lie on opposite sides of it: the
        # minus cell's opposite vertex lies where the plus cell's normal
        # points.  A repeated cell, or one folded over its neighbour, fails.
        # Generator meshes are valid by construction and are not checked.
        if self.structure is not None:
            return
        opp = self.vertices[self.cells[self.iface_cells[:, 1], self.iface_locals[:, 1]]]
        base = self.vertices[self.iface_vertex_ids[:, 0]]
        overlap = np.einsum("fd,fd->f", self.iface_normals, opp - base) <= 0
        if np.any(overlap):
            f = np.argmax(overlap)
            raise ValueError(
                f"cells {self.iface_cells[f, 0]} and {self.iface_cells[f, 1]} "
                f"overlap: both lie on one side of their face "
                f"{tuple(int(v) for v in self.iface_vertex_ids[f])}"
            )

    def _check_no_hanging_vertices(self):
        # a hanging vertex shows up as a vertex of one single-owner face lying
        # on another single-owner face (inside it or on its edges) without
        # being one of its vertices: in the face's cell, its barycentric
        # coordinate opposite the face is 0 and none is negative.  Faces
        # triple-shared are caught during table construction.  Generator
        # meshes are conforming by construction and are not scanned.
        if self.structure is not None:
            return
        cand_ids = np.unique(self.bface_vertex_ids)
        for p, face, lam in self._search(self.vertices[cand_ids], self.bface_vertex_ids,
                                         self.bface_cells, self.bface_diameters):
            opposite = lam[np.arange(len(face)), self.bface_locals[face]]
            own = np.any(cand_ids[p][:, None] == self.bface_vertex_ids[face], axis=1)
            hanging = (np.abs(opposite) <= 1e-10) & np.all(lam >= -1e-10, axis=1) & ~own
            if np.any(hanging):
                b = face[hanging].min()
                v = cand_ids[p[hanging & (face == b)].min()]
                raise ValueError(
                    "non-conforming mesh: vertex "
                    f"{int(v)} hangs on face {tuple(int(i) for i in self.bface_vertex_ids[b])}"
                )

    def _search(self, points, box_vertex_ids, box_cells, box_diameters):
        """Yield (p, b, lam) in blocks of pairs, box after box: the points
        ``points[p]`` in the boxes b, and their barycentric coordinates lam
        (pairs, d + 1) in the boxes' cells ``box_cells[b]``.  Box b bounds
        the vertices ``box_vertex_ids[b]``, widened by 1e-6
        ``box_diameters[b]``, a margin that scales with the mesh: a point
        whose coordinates in a cell are all >= -1e-10 lies within d 1e-10
        cell diameters of the box of the cell's vertices.

        Sorted on a key x . w with positive weights, the points a box can
        hold form one run, keyed in [lo . w, hi . w]; weights off the axes
        keep a whole grid plane of vertices from sharing one key."""
        margin = 1e-6 * box_diameters[:, None]
        lo = functools.reduce(np.minimum, (self.vertices[i] for i in box_vertex_ids.T)) - margin
        hi = functools.reduce(np.maximum, (self.vertices[i] for i in box_vertex_ids.T)) + margin
        w = np.array([1.0, 0.62, 0.38])[:self.dim]
        order = np.argsort(points @ w)
        key = (points @ w)[order]
        first = np.searchsorted(key, lo @ w, side="left")
        count = np.searchsorted(key, hi @ w, side="right") - first
        block = (np.cumsum(count) - count) // _SEARCH_PAIRS
        for boxes in np.split(np.arange(len(lo)), np.flatnonzero(np.diff(block)) + 1):
            c = count[boxes]
            b = np.repeat(boxes, c)
            # each box's run of points, box after box
            p = order[np.repeat(first[boxes] - (np.cumsum(c) - c), c) + np.arange(c.sum())]
            boxed = np.all((points[p] >= lo[b]) & (points[p] <= hi[b]), axis=1)
            p, b = p[boxed], b[boxed]
            x_ref = self.reference_coords(box_cells[b], points[p])
            yield p, b, np.column_stack([1.0 - x_ref.sum(axis=1), x_ref])

    # --------------------------------------------------------------- location

    def locate(self, points):
        """Cell index containing each point; ValueError for a point outside
        the mesh by more than 1e-10: in unit-cube coordinates on a generator
        mesh, and in each cell's barycentric coordinates on any other.  A
        point on a cell interface goes to the lowest containing cell of its
        grid cube on a generator mesh, and to the lowest-numbered containing
        cell on any other (fields evaluated there are continuous anyway)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.structure is not None:
            outside = ~np.all((pts >= -1e-10) & (pts <= 1 + 1e-10), axis=1)
            if np.any(outside):
                raise ValueError(f"point {pts[np.argmax(outside)]} not inside any cell")
            _, n = self.structure
            d = self.dim
            ij = np.clip((pts * n).astype(np.int64), 0, n - 1)
            loc = pts * n - ij
            cube = ij @ n ** np.arange(d)
            # the simplex walking the axes in order of decreasing local
            # coordinate; ties go to the earlier axis, i.e. the lower cell
            order = np.argsort(-loc, axis=1, kind="stable")
            return math.factorial(d) * cube + _KUHN_RANK[d][order @ d ** np.arange(d)]
        return self._locate_scan(pts)

    def _locate_scan(self, pts):
        bad = ~np.all(np.isfinite(pts), axis=1)
        if np.any(bad):  # before any reduction, which would warn on NaN
            raise ValueError(f"point {pts[np.argmax(bad)]} not inside any cell")
        M = self.num_cells
        found = np.full(len(pts), M)
        for p, c, lam in self._search(pts, self.cells, np.arange(M), self.cell_diameters):
            inside = np.all(lam >= -1e-10, axis=1)
            np.minimum.at(found, p[inside], c[inside])
        missing = found == M
        if np.any(missing):
            raise ValueError(f"point {pts[np.argmax(missing)]} not inside any cell")
        return found


# rank of each permutation of range(d) in itertools order, keyed by
# sum_i perm[i] * d**i
_KUHN_RANK = {}
for _d in (2, 3):
    _KUHN_RANK[_d] = np.full(_d**_d, -1, dtype=np.int64)
    for _r, _p in enumerate(itertools.permutations(range(_d))):
        _KUHN_RANK[_d][np.dot(_p, _d ** np.arange(_d))] = _r


def build_structured_mesh(dim, n):
    """Uniform simplicial mesh of (0,1)^dim with ``n`` cells per axis.

    Kuhn subdivision: vertex sum_i idx_i (n+1)^i sits at idx / n (x
    fastest), and the grid cube sum_i idx_i n^i gives cells d! * cube + r,
    where the simplex of the r-th axis permutation in ``itertools`` order
    walks from the cube's origin to its far corner along the axes in that
    order (reoriented on construction).  In 2D cell 2 (j n + i) is
    [v00, v10, v11] and cell 2 (j n + i) + 1 is [v00, v11, v01]; in 3D each
    cube holds six tetrahedra around its main diagonal.  Conforming across
    cube faces; the mesh diameter is sqrt(dim) / n.
    """
    dim, n = _integer("dim", dim, 2, 3), _integer("n", n, 1)
    axis = np.linspace(0.0, 1.0, n + 1)
    # meshgrid's last axis runs fastest, so x comes last
    grid = np.meshgrid(*[axis] * dim, indexing="ij")
    verts = np.column_stack([g.ravel() for g in grid[::-1]])
    strides = (n + 1) ** np.arange(dim)
    walks = np.array([
        np.cumsum([0, *strides[list(p)]])
        for p in itertools.permutations(range(dim))
    ])
    origins = strides @ np.indices((n,) * dim).reshape(dim, -1)[::-1]
    cells = (origins[:, None, None] + walks).reshape(-1, dim + 1)
    mesh = SimplicialMesh.__new__(SimplicialMesh)
    mesh.structure = ("kuhn", n)  # set first: __init__'s hanging scan skips it
    mesh.__init__(dim, verts, cells)
    return mesh

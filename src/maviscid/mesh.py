"""Structured simplicial meshes of the unit square/cube with face topology.

Cells are affine simplices with positive orientation.  Every mesh carries its
full interior/boundary face data (vertex ids, unit normals, diameters,
measures) so interior-penalty face terms can be assembled without re-deriving
topology.  The built-in generator is the Kuhn subdivision of (0,1)^d for d = 2
and 3: each grid cube is split into d! simplices, one per axis permutation
(two triangles sharing the (0,0)-(1,1) diagonal, six tetrahedra sharing the
main diagonal), so the mesh is conforming and quasi-uniform.  Generation,
point location, face geometry and the conformity check are written once for
both dimensions.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "SimplicialMesh",
    "build_structured_mesh",
    "dump_off",
]

# (boundary face, vertex) pairs per block of the hanging-vertex check, so
# that its (faces, vertices, d) arrays stay near 6 MB each
_HANGING_PAIRS = 2**18


def _number_rows(rows):
    """Number the distinct rows of an (N, c) int array in order of first
    occurrence: returns ``first`` (U,), the first row of each number, and
    ``inverse`` (N,), each row's number.  Rows are sorted with ``lexsort``,
    whose column keys cannot overflow the way a packed integer key can."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep row order
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]  # each group's smallest row, in sorted-row order
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return first[by_first], inverse


def _local_face_indices(dim):
    # local face i omits local vertex i
    all_ix = range(dim + 1)
    return [tuple(j for j in all_ix if j != i) for i in all_ix]


class SimplicialMesh:
    """Conforming simplicial mesh of the unit square or cube.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    vertices : array_like, shape (V, dim)
        Vertex coordinates.
    cells : array_like, shape (M, dim+1)
        Vertex indices per cell.  Cells with negative signed volume are
        reoriented (last two vertices swapped) on construction.
    structure : tuple, optional
        Generator tag ``("kuhn", n)`` of ``build_structured_mesh``: it selects
        direct point location (cell d! * cube + rank of the local coordinate
        order) and skips the hanging-vertex scan (generator meshes are
        conforming by construction).  Meshes without it are located by a
        linear scan and scanned for hanging vertices.  ``locate`` rejects
        points outside the mesh on both paths.

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

    def __init__(self, dim, vertices, cells, structure=None):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = int(dim)
        self.vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError("vertices must have shape (V, dim)")
        cells = np.array(cells, dtype=np.int64, copy=True)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError("cells must have shape (M, dim+1)")

        sv = self._signed_volumes(self.vertices, cells)
        flip = sv < 0
        if np.any(flip):
            tmp = cells[flip, dim].copy()
            cells[flip, dim] = cells[flip, dim - 1]
            cells[flip, dim - 1] = tmp
            sv = self._signed_volumes(self.vertices, cells)
        if np.any(sv <= 0):
            raise ValueError("degenerate cell (zero signed volume)")
        self.cells = cells
        self.cell_volumes = sv

        pts = self.vertices[cells]  # (M, dim+1, dim)
        diffs = pts[:, :, None, :] - pts[:, None, :, :]
        self.cell_diameters = np.sqrt((diffs**2).sum(-1)).max(axis=(1, 2))
        self.h = float(self.cell_diameters.max())
        self.structure = structure

        self._build_faces()

    @staticmethod
    def _signed_volumes(vertices, cells):
        pts = vertices[cells]
        edges = pts[:, 1:, :] - pts[:, :1, :]
        return np.linalg.det(edges) / math.factorial(pts.shape[2])

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
        keys = np.sort(
            self.cells[:, _local_face_indices(dim)], axis=2
        ).reshape(-1, dim)
        first, inverse = _number_rows(keys)
        faces = keys[first]
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
        # rows grouped by face in cell order: a face's second owner follows
        # its first
        owners = np.argsort(inverse, kind="stable")
        second = owners[(np.cumsum(counts) - counts)[interior] + 1]
        rows = np.column_stack([first[interior], second])
        self.iface_vertex_ids = faces[interior]
        self.iface_cells, self.iface_locals = np.divmod(rows, dim + 1)
        self.bface_vertex_ids = faces[boundary]
        self.bface_cells, self.bface_locals = np.divmod(first[boundary], dim + 1)

        self._check_no_hanging_vertices()

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

    def _face_geometry(self, vertex_ids, opposite):
        """Unit normals (pointing away from ``opposite``), diameters, measures.

        The generalized cross product of a face's edge vectors is normal to
        it with length (d - 1)! times its measure; the diameter is its
        longest edge.
        """
        fc = self.vertices[vertex_ids]  # (F, dim, dim)
        if len(fc) == 0:
            return np.zeros((0, self.dim)), np.zeros(0), np.zeros(0)
        e = fc[:, 1:] - fc[:, :1]
        if self.dim == 2:
            cr = np.stack([e[:, 0, 1], -e[:, 0, 0]], axis=1)
        else:
            cr = np.cross(e[:, 0], e[:, 1])
        size = np.linalg.norm(cr, axis=1)
        n = cr / size[:, None]
        meas = size / math.factorial(self.dim - 1)
        diam = functools.reduce(np.maximum, (
            np.linalg.norm(fc[:, b] - fc[:, a], axis=1)
            for a, b in itertools.combinations(range(self.dim), 2)
        ))
        mid = fc.mean(axis=1)
        wrong = np.einsum("fd,fd->f", n, mid - opposite) < 0
        n[wrong] *= -1.0
        return n, diam, meas

    def _check_no_hanging_vertices(self):
        # a hanging vertex shows up as a vertex of one single-owner face lying
        # on another single-owner face (inside it or on its edges) without
        # being one of its vertices; faces triple-shared are caught during
        # table construction.  Generator meshes are conforming by
        # construction and are not scanned.
        B = len(self.bface_vertex_ids)
        if self.structure is not None or B == 0:
            return
        cand_ids = np.unique(self.bface_vertex_ids)
        if B * len(cand_ids) > int(2e8):  # at about 0.2 us a pair, past 2e8
            return                        # pairs the scan would take 40 s: unchecked
        q = self.vertices[cand_ids]  # (P, d)
        tol = 1e-10 * max(self.h, 1.0)
        # face blocks in order: the first hanging pair found is the first overall
        step = max(1, _HANGING_PAIRS // len(cand_ids))
        for start in range(0, B, step):
            ids = self.bface_vertex_ids[start:start + step]
            fc = self.vertices[ids]  # (b, dim, d)
            e = fc[:, 1:] - fc[:, :1]  # (b, dim-1, d) edge vectors
            et = e.transpose(0, 2, 1)
            rel = q[None, :, :] - fc[:, :1]  # (b, P, d)
            # face coordinates of each point's projection: the (symmetric)
            # Gram system e e^T s = e rel
            s = rel @ et @ np.linalg.inv(e @ et)
            dist = np.linalg.norm(rel - s @ e, axis=2)
            own = np.any(cand_ids[None, :, None] == ids[:, None, :], axis=2)
            hanging = (
                (dist < tol)
                & np.all(s > -1e-8, axis=2)
                & (s.sum(axis=2) < 1 + 1e-8)
                & ~own
            )
            if np.any(hanging):
                b, p = np.argwhere(hanging)[0]
                raise ValueError(
                    "non-conforming mesh: vertex "
                    f"{int(cand_ids[p])} hangs on face {tuple(int(v) for v in ids[b])}"
                )

    # --------------------------------------------------------------- location

    def locate(self, points):
        """Cell index containing each point; ValueError for a point outside
        the mesh by more than 1e-10.  A point on a cell interface goes to the
        lowest containing cell of its grid cube on a generator mesh, and to
        the lowest-numbered containing cell on the scan (fields evaluated
        there are continuous anyway)."""
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
        found = np.full(len(pts), -1, dtype=np.int64)
        v0 = self.vertices[self.cells[:, 0]]
        edges = self.vertices[self.cells[:, 1:]] - v0[:, None, :]
        binv = np.linalg.inv(np.swapaxes(edges, 1, 2))
        for p in range(len(pts)):
            lam = np.einsum("cij,cj->ci", binv, pts[p] - v0)
            ok = np.all(lam >= -1e-10, axis=1) & (lam.sum(axis=1) <= 1 + 1e-10)
            hits = np.flatnonzero(ok)
            if len(hits) == 0:
                raise ValueError(f"point {pts[p]} not inside any cell")
            found[p] = hits[0]
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
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
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
    return SimplicialMesh(dim, verts, cells, structure=("kuhn", n))


def dump_off(mesh):
    """Plain-text mesh dump: counts, then coordinate lines, then index lines."""
    lines = [f"{mesh.num_vertices} {mesh.num_cells}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    return "\n".join(lines) + "\n"

"""Structured simplicial meshes of the unit square/cube with face topology.

Cells are affine simplices with positive orientation.  Every mesh carries its
full interior/boundary face data (vertex ids, unit normals, diameters,
measures) so interior-penalty face terms can be assembled without re-deriving
topology.  Built-in generators cover the unit square (two triangles per grid
square, consistent diagonal) and the unit cube (Kuhn subdivision, six
tetrahedra per grid cube); both are conforming and quasi-uniform.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "SimplicialMesh",
    "build_structured_mesh",
    "dump_off",
]


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
        Generator tag, ``("diag", n)`` or ``("kuhn", n)``: it selects direct
        point location and skips the hanging-vertex scan (generator meshes
        are conforming by construction).  Meshes without it are located by a
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
        faces, first, inverse, counts = np.unique(
            keys, axis=0, return_index=True, return_inverse=True,
            return_counts=True,
        )
        order = np.argsort(first)
        shared = counts[order] > 2
        if np.any(shared):
            f = order[np.argmax(shared)]
            raise ValueError(
                f"non-conforming mesh: face {tuple(int(v) for v in faces[f])} "
                f"shared by {counts[f]} cells"
            )
        interior = order[counts[order] == 2]
        boundary = order[counts[order] == 1]
        # rows grouped by face in cell order: a face's second owner follows
        # its first
        owners = np.argsort(inverse.ravel(), kind="stable")
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
        """Unit normals (pointing away from ``opposite``), diameters, measures."""
        fc = self.vertices[vertex_ids]  # (F, dim, dim)
        if len(fc) == 0:
            z = np.zeros((0, self.dim)), np.zeros(0), np.zeros(0)
            return z
        if self.dim == 2:
            t = fc[:, 1] - fc[:, 0]
            length = np.linalg.norm(t, axis=1)
            n = np.stack([t[:, 1], -t[:, 0]], axis=1) / length[:, None]
            diam = length
            meas = length
        else:
            e1 = fc[:, 1] - fc[:, 0]
            e2 = fc[:, 2] - fc[:, 0]
            cr = np.cross(e1, e2)
            dbl_area = np.linalg.norm(cr, axis=1)
            n = cr / dbl_area[:, None]
            e3 = fc[:, 2] - fc[:, 1]
            diam = np.maximum(
                np.linalg.norm(e1, axis=1),
                np.maximum(np.linalg.norm(e2, axis=1), np.linalg.norm(e3, axis=1)),
            )
            meas = 0.5 * dbl_area
        mid = fc.mean(axis=1)
        wrong = np.einsum("fd,fd->f", n, mid - opposite) < 0
        n[wrong] *= -1.0
        return n, diam, meas

    def _check_no_hanging_vertices(self):
        # a hanging vertex shows up as a vertex of one single-owner face lying
        # strictly inside another single-owner face; faces triple-shared are
        # caught during table construction.  Generator meshes are conforming
        # by construction and are not scanned.
        B = len(self.bface_vertex_ids)
        if self.structure is not None or B == 0:
            return
        cand_ids = np.unique(self.bface_vertex_ids)
        if B * len(cand_ids) > int(2e8):  # past 2e8 pairs the (B, P, d) arrays
            return                        # take gigabytes: such input goes unchecked
        q = self.vertices[cand_ids]  # (P, d)
        fc = self.vertices[self.bface_vertex_ids]  # (B, dim, d)
        a = fc[:, 0]
        tol = 1e-10 * max(self.h, 1.0)
        if self.dim == 2:
            t = fc[:, 1] - a  # (B, 2)
            L2 = (t**2).sum(1)
            rel = q[None, :, :] - a[:, None, :]  # (B, P, 2)
            s = np.einsum("bpd,bd->bp", rel, t) / L2[:, None]
            perp = rel - s[:, :, None] * t[:, None, :]
            dist = np.linalg.norm(perp, axis=2)
            inside = (dist < tol) & (s > 1e-8) & (s < 1 - 1e-8)
        else:
            e1 = fc[:, 1] - a
            e2 = fc[:, 2] - a
            # solve the 2x2 Gram system for barycentric face coordinates
            g11 = (e1**2).sum(1)
            g22 = (e2**2).sum(1)
            g12 = (e1 * e2).sum(1)
            det = g11 * g22 - g12**2
            rel = q[None, :, :] - a[:, None, :]
            r1 = np.einsum("bpd,bd->bp", rel, e1)
            r2 = np.einsum("bpd,bd->bp", rel, e2)
            s = (g22[:, None] * r1 - g12[:, None] * r2) / det[:, None]
            u = (g11[:, None] * r2 - g12[:, None] * r1) / det[:, None]
            proj = s[:, :, None] * e1[:, None, :] + u[:, :, None] * e2[:, None, :]
            dist = np.linalg.norm(rel - proj, axis=2)
            inside = (
                (dist < tol)
                & (s > 1e-8)
                & (u > 1e-8)
                & (s + u < 1 - 1e-8)
            )
        if np.any(inside):
            b, p = np.argwhere(inside)[0]
            raise ValueError(
                "non-conforming mesh: vertex "
                f"{int(cand_ids[p])} hangs on face "
                f"{tuple(int(v) for v in self.bface_vertex_ids[b])}"
            )

    # --------------------------------------------------------------- location

    def locate(self, points):
        """Cell index containing each point; ValueError for a point outside
        the mesh by more than 1e-10.  Ties on cell interfaces are resolved
        arbitrarily (fields evaluated there are continuous anyway)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.structure is not None:
            outside = ~np.all((pts >= -1e-10) & (pts <= 1 + 1e-10), axis=1)
            if np.any(outside):
                raise ValueError(f"point {pts[np.argmax(outside)]} not inside any cell")
            kind, n = self.structure
            ij = np.clip((pts * n).astype(np.int64), 0, n - 1)
            loc = pts * n - ij
            if kind == "diag":
                i, j = ij[:, 0], ij[:, 1]
                lower = loc[:, 0] >= loc[:, 1]
                return 2 * (j * n + i) + np.where(lower, 0, 1)
            if kind == "kuhn":
                i, j, k = ij[:, 0], ij[:, 1], ij[:, 2]
                cube = (k * n + j) * n + i
                order = np.argsort(-loc, axis=1, kind="stable")
                code = order[:, 0] * 9 + order[:, 1] * 3 + order[:, 2]
                return 6 * cube + _KUHN_RANK[code]
        return self._locate_scan(pts)

    def _locate_scan(self, pts):
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


# rank of each permutation of (0,1,2) in itertools order, keyed by
# perm[0]*9 + perm[1]*3 + perm[2]
_KUHN_RANK = np.full(27, -1, dtype=np.int64)
for _r, _p in enumerate(itertools.permutations(range(3))):
    _KUHN_RANK[_p[0] * 9 + _p[1] * 3 + _p[2]] = _r


def build_structured_mesh(dim, n):
    """Uniform simplicial mesh of (0,1)^dim with ``n`` cells per axis.

    2D: each grid square is split along its (0,0)-(1,1) local diagonal into
    two triangles, the same diagonal everywhere.  3D: each grid cube is split
    into six tetrahedra (Kuhn subdivision), conforming across cube faces.
    The mesh diameter is sqrt(2)/n resp. sqrt(3)/n.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim == 2:
        return _square_mesh(n)
    if dim == 3:
        return _cube_mesh(n)
    raise ValueError("dim must be 2 or 3")


def _square_mesh(n):
    axis = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(axis, axis, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    # vertex index = j*(n+1) + i; grid squares in (j, i) order, each split
    # into the triangle below its diagonal, then the one above
    J, I = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (J * (n + 1) + I).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.stack(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])],
        axis=1,
    ).reshape(-1, 3)
    return SimplicialMesh(2, verts, cells, structure=("diag", n))


def _cube_mesh(n):
    axis = np.linspace(0.0, 1.0, n + 1)
    # vertex index = (k*(n+1) + j)*(n+1) + i
    K, J, I = np.meshgrid(axis, axis, axis, indexing="ij")
    verts = np.column_stack([I.ravel(), J.ravel(), K.ravel()])
    # each tet walks from the cube origin to its far corner along the axes in
    # permutation order: the points whose sorted local coordinates match it
    strides = np.array([1, n + 1, (n + 1) ** 2])
    walks = np.array(
        [np.cumsum([0, *strides[list(p)]]) for p in itertools.permutations(range(3))]
    )
    K, J, I = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    origins = ((K * (n + 1) + J) * (n + 1) + I).ravel()
    cells = (origins[:, None, None] + walks).reshape(-1, 4)
    return SimplicialMesh(3, verts, cells, structure=("kuhn", n))


def dump_off(mesh):
    """Plain-text mesh dump: counts, then coordinate lines, then index lines."""
    lines = [f"{mesh.num_vertices} {mesh.num_cells}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    return "\n".join(lines) + "\n"

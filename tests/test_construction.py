"""Mesh and space construction against the plain formulas, byte for byte.

``SimplicialMesh`` evaluates its cells' affine maps once (again only on
reoriented cells), takes diameters over edges only, writes squared lengths
and cross products out by components, sums face midpoints and takes a
face's second owner by ``np.maximum.at``; ``FeSpace`` places only each
dof's first node and keys nodes by vertex multisets sorted by a
compare-exchange network.
The oracles below are the plain formulas those replace: every cell's map
evaluated again after reorientation, the diameter over all vertex pairs,
``np.cross`` and ``np.linalg.norm``, ``fc.mean`` midpoints, a stable argsort
of the owners, one einsum for every node's coordinates, ``np.sort`` keys of
(vertex id, weight) pairs, and a lexsort numbering.  The mesh's
``jac_det`` and ``jac_inv``, and the cell volumes derived from ``jac_det``,
come from the closed-form cofactors of each cell's edge matrix, and their
oracle is the textbook adjugate formula written out cell by cell; they are
also checked against LAPACK's ``det`` and ``inv`` to a tolerance.  Every
ndarray attribute, and the cell volumes, must have the oracle's dtype,
shape and bytes, so a last-bit change anywhere fails.  The cells' affine
maps are computed once, by the mesh, and ``FeSpace`` reads the mesh's own
arrays.
"""

import functools
import itertools
import math
import sys

import numpy as np
import pytest

from maviscid.elements import FeSpace
from maviscid.mesh import SimplicialMesh, build_structured_mesh, det_and_cofactor


def number_rows(rows):
    """Distinct rows of an (N, c) table numbered in order of first
    occurrence, through a lexsort over the columns: (first, inverse)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return first[by_first], inverse


def cofactors(a):
    """Determinant and cofactor matrix of one 2x2 or 3x3 matrix, as Python
    floats: cofactor (i, j) is (-1)^(i+j) times the minor without row i and
    column j, and the determinant is row 0 times its cofactors, added left
    to right."""
    a = a.tolist()
    d = len(a)
    cof = [[0.0] * d for _ in range(d)]
    for i in range(d):
        rows = [r for r in range(d) if r != i]
        for j in range(d):
            cols = [c for c in range(d) if c != j]
            if d == 2:
                minor = a[rows[0]][cols[0]]
            else:
                (r1, r2), (c1, c2) = rows, cols
                minor = a[r1][c1] * a[r2][c2] - a[r1][c2] * a[r2][c1]
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    det = a[0][0] * cof[0][0]
    for j in range(1, d):
        det = det + a[0][j] * cof[0][j]
    return det, cof


def edge_matrices(vertices, cells):
    """J^T per cell: row i is the edge from vertex 0 to vertex i + 1."""
    pts = vertices[cells]
    return pts[:, 1:, :] - pts[:, :1, :]


def signed_volumes(vertices, cells):
    edges = edge_matrices(vertices, cells)
    dets = np.array([cofactors(e)[0] for e in edges])
    return dets / math.factorial(edges.shape[2])


def face_geometry(vertices, dim, vertex_ids, opposite):
    fc = vertices[vertex_ids]
    e = fc[:, 1:] - fc[:, :1]
    if dim == 2:
        cr = np.stack([e[:, 0, 1], -e[:, 0, 0]], axis=1)
    else:
        cr = np.cross(e[:, 0], e[:, 1])
    size = np.linalg.norm(cr, axis=1)
    n = cr / size[:, None]
    diam = functools.reduce(np.maximum, (
        np.linalg.norm(fc[:, b] - fc[:, a], axis=1)
        for a, b in itertools.combinations(range(dim), 2)
    ))
    wrong = np.einsum("fd,fd->f", n, fc.mean(axis=1) - opposite) < 0
    n[wrong] *= -1.0
    return n, diam, size / math.factorial(dim - 1)


def oracle_mesh(dim, vertices, cells):
    """Every ndarray attribute of SimplicialMesh(dim, vertices, cells), h and
    the cell volumes."""
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    cells = np.array(cells, dtype=np.int64)
    flip = signed_volumes(vertices, cells) < 0
    tmp = cells[flip, dim].copy()
    cells[flip, dim] = cells[flip, dim - 1]
    cells[flip, dim - 1] = tmp
    volumes = signed_volumes(vertices, cells)
    pts = vertices[cells]
    origin = np.ascontiguousarray(pts[:, 0, :])
    jac = np.ascontiguousarray(np.swapaxes(pts[:, 1:, :] - pts[:, :1, :], 1, 2))
    # J^-1 = cof(J)^T / det J = cof(J^T) / det J^T
    M = len(cells)
    dets, cofs = zip(*(cofactors(e) for e in edge_matrices(vertices, cells)))
    jac_inv = np.array([[[c / det for c in row] for row in cof]
                        for det, cof in zip(dets, cofs)]).reshape(M, dim, dim)
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    diameters = np.sqrt((diffs**2).sum(-1)).max(axis=(1, 2))

    local = [tuple(j for j in range(dim + 1) if j != i) for i in range(dim + 1)]
    keys = np.sort(cells[:, local], axis=2).reshape(-1, dim)
    first, inverse = number_rows(keys)
    faces = keys[first]
    counts = np.bincount(inverse)
    interior = np.flatnonzero(counts == 2)
    boundary = np.flatnonzero(counts == 1)
    owners = np.argsort(inverse, kind="stable")
    second = owners[(np.cumsum(counts) - counts)[interior] + 1]
    iface_cells, iface_locals = np.divmod(
        np.column_stack([first[interior], second]), dim + 1
    )
    bface_cells, bface_locals = np.divmod(first[boundary], dim + 1)
    want = dict(
        vertices=vertices, cells=cells, cell_origin=origin, jac=jac,
        jac_inv=jac_inv, jac_det=np.abs(np.array(dets)),
        cell_diameters=diameters,
        iface_vertex_ids=faces[interior], iface_cells=iface_cells,
        iface_locals=iface_locals,
        bface_vertex_ids=faces[boundary], bface_cells=bface_cells,
        bface_locals=bface_locals,
    )
    for side, own, loc in (("iface", iface_cells[:, 0], iface_locals[:, 0]),
                           ("bface", bface_cells, bface_locals)):
        opposite = vertices[cells[own, loc]]
        n, diam, meas = face_geometry(vertices, dim, want[f"{side}_vertex_ids"], opposite)
        want.update({f"{side}_normals": n, f"{side}_diameters": diam,
                     f"{side}_measures": meas})
    return want, float(diameters.max()), volumes


def oracle_space(mesh, k):
    """Every ndarray attribute of FeSpace(mesh, k)."""
    d = mesh.dim
    ref = FeSpace(mesh, k).ref  # the reference element is not under test
    pts = mesh.vertices[mesh.cells]
    origin = np.ascontiguousarray(pts[:, 0, :])
    jac = np.ascontiguousarray(np.swapaxes(pts[:, 1:, :] - pts[:, :1, :], 1, 2))
    phys = origin[:, None, :] + np.einsum("cij,nj->cni", jac, ref.node_coords)
    M, nb = mesh.num_cells, ref.node_count
    weights = np.column_stack([k - ref.exponents.sum(axis=1), ref.exponents])
    pairs = np.where(weights > 0, mesh.cells[:, None, :] * (k + 1) + weights, -1)
    first, inverse = number_rows(np.sort(pairs, axis=2).reshape(M * nb, -1))
    cell_dofs = inverse.reshape(M, nb)
    on_face = np.array([np.flatnonzero(w == 0) for w in weights.T])
    boundary = np.unique(cell_dofs[mesh.bface_cells[:, None], on_face[mesh.bface_locals]])
    mask = np.ones(len(first), dtype=bool)
    mask[boundary] = False
    return dict(
        cell_dofs=cell_dofs,
        dof_coords=phys.reshape(M * nb, d)[first], boundary_dofs=boundary,
        interior_dofs=np.flatnonzero(mask),
    )


def assert_near_lapack(mesh):
    """Volumes, determinants and inverses within 8 ulps of LAPACK's, scaled
    by the Hadamard bound (determinants) or the condition number (inverses)."""
    eps = np.finfo(float).eps
    jac = mesh.jac
    hadamard = np.prod(np.linalg.norm(jac, axis=1), axis=1)
    det = np.linalg.det(jac)
    assert np.all(np.abs(mesh.jac_det - np.abs(det)) <= 8 * eps * hadamard)
    vol = mesh.cell_volumes * math.factorial(mesh.dim)
    assert np.all(np.abs(vol - det) <= 8 * eps * hadamard)
    inv = np.linalg.inv(jac)
    err = np.abs(mesh.jac_inv - inv).max(axis=(1, 2))
    scale = np.linalg.cond(jac) * np.abs(inv).max(axis=(1, 2))
    assert np.all(err <= 8 * eps * scale)


def assert_same_array(got, want, name):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), name


def assert_same_bytes(obj, want):
    got = {name: v for name, v in vars(obj).items() if isinstance(v, np.ndarray)}
    assert sorted(got) == sorted(want)
    for name, a in want.items():
        assert_same_array(got[name], a, name)


def shuffled_kuhn(dim, n, seed, jitter):
    """The Kuhn mesh's cells in random order, each with its vertices in
    random order, and every vertex moved by up to ``jitter`` / n per axis
    (0.1 keeps every cell's orientation): a mesh of its own (``structure``
    None).  Moved vertices make the sums and products inexact, so that a
    change in their order shows in the last bits."""
    mesh = build_structured_mesh(dim, n)
    rng = np.random.default_rng(seed)
    cells = mesh.cells[rng.permutation(mesh.num_cells)]
    cells = rng.permuted(cells, axis=1)
    vertices = mesh.vertices + rng.uniform(-jitter, jitter, mesh.vertices.shape) / n
    return vertices, cells


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["kuhn", "shuffled", "jittered"])
def test_construction_matches_the_plain_formulas(dim, kind):
    for n in (1, 3, 4, 7):
        if kind == "kuhn":
            mesh = build_structured_mesh(dim, n)
            vertices, cells = mesh.vertices, mesh.cells
            assert mesh.structure == ("kuhn", n)
        else:
            jitter = 0.1 if kind == "jittered" else 0.0
            vertices, cells = shuffled_kuhn(dim, n, 10 * dim + n, jitter)
            mesh = SimplicialMesh(dim, vertices, cells)
            assert mesh.structure is None
        want, h, volumes = oracle_mesh(dim, vertices, cells)
        assert_same_bytes(mesh, want)
        assert mesh.h.hex() == h.hex()
        assert_same_array(mesh.cell_volumes, volumes, "cell_volumes")
        for k in (2, 3):
            space = FeSpace(mesh, k)
            assert_same_bytes(space, oracle_space(mesh, k))
        if kind != "kuhn":
            assert_near_lapack(mesh)


@pytest.mark.parametrize("dim", [2, 3])
def test_construction_calls_no_batched_lapack(dim, monkeypatch):
    # every affine map's inverse and determinant comes from the closed-form
    # cofactors; only single matrices (the reference Vandermonde) may go to
    # LAPACK
    def single_only(function):
        def call(a, *args, **kwargs):
            if np.ndim(a) >= 3:
                raise AssertionError(f"batched np.linalg.{function.__name__}")
            return function(a, *args, **kwargs)
        return call

    for name in ("inv", "det"):
        monkeypatch.setattr(np.linalg, name, single_only(getattr(np.linalg, name)))
    with pytest.raises(AssertionError, match="batched"):
        np.linalg.inv(np.ones((2, dim, dim)))
    for mesh in (build_structured_mesh(dim, 3),
                 SimplicialMesh(dim, *shuffled_kuhn(dim, 3, 5, 0.1))):
        for k in (2, 3):
            FeSpace(mesh, k)
        mesh.locate(np.full((2, dim), 0.3))


@pytest.mark.parametrize("dim", [2, 3])
def test_each_cell_map_is_computed_once(dim, monkeypatch):
    # the mesh passes its cells' edge matrices through the cofactor formula
    # once, and again only the reoriented ones; spaces, the hanging-vertex
    # check and the scan read the mesh's maps and form no matrix of their own
    batches = []

    def counting(H):
        batches.append(np.shape(H))
        return det_and_cofactor(H)

    for name, module in list(sys.modules.items()):  # wherever it is imported
        if (name.startswith("maviscid")
                and getattr(module, "det_and_cofactor", None) is det_and_cofactor):
            monkeypatch.setattr(module, "det_and_cofactor", counting)
    points = np.random.default_rng(dim).uniform(0.05, 0.95, (5, dim))
    shuffled = shuffled_kuhn(dim, 3, 7, 0.1)
    for build in (lambda: build_structured_mesh(dim, 3),
                  lambda: SimplicialMesh(dim, *shuffled)):
        batches.clear()
        mesh = build()
        assert 1 <= len(batches) <= 2 and batches[0] == (mesh.num_cells, dim, dim)
        assert all(shape[0] < mesh.num_cells and shape[1:] == (dim, dim)
                   for shape in batches[1:])
        batches.clear()
        spaces = [FeSpace(mesh, k) for k in (2, 3)]
        mesh._locate_scan(points)
        assert batches == []
        for space, name in itertools.product(
                spaces, ["cell_origin", "jac", "jac_inv", "jac_det"]):
            assert getattr(space, name) is getattr(mesh, name), name

"""Mesh generator and face-topology tests against brute-force oracles."""

import math
import warnings

import numpy as np
import pytest

from maviscid.mesh import SimplicialMesh, build_structured_mesh, dump_off


def brute_simplex_volume(pts):
    """|det([p1-p0, ..., pd-p0])| / d! computed directly from coordinates."""
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[1]
    edges = pts[1:] - pts[0]
    return abs(np.linalg.det(edges)) / math.factorial(d)


def brute_face_count(cells, dim):
    """Count interior/boundary faces by matching sorted vertex tuples."""
    from collections import Counter
    from itertools import combinations

    counts = Counter()
    for cell in cells:
        for face in combinations(sorted(cell), dim):
            counts[face] += 1
    interior = sum(1 for v in counts.values() if v == 2)
    boundary = sum(1 for v in counts.values() if v == 1)
    assert all(v <= 2 for v in counts.values())
    return interior, boundary


def test_unit_square_single():
    mesh = build_structured_mesh(2, 1)
    assert mesh.num_cells == 2
    assert mesh.num_vertices == 4
    assert len(mesh.iface_cells) == 1
    assert len(mesh.bface_cells) == 4


def test_square_counts_and_area():
    mesh = build_structured_mesh(2, 2)
    assert mesh.num_cells == 8
    assert mesh.num_vertices == 9
    total = sum(brute_simplex_volume(mesh.vertices[c]) for c in mesh.cells)
    assert abs(total - 1.0) < 1e-12


def test_cube_counts_and_volume():
    mesh = build_structured_mesh(3, 1)
    assert mesh.num_cells == 6
    assert mesh.num_vertices == 8
    total = sum(brute_simplex_volume(mesh.vertices[c]) for c in mesh.cells)
    assert abs(total - 1.0) < 1e-12
    assert len(mesh.iface_cells) == 6
    assert len(mesh.bface_cells) == 12


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_volume_partition_and_quasi_uniformity(dim, n):
    mesh = build_structured_mesh(dim, n)
    assert np.all(mesh.cell_volumes > 0)
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-12
    ratio = mesh.cell_diameters.max() / mesh.cell_diameters.min()
    assert ratio <= 4.0
    expected_h = np.sqrt(dim) / n
    assert abs(mesh.h - expected_h) < 1e-12


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 4), (3, 2)])
def test_face_counts_match_brute_force(dim, n):
    mesh = build_structured_mesh(dim, n)
    interior, boundary = brute_face_count(mesh.cells.tolist(), dim)
    assert len(mesh.iface_cells) == interior
    assert len(mesh.bface_cells) == boundary
    if dim == 2:
        assert interior == 3 * n**2 - 2 * n  # 40 at n=4


def test_plus_minus_assignment_and_normals():
    for dim, n in [(2, 3), (3, 2)]:
        mesh = build_structured_mesh(dim, n)
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        for (plus, minus), vids, normal in zip(
            mesh.iface_cells, mesh.iface_vertex_ids, mesh.iface_normals
        ):
            assert plus < minus
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-14
            gap = centroids[minus] - centroids[plus]
            assert np.dot(normal, gap) > 0
            cell_p = set(mesh.cells[plus])
            cell_m = set(mesh.cells[minus])
            assert set(vids) <= cell_p and set(vids) <= cell_m


def test_boundary_normals_point_outward():
    for dim, n in [(2, 2), (3, 2)]:
        mesh = build_structured_mesh(dim, n)
        for vids, normal in zip(mesh.bface_vertex_ids, mesh.bface_normals):
            mid = mesh.vertices[vids].mean(axis=0)
            # outward from the unit domain: stepping along n leaves [0,1]^d
            outside = mid + 1e-6 * normal
            assert np.any((outside < -1e-12) | (outside > 1 + 1e-12))


def test_face_diameter_is_longest_edge():
    mesh = build_structured_mesh(3, 2)
    for vids, diameter in zip(mesh.iface_vertex_ids[:20], mesh.iface_diameters):
        pts = mesh.vertices[vids]
        longest = max(
            np.linalg.norm(pts[a] - pts[b]) for a in range(3) for b in range(a)
        )
        assert abs(diameter - longest) < 1e-14


def test_topology_independent_of_cell_order():
    mesh = build_structured_mesh(2, 3)
    rng = np.random.default_rng(7)
    perm = rng.permutation(mesh.num_cells)
    shuffled = SimplicialMesh(2, mesh.vertices, mesh.cells[perm])
    key = lambda vertex_ids: {tuple(sorted(v)) for v in vertex_ids.tolist()}
    assert key(mesh.iface_vertex_ids) == key(shuffled.iface_vertex_ids)
    assert key(mesh.bface_vertex_ids) == key(shuffled.bface_vertex_ids)


def test_face_arrays():
    mesh = build_structured_mesh(2, 1)
    interior, boundary = mesh.iface_cells, mesh.bface_cells
    assert len(interior) == 1 and len(boundary) == 4
    for name, shape in (
        ("iface_vertex_ids", (1, 2)), ("iface_cells", (1, 2)),
        ("iface_locals", (1, 2)), ("iface_normals", (1, 2)),
        ("iface_diameters", (1,)), ("iface_measures", (1,)),
        ("bface_vertex_ids", (4, 2)), ("bface_cells", (4,)),
        ("bface_locals", (4,)), ("bface_normals", (4, 2)),
        ("bface_diameters", (4,)), ("bface_measures", (4,)),
    ):
        assert getattr(mesh, name).shape == shape


# hanging vertex: left cell spans the full edge that the two right cells
# split at (1, 0.5)
HANGING_2D = (2, [(0, 0), (1, 0), (1, 0.5), (1, 1), (0, 1), (2, 0.5)],
              [(0, 1, 3), (1, 5, 2), (2, 5, 3)])
# vertex 5 halves edge (0, 1) of the top cell, shared by its boundary faces
# (0, 1, 2) and (0, 1, 3); the two cells below split (0, 1, 2) into
# (0, 5, 2) and (5, 1, 2)
HANGING_ON_EDGE = (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (.2, .2, 1), (.2, .2, -1), (.5, 0, 0)],
                   [(0, 1, 2, 3), (0, 5, 2, 4), (5, 1, 2, 4)])
# vertex 5 sits at the centroid of the top cell's bottom face, which three
# cells below split around it
HANGING_AT_CENTROID = (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (.2, .2, 1), (.2, .2, -1),
                           (1 / 3, 1 / 3, 0)],
                       [(0, 1, 2, 3), (0, 1, 5, 4), (1, 2, 5, 4), (2, 0, 5, 4)])


def test_nonconforming_mesh_rejected():
    with pytest.raises(ValueError):
        SimplicialMesh(*HANGING_2D)
    # three triangles on one edge
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 0.5)]
    with pytest.raises(ValueError, match=r"face \(0, 1\) shared by 3 cells"):
        SimplicialMesh(2, verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_hanging_vertex_on_a_face_edge_rejected():
    with pytest.raises(ValueError, match=r"vertex 5 hangs on face \(0, 1, [23]\)"):
        SimplicialMesh(*HANGING_ON_EDGE)


def test_hanging_vertex_at_a_face_centroid_rejected():
    with pytest.raises(ValueError, match=r"vertex 5 hangs on face \(0, 1, 2\)"):
        SimplicialMesh(*HANGING_AT_CENTROID)


@pytest.mark.parametrize("pairs", [1, 12])
def test_hanging_vertex_check_in_small_blocks(pairs, monkeypatch):
    # the check scans blocks of boundary faces; blocks of one or two faces
    # give the same verdicts and report the same vertex and face
    meshes = (HANGING_2D, HANGING_ON_EDGE, HANGING_AT_CENTROID)
    messages = []
    for mesh in meshes:
        with pytest.raises(ValueError) as whole:
            SimplicialMesh(*mesh)
        messages.append(str(whole.value))
    monkeypatch.setattr("maviscid.mesh._HANGING_PAIRS", pairs)
    for mesh, message in zip(meshes, messages):
        with pytest.raises(ValueError) as blocked:
            SimplicialMesh(*mesh)
        assert str(blocked.value) == message
    mesh = build_structured_mesh(3, 3)
    perm = np.random.default_rng(5).permutation(mesh.num_cells)
    shuffled = SimplicialMesh(3, mesh.vertices, mesh.cells[perm])
    assert len(shuffled.bface_vertex_ids) == len(mesh.bface_vertex_ids)


def test_square_cell_layout():
    # grid square (i, j) holds cell 2 (j n + i) below its (0,0)-(1,1)
    # diagonal and cell 2 (j n + i) + 1 above it
    n = 2
    mesh = build_structured_mesh(2, n)
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
            assert mesh.cells[2 * (j * n + i)].tolist() == [v00, v10, v11]
            assert mesh.cells[2 * (j * n + i) + 1].tolist() == [v00, v11, v01]


@pytest.mark.parametrize("dim", [2, 3])
def test_locate_sends_diagonal_ties_to_the_lower_cell(dim):
    # points on each grid cube's main diagonal lie on every one of its
    # simplices; they go to the first, the even (lower) cell in 2D
    n = 4
    mesh = build_structured_mesh(dim, n)
    idx = np.indices((n,) * dim).reshape(dim, -1)[::-1].T  # x fastest
    cube = idx @ n ** np.arange(dim)
    for t in (0.0, 0.25, 0.5, 0.75):
        cells = mesh.locate((idx + t) / n)
        assert np.array_equal(cells, math.factorial(dim) * cube)
    if dim == 2:
        # a tie on one cube's diagonal inside the whole mesh
        assert mesh.locate([[0.5 + 0.0625, 0.25 + 0.0625]]).tolist() == [2 * (1 * n + 2)]


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        build_structured_mesh(2, 0)
    with pytest.raises(ValueError):
        build_structured_mesh(4, 2)


def test_orientation_canonicalized():
    verts = [(0, 0), (1, 0), (0, 1)]
    mesh = SimplicialMesh(2, verts, [(0, 2, 1)])  # clockwise input
    assert mesh.cell_volumes[0] > 0


def test_locate_structured():
    rng = np.random.default_rng(3)
    for dim, n in [(2, 4), (3, 3)]:
        mesh = build_structured_mesh(dim, n)
        pts = rng.uniform(0, 1, size=(50, dim))
        cells = mesh.locate(pts)
        scan = mesh._locate_scan(pts)
        # structured lookup must give a cell actually containing the point
        v0 = mesh.vertices[mesh.cells[cells, 0]]
        edges = mesh.vertices[mesh.cells[cells, 1:]] - v0[:, None, :]
        binv = np.linalg.inv(np.swapaxes(edges, 1, 2))
        lam = np.einsum("pij,pj->pi", binv, pts - v0)
        assert np.all(lam >= -1e-10)
        assert np.all(lam.sum(axis=1) <= 1 + 1e-10)
        assert np.all(scan >= 0)


def test_locate_corners_and_walls():
    mesh = build_structured_mesh(2, 2)
    pts = np.array([[0, 0], [1, 1], [0.5, 0.5], [1, 0.25]])
    cells = mesh.locate(pts)
    assert np.all(cells >= 0) and np.all(cells < mesh.num_cells)


@pytest.mark.parametrize("dim", [2, 3])
def test_locate_rejects_outside_points(dim):
    mesh = build_structured_mesh(dim, 4)
    scanned = SimplicialMesh(dim, mesh.vertices, mesh.cells)
    edge = np.full((1, dim), 0.5)
    edge[0, 0] = 1.0 + 1e-12  # within the tolerance, so still located
    for m in (mesh, scanned):
        assert 0 <= m.locate(edge)[0] < m.num_cells
        for x in (1.5, -0.01, 1.0 + 1e-8, math.nan, math.inf):
            p = np.full((1, dim), 0.5)
            p[0, 0] = x
            with pytest.raises(ValueError, match="not inside any cell"):
                m.locate(p)


@pytest.mark.parametrize("dim", [2, 3])
def test_locate_rejects_nonfinite_points_without_warning(dim):
    # the scan checks finiteness before any reduction, so NaN and inf raise
    # the ValueError and nothing else
    mesh = build_structured_mesh(dim, 4)
    scanned = SimplicialMesh(dim, mesh.vertices, mesh.cells)
    for m in (mesh, scanned):
        for x in (math.nan, math.inf, -math.inf):
            p = np.full((1, dim), 0.5)
            p[0, 0] = x
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="not inside any cell"):
                    m.locate(p)


def test_dump_off_roundtrip():
    mesh = build_structured_mesh(2, 2)
    text = dump_off(mesh)
    lines = text.strip().splitlines()
    nv, nc = (int(x) for x in lines[0].split())
    assert nv == mesh.num_vertices and nc == mesh.num_cells
    coords = np.array([[float(x) for x in ln.split()] for ln in lines[1 : 1 + nv]])
    assert np.allclose(coords, mesh.vertices)
    cells = np.array([[int(x) for x in ln.split()] for ln in lines[1 + nv :]])
    assert np.array_equal(cells, mesh.cells)

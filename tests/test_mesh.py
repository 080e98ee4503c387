"""Mesh generator and face-topology tests against brute-force oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from maviscid.elements import FeSpace, interpolate
from maviscid.mesh import SimplicialMesh, build_structured_mesh


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


@pytest.mark.parametrize("n", [2.5, 2.0, True, np.True_, "3", None])
def test_rejects_a_size_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n!r}"):
        build_structured_mesh(2, n)


def test_accepts_numpy_integer_sizes():
    mesh = build_structured_mesh(2, np.int32(3))
    assert mesh.structure == ("kuhn", 3) and type(mesh.structure[1]) is int
    assert np.array_equal(mesh.cells, build_structured_mesh(2, 3).cells)


@pytest.mark.parametrize("dim", [2.0, True, np.True_, "2", 4])
def test_generator_rejects_a_dimension_that_is_not_2_or_3(dim):
    with pytest.raises(ValueError, match=f"dim must be 2 or 3, got {dim!r}"):
        build_structured_mesh(dim, 3)
    mesh = build_structured_mesh(np.int64(3), 2)
    assert type(mesh.dim) is int and mesh.dim == 3


@pytest.mark.parametrize("dim", [2.0, True, np.True_, "2", 4])
def test_mesh_rejects_a_dimension_that_is_not_2_or_3(dim):
    verts, cells = [(0, 0), (1, 0), (0, 1)], [[0, 1, 2]]
    with pytest.raises(ValueError, match=f"dim must be 2 or 3, got {dim!r}"):
        SimplicialMesh(dim, verts, cells)
    mesh = SimplicialMesh(np.int8(2), verts, cells)
    assert type(mesh.dim) is int and mesh.dim == 2


TRIANGLE = [(0, 0), (1, 0), (0, 1)]


def test_rejects_a_nonfinite_vertex_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"vertex 2 \[nan, 1.0\] is not finite"):
            SimplicialMesh(2, [(0, 0), (1, 0), (np.nan, 1)], [(0, 1, 2)])


def test_rejects_cells_that_are_not_integer_indices():
    with pytest.raises(ValueError, match=r"cell 1 \[0.0, 1.0, 2.7\] is not integer"):
        SimplicialMesh(2, TRIANGLE + [(1, 1)], [(1, 3, 2), (0, 1, 2.7)])


@pytest.mark.parametrize("cell", [(0, 1, -1), (0, 1, 3)])
def test_rejects_cells_naming_a_missing_vertex(cell):
    with pytest.raises(ValueError, match=r"cell 0 .* names a vertex outside 0\.\.2"):
        SimplicialMesh(2, TRIANGLE, [cell])


def test_rejects_a_mesh_without_cells():
    with pytest.raises(ValueError, match="mesh has no cells"):
        SimplicialMesh(2, TRIANGLE, np.zeros((0, 3), dtype=np.int64))


# cells flat to roundoff: a repeated vertex, and collinear or coplanar
# vertices that are not dyadic, whose determinants round to a few ulps off 0
# in some vertex orders (a test for exactly 0 accepts the coplanar one in
# some orders and reports the collinear ones as hanging vertices in others)
FLAT_CELLS = {
    "repeated-2d": [(0.1, 0.2), (0.7, 0.3), (0.1, 0.2)],
    "repeated-3d": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0)],
    "collinear-2d": [(0, 0), (0.1, 0.3), (0.2, 0.6)],
    "collinear-2d-off-origin": [(0.3, 0.7), (0.1, 0.9), (0.7, 0.3)],
    "coplanar-3d": [(0, 0, 0), (0.1, 0.2, 0.3), (0.3, 0.1, 0.7), (0.4, 0.3, 1.0)],
    "collinear-face-3d": [(0.1, 0.3, 0.7), (0.2, 0.6, 1.4), (0.3, 0.9, 2.1),
                          (0.5, 0.1, 0.3)],
}


@pytest.mark.parametrize("name", sorted(FLAT_CELLS))
def test_rejects_a_cell_flat_to_roundoff(name):
    verts = FLAT_CELLS[name]
    dim = len(verts[0])
    for order in itertools.permutations(range(dim + 1)):
        with pytest.raises(ValueError, match=r"degenerate cell 0 .*\(zero signed volume\)"):
            SimplicialMesh(dim, verts, [order])


def test_rejects_a_cell_that_repeats_a_vertex_index():
    with pytest.raises(ValueError, match=r"degenerate cell 1 \[1, 2, 2\]"):
        SimplicialMesh(2, TRIANGLE + [(1, 1)], [(1, 3, 2), (1, 2, 2)])


@pytest.mark.parametrize("verts", [
    [(0, 0), (1, 0), (0.5, 1e-6)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 1e-6)],
], ids=["2d", "3d"])
def test_accepts_a_thin_cell(verts):
    dim = len(verts[0])
    mesh = SimplicialMesh(dim, verts, [range(dim + 1)])
    assert mesh.cell_volumes[0] == pytest.approx(1e-6 / math.factorial(dim), rel=1e-9)


def _right_cell(dim, leg):
    """Vertices of the right-angled cell at the origin with legs ``leg``."""
    return np.vstack([np.zeros(dim), leg * np.eye(dim)])


# legs whose squared Hadamard bound L^(2d) or whose |det J| = L^d over- or
# underflows float64: once they warned of an overflow, or were called
# degenerate
@pytest.mark.parametrize("dim, leg", [
    (2, 1e200), (2, 1e155), (3, 1e103), (2, 1e-160), (2, 1e-200), (3, 1e-110),
])
def test_rejects_a_cell_outside_the_float64_range(dim, leg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"cell 0 \[0, 1, 2(, 3)?\] leaves "
                                             r"the float64 range \[2.23e-308, 1.8e\+308\]"):
            SimplicialMesh(dim, _right_cell(dim, leg), [range(dim + 1)])


@pytest.mark.parametrize("dim, leg", [(2, 1e76), (3, 1e51)])
def test_accepts_a_large_cell_inside_the_float64_range(dim, leg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = SimplicialMesh(dim, _right_cell(dim, leg), [range(dim + 1)])
    assert mesh.jac_det[0] == pytest.approx(leg ** dim, rel=1e-12)


def test_rejects_a_repeated_cell():
    # reoriented, the second cell is the first again: it would share all
    # three faces with it
    with pytest.raises(ValueError, match=r"cells 0 and 1 overlap"):
        SimplicialMesh(2, TRIANGLE, [(0, 1, 2), (0, 2, 1)])


def test_rejects_cells_overlapping_across_a_face():
    # vertex 3 lies inside the first triangle, on the side of edge (0, 1)
    # that the triangle covers
    with pytest.raises(ValueError, match=r"cells 0 and 1 overlap: .* face \(0, 1\)"):
        SimplicialMesh(2, TRIANGLE + [(0.2, 0.2)], [(0, 1, 2), (0, 1, 3)])


def test_orientation_canonicalized():
    verts = [(0, 0), (1, 0), (0, 1)]
    mesh = SimplicialMesh(2, verts, [(0, 2, 1)])  # clockwise input
    assert mesh.cell_volumes[0] > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_one_cell_mesh_has_empty_interior_face_arrays(dim):
    mesh = SimplicialMesh(dim, np.vstack([np.zeros(dim), np.eye(dim)]), [range(dim + 1)])
    assert len(mesh.bface_cells) == dim + 1
    for name, shape in (("iface_normals", (0, dim)), ("iface_diameters", (0,)),
                        ("iface_measures", (0,))):
        a = getattr(mesh, name)
        assert a.shape == shape and a.dtype == np.float64


def test_only_the_generator_tags_a_mesh(monkeypatch):
    # the Kuhn cells in another order are no generator mesh: tagging them
    # would send points to the cells of the generator's numbering.  The
    # generator's tag is set before the faces are built, so that its meshes
    # skip the hanging-vertex scan
    seen = []
    check = SimplicialMesh._check_no_hanging_vertices

    def spy(self):
        seen.append(self.structure)
        check(self)

    monkeypatch.setattr(SimplicialMesh, "_check_no_hanging_vertices", spy)
    mesh = build_structured_mesh(2, 4)
    perm = np.random.default_rng(2).permutation(mesh.num_cells)
    with pytest.raises(TypeError):
        SimplicialMesh(2, mesh.vertices, mesh.cells[perm], structure=("kuhn", 4))
    shuffled = SimplicialMesh(2, mesh.vertices, mesh.cells[perm])
    assert seen == [("kuhn", 4), None]
    assert mesh.structure == ("kuhn", 4) and shuffled.structure is None
    pts = np.array([[0.3, 0.6], [0.81, 0.12]])
    assert np.array_equal(perm[shuffled.locate(pts)], mesh.locate(pts))

    def g(p):
        return np.exp(3.0 * p[:, 0]) * np.sin(4.0 * p[:, 1])

    want = interpolate(FeSpace(mesh, 2), g).evaluate(pts)
    got = interpolate(FeSpace(shuffled, 2), g).evaluate(pts)
    assert np.max(np.abs(got - want)) <= 1e-12


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

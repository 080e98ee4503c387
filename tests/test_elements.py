"""Reference element, quadrature, and FE space tests.

Expected integrals come from the closed form
int_simplex x^alpha dx = (prod alpha_i!) / (|alpha| + d)!
evaluated in exact rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from maviscid.elements import (
    FeFunction,
    FeSpace,
    ReferenceElement,
    cell_quadrature,
    eval_fe,
    face_quadrature,
    interpolate,
)
from maviscid.mesh import SimplicialMesh, build_structured_mesh


def exact_monomial_integral(alpha):
    """Exact integral of prod x_i^alpha_i over the unit reference simplex."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(alpha) + len(alpha)))


def apply_rule(rule, alpha):
    vals = np.ones(len(rule.points))
    for i, a in enumerate(alpha):
        vals *= rule.points[:, i] ** a
    return float(rule.weights @ vals)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6, 7, 8])
def test_cell_quadrature_monomial_exactness(dim, exactness):
    rule = cell_quadrature(dim, exactness)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1 / math.factorial(dim)) < 1e-14
    for alpha in itertools.product(range(exactness + 1), repeat=dim):
        if sum(alpha) > exactness:
            continue
        got = apply_rule(rule, alpha)
        want = float(exact_monomial_integral(alpha))
        assert abs(got - want) < 1e-12, (alpha, got, want)


@pytest.mark.parametrize("exactness", [9, 10])
def test_cell_quadrature_high_order_2d(exactness):
    rule = cell_quadrature(2, exactness)
    for alpha in [(exactness, 0), (0, exactness), (exactness // 2, (exactness + 1) // 2)]:
        assert abs(apply_rule(rule, alpha) - float(exact_monomial_integral(alpha))) < 1e-12


def test_quadrature_named_values():
    assert abs(apply_rule(cell_quadrature(2, 1), (1, 0)) - 1 / 6) < 1e-14
    assert abs(apply_rule(cell_quadrature(2, 4), (2, 2)) - 1 / 180) < 1e-14
    assert abs(apply_rule(cell_quadrature(3, 2), (1, 1, 0)) - 1 / 120) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_face_quadrature_exactness(dim):
    for exactness in range(1, 7):
        rule = face_quadrature(dim, exactness)
        assert rule.points.shape[1] == dim - 1
        assert np.all(rule.weights > 0)
        for alpha in itertools.product(range(exactness + 1), repeat=dim - 1):
            if sum(alpha) > exactness:
                continue
            got = apply_rule(rule, alpha)
            want = float(exact_monomial_integral(alpha))
            assert abs(got - want) < 1e-12


def test_quadrature_caps():
    with pytest.raises(ValueError):
        cell_quadrature(2, 11)
    with pytest.raises(ValueError):
        cell_quadrature(3, 9)
    with pytest.raises(ValueError):
        face_quadrature(3, 9)
    with pytest.raises(ValueError):
        cell_quadrature(2, 0)


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_reference_element_kronecker_and_unity(dim, degree):
    ref = ReferenceElement(dim, degree)
    expected_counts = {(2, 2): 6, (2, 3): 10, (3, 2): 10, (3, 3): 20}
    assert ref.node_count == expected_counts[(dim, degree)]
    val, grad, hess = ref.tabulate(ref.node_coords)
    assert np.max(np.abs(val - np.eye(ref.node_count))) < 1e-12
    rule = cell_quadrature(dim, 2 * degree)
    val, grad, hess = ref.tabulate(rule.points)
    assert np.max(np.abs(val.sum(axis=1) - 1)) < 1e-12
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-11
    assert np.max(np.abs(hess.sum(axis=1))) < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_lattice_degrees_build_but_spaces_reject_them(dim):
    # degrees 0 and 1 are lattice bases (degree 0: the constant at the
    # centroid); a space takes only 2 and 3
    ref = ReferenceElement(dim, 0)
    assert np.array_equal(ref.node_coords, np.full((1, dim), 1.0 / (dim + 1)))
    val, grad, hess = ref.tabulate(cell_quadrature(dim, 2).points)
    assert np.all(val == 1.0) and not grad.any() and not hess.any()
    assert ReferenceElement(dim, 1).node_count == dim + 1
    mesh = build_structured_mesh(dim, 1)
    for degree in (0, 1, 4):
        with pytest.raises(ValueError, match="degree must be 2 or 3"):
            FeSpace(mesh, degree)
    with pytest.raises(ValueError):
        ReferenceElement(dim, 4)


@pytest.mark.parametrize("dim", [2.0, True, np.True_, "2", 1])
def test_reference_element_rejects_a_dimension_that_is_not_2_or_3(dim):
    with pytest.raises(ValueError, match=f"dim must be 2 or 3, got {dim!r}"):
        ReferenceElement(dim, 2)
    ref = ReferenceElement(np.int32(3), 2)
    assert type(ref.dim) is int and ref.node_count == 10


@pytest.mark.parametrize("degree", [2.0, True, np.True_, "2", 4, -1])
def test_reference_element_rejects_a_degree_that_is_not_0_to_3(degree):
    with pytest.raises(ValueError,
                       match=f"degree must be an integer 0 to 3, got {degree!r}"):
        ReferenceElement(2, degree)
    ref = ReferenceElement(2, np.uint8(3))
    assert type(ref.degree) is int and ref.node_count == 10


@pytest.mark.parametrize("exactness", [4.5, 4.0, True, np.True_, "4", 0, 11])
def test_cell_quadrature_rejects_an_unsupported_exactness(exactness):
    # 4.5 built the m=3 Gauss rule, exact to degree 5, labelled 4
    with pytest.raises(ValueError, match=(
            f"exactness in 2D must be an integer 1 to 10, got {exactness!r}")):
        cell_quadrature(2, exactness)
    rule = cell_quadrature(2, np.int64(4))
    assert type(rule.exactness) is int and rule.exactness == 4


@pytest.mark.parametrize("exactness", [True, np.True_, 1.0, "1", 0, 9])
def test_face_quadrature_rejects_an_unsupported_exactness(exactness):
    # True built the one-point rule labelled exactness 1
    with pytest.raises(ValueError, match=(
            f"exactness in 3D must be an integer 1 to 8, got {exactness!r}")):
        face_quadrature(3, exactness)
    with pytest.raises(ValueError, match="dim must be 2 or 3, got 3.0"):
        face_quadrature(3.0, 1)
    rule = face_quadrature(np.int16(3), np.int16(1))
    assert type(rule.exactness) is int and rule.exactness == 1


def test_space_degree_must_be_an_integer():
    mesh = build_structured_mesh(2, 1)
    for degree in (2.7, 2.0, True, np.True_, "2", None):
        with pytest.raises(ValueError, match=f"degree must be 2 or 3, got {degree!r}"):
            FeSpace(mesh, degree)
    space = FeSpace(mesh, np.int64(3))
    assert type(space.degree) is int and space.degree == 3


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_reference_derivatives_match_finite_differences(dim, degree):
    ref = ReferenceElement(dim, degree)
    rng = np.random.default_rng(11)
    pts = rng.dirichlet(np.ones(dim + 1), size=5)[:, :dim]
    step = 1e-6
    val, grad, hess = ref.tabulate(pts)
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        vp, gp, _ = ref.tabulate(pts + e)
        vm, gm, _ = ref.tabulate(pts - e)
        fd_grad = (vp - vm) / (2 * step)
        assert np.max(np.abs(fd_grad - grad[:, :, a])) < 1e-6
        fd_hess = (gp - gm) / (2 * step)
        assert np.max(np.abs(fd_hess - hess[:, :, :, a])) < 1e-5


@pytest.mark.parametrize("dim,degree", [(2, 0), (2, 1), (2, 2), (2, 3),
                                        (3, 0), (3, 2), (3, 3)])
def test_values_are_tabulates_values_bit_for_bit(dim, degree):
    ref = ReferenceElement(dim, degree)
    pts = np.random.default_rng(3).dirichlet(np.ones(dim + 1), size=37)[:, :dim]
    val, _, _ = ref.tabulate(pts)
    assert np.array_equal(ref.values(pts), val)
    assert np.array_equal(ref.values(pts[0]), ref.tabulate(pts[0])[0])


def test_evaluate_uses_basis_values_only(monkeypatch):
    space = FeSpace(build_structured_mesh(3, 2), 2)
    u = FeFunction(space, np.random.default_rng(4).uniform(-1, 1, space.ndofs))
    pts = np.random.default_rng(5).uniform(0, 1, size=(50, 3))
    cells = space.mesh.locate(pts)
    val, _, _ = space.ref.tabulate(space.mesh.reference_coords(cells, pts))
    want = np.einsum("nb,nb->n", val, u.coeffs[space.cell_dofs[cells]])

    def no_tabulate(self, pts):
        raise AssertionError("evaluate built derivatives")

    monkeypatch.setattr(ReferenceElement, "tabulate", no_tabulate)
    assert np.array_equal(u.evaluate(pts), want)


@pytest.mark.parametrize("dim,degree,n", [(2, 2, 4), (2, 3, 4), (3, 2, 2), (3, 3, 2)])
def test_kuhn_refinement_transfer_is_exact(dim, degree, n):
    # the 2n Kuhn mesh refines the n one, so interpolating a coarse function
    # on the fine space reproduces it everywhere, not only at the fine dofs
    coarse = FeSpace(build_structured_mesh(dim, n), degree)
    fine = FeSpace(build_structured_mesh(dim, 2 * n), degree)
    u = FeFunction(coarse, np.random.default_rng(6).uniform(-1, 1, coarse.ndofs))
    v = interpolate(fine, u.evaluate)
    pts = np.random.default_rng(7).uniform(0, 1, size=(500, dim))
    assert np.abs(v.evaluate(pts) - u.evaluate(pts)).max() <= 1e-13


def test_eval_examples():
    mesh = build_structured_mesh(2, 2)
    p2 = FeSpace(mesh, 2)

    linear = interpolate(p2, lambda x: x[:, 0])
    v, g, h = eval_fe(linear, 3, [0.2, 0.3])
    assert np.max(np.abs(h)) < 1e-10
    assert np.allclose(g, [1.0, 0.0], atol=1e-12)

    quad = interpolate(p2, lambda x: x[:, 0] ** 2)
    v, g, h = eval_fe(quad, 1, [0.25, 0.25])
    assert abs(h[0, 0] - 2.0) < 1e-9
    assert abs(h[0, 1]) < 1e-9 and abs(h[1, 1]) < 1e-9

    p3 = FeSpace(mesh, 3)
    cubic = interpolate(p3, lambda x: x[:, 0] ** 3 + x[:, 0] ** 2 * x[:, 1])
    rng = np.random.default_rng(5)
    for _ in range(4):
        cell = int(rng.integers(mesh.num_cells))
        lam = rng.dirichlet([1, 1, 1])
        ref_pt = lam[:2]
        v, g, h = eval_fe(cubic, cell, ref_pt)
        x, y = mesh.vertices[mesh.cells[cell]].T @ np.array([1 - ref_pt.sum(), *ref_pt])
        assert abs(v - (x**3 + x**2 * y)) < 1e-10
        assert np.max(np.abs(g - [3 * x**2 + 2 * x * y, x**2])) < 1e-10
        want_h = np.array([[6 * x + 2 * y, 2 * x], [2 * x, 0.0]])
        assert np.max(np.abs(h - want_h)) < 1e-9


def test_eval_cell_out_of_range():
    mesh = build_structured_mesh(2, 1)
    f = FeFunction(FeSpace(mesh, 2))
    with pytest.raises(IndexError):
        eval_fe(f, 99, [0.1, 0.1])


@pytest.mark.parametrize(
    "dim,degree,n,expected",
    [
        (2, 2, 2, (2 * 2 + 1) ** 2),
        (2, 2, 5, (2 * 5 + 1) ** 2),
        (2, 3, 3, (3 * 3 + 1) ** 2),
        (3, 2, 2, (2 * 2 + 1) ** 3),
    ],
)
def test_dof_counts(dim, degree, n, expected):
    space = FeSpace(build_structured_mesh(dim, n), degree)
    assert space.ndofs == expected


def _oracle_mesh(kind):
    if kind == "shuffled":
        # hand-built input: a structured mesh with its cells in random order
        mesh = build_structured_mesh(2, 3)
        perm = np.random.default_rng(7).permutation(mesh.num_cells)
        return SimplicialMesh(2, mesh.vertices, mesh.cells[perm])
    return build_structured_mesh(3, 2) if kind == "3d" else build_structured_mesh(2, 3)


@pytest.mark.parametrize("kind", ["2d", "3d", "shuffled"])
@pytest.mark.parametrize("degree", [2, 3])
def test_dof_count_brute_force(kind, degree):
    mesh = _oracle_mesh(kind)
    space = FeSpace(mesh, degree)
    # oracle: unique physical node coordinates over all cells
    ref = space.ref
    nodes = set()
    for c in range(mesh.num_cells):
        phys = space.cell_origin[c] + ref.node_coords @ space.jac[c].T
        for p in phys:
            nodes.add(tuple(np.round(p, 8)))
        # each local node's dof sits at that node's physical position
        assert np.max(np.abs(space.dof_coords[space.cell_dofs[c]] - phys)) < 1e-12
    assert space.ndofs == len(nodes)


def test_boundary_dof_count_p2_n2():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    assert len(space.boundary_dofs) == 16
    on_wall = np.any(
        (np.abs(space.dof_coords) < 1e-12) | (np.abs(space.dof_coords - 1) < 1e-12),
        axis=1,
    )
    assert set(space.boundary_dofs) == set(np.flatnonzero(on_wall))


@pytest.mark.parametrize("dim,degree,n", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1)])
def test_c0_continuity_across_faces(dim, degree, n):
    mesh = build_structured_mesh(dim, n)
    space = FeSpace(mesh, degree)
    rng = np.random.default_rng(17)
    f = FeFunction(space, rng.uniform(-1, 1, space.ndofs))
    frule = face_quadrature(dim, 4)
    saw_jump = False
    for cells, vids, normal in zip(
        mesh.iface_cells, mesh.iface_vertex_ids, mesh.iface_normals
    ):
        fc = mesh.vertices[vids]
        phys = fc[0] + frule.points @ (fc[1:] - fc[0])
        pair = []
        for cell in cells:
            ref_pts = space.mesh.reference_coords(
                np.full(len(phys), cell, dtype=int), phys
            )
            val, grad, _ = space.ref.tabulate(ref_pts)
            coef = f.coeffs[space.cell_dofs[cell]]
            trace = val @ coef
            g_ref = np.einsum("nbd,b->nd", grad, coef)
            g_phys = g_ref @ space.jac_inv[cell]
            pair.append((trace, g_phys @ normal))
        assert np.max(np.abs(pair[0][0] - pair[1][0])) < 1e-11
        if np.max(np.abs(pair[0][1] - pair[1][1])) > 1e-6:
            saw_jump = True
    assert saw_jump  # normal gradients of a random C0 function do jump


def test_interpolate_basics():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    z = interpolate(space, lambda x: np.zeros(len(x)))
    assert np.all(z.coeffs == 0)
    f = interpolate(space, lambda x: x[:, 0] + x[:, 1])
    centroids = space.mesh.vertices[space.mesh.cells].mean(axis=1)
    vals = f.evaluate(centroids)
    assert np.max(np.abs(vals - centroids.sum(axis=1))) < 1e-12


def test_interpolation_h2_rate():
    # broken-H2 seminorm error of the P2 interpolant of exp((x^2+y^2)/2)
    # decays at first order
    def u(x):
        return np.exp((x[:, 0] ** 2 + x[:, 1] ** 2) / 2)

    def hess_u(x):
        e = u(x)
        h = np.empty((len(x), 2, 2))
        h[:, 0, 0] = (1 + x[:, 0] ** 2) * e
        h[:, 1, 1] = (1 + x[:, 1] ** 2) * e
        h[:, 0, 1] = h[:, 1, 0] = x[:, 0] * x[:, 1] * e
        return h

    errs = []
    for n in (8, 16, 32):
        mesh = build_structured_mesh(2, n)
        space = FeSpace(mesh, 2)
        uh = interpolate(space, u)
        rule = cell_quadrature(2, 6)
        _, _, hess_ref = space.ref.tabulate(rule.points)
        acc = 0.0
        coefs = uh.coeffs[space.cell_dofs]  # (M, nb)
        hess_h = np.einsum(
            "cki,qbkl,clj,cb->cqij",
            space.jac_inv,
            hess_ref,
            space.jac_inv,
            coefs,
        )
        phys = space.cell_origin[:, None, :] + np.einsum(
            "cij,qj->cqi", space.jac, rule.points
        )
        exact = hess_u(phys.reshape(-1, 2)).reshape(mesh.num_cells, -1, 2, 2)
        diff2 = ((hess_h - exact) ** 2).sum(axis=(2, 3))
        acc = float(np.einsum("cq,q,c->", diff2, rule.weights, space.jac_det))
        errs.append(np.sqrt(acc))
    r1 = np.log(errs[0] / errs[1]) / np.log(2)
    r2 = np.log(errs[1] / errs[2]) / np.log(2)
    assert abs(r2 - 1.0) < 0.1
    assert abs(r1 - 1.0) < 0.15


def test_space_dof_consistency_random_function_continuous_at_vertices():
    mesh = build_structured_mesh(2, 4)
    space = FeSpace(mesh, 3)
    # shared mesh vertices must resolve to the same dof from every cell
    for c, cell in enumerate(mesh.cells):
        for local_vertex, v in enumerate(cell):
            ref_node = np.zeros(2)
            if local_vertex > 0:
                ref_node[local_vertex - 1] = 1.0
            matches = np.flatnonzero(
                np.all(np.abs(space.ref.node_coords - ref_node) < 1e-12, axis=1)
            )
            dof = space.cell_dofs[c, matches[0]]
            assert np.max(np.abs(space.dof_coords[dof] - mesh.vertices[v])) < 1e-9

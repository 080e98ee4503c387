"""Assembly tests against brute-force per-point oracles and exact identities."""

import copy
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from maviscid.assembly import (
    BoundaryData,
    CoefficientField,
    PenaltyParams,
    apply_dirichlet,
    assemble_Ah_sigma,
    assemble_jacobian,
    assemble_linearized_rhs,
    assemble_nonlinear_residual,
    assemble_residual_and_jacobian,
    det_and_cofactor,
    _bilap,
    _boundary_flux_vector,
    _boundary_tables,
    _cell_blocks,
    _cell_tables,
    _data_vector,
    _det_vector,
    _face_penalty_consistency,
    _face_tables,
    _face_weights,
    _hessian_map,
    _interior_block,
    _interior_face_tables,
    _load_vector,
    _newton_tables,
    _nonlinear_cell_terms,
    _on_pattern,
    _operator,
    _pattern,
    _phys_points,
    _slot_finder,
)
from maviscid.analysis import _norm_pieces, mesh_norm
from maviscid.cases import builtin_case
from maviscid.elements import (
    FeFunction,
    FeSpace,
    ReferenceElement,
    eval_fe,
    face_quadrature,
    interpolate,
)
from maviscid.mesh import SimplicialMesh, build_structured_mesh
from maviscid.solve import NewtonConfig, continuation_solve, convex_seed, newton_solve


# ------------------------------------------------------- brute-force oracles


def unit_functions(space):
    """One FeFunction per dof with that dof's coefficient 1, the rest 0."""
    return [FeFunction(space, e) for e in np.eye(space.ndofs)]


def brute_operator(space, field_fn, params):
    """Dense A via per-point python loops over cells and faces.

    Independent of the vectorized scatter path: every cell basis value comes
    from a one-dof FeFunction evaluated with eval_fe, and every face value
    from the basis tabulated at that point (``brute_face_terms``).
    """
    mesh = space.mesh
    eps = params.epsilon
    basis = unit_functions(space)
    P, C = brute_face_terms(space)
    A = params.jump_weight * P - eps * C

    crule = space.cell_rule
    for c in range(mesh.num_cells):
        dofs = space.cell_dofs[c]
        for q in range(len(crule.weights)):
            xref = crule.points[q]
            x = space.cell_origin[c] + space.jac[c] @ xref
            wq = crule.weights[q] * space.jac_det[c]
            phi_mat = field_fn(x[None, :])[0]
            data = [eval_fe(basis[i], c, xref) for i in dofs]
            for a, ia in enumerate(dofs):
                va, _, Ha = data[a]
                for b, ib in enumerate(dofs):
                    _, _, Hb = data[b]
                    A[ia, ib] += wq * (
                        eps * np.trace(Ha) * np.trace(Hb)
                        - np.sum(phi_mat * Hb) * va
                    )
    return A


def brute_face_terms(space):
    """Dense (P, C) by per-point loops over interior faces, each point pulled
    back into both neighbors with ``reference_coords``.  The basis is
    tabulated once per (cell, point) and each function pushed forward as in
    ``eval_fe``."""
    mesh, d = space.mesh, space.mesh.dim
    nb = space.ref.node_count
    P = np.zeros((space.ndofs, space.ndofs))
    C = np.zeros((space.ndofs, space.ndofs))
    frule = space.face_rule
    ref_meas = 1.0 if d == 2 else 0.5
    for f in range(len(mesh.iface_cells)):
        fc = mesh.vertices[mesh.iface_vertex_ids[f]]
        n = mesh.iface_normals[f]
        cells2 = mesh.iface_cells[f]  # (plus, minus)
        dofs2 = np.concatenate([space.cell_dofs[cells2[0]], space.cell_dofs[cells2[1]]])
        for q in range(len(frule.weights)):
            x = fc[0] + (fc[1:] - fc[0]).T @ frule.points[q]
            wq = frule.weights[q] * mesh.iface_measures[f] / ref_meas
            jump = np.zeros(2 * nb)
            avg = np.zeros(2 * nb)
            for side, (cell, sgn) in enumerate(zip(cells2, (1.0, -1.0))):
                xref = space.mesh.reference_coords(np.array([cell]), x[None, :])[0]
                _, grad, hess = space.ref.tabulate(xref[None, :])
                jinv = space.jac_inv[cell]
                for loc in range(nb):
                    jump[side * nb + loc] += sgn * ((jinv.T @ grad[0, loc]) @ n)
                    avg[side * nb + loc] += 0.5 * np.trace(jinv.T @ hess[0, loc] @ jinv)
            # entry by entry: a dof shared by both sides is summed twice
            pairs = np.ix_(dofs2, dofs2)
            np.add.at(P, pairs, wq / mesh.iface_diameters[f] * np.outer(jump, jump))
            np.add.at(C, pairs, wq * (np.outer(jump, avg) + np.outer(avg, jump)))
    return P, C


def brute_rhs(space, phi_fn, psi_fn, eps):
    """Dense (phi, w_i) + eps (psi, grad w_i . n) without boundary zeroing."""
    mesh = space.mesh
    basis = unit_functions(space)
    r = eps * brute_boundary_flux(space, psi_fn)
    crule = space.cell_rule
    for c in range(mesh.num_cells):
        for q in range(len(crule.weights)):
            xref = crule.points[q]
            x = space.cell_origin[c] + space.jac[c] @ xref
            wq = crule.weights[q] * space.jac_det[c]
            fval = phi_fn(x[None, :])[0]
            for idof in space.cell_dofs[c]:
                v, _, _ = eval_fe(basis[idof], c, xref)
                r[idof] += wq * fval * v
    return r


def brute_boundary_flux(space, psi_fn):
    """Dense (psi, grad w_i . n) by per-point loops over boundary faces, the
    basis tabulated once per (cell, point)."""
    mesh, d = space.mesh, space.mesh.dim
    r = np.zeros(space.ndofs)
    frule = space.face_rule
    ref_meas = 1.0 if d == 2 else 0.5
    for f, cell in enumerate(mesh.bface_cells):
        fc = mesh.vertices[mesh.bface_vertex_ids[f]]
        jinv = space.jac_inv[cell]
        for q in range(len(frule.weights)):
            x = fc[0] + (fc[1:] - fc[0]).T @ frule.points[q]
            wq = frule.weights[q] * mesh.bface_measures[f] / ref_meas
            pv = psi_fn(x[None, :])[0]
            xref = space.mesh.reference_coords(np.array([cell]), x[None, :])[0]
            _, grad, _ = space.ref.tabulate(xref[None, :])
            for loc, idof in enumerate(space.cell_dofs[cell]):
                g = jinv.T @ grad[0, loc]
                r[idof] += wq * pv * (g @ mesh.bface_normals[f])
    return r


def coo_matrix(space, dof_blocks, local_blocks):
    """Accumulate (m, a, b) local blocks into a CSR matrix through COO."""
    nb = dof_blocks.shape[1]
    rows = np.repeat(dof_blocks, nb, axis=1).ravel()
    cols = np.tile(dof_blocks, (1, nb)).ravel()
    return sp.coo_matrix(
        (local_blocks.ravel(), (rows, cols)), shape=(space.ndofs, space.ndofs)
    ).tocsr()


def phys_hessians(space, cells, hess_ref):
    """Physical basis Hessians J^-T H J^-1 on a block of cells: (m, nq, nb, d, d)."""
    ji = space.jac_inv[cells]
    return np.einsum("cki,qbkl,clj->cqbij", ji, hess_ref, ji, optimize=True)


def coo_reference(u, f, data, params):
    """r, J, A_h(0), B, P, C and the Hessian Gram matrix assembled through
    COO from physical basis Hessians, on the same rules and tables."""
    space = u.space
    k, mesh = space.degree, space.mesh

    def cell_sum(degree, local):
        rule, val, _, hess_ref = _cell_tables(space, degree)
        return sum(
            coo_matrix(space, space.cell_dofs[cells],
                       local(wq, val, phys_hessians(space, cells, hess_ref), cells))
            for cells, wq in _cell_blocks(space, rule)
        )

    def bilap(wq, val, hp, cells):
        lap = np.einsum("cqbii->cqb", hp)
        return np.einsum("cq,cqa,cqb->cab", wq, lap, lap)

    def gram(wq, val, hp, cells):
        return np.einsum("cq,cqaij,cqbij->cab", wq, hp, hp)

    B, G = cell_sum(2 * (k - 2), bilap), cell_sum(2 * (k - 2), gram)
    rule = face_quadrature(space.dim, 2 * (k - 1))
    grad, hess, placement = _face_tables(space, rule, mesh.iface_cells, mesh.iface_vertex_ids)
    wq = _face_weights(space, rule, mesh.iface_measures)
    jump, avg = [], []
    for side, sign in ((0, 1.0), (1, -1.0)):
        ji = space.jac_inv[mesh.iface_cells[:, side]]
        conormal = sign * np.einsum("cji,ci->cj", ji, mesh.iface_normals)
        p = placement[:, side]
        jump.append(np.einsum("cqbj,cj->cqb", grad[p], conormal))
        avg.append(0.5 * np.einsum("cqbkl,cki,cli->cqb", hess[p], ji, ji))
    jump, avg = np.concatenate(jump, axis=2), np.concatenate(avg, axis=2)
    fdofs = space.cell_dofs[mesh.iface_cells].reshape(len(wq), -1)
    wj = wq / mesh.iface_diameters[:, None]
    P = coo_matrix(space, fdofs, np.einsum("fq,fqa,fqb->fab", wj, jump, jump))
    local = np.einsum("fq,fqa,fqb->fab", wq, jump, avg)
    C = coo_matrix(space, fdofs, local + np.swapaxes(local, 1, 2))
    A0 = params.epsilon * (B - C) + params.jump_weight * P

    det_vec = np.zeros(space.ndofs)

    def low_cof(wq, val, hp, cells):
        hu = np.einsum("cqbij,cb->cqij", hp, u.coeffs[space.cell_dofs[cells]])
        det, cof = det_and_cofactor(hu)
        det_vec[:] += np.bincount(
            space.cell_dofs[cells].ravel(),
            weights=np.einsum("cq,cq,qa->ca", wq, det, val).ravel(),
            minlength=space.ndofs,
        )
        return np.einsum("cq,qa,cqb->cab", wq, val, np.einsum("cqij,cqbij->cqb", cof, hp))

    J = cell_sum(space.dim * (k - 2) + k, low_cof) - A0
    r = det_vec - A0 @ u.coeffs + _data_vector(space, f, data, params)
    r[space.boundary_dofs] = 0.0
    return dict(r=r, J=J, A0=A0, B=B, P=P, C=C, G=G)


def coo_gram(u):
    """The Hessian Gram matrix of ``coo_reference``, which also forms r and J
    and so takes a state and data; G depends on the space alone."""
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    return coo_reference(u, lambda p: np.ones(len(p)), data,
                         PenaltyParams(1.0, 0.5, "full"))["G"]


def field_2d(points):
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((len(points), 2, 2))
    out[:, 0, 0] = 1.0 + x**2
    out[:, 0, 1] = x * y
    out[:, 1, 0] = x * y
    out[:, 1, 1] = 2.0 + y**2
    return out


def field_3d(points):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    out = np.zeros((len(points), 3, 3))
    out[:, 0, 0] = 1.0 + x**2
    out[:, 0, 1] = out[:, 1, 0] = x * y
    out[:, 1, 1] = 2.0 + y**2
    out[:, 1, 2] = out[:, 2, 1] = y * z
    out[:, 2, 2] = 1.0 + z**2
    return out


# -------------------------------------------------------- det and cofactor


def test_det_cofactor_2x2_example():
    det, cof = det_and_cofactor(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert det == pytest.approx(3.0, abs=1e-15)
    assert np.allclose(cof, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)


def test_det_cofactor_3x3_diagonal():
    det, cof = det_and_cofactor(np.diag([1.0, 2.0, 3.0]))
    assert det == pytest.approx(6.0, abs=1e-14)
    assert np.allclose(cof, np.diag([6.0, 3.0, 2.0]), atol=1e-14)


def test_cofactor_identity_random():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        B = rng.standard_normal((40, d, d))
        H = B + np.swapaxes(B, 1, 2)
        det, cof = det_and_cofactor(H)
        prod = np.einsum("nij,nkj->nik", H, cof)
        target = det[:, None, None] * np.eye(d)
        assert np.max(np.abs(prod - target)) < 1e-12
        assert np.max(np.abs(det - np.linalg.det(H))) < 1e-12


def test_cofactor_of_nonsymmetric_batches():
    # the closed form serves any matrix, the affine maps' Jacobians too:
    # H cof(H)^T = det(H) I, and cof(H)^T / det(H) is LAPACK's inverse to
    # 8 ulps times the condition number
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for d in (2, 3):
        H = rng.standard_normal((500, d, d))
        det, cof = det_and_cofactor(H)
        prod = np.einsum("nij,nkj->nik", H, cof)
        assert np.max(np.abs(prod - det[:, None, None] * np.eye(d))) < 1e-12
        inv = np.swapaxes(cof, 1, 2) / det[:, None, None]
        want = np.linalg.inv(H)
        err = np.abs(inv - want).max(axis=(1, 2))
        assert np.all(err <= 8 * eps * np.linalg.cond(H) * np.abs(want).max(axis=(1, 2)))


def test_det_cofactor_shapes():
    det, cof = det_and_cofactor(np.eye(2))
    assert np.isscalar(det) or det.shape == ()
    assert cof.shape == (2, 2)
    with pytest.raises(ValueError):
        det_and_cofactor(np.eye(4))


# ------------------------------------------------------------------- params


def test_jump_weight_values():
    assert PenaltyParams(2.0, 0.1, "full").jump_weight == pytest.approx(2000.2)
    assert PenaltyParams(2.0, 0.1, "reduced").jump_weight == pytest.approx(200.2)
    assert PenaltyParams(2.0, 0.1, "plain").jump_weight == pytest.approx(0.2)


def test_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams(1.0, 0.0)
    with pytest.raises(ValueError):
        PenaltyParams(-1.0, 0.1)
    for sigma, eps in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PenaltyParams(sigma, eps)
    with pytest.raises(ValueError):
        PenaltyParams(1.0, 0.1, "other")


def test_boundary_data_psi_default():
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    psi = data.psi_field(0.25)
    assert np.allclose(psi(np.zeros((3, 2))), 0.25)
    explicit = BoundaryData(g=lambda p: np.zeros(len(p)), psi=lambda p: p[:, 0])
    assert np.allclose(explicit.psi_field(0.25)(np.array([[0.5, 0.0]])), 0.5)


def test_coefficient_field_checks():
    bad = CoefficientField(
        2, lambda p: np.tile([[1.0, 2.0], [0.0, 1.0]], (len(p), 1, 1))
    )
    with pytest.raises(ValueError):
        bad(np.zeros((2, 2)))
    mesh = build_structured_mesh(2, 2)
    space = FeSpace(mesh, 2)
    wrong_dim = CoefficientField.constant(np.eye(3))
    with pytest.raises(ValueError):
        assemble_Ah_sigma(space, wrong_dim, PenaltyParams(1.0, 0.5, "full"))
    nan_field = CoefficientField.constant(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        assemble_Ah_sigma(space, nan_field, PenaltyParams(1.0, 0.5, "full"))


# ------------------------------------------------- operator vs brute force


@pytest.mark.parametrize(
    "dim,degree", [(2, 2), (2, 3), (3, 2)], ids=["2d-p2", "2d-p3", "3d-p2"]
)
def test_operator_matches_brute_force(dim, degree):
    mesh = build_structured_mesh(dim, 1)
    space = FeSpace(mesh, degree)
    params = PenaltyParams(1.7, 0.3, "reduced")
    fn = field_2d if dim == 2 else field_3d
    field = CoefficientField(dim, fn)
    A = assemble_Ah_sigma(space, field, params).toarray()
    A_ref = brute_operator(space, fn, params)
    scale = np.max(np.abs(A_ref))
    assert np.max(np.abs(A - A_ref)) < 1e-12 * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_rhs_matches_brute_force(dim):
    mesh = build_structured_mesh(dim, 1)
    space = FeSpace(mesh, 2)
    params = PenaltyParams(1.0, 0.3, "full")

    def phi(p):
        return p[:, 0] + 2.0 * p[:, 1]

    def psi(p):
        return 1.0 + p[:, 0]

    rhs = assemble_linearized_rhs(space, phi, psi, params)
    ref = brute_rhs(space, phi, psi, params.epsilon)
    ref[space.boundary_dofs] = 0.0
    assert np.max(np.abs(rhs - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.all(rhs[space.boundary_dofs] == 0.0)


def shuffled_mesh(dim, n):
    """The structured mesh with each cell's vertices reordered, cycling
    through every permutation."""
    mesh = build_structured_mesh(dim, n)
    perms = list(itertools.permutations(range(dim + 1)))
    cells = [cell[list(perms[c % len(perms)])] for c, cell in enumerate(mesh.cells)]
    return SimplicialMesh(dim, mesh.vertices, cells)


def face_placements(mesh, cells, vertex_ids):
    """The distinct positions of faces' sorted vertices among their cells'."""
    return {
        tuple(list(mesh.cells[c]).index(v) for v in vids)
        for c, vids in zip(cells, vertex_ids)
    }


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_face_terms_match_brute_force_on_shuffled_meshes(dim, degree):
    # faces tabulate once per placement in their cells; with cell vertices
    # shuffled, every placement occurs on interior face sides, and the dofs
    # a face's two sides share sit at varying local positions on each
    mesh = shuffled_mesh(dim, 2)
    sides = face_placements(mesh, mesh.iface_cells[:, 0], mesh.iface_vertex_ids)
    sides |= face_placements(mesh, mesh.iface_cells[:, 1], mesh.iface_vertex_ids)
    assert len(sides) == math.factorial(dim + 1)
    space = FeSpace(mesh, degree)

    def psi(p):
        return 1.0 + p[:, 0] * p[:, -1]

    pairs = zip(
        [_on_pattern(space, M) for M in _face_penalty_consistency(space)]
        + [_boundary_flux_vector(space, psi)],
        brute_face_terms(space) + (brute_boundary_flux(space, psi),),
    )
    for got, ref in pairs:
        got = got.toarray() if sp.issparse(got) else got
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_face_pass_looks_up_only_off_face_couplings(dim, degree, monkeypatch):
    # on a face patch every coupling but those of one side's off-face dofs
    # with the other side's lies in a cell's slots: only those are looked up
    space = FeSpace(shuffled_mesh(dim, 2), degree)
    _pattern(space)
    looked_up = []

    def spy(indptr, indices):
        find = _slot_finder(indptr, indices)

        def spied(rows, cols):
            looked_up.append((np.repeat(rows, cols.shape[1], axis=1).ravel(),
                              np.tile(cols, (1, rows.shape[1])).ravel()))
            return find(rows, cols)

        return spied

    monkeypatch.setattr("maviscid.assembly._slot_finder", spy)
    _face_penalty_consistency(space)
    rows, cols = (np.concatenate(side) for side in zip(*looked_up))
    off_face = space.ref.node_count - math.comb(degree + dim - 1, dim - 1)
    assert len(rows) == len(space.mesh.iface_cells) * 2 * off_face**2
    M, nb = space.cell_dofs.shape
    E = sp.csr_matrix((np.ones(M * nb), space.cell_dofs.ravel(), np.arange(0, M * nb + 1, nb)),
                      shape=(M, space.ndofs))
    assert not np.any(np.asarray((E.T @ E).tocsr()[rows, cols]))


# ---------------------------------------------------------- exact identities


def test_smooth_quadratic_energy_2d():
    # v = x^2 + xy + y^2 has continuous gradient, so only the volume term
    # survives: v' A v = eps * integral (lap v)^2 = 16 eps
    mesh = build_structured_mesh(2, 3)
    space = FeSpace(mesh, 2)
    v = interpolate(space, lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1] + p[:, 1] ** 2)
    params = PenaltyParams(1.0, 0.25, "full")
    A = assemble_Ah_sigma(space, CoefficientField.constant(np.zeros((2, 2))), params)
    assert v.coeffs @ (A @ v.coeffs) == pytest.approx(16.0 * 0.25, abs=1e-9)


def test_smooth_quadratic_energy_3d():
    mesh = build_structured_mesh(3, 2)
    space = FeSpace(mesh, 2)
    v = interpolate(
        space,
        lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2 + p[:, 0] * p[:, 1],
    )
    params = PenaltyParams(1.0, 0.5, "full")
    A = assemble_Ah_sigma(space, CoefficientField.constant(np.zeros((3, 3))), params)
    assert v.coeffs @ (A @ v.coeffs) == pytest.approx(36.0 * 0.5, abs=1e-8)


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2)])
def test_penalty_vanishes_on_c1_functions(dim, degree):
    mesh = build_structured_mesh(dim, 2)
    space = FeSpace(mesh, degree)
    P, C = (_on_pattern(space, M) for M in _face_penalty_consistency(space))
    scale = np.max(np.abs(P.toarray()))
    lin = interpolate(space, lambda p: 1.0 + p @ np.arange(1.0, dim + 1.0))
    quad = interpolate(space, lambda p: (p**2).sum(axis=1) + p[:, 0] * p[:, 1])
    frule = space.face_rule
    ref_meas = 1.0 if dim == 2 else 0.5
    for v in (lin, quad):
        # pointwise jumps vanish to roundoff, so the quadrature of the
        # squared jump is zero far below any matrix-level cancellation noise
        energy = 0.0
        for f, cells in enumerate(mesh.iface_cells):
            fc = mesh.vertices[mesh.iface_vertex_ids[f]]
            scale_f = mesh.iface_measures[f] / ref_meas / mesh.iface_diameters[f]
            for xq, wq in zip(frule.points, frule.weights):
                x = fc[0] + (fc[1:] - fc[0]).T @ xq
                plus, minus = (
                    eval_fe(v, c, space.mesh.reference_coords(np.array([c]), x[None, :])[0])[1]
                    for c in cells
                )
                energy += wq * scale_f * ((plus - minus) @ mesh.iface_normals[f]) ** 2
        assert energy < 1e-20
        assert abs(v.coeffs @ (P @ v.coeffs)) < 1e-12 * scale
        assert abs(v.coeffs @ (C @ v.coeffs)) < 1e-12 * scale


def cached_arrays(space):
    """Every distinct numpy array the space's cache holds."""
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
        elif hasattr(obj, "__dict__"):  # sparse matrices and quadrature rules
            yield from arrays(list(vars(obj).values()))

    return list({id(a): a for a in arrays(list(space._cache.values()))}.values())


def test_space_keeps_no_per_face_arrays():
    # P and C are formed chunk by chunk: after a Newton step the only array
    # with one row per interior face that the space caches is the interior-face
    # tables' placement index, one small integer per face side; no face
    # patch, slot or point array is kept
    space, u, _, data = _perturbed_state(3, 2, seed=3)
    assemble_residual_and_jacobian(u, lambda p: np.ones(len(p)), data,
                                   PenaltyParams(1.0, 0.2, "full"))
    num_faces = len(space.mesh.iface_cells)
    found = cached_arrays(space)
    assert found
    per_face = [a for a in found if a.ndim and a.shape[0] == num_faces]
    placement = _interior_face_tables(space)[3]
    assert len(per_face) == 1 and per_face[0] is placement
    assert placement.shape == (num_faces, 2) and placement.dtype.kind == "i"


def test_solved_space_caches_one_int32_pattern():
    # after a ladder, a norm and an operator, the space holds one row-pointer
    # array over all dofs, and every index array it caches is int32
    spec = builtin_case("III")
    space = FeSpace(build_structured_mesh(2, 4), 2)
    u, _ = continuation_solve(
        space, None, None, spec.sigma, 0.1, NewtonConfig(abs_tol=1e-8),
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )
    v = FeFunction(space)
    v.coeffs[space.interior_dofs] = 1.0
    mesh_norm(v)
    assemble_Ah_sigma(space, CoefficientField.constant(np.eye(2)),
                      PenaltyParams(1.0, 0.1, "full"))
    found = cached_arrays(space)
    assert len([a for a in found if a.shape == (space.ndofs + 1,)]) == 1
    indices = [a for a in found if a.dtype.kind in "iu"]
    assert len(indices) >= 6 and all(a.dtype == np.int32 for a in indices)


@pytest.mark.parametrize("dim,n,degree", [(2, 8, 2), (3, 4, 3)])
def test_pattern_is_the_union_of_cell_and_face_couplings(dim, n, degree):
    space = FeSpace(build_structured_mesh(dim, n), degree)
    want = np.zeros((space.ndofs, space.ndofs), dtype=bool)
    for dofs in space.cell_dofs:
        want[np.ix_(dofs, dofs)] = True
    for c0, c1 in space.mesh.iface_cells:
        dofs = np.concatenate([space.cell_dofs[c0], space.cell_dofs[c1]])
        want[np.ix_(dofs, dofs)] = True
    pattern = _pattern(space)
    rows = np.repeat(np.arange(space.ndofs), np.diff(pattern.indptr))
    got = np.zeros_like(want)
    got[rows, pattern.indices] = True
    assert np.array_equal(got, want)
    # one slot per coupling, columns sorted within each row
    assert len(pattern.indices) == want.sum()
    assert np.all((np.diff(pattern.indices) > 0) | (np.diff(rows) > 0))
    # each cell's slots hold its (test, trial) dof pairs in row-major order
    nb = space.ref.node_count
    assert np.array_equal(rows[pattern.cell_slots], np.repeat(space.cell_dofs, nb, axis=1))
    assert np.array_equal(pattern.indices[pattern.cell_slots], np.tile(space.cell_dofs, (1, nb)))


def test_symmetry_without_coefficient():
    # with Phi = 0 every remaining term is symmetric in (v, w)
    for dim, n in ((2, 4), (3, 2)):
        space = FeSpace(build_structured_mesh(dim, n), 2)
        A = assemble_Ah_sigma(
            space, CoefficientField.constant(np.zeros((dim, dim))),
            PenaltyParams(1.5, 0.2, "full")
        )
        gap = np.max(np.abs((A - A.T).toarray()))
        assert gap < 1e-13 * np.max(np.abs(A.toarray()))


def test_interior_positivity_without_coefficient():
    space = FeSpace(build_structured_mesh(2, 4), 2)
    A = assemble_Ah_sigma(
        space, CoefficientField.constant(np.zeros((2, 2))),
        PenaltyParams(1.0, 0.1, "full")
    )
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = np.zeros(space.ndofs)
        v[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
        assert v @ (A @ v) > 0.0


def test_load_partition_of_unity():
    for dim, n in ((2, 3), (3, 2)):
        space = FeSpace(build_structured_mesh(dim, n), 2)
        load = _load_vector(space, lambda p: np.ones(len(p)))
        assert load.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_boundary_normal_derivatives_of_a_linear_function(dim, degree):
    # v = a . x + b has grad v . n = a . n_F at every boundary rule point
    space = FeSpace(shuffled_mesh(dim, 2), degree)
    mesh = space.mesh
    a = np.array([0.7, -1.3, 0.4])[:dim]
    v = interpolate(space, lambda p: p @ a + 0.25)
    _, gradn, _ = _boundary_tables(space)
    got = np.einsum("fqb,fb->fq", gradn, v.coeffs[space.cell_dofs[mesh.bface_cells]])
    assert np.max(np.abs(got - (mesh.bface_normals @ a)[:, None])) <= 1e-13


def test_boundary_flux_divergence_theorem():
    # sum_i v_i int psi grad w_i . n with psi = 1 equals int lap v
    for (dim, n), expected in (((2, 3), 4.0), ((3, 2), 6.0)):
        space = FeSpace(build_structured_mesh(dim, n), 2)
        v = interpolate(space, lambda p: (p**2).sum(axis=1))
        flux = _boundary_flux_vector(space, lambda p: np.ones(len(p)))
        assert flux.sum() == pytest.approx(0.0, abs=1e-12)
        assert v.coeffs @ flux == pytest.approx(expected, abs=1e-11)


# ------------------------------------------------- residual and jacobian


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_residual_zero_for_quadratic_solution(dim, n):
    # u = |x|^2 / 2 solves the regularized problem with f = 1, psi = lap u:
    # the bilaplacian vanishes, det(D^2 u) = 1, and the remaining linear
    # terms cancel through the elementwise divergence theorem; the only
    # leftovers are matvec roundoff scaled by the penalty weight
    space = FeSpace(build_structured_mesh(dim, n), 2)
    u = interpolate(space, lambda p: 0.5 * (p**2).sum(axis=1))
    data = BoundaryData(
        g=lambda p: 0.5 * (p**2).sum(axis=1),
        psi=lambda p: np.full(len(p), float(dim)),
    )
    for mode, eps in (("full", 0.05), ("full", 0.5), ("plain", 0.05)):
        params = PenaltyParams(1.0, eps, mode)
        r = assemble_nonlinear_residual(u, lambda p: np.ones(len(p)), data, params)
        assert np.max(np.abs(r)) < 1e-12 * (1.0 + params.jump_weight)


def test_residual_dirichlet_precheck():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    u = interpolate(space, lambda p: p[:, 0])
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    with pytest.raises(ValueError):
        assemble_nonlinear_residual(
            u, lambda p: np.ones(len(p)), data, PenaltyParams(1.0, 0.1, "full")
        )


def test_zero_data_zero_residual():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    u = FeFunction(space)
    data = BoundaryData(g=lambda p: np.zeros(len(p)), psi=lambda p: np.zeros(len(p)))
    r = assemble_nonlinear_residual(
        u, lambda p: np.zeros(len(p)), data, PenaltyParams(1.0, 0.1, "full")
    )
    assert np.max(np.abs(r)) == 0.0


def _perturbed_state(dim, n, seed, degree=2):
    space = FeSpace(build_structured_mesh(dim, n), degree)
    u0 = lambda p: np.exp(0.5 * (p**2).sum(axis=1))
    u = interpolate(space, u0)
    rng = np.random.default_rng(seed)
    u.coeffs[space.interior_dofs] += 0.1 * rng.standard_normal(len(space.interior_dofs))
    delta = np.zeros(space.ndofs)
    delta[space.interior_dofs] = rng.standard_normal(len(space.interior_dofs))
    data = BoundaryData(g=u0)
    return space, u, delta, data


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_jacobian_matches_finite_differences(dim, n):
    space, u, delta, data = _perturbed_state(dim, n, seed=3)
    params = PenaltyParams(1.0, 0.2, "plain")
    f = lambda p: np.ones(len(p))
    r0, J = assemble_residual_and_jacobian(u, f, data, params)
    jd = J @ delta
    # boundary rows of the residual are pinned to zero while the jacobian
    # keeps its full rows, so finite differences see interior rows only
    ii = space.interior_dofs
    scale = np.max(np.abs(jd[ii]))
    errs = []
    for t in (1e-4, 1e-5, 1e-6):
        up = u.copy()
        up.coeffs = u.coeffs + t * delta
        r1 = assemble_nonlinear_residual(up, f, data, params)
        errs.append(np.max(np.abs((r1[ii] - r0[ii]) / t - jd[ii])) / scale)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5
    # the line-search residual is the fused one, bit for bit: Newton's
    # descent test compares the two
    assert np.array_equal(r0, assemble_nonlinear_residual(u, f, data, params))
    # separate-call jacobian agrees with the fused one
    J2 = assemble_jacobian(u, params)
    assert np.max(np.abs((J - J2).toarray())) < 1e-12 * np.max(np.abs(J.toarray()))


def test_line_search_residual_builds_no_matrix(monkeypatch):
    space, u, _, data = _perturbed_state(2, 4, seed=3)
    params = PenaltyParams(1.0, 0.2, "plain")
    f = lambda p: np.ones(len(p))
    # warm the cached ingredient matrices, then forbid any further scatter
    r0, _ = assemble_residual_and_jacobian(u, f, data, params)

    def no_scatter(*args):
        raise AssertionError("the residual assembled a matrix")

    monkeypatch.setattr("maviscid.assembly._scatter_data", no_scatter)
    assert np.array_equal(r0, assemble_nonlinear_residual(u, f, data, params))


def test_residual_follows_changed_data():
    # A_h(0) and the data vector are cached per (f, g_data, params): after a
    # call with the base data, changing any one of them rebuilds them
    space, u, _, data = _perturbed_state(2, 4, seed=3)
    params = PenaltyParams(1.0, 0.2, "plain")
    f = lambda p: np.ones(len(p))
    for f2, data2, params2 in (
        (lambda p: 2.0 + p[:, 0], data, params),
        (f, BoundaryData(g=data.g, psi=lambda p: 1.0 + p[:, 1]), params),
        (f, data, PenaltyParams(3.0, 0.1, "full")),
    ):
        assemble_residual_and_jacobian(u, f, data, params)
        r, J = assemble_residual_and_jacobian(u, f2, data2, params2)
        fresh = FeFunction(FeSpace(build_structured_mesh(2, 4), 2), u.coeffs.copy())
        r_ref, J_ref = assemble_residual_and_jacobian(fresh, f2, data2, params2)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(r, assemble_nonlinear_residual(u, f2, data2, params2))
        assert (J != J_ref).nnz == 0


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_pattern_assembly_matches_coo_reference(dim, degree):
    # the pattern scatter and the reference-space Newton kernel against COO
    # assembly of physical-Hessian blocks: the same sums in another order
    space, u, _, data = _perturbed_state(dim, 4 if dim == 2 else 2, seed=3, degree=degree)
    f = lambda p: 1.0 + p[:, 0]
    params = PenaltyParams(1.5, 0.2, "full")
    ref = coo_reference(u, f, data, params)
    r, J = assemble_residual_and_jacobian(u, f, data, params)
    P, C = _face_penalty_consistency(space)
    got = dict(r=r, J=J, A0=_operator(space, params), B=_bilap(space), P=P, C=C)
    for name, a in got.items():
        want = ref[name]
        a = a.toarray() if sp.issparse(a) else a
        if a.ndim == 1 and want.ndim == 2:
            a = _on_pattern(space, a).toarray()
        want = want.toarray() if sp.issparse(want) else want
        assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want)), name
    ii = space.interior_dofs
    assert np.array_equal(_interior_block(space, J).toarray(), J.toarray()[np.ix_(ii, ii)])


class _Handed(Exception):
    pass


@pytest.mark.parametrize("case_id,degree,n,nnz", [
    ("VI", 2, 6, 59595), ("III", 2, 32, 94505), ("II", 3, 32, 355009),
])
def test_interior_jacobian_stores_no_zeros(case_id, degree, n, nnz, monkeypatch):
    # the interior block of the pattern is exactly the Jacobian's nonzeros:
    # the counts are those of Jacobians built through COO with zeros dropped
    spec = builtin_case(case_id)
    space = FeSpace(build_structured_mesh(spec.dim, n), degree)
    f, data = spec.data(0.5)
    handed = []

    def spy(A, b, **kwargs):
        handed.append(A)
        raise _Handed

    monkeypatch.setattr("maviscid.solve.sparse_solve", spy)
    with pytest.raises(_Handed):
        newton_solve(f, data, PenaltyParams(spec.sigma, 0.5, spec.weight_mode),
                     initial=convex_seed(space, data.g))
    (J,) = handed
    assert J.nnz == nnz
    assert not np.any(J.data == 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_phys_points_match_the_einsum_form(dim):
    space = FeSpace(shuffled_mesh(dim, 3), 2)
    cells = np.arange(space.mesh.num_cells)
    pts = space.cell_rule.points
    want = space.cell_origin[cells][:, None, :] + np.einsum("cij,qj->cqi", space.jac[cells], pts)
    got = _phys_points(space, cells, pts)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sized_rules_match_the_high_rule(dim, degree, monkeypatch):
    # the polynomial forms run on rules of exactly their integrand degree;
    # forcing every rule to the space's high cell and face rules must give
    # the same arrays up to rounding.  The Hessian Gram matrix is the COO
    # reference's, and the norm pieces are those of a random block
    n = 4 if dim == 2 else 2

    def forms():
        space = FeSpace(build_structured_mesh(dim, n), degree)
        u = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
        rng = np.random.default_rng(5)
        u.coeffs[space.interior_dofs] += 0.1 * rng.standard_normal(len(space.interior_dofs))
        P, C = _face_penalty_consistency(space)
        _, low_cof = _nonlinear_cell_terms(space, u.coeffs)
        det_vec = _det_vector(space, u.coeffs)
        pieces = np.array(_norm_pieces(space, rng.uniform(-1.0, 1.0, (space.ndofs, 3))))
        return space, [_bilap(space), P, C, coo_gram(u), det_vec, low_cof, pieces]

    space, sized = forms()
    monkeypatch.setattr("maviscid.assembly.cell_quadrature", lambda d, e: space.cell_rule)
    monkeypatch.setattr("maviscid.assembly.face_quadrature", lambda d, e: space.face_rule)
    _, high = forms()
    for a, b in zip(sized, high):
        a, b = (x.toarray() if sp.issparse(x) else x for x in (a, b))
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def newton_terms_on_high_rule(space, coeffs):
    """The (det(D^2 u_h), v_i) vector and the pattern data of
    (cof(D^2 u_h) : D^2 v_j, v_i), cell by cell on the space's high cell rule
    from physical Hessians pushed forward by ``_hessian_map``."""
    rule = space.cell_rule
    val, _, hess_ref = space.ref.tabulate(rule.points)
    nq, nb, d = hess_ref.shape[:3]
    slots = _pattern(space).cell_slots.reshape(-1, nb, nb)
    det_vec = np.zeros(space.ndofs)
    low_cof = np.zeros(len(_pattern(space).indices))
    for c in range(space.mesh.num_cells):
        K = _hessian_map(space, np.array([c]))[0]
        hp = (hess_ref.reshape(nq, nb, d * d) @ K.T).reshape(nq, nb, d, d)
        dofs = space.cell_dofs[c]
        det, cof = det_and_cofactor(np.einsum("qbij,b->qij", hp, coeffs[dofs]))
        wq = rule.weights * space.jac_det[c]
        det_vec[dofs] += val.T @ (wq * det)
        low_cof[slots[c]] += np.einsum("q,qa,qij,qbij->ab", wq, val, cof, hp)
    return det_vec, low_cof


@pytest.mark.parametrize("dim,degree", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_newton_terms_match_the_high_rule_on_shuffled_meshes(dim, degree):
    # the lattice form of the Newton pass against physical Hessians on the
    # space's high rule; the bound allows the cancellation of det and cof
    space = FeSpace(shuffled_mesh(dim, 4 if dim == 2 else 2), degree)
    u = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
    rng = np.random.default_rng(7)
    u.coeffs[space.interior_dofs] += 0.1 * rng.standard_normal(len(space.interior_dofs))
    want = newton_terms_on_high_rule(space, u.coeffs)
    got = (_det_vector(space, u.coeffs), _nonlinear_cell_terms(space, u.coeffs)[1])
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b))


def test_newton_and_face_rules_are_sized(monkeypatch):
    # the Newton integrands are v_i times polynomials of degree d (k - 2),
    # formed at that degree's lattice nodes: 1 per cell for k=2, 6 for 2D
    # k=3 and 20 for 3D k=3, with no Hessian pushed forward or pulled back
    def no_map(*args):
        raise AssertionError("the Newton pass used the Hessian map")

    params = PenaltyParams(1.0, 0.2, "plain")
    f = lambda p: np.ones(len(p))
    for (dim, degree), nodes in {(2, 2): 1, (3, 2): 1, (2, 3): 6, (3, 3): 20}.items():
        space, u, _, data = _perturbed_state(dim, 2, seed=3, degree=degree)
        with monkeypatch.context() as m:
            m.setattr("maviscid.assembly._hessian_map", no_map)
            assemble_residual_and_jacobian(u, f, data, params)
            assemble_nonlinear_residual(u, f, data, params)
        hess, moments, cof_table = _newton_tables(space)
        assert moments.shape[1] == nodes
        assert hess.shape[1] == cof_table.shape[0] == nodes * dim * dim
    # 3D k=2: the interior face terms have degree 2, so 4 points per face
    # instead of 9
    space, _, _, _ = _perturbed_state(3, 2, seed=3)
    counts = []

    def spy(*args):
        wq = _face_weights(*args)
        counts.append(wq.shape[1])
        return wq

    monkeypatch.setattr("maviscid.assembly._face_weights", spy)
    _face_penalty_consistency(space)
    assert counts and set(counts) == {4}


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_face_terms_tabulate_once_per_placement(dim, n, monkeypatch):
    # a face rule pulls back to one point set per placement of a face in its
    # cell, of which a simplex has (d + 1)!: the basis is tabulated there,
    # not at every face side's points
    space = FeSpace(shuffled_mesh(dim, n), 2)
    counts = []
    tabulate = ReferenceElement.tabulate

    def spy(self, pts):
        counts.append(len(pts))
        return tabulate(self, pts)

    monkeypatch.setattr(ReferenceElement, "tabulate", spy)
    for build, rule in (
        (_face_penalty_consistency, face_quadrature(dim, 2)),
        (_boundary_tables, space.face_rule),
    ):
        counts.clear()
        build(space)
        assert 0 < sum(counts) <= math.factorial(dim + 1) * len(rule.weights)


@pytest.mark.parametrize("dim", [2, 3])
def test_face_weights_are_per_point_products_summing_to_face_measures(dim):
    # each weight is w_q ((d - 1)! |F|), the reference face rule scaled to
    # the face, bit for bit as a per-point product of Python floats; over
    # the interior and the boundary faces they sum to sum_F |F|
    space = FeSpace(shuffled_mesh(dim, 3), 2)
    mesh = space.mesh
    rule = _interior_face_tables(space)[0]
    wq = _face_weights(space, rule, mesh.iface_measures)
    want = [
        [float(w) * (math.factorial(dim - 1) * float(m)) for w in rule.weights]
        for m in mesh.iface_measures
    ]
    assert np.array_equal(wq, np.array(want))
    bw = _boundary_tables(space)[2]
    total = mesh.iface_measures.sum() + mesh.bface_measures.sum()
    assert abs(wq.sum() + bw.sum() - total) <= 1e-14 * total
    assert np.allclose(wq.sum(axis=1), mesh.iface_measures, rtol=1e-14, atol=0.0)


def test_jacobian_is_negative_operator_at_identity_hessian():
    # at u = |x|^2/2 the cofactor field is the identity, so the jacobian is
    # exactly minus the stabilized operator with Phi = I
    for dim, n in ((2, 3), (3, 2)):
        space = FeSpace(build_structured_mesh(dim, n), 2)
        u = interpolate(space, lambda p: 0.5 * (p**2).sum(axis=1))
        params = PenaltyParams(2.0, 0.1, "reduced")
        J = assemble_jacobian(u, params).toarray()
        identity = CoefficientField.constant(np.eye(dim))
        A = assemble_Ah_sigma(space, identity, params).toarray()
        assert np.max(np.abs(J + A)) < 1e-11 * np.max(np.abs(A))


def test_cofactor_field_of_discrete_function():
    # A_h(cof(D^2 u)) is minus the jacobian at u; here D^2 u = [[1, 1], [1, 0]]
    # everywhere, so cof = [[0, -1], [-1, 1]]
    space = FeSpace(build_structured_mesh(2, 3), 2)
    u = interpolate(space, lambda p: 0.5 * p[:, 0] ** 2 + p[:, 0] * p[:, 1])
    params = PenaltyParams(2.0, 0.1, "reduced")
    J = assemble_jacobian(u, params).toarray()
    field = CoefficientField.constant([[0.0, -1.0], [-1.0, 1.0]])
    A = assemble_Ah_sigma(space, field, params).toarray()
    assert np.max(np.abs(J + A)) < 1e-11 * np.max(np.abs(A))


# ------------------------------------------------------- labels and layout


def test_plus_minus_label_invariance():
    mesh = build_structured_mesh(2, 3)
    space = FeSpace(mesh, 2)
    params = PenaltyParams(1.3, 0.3, "full")
    field = CoefficientField(2, field_2d)
    A1 = assemble_Ah_sigma(space, field, params).toarray()

    flipped = copy.copy(mesh)
    flipped.iface_cells = mesh.iface_cells[:, ::-1].copy()
    flipped.iface_locals = mesh.iface_locals[:, ::-1].copy()
    flipped.iface_normals = -mesh.iface_normals
    space2 = FeSpace(flipped, 2)
    A2 = assemble_Ah_sigma(space2, field, params).toarray()
    assert np.max(np.abs(A1 - A2)) < 1e-13 * np.max(np.abs(A1))


def test_apply_dirichlet():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    vals = apply_dirichlet(space, lambda p: np.zeros(len(p)))
    assert isinstance(vals, np.ndarray) and vals.shape == (16,) and np.all(vals == 0.0)
    vals = apply_dirichlet(space, lambda p: p[:, 0])
    assert np.allclose(vals, space.dof_coords[space.boundary_dofs, 0])
    interior = space.interior_dofs
    assert len(interior) == space.ndofs - 16
    assert len(np.intersect1d(interior, space.boundary_dofs)) == 0

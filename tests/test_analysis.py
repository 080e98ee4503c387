"""Analysis tests: norms vs refined brute-force quadrature, rate tables,
Monte-Carlo inequality probes, and scheme consistency in the dual norm."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from maviscid.analysis import (
    ErrorNorms,
    RateRow,
    ScalarField,
    error_norms,
    format_rate_table,
    mesh_norm,
    rate_table,
    verify_discrete_sobolev,
    verify_miranda_talenti,
    _coercivity_values,
    _linf_estimate,
    _norm_pieces,
    _samples,
)
from maviscid.assembly import (
    BoundaryData,
    PenaltyParams,
    assemble_jacobian,
    assemble_nonlinear_residual,
    _face_penalty_consistency,
    _hess_gram,
    _on_pattern,
)
from maviscid.elements import (
    FeSpace,
    cell_quadrature,
    eval_fe,
    interpolate,
)
from maviscid.mesh import SimplicialMesh, build_structured_mesh


def zero_field(dim):
    return ScalarField(
        value=lambda p: np.zeros(len(p)),
        gradient=lambda p: np.zeros((len(p), dim)),
        hessian=lambda p: np.zeros((len(p), dim, dim)),
    )


def exp_field(dim):
    def value(p):
        return np.exp(0.5 * (p**2).sum(axis=1))

    def gradient(p):
        return p * value(p)[:, None]

    def hessian(p):
        H = np.einsum("ni,nj->nij", p, p) + np.eye(dim)
        return H * value(p)[:, None, None]

    return ScalarField(value, gradient, hessian)


def brute_error_norms(u_field, u_h):
    """Independent per-point quadrature of the error at top exactness."""
    space = u_h.space
    d = space.dim
    rule = cell_quadrature(d, 10 if d == 2 else 8)
    l2 = h1 = h2 = 0.0
    for c in range(space.mesh.num_cells):
        for q in range(len(rule.weights)):
            xref = rule.points[q]
            x = space.cell_origin[c] + space.jac[c] @ xref
            wq = rule.weights[q] * space.jac_det[c]
            v, g, H = eval_fe(u_h, c, xref)
            ev = v - u_field.value(x[None, :])[0]
            eg = g - u_field.gradient(x[None, :])[0]
            eh = H - u_field.hessian(x[None, :])[0]
            l2 += wq * ev**2
            h1 += wq * (eg @ eg)
            h2 += wq * np.sum(eh * eh)
    return np.sqrt(l2), np.sqrt(l2 + h1), np.sqrt(l2 + h1 + h2)


def brute_mesh_norm(v_h):
    """Per-face/per-cell loops for the mesh-dependent norm."""
    space = v_h.space
    mesh, d = space.mesh, space.dim
    rule = space.cell_rule
    hess2 = 0.0
    for c in range(mesh.num_cells):
        for q in range(len(rule.weights)):
            wq = rule.weights[q] * space.jac_det[c]
            _, _, H = eval_fe(v_h, c, rule.points[q])
            hess2 += wq * np.sum(H * H)
    frule = space.face_rule
    ref_meas = 1.0 if d == 2 else 0.5
    jump2 = 0.0
    for f in range(len(mesh.iface_cells)):
        fc = mesh.vertices[mesh.iface_vertex_ids[f]]
        for q in range(len(frule.weights)):
            x = fc[0] + (fc[1:] - fc[0]).T @ frule.points[q]
            wq = frule.weights[q] * mesh.iface_measures[f] / ref_meas
            sides = []
            for cell in mesh.iface_cells[f]:  # (plus, minus)
                xref = space.reference_coords(np.array([cell]), x[None, :])[0]
                _, g, _ = eval_fe(v_h, cell, xref)
                sides.append(g @ mesh.iface_normals[f])
            jump2 += wq / mesh.iface_diameters[f] * (sides[0] - sides[1]) ** 2
    return np.sqrt(hess2 + jump2)


# -------------------------------------------------------------- error_norms


def test_error_norms_zero():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    errs = error_norms(zero_field(2), space.function())
    assert errs.l2 == errs.h1 == errs.h2_broken == 0.0


def test_error_norms_exact_interpolation():
    space = FeSpace(build_structured_mesh(2, 3), 2)
    u = ScalarField(
        value=lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1],
        gradient=lambda p: np.stack([2 * p[:, 0] + p[:, 1], p[:, 0]], axis=1),
        hessian=lambda p: np.tile([[2.0, 1.0], [1.0, 0.0]], (len(p), 1, 1)),
    )
    errs = error_norms(u, interpolate(space, u.value))
    assert errs.l2 < 1e-10 and errs.h1 < 1e-10 and errs.h2_broken < 1e-10


def test_error_norms_match_brute_force():
    space = FeSpace(build_structured_mesh(2, 16), 2)
    u = exp_field(2)
    u_h = interpolate(space, u.value)
    errs = error_norms(u, u_h)
    b_l2, b_h1, b_h2 = brute_error_norms(u, u_h)
    assert abs(errs.h2_broken - b_h2) < 0.05 * b_h2
    assert abs(errs.l2 - b_l2) < 0.05 * b_l2
    assert abs(errs.h1 - b_h1) < 0.05 * b_h1


def test_error_norms_requires_derivatives():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    with pytest.raises(ValueError):
        error_norms(ScalarField(lambda p: np.zeros(len(p))), space.function())


def test_error_norms_validation():
    with pytest.raises(ValueError):
        ErrorNorms(l2=-1.0, h1=0.0, h2_broken=0.0)


# ---------------------------------------------------------------- mesh_norm


def test_mesh_norm_zero():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    assert mesh_norm(space.function()) == 0.0
    # one cell: no interior face, so the jump term is an empty matrix
    lone = FeSpace(SimplicialMesh(2, [[0, 0], [1, 0], [0, 1]], [(0, 1, 2)]), 2)
    assert mesh_norm(lone.function()) == 0.0


def test_mesh_norm_rejects_boundary_values():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    v = interpolate(space, lambda p: 1.0 + 0.0 * p[:, 0])
    with pytest.raises(ValueError):
        mesh_norm(v)


def test_mesh_norm_single_bump_matches_brute_force():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    v = space.function()
    v.coeffs[space.interior_dofs[0]] = 1.0
    got = mesh_norm(v)
    ref = brute_mesh_norm(v)
    assert got > 0.0
    assert abs(got - ref) < 1e-12 * ref


def test_mesh_norm_bounded_under_refinement():
    # interpolants of a fixed smooth function: the mesh norm converges to the
    # H2 seminorm of the limit, so it stays within a factor 2 across levels
    vals = []
    for n in (8, 16, 32, 64):
        space = FeSpace(build_structured_mesh(2, n), 2)
        v = interpolate(
            space, lambda p: p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])
        )
        vals.append(mesh_norm(v))
    assert max(vals) < 2.0 * min(vals)


# ------------------------------------------------------- inequality probes


def test_miranda_talenti_bounded_under_refinement():
    worst = []
    for n in (4, 8, 16):
        space = FeSpace(build_structured_mesh(2, n), 2)
        worst.append(verify_miranda_talenti(space, samples=200, seed=42))
    assert all(w >= 0.0 for w in worst)
    assert worst[-1] <= 1.5 * worst[0]


def test_miranda_talenti_validates_samples():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    with pytest.raises(ValueError):
        verify_miranda_talenti(space, samples=0)


def test_miranda_talenti_equality_limit():
    # interpolants of sin(pi x) sin(pi y): the continuous relation is an
    # equality on the square, so the norm gap shrinks under refinement
    gaps = []
    for n in (8, 16, 32):
        space = FeSpace(build_structured_mesh(2, n), 2)
        v = interpolate(
            space, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        )
        hess, lap, jump = _norm_pieces(space, v.coeffs)
        gaps.append(abs(hess - lap))
        assert hess <= lap + 2.0 * jump + 1e-12
    assert gaps[-1] < gaps[0] / 2.0


def test_discrete_sobolev_bounded():
    worst = []
    for n in (4, 8, 16):
        space = FeSpace(build_structured_mesh(2, n), 2)
        worst.append(verify_discrete_sobolev(space, samples=100, seed=7))
    assert worst[-1] <= 1.5 * worst[0]
    worst3 = []
    for n in (2, 4):
        space = FeSpace(build_structured_mesh(3, n), 2)
        worst3.append(verify_discrete_sobolev(space, samples=40, seed=7))
    assert worst3[-1] <= 1.5 * worst3[0]


@pytest.mark.parametrize("dim, n", [(2, 4), (3, 2)])
@pytest.mark.parametrize("probe", [verify_miranda_talenti, verify_discrete_sobolev])
def test_probe_is_the_max_over_per_seed_samples(probe, dim, n):
    # sample i comes from default_rng(seed + i), whatever the sample count
    space = FeSpace(build_structured_mesh(dim, n), 2)
    batched = probe(space, 8, seed=1)
    single = max(probe(space, 1, seed=1 + i) for i in range(8))
    assert batched == pytest.approx(single, rel=1e-12, abs=0.0)


def test_norm_pieces_and_linf_on_a_block_match_columns():
    space = FeSpace(build_structured_mesh(3, 2), 2)
    V = _samples(space, 5, seed=11)
    V[:, 2] = 0.0  # an all-zero column scores zeros, not NaN
    pieces = _norm_pieces(space, V)
    linf = _linf_estimate(space, V)
    for i in range(V.shape[1]):
        col = _norm_pieces(space, V[:, i])
        for block_piece, col_piece in zip(pieces, col):
            assert block_piece[i] == pytest.approx(col_piece, rel=1e-12, abs=1e-12)
        assert linf[i] == pytest.approx(_linf_estimate(space, V[:, i]), rel=1e-12)
    assert linf[2] == 0.0 and all(p[2] == 0.0 for p in pieces)


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_coercivity_values_match_per_sample_loop(sigma):
    # the reference is the per-sample loop of acceptance check 7
    space = FeSpace(build_structured_mesh(2, 8), 2)
    w = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
    params = PenaltyParams(sigma, 0.1, "full")
    values = _coercivity_values(w, params, _samples(space, 20, seed=0))
    A = -assemble_jacobian(w, params)
    ii = space.interior_dofs
    for s in range(20):
        rng = np.random.default_rng(s)
        v = np.zeros(space.ndofs)
        v[ii] = rng.uniform(-1.0, 1.0, len(ii))
        assert values[s] == pytest.approx(float(v @ (A @ v)), rel=1e-12)


def test_h1_dominated_by_mesh_norm():
    rng = np.random.default_rng(13)
    worst = []
    for n in (4, 8, 16):
        space = FeSpace(build_structured_mesh(2, n), 2)
        level = 0.0
        for _ in range(60):
            v = space.function()
            v.coeffs[space.interior_dofs] = rng.uniform(
                -1.0, 1.0, len(space.interior_dofs)
            )
            h1 = error_norms(zero_field(2), v).h1
            level = max(level, h1 / mesh_norm(v))
        worst.append(level)
    assert worst[-1] <= 1.5 * worst[0]


# ------------------------------------------------------------- rate tables


def _errs(l2, h1, h2):
    return ErrorNorms(l2=l2, h1=h1, h2_broken=h2)


def test_rate_table_exact_halving():
    rows = rate_table([(0.1, _errs(1e-2, 1e-1, 1.0)), (0.05, _errs(2.5e-3, 5e-2, 0.5))])
    assert rows[0].l2_order is None
    assert rows[1].l2_order == pytest.approx(2.0, abs=1e-12)
    assert rows[1].h1_order == pytest.approx(1.0, abs=1e-12)
    assert rows[1].h2_order == pytest.approx(1.0, abs=1e-12)


def test_rate_table_published_values():
    # manufactured quartic study, degree 2: L2 pair at h = 1/8, 1/16
    rows = rate_table(
        [(1 / 8, _errs(3.98e-4, 1, 1)), (1 / 16, _errs(8.04e-5, 1, 1))]
    )
    assert round(rows[1].l2_order, 2) == 2.31
    # regularization study: L2 pair at eps = 5e-3, 2.5e-3
    rows = rate_table(
        [(5e-3, _errs(7.76e-3, 1, 1)), (2.5e-3, _errs(3.98e-3, 1, 1))]
    )
    assert round(rows[1].l2_order, 2) == 0.96


def test_rate_table_scale_invariance():
    base = [(0.2, _errs(3e-3, 4e-2, 0.3)), (0.1, _errs(8e-4, 1.5e-2, 0.17))]
    scaled = [(p, _errs(7.3 * e.l2, 7.3 * e.h1, 7.3 * e.h2_broken)) for p, e in base]
    r1, r2 = rate_table(base)[1], rate_table(scaled)[1]
    assert abs(r1.l2_order - r2.l2_order) < 1e-12
    assert abs(r1.h1_order - r2.h1_order) < 1e-12
    assert abs(r1.h2_order - r2.h2_order) < 1e-12


def test_rate_table_zero_errors_omitted():
    rows = rate_table([(0.2, _errs(1e-3, 1e-2, 0.1)), (0.1, _errs(0.0, 1e-3, 0.05))])
    assert rows[1].l2_order is None
    assert rows[1].h1_order is not None


def test_rate_table_validation():
    with pytest.raises(ValueError):
        rate_table([(0.1, _errs(1, 1, 1))])
    with pytest.raises(ValueError):
        rate_table([(0.1, _errs(1, 1, 1)), (0.1, _errs(1, 1, 1))])


def test_format_rate_table():
    rows = rate_table(
        [(1 / 8, _errs(3.98e-4, 1e-2, 0.1)), (1 / 16, _errs(8.04e-5, 5e-3, 0.06))]
    )
    text = format_rate_table(rows)
    assert "2.31" in text
    assert text.splitlines()[0].startswith("| h |")


# ------------------------------------------------------ norm relationships


def test_triangle_inequality_for_error_norms():
    space = FeSpace(build_structured_mesh(2, 8), 2)
    u = exp_field(2)
    u_i = interpolate(space, u.value)
    rng = np.random.default_rng(23)
    u_h = u_i.copy()
    u_h.coeffs += 0.01 * rng.standard_normal(space.ndofs)
    diff = space.function(u_i.coeffs - u_h.coeffs)
    a = error_norms(u, u_h)
    b = error_norms(u, u_i)
    c = error_norms(zero_field(2), diff)
    assert a.l2 <= b.l2 + c.l2 + 1e-12
    assert a.h1 <= b.h1 + c.h1 + 1e-12
    assert a.h2_broken <= b.h2_broken + c.h2_broken + 1e-12


def test_consistency_residual_dual_norm_decays():
    # residual of the exact-solution interpolant, measured in the dual of the
    # mesh norm on interior dofs, decays at first order for degree 2
    eps, sigma = 0.1, 20.0
    u = lambda p: 0.5 * (p[:, 0] ** 4 + p[:, 1] ** 4)
    f = lambda p: 36.0 * p[:, 0] ** 2 * p[:, 1] ** 2 - 24.0 * eps
    psi = lambda p: 6.0 * p[:, 0] ** 2 + 6.0 * p[:, 1] ** 2
    data = BoundaryData(g=u, psi=psi)
    params = PenaltyParams(sigma, eps, "plain")
    vals = []
    for n in (4, 8, 16):
        space = FeSpace(build_structured_mesh(2, n), 2)
        u_i = interpolate(space, u)
        r = assemble_nonlinear_residual(u_i, f, data, params)
        G = _on_pattern(space, _hess_gram(space) + _face_penalty_consistency(space)[0])
        ii = space.interior_dofs
        Gii = G[np.ix_(ii, ii)].tocsc()
        x = spla.splu(Gii).solve(r[ii])
        vals.append(np.sqrt(max(r[ii] @ x, 0.0)))
    slope1 = np.log(vals[0] / vals[1]) / np.log(2)
    slope2 = np.log(vals[1] / vals[2]) / np.log(2)
    assert slope2 > 0.5
    assert slope1 > 0.5

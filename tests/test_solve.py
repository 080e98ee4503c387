"""Solver tests: direct sparse solves, Newton iteration, continuation."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maviscid import assembly
from maviscid.analysis import error_norms
from maviscid.assembly import (
    BoundaryData,
    CoefficientField,
    PenaltyParams,
    _interior_pattern,
    apply_dirichlet,
    assemble_Ah_sigma,
    assemble_residual_and_jacobian,
)
from maviscid.cases import builtin_case, case_with_overrides
from maviscid.cli import _solve_on_mesh
from maviscid.elements import FeSpace, interpolate
from maviscid.mesh import SimplicialMesh, build_structured_mesh
from maviscid.solve import (
    _DISSECTION_LEAF,
    _GMRES_ITERS,
    _RUNG_TOL,
    _dissection_order,
    _dissection_tree,
    NewtonConfig,
    NewtonError,
    SingularMatrixError,
    continuation_solve,
    convex_seed,
    default_ladder,
    newton_solve,
    sparse_solve,
)


def quartic_data(eps):
    """Manufactured quartic: u = (x^4 + y^4)/2 with matching f and psi."""
    u = lambda p: 0.5 * (p[:, 0] ** 4 + p[:, 1] ** 4)
    f = lambda p: 36.0 * p[:, 0] ** 2 * p[:, 1] ** 2 - 24.0 * eps
    psi = lambda p: 6.0 * p[:, 0] ** 2 + 6.0 * p[:, 1] ** 2
    return u, f, BoundaryData(g=u, psi=psi)


# ------------------------------------------------------------- sparse_solve


def _reversed(A):
    """The order that reverses the unknowns of the square matrix ``A``."""
    return np.arange(A.shape[0])[::-1]


# both orderings: minimum degree by default, and a given symmetric
# permutation P A P^T (the reversal)
ORDERINGS = pytest.mark.parametrize(
    "order", [lambda A: None, _reversed], ids=["default", "symmetric"]
)


@ORDERINGS
def test_sparse_solve_identity(order):
    A = np.eye(4)
    b = np.array([3.0, -1.0, 0.5, 2.0])
    # without a held factor: one single-precision factorization, whose
    # solve is a GMRES cycle
    x, factored, gmres_iters = sparse_solve(A, b, order=order(A))
    assert np.allclose(x, b, atol=1e-14)
    assert factored == 1 and 1 <= gmres_iters <= 2


@ORDERINGS
def test_sparse_solve_2x2_hand_elimination(order):
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    x, _, _ = sparse_solve(A, np.array([1.0, 1.0]), order=order(A))
    assert np.allclose(x, [0.4, 0.2], atol=1e-14)


@ORDERINGS
@pytest.mark.parametrize(
    "A",
    [
        [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 3.0, 1.0]],  # zero diagonal
        [[1e-14, 1.0], [1.0, 1.0]],  # tiny pivot
        # minimum degree orders the tiny diagonal first only in this mirror
        [[1.0, 1.0], [1.0, 1e-14]],
    ],
    ids=["zero_diagonal", "tiny_pivot", "tiny_pivot_mirrored"],
)
def test_sparse_solve_pivots_off_small_diagonals(A, order):
    # the symmetric mode's 0.1 threshold must still reject these diagonals
    A = np.array(A)
    x_true = np.arange(1.0, len(A) + 1.0)
    x, _, _ = sparse_solve(A, A @ x_true, order=order(A))
    assert np.allclose(x, x_true, rtol=0.0, atol=1e-13)


def test_sparse_solve_recovers_interpolant():
    # manufactured right-hand side from the assembled operator itself
    space = FeSpace(build_structured_mesh(2, 4), 2)
    params = PenaltyParams(1.0, 0.5, "full")
    A = assemble_Ah_sigma(space, CoefficientField.constant(np.eye(2)), params)
    v = interpolate(space, lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1] + p[:, 1] ** 2)
    ii, bb = space.interior_dofs, space.boundary_dofs
    rhs = (A @ v.coeffs)[ii] - A[np.ix_(ii, bb)] @ v.coeffs[bb]
    x, _, _ = sparse_solve(A[np.ix_(ii, ii)], rhs)
    assert np.max(np.abs(x - v.coeffs[ii])) < 1e-9


@ORDERINGS
def test_sparse_solve_singular_names_row(order):
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError) as err:
        sparse_solve(A, np.array([1.0, 1.0]), order=order(A))
    assert err.value.row == 1


def test_sparse_solve_shape_mismatch():
    with pytest.raises(ValueError):
        sparse_solve(np.eye(3), np.ones(2))


def test_sparse_solve_rejects_nonfinite_before_factorizing(monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("factorized a matrix with a NaN entry")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_factor)
    A = sp.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        sparse_solve(A, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("held", [False, True], ids=["no_factor", "held_factor"])
def test_sparse_solve_rejects_nonfinite_rhs_before_solving(splu_calls, bad, held):
    # a NaN or inf in b is bad input, not a singular matrix, and a held
    # factor is neither applied nor dropped
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    lu = _CountingLU(spla.splu(sp.csc_matrix(A)))
    splu_calls.clear()
    factor = [lu] if held else None
    with pytest.raises(ValueError, match="non-finite"):
        sparse_solve(A, np.array([bad, 1.0]), factor=factor)
    assert splu_calls == [] and lu.calls == 0
    if held:
        assert factor == [lu]


def test_sparse_solve_symmetric_mode_matches_default_ordering():
    # the interior Newton Jacobian of case II at its convex seed
    spec = builtin_case("II")
    eps = spec.eps_list[0]
    f, data = spec.data(eps)
    space = FeSpace(build_structured_mesh(2, 8), 3)
    params = PenaltyParams(spec.sigma, eps, spec.weight_mode)
    r, J = assemble_residual_and_jacobian(convex_seed(space, data.g), f, data, params)
    ii = space.interior_dofs
    J, b = J[np.ix_(ii, ii)], -r[ii]
    # the single-precision factor's GMRES answer against a double-precision
    # solve in SuperLU's default ordering; the answer meets the backward-error
    # check, not the roundoff of a direct solve
    x, factored, gmres_iters = sparse_solve(J, b)
    x_default = spla.splu(J.tocsc()).solve(b)
    assert factored == 1 and gmres_iters > 0
    assert _backward_error(J, x, b) < 1e-10
    assert np.abs(x - x_default).max() <= 1e-11 * np.abs(x_default).max()


class _Factored(Exception):
    """Stops a solve at its first factorization."""


@pytest.mark.parametrize("dim, minimum_degree", [(2, True), (3, False)])
def test_newton_factors_2d_jacobians_in_symmetric_mode(monkeypatch, dim,
                                                        minimum_degree):
    # both in single precision: 2D by minimum degree, 3D in the
    # nested-dissection order kept
    calls = []

    def spy(A, **kwargs):
        calls.append((kwargs, A.dtype))
        raise _Factored

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    space = FeSpace(build_structured_mesh(dim, 3), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    params = PenaltyParams(20.0, 0.1, "plain")
    with pytest.raises(_Factored):
        newton_solve(lambda p: np.ones(len(p)), data, params, NewtonConfig(),
                     convex_seed(space, data.g))
    expected = dict(permc_spec="MMD_AT_PLUS_A" if minimum_degree else "NATURAL",
                    diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    assert calls == [(expected, np.float32)]


def _interior_jacobian(n=6):
    """Interior Newton Jacobian and right-hand side of case II (2D k=2) at
    its convex seed; at n=6 its 121 unknowns are more than one GMRES cycle
    spans."""
    spec = builtin_case("II")
    eps = spec.eps_list[0]
    f, data = spec.data(eps)
    space = FeSpace(build_structured_mesh(2, n), 2)
    params = PenaltyParams(spec.sigma, eps, spec.weight_mode)
    r, J = assemble_residual_and_jacobian(convex_seed(space, data.g), f, data, params)
    ii = space.interior_dofs
    return J[np.ix_(ii, ii)].tocsr(), -r[ii]


@pytest.fixture
def splu_calls(monkeypatch):
    """Keyword arguments of every SuperLU factorization, which still runs."""
    calls, splu = [], spla.splu

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    return calls


def _case_solve(case, dim, n, mesh=None):
    """Continuation solve of a built-in case, k=2, on its default ladder, on
    the n Kuhn mesh or on ``mesh``."""
    spec = builtin_case(case)
    space = FeSpace(mesh or build_structured_mesh(dim, n), 2)
    return continuation_solve(
        space, None, None, spec.sigma, spec.eps_list[0],
        NewtonConfig(abs_tol=1e-8), weight_mode=spec.weight_mode,
        data_factory=spec.data,
    )


def _backward_error(A, x, b):
    return np.abs(A @ x - b).max() / (
        np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())


class _CountingLU:
    """A SuperLU factorization behind an object that counts its
    applications and takes weak references."""

    def __init__(self, lu):
        self.lu, self.shape, self.calls = lu, lu.shape, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


def test_sparse_solve_with_its_own_factor_does_not_refactor(monkeypatch):
    A, b = _interior_jacobian()
    held = [_CountingLU(spla.splu(A.tocsc()))]
    before = held[0]

    def no_factor(*args, **kwargs):
        raise AssertionError("factored although the held factor fits")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_factor)
    x, factored, gmres_iters = sparse_solve(A, b, factor=held)
    assert held == [before]
    # the exact factor: one iteration, one application
    assert not factored and gmres_iters == before.calls == 1
    assert _backward_error(A, x, b) < 1e-12


def test_gmres_cycle_applies_the_factor_once_per_iteration(splu_calls):
    A, b = _interior_jacobian()
    # the factor of A + d e_i e_j^T: A M^-1 is a rank-one change of the
    # identity, so GMRES is exact after 2 iterations
    i, j = 3, 40
    near = A.tolil()
    near[i, j] += 0.5 * abs(A).max()
    held = [_CountingLU(spla.splu(near.tocsc()))]
    lu = held[0]
    splu_calls.clear()
    x, factored, gmres_iters = sparse_solve(A, b, factor=held)
    assert not factored and splu_calls == [] and held == [lu]
    assert 1 <= gmres_iters <= 2 and lu.calls == gmres_iters
    assert _backward_error(A, x, b) < 1e-10
    # a zero right-hand side needs no iteration and no factor application
    x, factored, gmres_iters = sparse_solve(A, np.zeros_like(b), factor=held)
    assert not factored and gmres_iters == 0 and lu.calls == 2
    assert not x.any()


@pytest.mark.parametrize("held_matrix", ["unrelated", "other_shape"])
def test_sparse_solve_replaces_an_unfit_held_factor(splu_calls, held_matrix):
    A, b = _interior_jacobian()
    n = A.shape[0]
    rng = np.random.default_rng(0)
    size = n if held_matrix == "unrelated" else n - 1
    old = _CountingLU(spla.splu(sp.diags(rng.uniform(1.0, 2.0, size)).tocsc()))
    held = [old]
    splu_calls.clear()
    x, factored, gmres_iters = sparse_solve(A, b, factor=held)
    assert _backward_error(A, x, b) < 1e-10
    assert len(splu_calls) == 1 and len(held) == 1 and held[0] is not old
    # a held factor of the wrong shape is not tried, and an unrelated one's
    # cycle runs to the iteration cap without converging
    assert factored == 1
    if held_matrix == "unrelated":
        assert old.calls == _GMRES_ITERS
    else:
        assert old.calls == 0
    # the rest is the new factor's own cycle, and the held factor is this
    # matrix's: solving again repeats that cycle without factoring
    fresh = gmres_iters - old.calls
    assert 0 < fresh < _GMRES_ITERS
    again, refactored, again_iters = sparse_solve(A, b, factor=held)
    assert not refactored and again_iters == fresh and np.array_equal(again, x)


def test_gmres_does_not_stop_a_cycle_that_converges_late():
    # 12 spread eigenvalues and 88 at 1: the cycle gains little until it
    # has spanned all 13 and then converges at once, at iteration 13.  At
    # iteration 10 its average rate so far projects a miss, so a stop that
    # extrapolated that rate would end a cycle that passes
    n = 100
    d = np.ones(n)
    d[:12] = np.geomspace(0.1, 10.0, 12)
    A = sp.diags(d).tocsr()
    b = np.random.default_rng(0).standard_normal(n)
    held = [spla.splu(sp.identity(n, format="csc"))]
    x, factored, gmres_iters = sparse_solve(A, b, factor=held)
    assert not factored and gmres_iters == 13
    assert _backward_error(A, x, b) < 1e-10


@ORDERINGS
def test_sparse_solve_singular_with_held_factor(order):
    # the held factor cannot rescue a singular matrix, and the failed solve
    # leaves no factor behind
    held = [spla.splu(sp.identity(2, format="csc"))]
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError) as err:
        sparse_solve(A, np.array([1.0, 1.0]), order=order(A), factor=held)
    assert err.value.row == 1
    assert held == []


def test_newton_reuses_one_factorization(splu_calls):
    space = FeSpace(build_structured_mesh(2, 8), 2)
    eps = 0.01
    _, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    _, report = newton_solve(f, data, params, NewtonConfig(), convex_seed(space, data.g))
    assert report.iterations >= 3
    assert report.factorizations == len(splu_calls) < report.iterations


def _nan_gmres(csr, b, lu, norm_a):
    return np.full(len(b), np.nan), 1


def test_at_most_one_factorization_is_alive(monkeypatch):
    # every GMRES answer fails the check, so every step replaces the held
    # factor; the old one must be gone before the new one is made
    alive, refs, splu = [], [], spla.splu

    def spy(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        lu = _CountingLU(splu(*args, **kwargs))
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    monkeypatch.setattr("maviscid.solve._preconditioned_gmres", _nan_gmres)
    _, report = _case_solve("III", 2, 4)
    assert len(alive) == report.factorizations >= 3
    assert alive == [0] * len(alive)


@pytest.mark.parametrize("case, dim, n", [("III", 2, 8), ("VI", 3, 4)])
def test_reuse_matches_factoring_every_step(monkeypatch, case, dim, n):
    u, report = _case_solve(case, dim, n)
    # a GMRES answer that never passes the check forces a factor per step
    monkeypatch.setattr("maviscid.solve._preconditioned_gmres", _nan_gmres)
    u_lu, report_lu = _case_solve(case, dim, n)
    # a step's single-precision factor fails its cycle too, and the step
    # factors again in double precision
    assert report_lu.factorizations == 2 * report_lu.iterations
    assert report.factorizations < report.iterations
    assert report.iterations == report_lu.iterations
    assert [e for e, _ in report.rungs] == [e for e, _ in report_lu.rungs]
    assert [r.iterations for _, r in report.rungs] == [
        r.iterations for _, r in report_lu.rungs]
    gap = np.abs(u.coeffs - u_lu.coeffs).max()
    assert gap <= 1e-10 * np.abs(u_lu.coeffs).max()


# ------------------------------------------------- 3D single-precision factor


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 4), (3, 6)])
def test_dissection_order_puts_each_separator_after_its_halves(dim, n):
    space = FeSpace(build_structured_mesh(dim, n), 2)
    _, indptr, indices = _interior_pattern(space)
    size = len(indptr) - 1
    coupled = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                            shape=(size, size))
    order = _dissection_order(space)
    assert np.array_equal(np.sort(order), np.arange(size))
    position = np.empty(size, dtype=int)
    position[order] = np.arange(size)
    splits = []

    def before(a, b):
        return position[a].max(initial=-1) < position[b].min(initial=size)

    def check(tree):
        """The dofs of ``tree``, after checking its splits."""
        if isinstance(tree, np.ndarray):
            assert len(tree) <= _DISSECTION_LEAF
            return tree
        first, second = check(tree[0]), check(tree[1])
        sep = tree[2]
        # no coupling joins the halves, and the order runs first half,
        # second half, separator
        assert coupled[first][:, second].nnz == 0
        assert before(first, second) and before(first, sep) and before(second, sep)
        splits.append(len(sep))
        return np.concatenate([first, second, sep])

    assert len(check(_dissection_tree(space))) == size
    assert len(splits) >= 3 and min(splits) > 0


@pytest.mark.parametrize("failure, ordered", [
    ("underflow", True), ("singular_pivot", True),
    ("underflow", False), ("singular_pivot", False),
], ids=["underflow", "singular_pivot", "underflow_no_order",
        "singular_pivot_no_order"])
def test_failed_single_precision_factor_falls_back_to_double(splu_calls, failure,
                                                             ordered):
    if failure == "underflow":
        # every entry is below the smallest single-precision number
        A, b = _interior_jacobian()
        A, b = 1e-50 * A, 1e-50 * b
    else:
        # 1 + 1e-9 rounds to 1 in single precision, and the matrix to a
        # singular one
        A, b = sp.csr_matrix([[1.0, 1.0], [1.0, 1.0 + 1e-9]]), np.array([1.0, 2.0])
    held = []
    x, factored, gmres_iters = sparse_solve(
        A, b, order=_reversed(A) if ordered else None, factor=held)
    assert factored == 2 and gmres_iters == 0
    assert [kw["permc_spec"] for kw in splu_calls] == [
        "NATURAL" if ordered else "MMD_AT_PLUS_A"] * 2
    assert len(held) == 1 and held[0].dtype == np.float64
    assert _backward_error(A, x, b) < 1e-10


def test_sparse_solve_checks_its_order(splu_calls):
    # [True, False] and [1.0, 0.0] sort to 0, 1 as well, but are no
    # permutation: a bool order selected a false singular system, and a
    # float one raised an IndexError
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    for order in ([0, 0], [True, False], [1.0, 0.0], np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="integer permutation"):
            sparse_solve(A, np.ones(2), order=order)
    assert splu_calls == []
    x, _, _ = sparse_solve(A, np.ones(2), order=np.array([1, 0], dtype=np.uint8))
    assert np.allclose(x, [2.0 / 11.0, 3.0 / 11.0], atol=1e-14)


@pytest.mark.parametrize("case, dim, n", [("III", 2, 4), ("VI", 3, 4)])
def test_step_refactors_in_double_when_its_cycle_fails(monkeypatch, case, dim, n):
    # every cycle fails, so every step factors in single precision and then
    # in double precision, counts both, and drops the first factor before
    # it makes the second
    alive, refs, dtypes, splu = [], [], [], spla.splu

    def spy(A, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        dtypes.append(A.dtype)
        if A.dtype == np.float32:
            lu = _CountingLU(splu(A, **kwargs))
            refs.append(weakref.ref(lu))
            return lu
        return splu(A, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy)
    monkeypatch.setattr("maviscid.solve._preconditioned_gmres", _nan_gmres)
    _, report = _case_solve(case, dim, n)
    assert dtypes == [np.float32, np.float64] * report.iterations
    assert report.factorizations == len(dtypes)
    assert alive == [0] * len(alive)


@pytest.mark.parametrize("n, iterations, min_dof", [
    (4, 15, -0.189669514807859), (6, 13, -0.175244972345973)])
def test_3d_single_precision_factor_keeps_the_double_precision_counts(
        n, iterations, min_dof):
    # the counts and min dof of the COLAMD double-precision factor: Newton
    # steps, and one factorization per space of the nested ladder
    u, report = _case_solve("VI", 3, n)
    assert report.iterations == iterations and report.factorizations == 2
    assert abs(u.coeffs.min() - min_dof) <= 1e-9


# ------------------------------------------------------------------- config


def test_newton_config_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="abs_tol"):
            NewtonConfig(abs_tol=tol)
    for sched in ([0.5, 0.5], [0.5, -0.1], [0.1, math.nan], [math.inf, 0.1],
                  [math.nan]):
        with pytest.raises(ValueError):
            NewtonConfig(continuation_schedule=sched)
    cfg = NewtonConfig(continuation_schedule=[0.5, 0.25])
    assert cfg.continuation_schedule == (0.5, 0.25)


def test_default_ladder():
    assert default_ladder(0.5) == [0.5]
    assert default_ladder(0.7) == [0.7]
    assert default_ladder(0.005) == [
        0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.005,
    ]
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            default_ladder(bad)


# ------------------------------------------------------------- newton_solve


def test_newton_already_converged():
    # u = |x|^2/2 solves the problem with f = 1, psi = 2 exactly
    space = FeSpace(build_structured_mesh(2, 3), 2)
    u0 = interpolate(space, lambda p: 0.5 * (p**2).sum(axis=1))
    data = BoundaryData(
        g=lambda p: 0.5 * (p**2).sum(axis=1), psi=lambda p: np.full(len(p), 2.0)
    )
    params = PenaltyParams(20.0, 0.1, "plain")
    u, report = newton_solve(
        lambda p: np.ones(len(p)), data, params, NewtonConfig(), u0
    )
    assert report.converged and report.iterations <= 1
    assert report.residual_history[-1] <= 1e-10
    assert np.array_equal(u.coeffs[space.boundary_dofs], u0.coeffs[space.boundary_dofs])


def test_newton_quartic_convergence():
    space = FeSpace(build_structured_mesh(2, 8), 2)
    eps = 0.01
    u_exact, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    seed = convex_seed(space, data.g)
    u, report = newton_solve(f, data, params, NewtonConfig(), seed)
    assert report.converged
    assert report.iterations <= 8
    hist = report.residual_history
    # quadratic tail: strong contraction over the last two accepted steps
    assert hist[-1] / hist[-2] < 0.1
    assert hist[-2] / hist[-3] < 0.1
    # the discrete solution sits near the exact one
    gap = np.abs(u.coeffs - interpolate(space, u_exact).coeffs).max()
    assert gap < 0.05


def test_newton_determinism():
    space = FeSpace(build_structured_mesh(2, 4), 2)
    eps = 0.05
    _, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    results = []
    for _ in range(2):
        u, _ = newton_solve(f, data, params, NewtonConfig(), convex_seed(space, data.g))
        results.append(u.coeffs.copy())
    assert np.array_equal(results[0], results[1])


def test_newton_forms_the_load_vector_once(monkeypatch):
    # f is fixed within a solve, so every residual reuses one load vector
    load, calls = assembly._load_vector, []

    def counting_load(space, f):
        calls.append(f)
        return load(space, f)

    monkeypatch.setattr(assembly, "_load_vector", counting_load)
    space = FeSpace(build_structured_mesh(2, 4), 2)
    eps = 0.05
    _, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    _, report = newton_solve(f, data, params, NewtonConfig(), convex_seed(space, data.g))
    assert report.iterations >= 3
    assert calls == [f]


def counting_data(spec, counts):
    """``spec.data`` with each distinct f wrapped once, recording the number
    of points of every evaluation in ``counts``."""
    wrapped = {}

    def data(eps):
        f, g_data = spec.data(eps)
        if f not in wrapped:
            wrapped[f] = lambda p: (counts.append(len(p)), f(p))[1]
        return wrapped[f], g_data

    return data


def _f_evaluations(case_id, n):
    """Points of every f evaluation in a three-rung ladder of a built-in
    case, k=2, on the n Kuhn mesh, and the ladder's report."""
    spec = builtin_case(case_id)
    space = FeSpace(build_structured_mesh(spec.dim, n), 2)
    counts = []
    schedule = (0.5, 0.25, 0.125)
    _, report = continuation_solve(
        space, None, None, spec.sigma, schedule[-1],
        NewtonConfig(abs_tol=1e-8, continuation_schedule=schedule),
        weight_mode=spec.weight_mode, data_factory=counting_data(spec, counts),
    )
    assert [e for e, _ in report.rungs] == list(schedule)
    return counts, report


def _cell_points(dim, n):
    """Cell-rule points of the k=2 space on the n Kuhn mesh."""
    space = FeSpace(build_structured_mesh(dim, n), 2)
    return space.mesh.num_cells * len(space.cell_rule.weights)


@pytest.mark.parametrize("case_id,per_rung", [("VI", False), ("IV", False), ("II", True)])
def test_ladder_evaluates_f_once_per_distinct_f(case_id, per_rung):
    # the load vector (f, v) is cached per f and space: on the n=4 mesh the
    # ladder's first two rungs run on the n=2 mesh and the target rung on
    # n=4, so f is evaluated on each space once per distinct f of its rungs:
    # once if the rungs share one f, and on every rung if f depends on eps
    # (case II)
    dim = builtin_case(case_id).dim
    counts, report = _f_evaluations(case_id, 4)
    assert [r.ndofs for _, r in report.rungs][:-1] == [
        FeSpace(build_structured_mesh(dim, 2), 2).ndofs] * 2
    coarse = [_cell_points(dim, 2)] * (2 if per_rung else 1)
    assert counts == coarse + [_cell_points(dim, 4)]


@pytest.mark.parametrize("case_id,per_rung", [("VI", False), ("IV", False), ("II", True)])
def test_plain_ladder_evaluates_f_once_per_distinct_f(case_id, per_rung):
    # on the odd n=3 mesh every rung runs on the one space
    counts, report = _f_evaluations(case_id, 3)
    assert all(r.ndofs == report.ndofs for _, r in report.rungs)
    evaluations = len(report.rungs) if per_rung else 1
    assert counts == [_cell_points(builtin_case(case_id).dim, 3)] * evaluations


def test_newton_monotone_history():
    space = FeSpace(build_structured_mesh(2, 6), 2)
    eps = 0.05
    _, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    _, report = newton_solve(f, data, params, NewtonConfig(), convex_seed(space, data.g))
    hist = np.array(report.residual_history)
    assert np.all(np.diff(hist) < 0)
    assert np.all(np.isfinite(hist))


def test_newton_failure_is_diagnosed(monkeypatch):
    # a forced tiny iteration budget gives a structured error, not NaN
    monkeypatch.setattr("maviscid.solve._MAX_ITERS", 1)
    space = FeSpace(build_structured_mesh(2, 4), 2)
    eps = 0.02
    _, f, data = quartic_data(eps)
    params = PenaltyParams(20.0, eps, "plain")
    with pytest.raises(NewtonError) as err:
        newton_solve(f, data, params, NewtonConfig(), convex_seed(space, data.g))
    assert err.value.reason == "max_iters"
    assert np.all(np.isfinite(err.value.report.residual_history))


def test_newton_negative_source_diagnostic(monkeypatch):
    # f = -1 breaks the convexity assumption; expect a clean diagnostic or a
    # finite (spurious but well-defined) root, never NaN
    monkeypatch.setattr("maviscid.solve._MAX_ITERS", 12)
    space = FeSpace(build_structured_mesh(2, 4), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    params = PenaltyParams(20.0, 0.005, "plain")
    try:
        u, report = newton_solve(
            lambda p: -np.ones(len(p)), data, params,
            NewtonConfig(), convex_seed(space, data.g),
        )
        assert np.all(np.isfinite(u.coeffs))
        assert report.converged
    except NewtonError as err:
        assert err.reason in ("max_iters", "damping_floor", "singular_jacobian")
        assert np.all(np.isfinite(err.report.residual_history))


# ------------------------------------------------------- continuation_solve


def test_continuation_single_rung():
    # on n=4 the one rung first runs on the n=2 mesh, then on n=4
    space = FeSpace(build_structured_mesh(2, 4), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    u, report = continuation_solve(
        space, lambda p: np.ones(len(p)), data, sigma=20.0, eps_target=0.5,
        weight_mode="plain",
    )
    assert report.converged and not report.fell_back
    assert [(e, r.ndofs) for e, r in report.rungs] == [(0.5, 25), (0.5, space.ndofs)]
    assert report.residual_history[-1] <= 1e-10


def test_continuation_schedule_must_end_at_target():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    with pytest.raises(ValueError):
        continuation_solve(
            space, lambda p: np.ones(len(p)), data, 20.0, 0.01,
            NewtonConfig(continuation_schedule=[0.5, 0.25]),
        )


def test_continuation_data_factory():
    # manufactured data changes with the rung; the final solution tracks the
    # exact quartic at the target epsilon
    space = FeSpace(build_structured_mesh(2, 6), 2)
    u_exact, _, _ = quartic_data(0.125)

    def factory(eps):
        _, f, data = quartic_data(eps)
        return f, data

    u, report = continuation_solve(
        space, None, None, sigma=20.0, eps_target=0.125,
        weight_mode="plain", data_factory=factory,
    )
    assert report.converged and len(report.rungs) == 3
    assert [e for e, _ in report.rungs] == [0.5, 0.25, 0.125]
    gap = np.abs(u.coeffs - interpolate(space, u_exact).coeffs).max()
    assert gap < 0.05
    # the target rung ran on n=6 from a start moved off n=3 and re-pinned
    assert [r.ndofs for _, r in report.rungs] == [49, 49, space.ndofs]
    g = factory(0.125)[1].g
    assert np.array_equal(u.coeffs[space.boundary_dofs],
                          apply_dirichlet(space, g))


def test_continuation_annotates_failures(monkeypatch):
    monkeypatch.setattr("maviscid.solve._MAX_ITERS", 1)
    space = FeSpace(build_structured_mesh(2, 3), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    with pytest.raises(NewtonError) as err:
        continuation_solve(
            space, lambda p: np.ones(len(p)), data, 20.0, 0.25,
            weight_mode="plain",
        )
    assert err.value.epsilon == 0.5
    assert err.value.reason == "max_iters"


def test_continuation_factors_once_per_ladder():
    # case III, 2D n=8, on the default ladder: the first seven rungs run on
    # the n=4 mesh, whose first Jacobian is factored and preconditions every
    # later step there, and the target rung on n=8 factors once more; one
    # factorization per mesh visited
    _, report = _case_solve("III", 2, 8)
    assert report.factorizations == sum(r.factorizations for _, r in report.rungs)
    assert report.gmres_iterations == sum(
        r.gmres_iterations for _, r in report.rungs)
    meshes = len({r.ndofs for _, r in report.rungs})
    assert report.factorizations == meshes == 2 < len(report.rungs)
    assert [r.factorizations for _, r in report.rungs] == [1] + [0] * 6 + [1]
    assert report.gmres_iterations > 0


def test_plain_ladder_factors_once():
    # the n=7 cells without the generator's structure: the whole ladder runs
    # on one mesh and factors once
    _, report = _case_solve("III", 2, 7, _without_structure(build_structured_mesh(2, 7)))
    assert report.factorizations == sum(r.factorizations for _, r in report.rungs)
    assert {r.ndofs for _, r in report.rungs} == {report.ndofs}
    assert [r.factorizations for _, r in report.rungs] == [1] + [0] * 7
    assert report.gmres_iterations > 0


def test_continuation_rung_tolerances():
    # rungs before the target stop at _RUNG_TOL, the target one at abs_tol
    _, report = _case_solve("III", 2, 8)
    ends = [r.residual_history[-1] for _, r in report.rungs]
    assert max(ends[:-1]) <= _RUNG_TOL
    assert ends[-1] <= 1e-8 < max(ends[:-1])


def _ladder_by_hand(case, dim, n, schedule, abs_tol, loose, nested=False,
                    mesh=None):
    """A ladder of plain ``newton_solve`` calls on a built-in case, k=2, on
    the n Kuhn mesh or on ``mesh``.

    ``loose`` runs it as ``continuation_solve`` does: earlier rungs to
    _RUNG_TOL, the secant predictor from the third rung on, and one
    factorization holder; otherwise every rung runs to abs_tol from the
    previous solution, each with its own holder.  ``nested`` runs every
    rung but the last on the n // 2 Kuhn mesh, or a one-rung schedule's one
    rung first, by hand again (nested for n // 2 >= 4, and to _RUNG_TOL if
    ``loose``), and moves the last rung's start to the n mesh by
    interpolation, with a holder of its own.  Returns the last solution and
    the iterations of every rung run, in order."""
    spec = builtin_case(case)
    space = FeSpace(mesh or build_structured_mesh(dim, n), 2)
    on = space
    holder = [] if loose else None
    solutions, iterations = [], []
    if nested and len(schedule) > 1:
        on = FeSpace(build_structured_mesh(dim, n // 2), 2)
    elif nested:
        tol = max(abs_tol, _RUNG_TOL) if loose else abs_tol
        u, iterations = _ladder_by_hand(case, dim, n // 2, schedule, tol, loose,
                                        nested=n // 2 >= 4)
        solutions.append(u)
    for k, eps in enumerate(schedule):
        f, data = spec.data(eps)
        if not solutions:
            start = convex_seed(on, data.g)
        else:
            start = solutions[-1].copy()
            if loose and k >= 2:
                theta = math.log(eps / schedule[k - 1]) / math.log(
                    schedule[k - 1] / schedule[k - 2])
                start.coeffs += theta * (solutions[-1].coeffs - solutions[-2].coeffs)
            start.coeffs[start.space.boundary_dofs] = apply_dirichlet(start.space, data.g)
        if start.space is not space and k == len(schedule) - 1:
            start = interpolate(space, start.evaluate)
            start.coeffs[space.boundary_dofs] = apply_dirichlet(space, data.g)
            holder = [] if loose else None
        tol = max(abs_tol, _RUNG_TOL) if loose and k < len(schedule) - 1 else abs_tol
        u, rep = newton_solve(f, data, PenaltyParams(spec.sigma, eps, spec.weight_mode),
                              NewtonConfig(abs_tol=tol), start, factor=holder)
        solutions.append(u)
        iterations.append(rep.iterations)
    return solutions[-1], iterations


@pytest.mark.parametrize("case, dim, n", [("III", 2, 8), ("VI", 3, 4)])
def test_continuation_matches_a_strict_ladder(case, dim, n):
    u, report = _case_solve(case, dim, n)
    ladder = [e for e, _ in report.rungs]
    u_strict, iterations = _ladder_by_hand(case, dim, n, ladder, 1e-8, loose=False)
    assert report.iterations < sum(iterations)
    gap = np.abs(u.coeffs - u_strict.coeffs).max()
    assert gap <= 1e-6 * np.abs(u_strict.coeffs).max()


def test_continuation_counts_repeat():
    counts = []
    for _ in range(2):
        _, report = _case_solve("III", 2, 8)
        counts.append((report.iterations, report.factorizations,
                       report.gmres_iterations,
                       [r.iterations for _, r in report.rungs]))
    assert counts[0] == counts[1]


SCHEDULES = pytest.mark.parametrize(
    "schedule", [(0.5,), (0.5, 0.25), (0.5, 0.3, 0.1)],
    ids=["one_rung", "two_rungs", "non_halving"])


def _schedule_matches_by_hand(schedule, n, nested):
    # one and two rungs run no predictor; three non-halving rungs take the
    # secant step with theta = log(1/3) / log(3/5)
    spec = builtin_case("III")
    space = FeSpace(build_structured_mesh(2, n), 2)
    u, report = continuation_solve(
        space, None, None, spec.sigma, schedule[-1],
        NewtonConfig(abs_tol=1e-8, continuation_schedule=schedule),
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )
    # a nested one-rung ladder runs its rung on n // 2 first
    rungs = list(schedule) * (2 if nested and len(schedule) == 1 else 1)
    assert report.converged and [e for e, _ in report.rungs] == rungs
    u_hand, iterations = _ladder_by_hand("III", 2, n, schedule, 1e-8,
                                         loose=True, nested=nested)
    assert [r.iterations for _, r in report.rungs] == iterations
    assert np.array_equal(u.coeffs, u_hand.coeffs)
    return report


@SCHEDULES
def test_continuation_schedules(schedule):
    # on the n=6 mesh every ladder takes the nested plan: its rungs before
    # the target, or a one-rung ladder's rung, first run on n=3
    report = _schedule_matches_by_hand(schedule, 6, nested=True)
    sizes = [r.ndofs for _, r in report.rungs]
    assert sizes == [49] * max(len(schedule) - 1, 1) + [169]


@SCHEDULES
def test_continuation_schedules_plain_ladder(schedule):
    # n=3 is too coarse to nest: every ladder runs there
    report = _schedule_matches_by_hand(schedule, 3, nested=False)
    assert [r.ndofs for _, r in report.rungs] == [49] * len(schedule)


def _without_structure(mesh):
    """The same cells as an unstructured mesh, which takes the plain ladder."""
    return SimplicialMesh(mesh.dim, mesh.vertices, mesh.cells)


def test_generator_meshes_never_reach_the_point_search(monkeypatch):
    # a generator mesh skips the hanging-vertex check and locates points by
    # its grid: building it and its spaces, evaluating fields on it and a
    # nested solve never run the search that meshes given as arrays use
    def refuse(*args):
        raise AssertionError("point search reached")

    monkeypatch.setattr(SimplicialMesh, "_search", refuse)
    with pytest.raises(AssertionError, match="point search reached"):
        _without_structure(build_structured_mesh(2, 2))
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        space = FeSpace(build_structured_mesh(dim, 3), 2)
        interpolate(space, lambda p: np.sin(p.sum(axis=1))).evaluate(rng.uniform(0, 1, (20, dim)))
    _, report = _case_solve("III", 2, 4)
    assert report.converged
    assert report.rungs[0][1].ndofs == FeSpace(build_structured_mesh(2, 2), 2).ndofs


def test_unstructured_mesh_takes_the_plain_ladder():
    spec = builtin_case("III")
    mesh = _without_structure(build_structured_mesh(2, 6))
    schedule = (0.5, 0.3, 0.1)
    u, report = continuation_solve(
        FeSpace(mesh, 2), None, None, spec.sigma, schedule[-1],
        NewtonConfig(abs_tol=1e-8, continuation_schedule=schedule),
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )
    assert {r.ndofs for _, r in report.rungs} == {report.ndofs}
    u_hand, iterations = _ladder_by_hand("III", 2, 6, schedule, 1e-8,
                                         loose=True, mesh=mesh)
    assert [r.iterations for _, r in report.rungs] == iterations
    assert np.array_equal(u.coeffs, u_hand.coeffs)


def test_odd_mesh_nests_on_its_floor_half():
    # case III on n=7 climbs on n=3 and moves its start by a nodal
    # interpolant (the n=7 mesh does not refine n=3); it lands on the plain
    # ladder's root, run on the same cells without the generator's structure
    u, report = _case_solve("III", 2, 7)
    coarse = FeSpace(build_structured_mesh(2, 3), 2).ndofs
    assert not report.fell_back
    assert [r.ndofs for _, r in report.rungs] == [coarse] * 7 + [report.ndofs]
    u_plain, plain = _case_solve("III", 2, 7, _without_structure(build_structured_mesh(2, 7)))
    assert {r.ndofs for _, r in plain.rungs} == {report.ndofs}
    assert report.residual_history[-1] <= 1e-8 and plain.residual_history[-1] <= 1e-8
    gap = np.abs(u.coeffs - u_plain.coeffs).max()
    assert gap <= 1e-6 * np.abs(u_plain.coeffs).max()


@pytest.mark.parametrize("n", [7, 8])
def test_one_rung_ladder_finds_the_convex_root(n):
    # case IV at eps 0.5 is one rung.  Run on 3D n=7 itself it reaches a
    # spurious root (min dof -0.467 where g >= 1, L2 error 0.97), and on
    # n=8 it fails; solved on n // 2 first, it reaches the convex one
    spec = builtin_case("IV")
    u, report = _solve_on_mesh(spec, 2, 1 / n, 0.5)
    assert report.converged and not report.fell_back
    assert [e for e, _ in report.rungs] == [0.5] * len(report.rungs)
    assert [r.ndofs for _, r in report.rungs][-2:] == [
        FeSpace(build_structured_mesh(3, n // 2), 2).ndofs, report.ndofs]
    assert u.coeffs.min() > 0.99
    assert error_norms(spec.exact_solution, u).l2 < 0.13


@pytest.fixture
def solver_calls(monkeypatch):
    """The solver's calls into assembly and LU in order, as the bench traces
    them: ("resjac", residual norm), ("residual", residual norm), ("lu",)."""
    import maviscid.solve as solve_module

    calls = []
    for name, kind in (("assemble_residual_and_jacobian", "resjac"),
                       ("assemble_nonlinear_residual", "residual"),
                       ("sparse_solve", "lu")):
        def counted(*args, _fn=getattr(solve_module, name), _kind=kind, **kwargs):
            if _kind == "lu":
                calls.append((_kind,))
                return _fn(*args, **kwargs)
            out = _fn(*args, **kwargs)
            r = out[0] if _kind == "resjac" else out
            calls.append((_kind, float(np.abs(r).max())))
            return out

        monkeypatch.setattr(solve_module, name, counted)
    return calls


def _call_counts(calls):
    """Jacobian assemblies, line-search residuals, LU calls and halvings: a
    line-search residual that does not beat the last assembled one."""
    counts = Counter(c[0] for c in calls)
    halvings, current = 0, None
    for c in calls:
        if c[0] == "resjac":
            current = c[1]
        elif c[0] == "residual" and not c[1] < current:
            halvings += 1
    return counts["resjac"], counts["residual"], counts["lu"], halvings


def test_nested_ladder_keeps_the_trace_identities(solver_calls):
    _, report = _case_solve("III", 2, 8)
    coarse = FeSpace(build_structured_mesh(2, 4), 2).ndofs
    assert not report.fell_back
    assert [r.ndofs for _, r in report.rungs] == [coarse] * 7 + [report.ndofs]
    resjac, residual, lu, halvings = _call_counts(solver_calls)
    assert resjac == report.iterations + len(report.rungs)
    assert residual == report.iterations + halvings
    assert lu == report.iterations


def _under_penalized(n):
    """Case II, k=2, plain weight at sigma = 1 on the n Kuhn mesh."""
    spec = case_with_overrides("II", {"sigma": "1", "weight_mode": "plain"})
    return continuation_solve(
        FeSpace(build_structured_mesh(2, n), 2), None, None, spec.sigma,
        spec.eps_list[0], NewtonConfig(abs_tol=1e-8),
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )


@pytest.mark.parametrize("n, coarse, fine, failed", [
    # the ladder climbed on n=2 fails at eps = 0.015625
    (4, 25, 81, 0.015625),
    # the n=3 ladder converges and the target rung on n=6 fails
    (6, 49, 169, 0.01),
], ids=["coarse_rung_fails", "target_rung_fails"])
def test_fallback_runs_the_plain_ladder(solver_calls, n, coarse, fine, failed):
    # after a failed rung the plain ladder runs on n from its convex seed
    # and converges
    u, report = _under_penalized(n)
    assert report.converged and report.fell_back
    ladder = default_ladder(0.01)
    nested = ladder[:ladder.index(failed) + 1]
    assert [e for e, _ in report.rungs] == nested + ladder
    # only rungs before the target run on n/2
    on_coarse = min(len(nested), len(ladder) - 1)
    assert [r.ndofs for _, r in report.rungs] == [coarse] * on_coarse + [fine] * (
        len(report.rungs) - on_coarse)
    assert [e for e, r in report.rungs if not r.converged] == [failed]
    resjac, residual, lu, halvings = _call_counts(solver_calls)
    assert resjac == report.iterations + len(report.rungs)
    assert residual == report.iterations + halvings
    # the failed rung's last step was solved but found no descent, so LU
    # calls exceed the counted steps by the one failed rung; counting that
    # step as an iteration would break the residual identity instead, as
    # every trial of its line search is a halving
    assert lu == report.iterations + 1
    # the fallback is the plain ladder, bit for bit
    spec = case_with_overrides("II", {"sigma": "1", "weight_mode": "plain"})
    u_plain, plain = continuation_solve(
        FeSpace(_without_structure(build_structured_mesh(2, n)), 2), None,
        None, spec.sigma, spec.eps_list[0], NewtonConfig(abs_tol=1e-8),
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )
    assert not plain.fell_back

    def counts(rungs):
        return [(r.iterations, r.factorizations, r.gmres_iterations)
                for _, r in rungs]

    assert counts(report.rungs[len(nested):]) == counts(plain.rungs)
    assert np.array_equal(u.coeffs, u_plain.coeffs)


def test_failed_fallback_reports_every_rung():
    # on n=16 the n=8 ladder fails at eps = 0.125 and the plain ladder at
    # the target rung
    with pytest.raises(NewtonError) as err:
        _under_penalized(16)
    report = err.value.report
    assert report.fell_back and not report.converged
    assert err.value.epsilon == 0.01
    assert [e for e, r in report.rungs if not r.converged] == [0.125, 0.01]
    assert len(report.rungs) == 3 + len(default_ladder(0.01))
    assert report.iterations == sum(r.iterations for _, r in report.rungs)


def test_n2_mesh_takes_the_plain_ladder():
    # the n=2 Kuhn mesh is not nested onto n=1: case VI's ladder on 3D n=2
    # stops at the damping floor of its target rung, as the plain ladder
    # does, instead of reaching a spurious positive root from the one-dof
    # n=1 climb
    spec = builtin_case("VI")
    with pytest.raises(NewtonError) as err:
        _solve_on_mesh(spec, 2, 0.5, spec.eps_list[0])
    with pytest.raises(NewtonError) as plain:
        continuation_solve(
            FeSpace(_without_structure(build_structured_mesh(3, 2)), 2), None,
            None, spec.sigma, spec.eps_list[0], NewtonConfig(abs_tol=1e-8),
            weight_mode=spec.weight_mode, data_factory=spec.data,
        )
    report = err.value.report
    assert err.value.reason == plain.value.reason == "damping_floor"
    assert err.value.epsilon == 0.005 and not report.fell_back
    assert {r.ndofs for _, r in report.rungs} == {report.ndofs}
    assert [(e, r.iterations, r.factorizations, r.gmres_iterations)
            for e, r in report.rungs] == [
        (e, r.iterations, r.factorizations, r.gmres_iterations)
        for e, r in plain.value.report.rungs]
    assert report.residual_history == plain.value.report.residual_history


def test_coarse_mesh_is_released_before_the_fine_rung_factors(monkeypatch):
    # at every factorization no other one is alive, and by the fine rung's
    # the coarse space is gone; with the collector off, only reference
    # counts can free it
    import maviscid.solve as solve_module

    seen, factors, spaces = [], [], []
    splu, fe_space = spla.splu, solve_module.FeSpace

    def spy_splu(*args, **kwargs):
        seen.append((args[0].shape[0], sum(r() is not None for r in factors),
                     [r() is not None for r in spaces]))
        lu = _CountingLU(splu(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    def spy_space(*args, **kwargs):
        space = fe_space(*args, **kwargs)
        spaces.append(weakref.ref(space))
        return space

    monkeypatch.setattr("scipy.sparse.linalg.splu", spy_splu)
    monkeypatch.setattr(solve_module, "FeSpace", spy_space)
    spec = builtin_case("III")
    fine = FeSpace(build_structured_mesh(2, 8), 2)
    coarse = FeSpace(build_structured_mesh(2, 4), 2)
    n_fine, n_coarse = len(fine.interior_dofs), len(coarse.interior_dofs)
    # a factorization of the fine shape held from an earlier solve
    held = [spla.splu(sp.identity(n_fine, format="csc"))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, report = continuation_solve(
            fine, None, None, spec.sigma, spec.eps_list[0],
            NewtonConfig(abs_tol=1e-8), weight_mode=spec.weight_mode,
            data_factory=spec.data, factor=held,
        )
    finally:
        if enabled:
            gc.enable()
    assert seen == [(n_fine, 0, []), (n_coarse, 0, [True]), (n_fine, 0, [False])]
    assert report.factorizations == 2
    assert len(held) == 1 and held[0].shape == (n_fine, n_fine)


def test_continuation_viscosity_profile():
    # f = 1, g = 0: the discrete solution is negative inside, zero on the
    # boundary, and symmetric under x <-> y on the symmetric mesh pattern
    space = FeSpace(build_structured_mesh(2, 16), 2)
    data = BoundaryData(g=lambda p: np.zeros(len(p)))
    u, report = continuation_solve(
        space, lambda p: np.ones(len(p)), data, sigma=20.0, eps_target=0.02,
        weight_mode="plain",
    )
    assert report.converged
    assert np.all(u.coeffs[space.boundary_dofs] == 0.0)
    interior_vals = u.coeffs[space.interior_dofs]
    assert interior_vals.min() < 0.0
    assert u.coeffs.min() == interior_vals.min()
    # mirror symmetry: evaluate at swapped coordinates
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    swapped = pts[:, ::-1]
    gap = np.abs(u.evaluate(pts) - u.evaluate(swapped)).max()
    assert gap < 1e-9

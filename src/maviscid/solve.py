"""Sparse direct solves, damped Newton iteration, and epsilon continuation.

The nonlinear scheme is solved by Newton's method with residual-norm
backtracking (factor 1/2).  A Newton step solves by one GMRES cycle
right-preconditioned with the last SuperLU factorization of an interior
Jacobian, which applies that factorization once per iteration and stops as
soon as its residual estimate passes the backward-error check of a direct
solve with a tenfold margin.  The step factors its own Jacobian only when
there is no factorization yet or the GMRES answer fails that check.  The
Jacobian changes only through its cofactor term from step to step and
through epsilon from rung to rung, so one factorization usually serves all
the rungs a continuation ladder runs on one mesh.  The Jacobian's pattern
is symmetric and its values nearly so, so it is factored in SuperLU's
symmetric mode (diagonal pivot threshold 0.1), in single precision.  2D
Jacobians are ordered by minimum degree on A^T + A, 3D Jacobians by a
geometric nested dissection of the interior dofs (George 1973), computed
once per space.  That factorization only preconditions: every solve with
it, the one right after factoring included, is a GMRES cycle whose answer
must pass the same double-precision backward-error check, and if a cycle
fails the step factors the same ordered matrix in double precision
(Buttari et al. 2008; see ``sparse_solve``).

Robust starts at small epsilon come from a continuation ladder: solve at a
large epsilon first, halve until the target.  The first solve is seeded with
the interpolant of the convex quadratic |x - c|^2 / 2, c the domain centre,
the second with the first solution, and later ones with a secant predictor
in log epsilon; boundary dofs are always pinned to the Dirichlet data.
Rungs before the target only have to land inside the next rung's Newton
basin, so they stop at a residual of ``_RUNG_TOL``; the target rung stops at
the configured ``abs_tol``.

On a Kuhn mesh of ``build_structured_mesh`` with an even number n >= 4 of
cells per axis, the ladder is climbed by nested iteration (Deuflhard 2004; Brandt
1977): every rung but the target runs on the n/2 Kuhn mesh.  Those meshes
nest, as every n/2 cube splits into 2^d n cubes whose Kuhn simplices tile
the coarse ones, so the coarse space is a subspace of the fine one and
interpolating the predicted start onto the requested space moves it
exactly.  Only the target rung then runs on the requested mesh.  If any
rung of that plan fails, the plain ladder runs on the requested mesh.  Odd
n, n=2 (whose n=1 mesh is one cube), meshes not built by the generator and
one-rung ladders take the plain ladder directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from maviscid.assembly import (
    DEFAULT_WEIGHT_MODE,
    PenaltyParams,
    _cached,
    _check_finite,
    _interior_block,
    _interior_pattern,
    _read_only,
    apply_dirichlet,
    assemble_nonlinear_residual,
    assemble_residual_and_jacobian,
)
from maviscid.elements import FeSpace, interpolate
from maviscid.mesh import build_structured_mesh

__all__ = [
    "NewtonConfig",
    "SolveReport",
    "SingularMatrixError",
    "NewtonError",
    "sparse_solve",
    "newton_solve",
    "default_ladder",
    "convex_seed",
    "continuation_solve",
]

_MAX_HALVINGS = 20
_MAX_ITERS = 50
# residual at which a continuation rung before the target one stops
_RUNG_TOL = 1e-4


class SingularMatrixError(RuntimeError):
    """Numerically singular factorization; ``row`` names the suspect row."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NewtonError(RuntimeError):
    """Non-convergence of the Newton iteration.

    ``reason`` is one of "max_iters", "damping_floor", "singular_jacobian",
    "nonfinite_residual"; ``report`` holds the partial iteration history and
    ``epsilon`` the continuation rung if applicable.
    """

    def __init__(self, message, reason, report, epsilon=None):
        super().__init__(message)
        self.reason = reason
        self.report = report
        self.epsilon = epsilon


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration controls; the damping backtracking factor is fixed at 1/2,
    with at most ``_MAX_HALVINGS`` halvings per step and ``_MAX_ITERS`` steps.

    ``abs_tol`` bounds the residual infinity norm of a ``newton_solve`` and
    of the target rung of a ``continuation_solve``; the ladder's earlier
    rungs stop at max(abs_tol, ``_RUNG_TOL``).
    """

    abs_tol: float = 1e-10
    continuation_schedule: Optional[Sequence[float]] = None

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:  # written so that NaN fails
            raise ValueError("abs_tol must be finite and positive")
        sched = self.continuation_schedule
        if sched is not None:
            sched = tuple(float(e) for e in sched)
            if len(sched) == 0 or not all(0 < e < math.inf for e in sched):
                raise ValueError("schedule entries must be finite and positive")
            if any(b >= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be strictly decreasing")
            object.__setattr__(self, "continuation_schedule", sched)


@dataclass
class SolveReport:
    """Iteration counts and residual history of one solve (or a ladder);
    ``factorizations`` counts the LU factorizations of the Newton steps and
    ``gmres_iterations`` the iterations of their preconditioned GMRES
    cycles, failed factorizations and cycles included.  ``ndofs`` is the
    size of the space the solve ran on (a ladder's: the requested space),
    and ``fell_back`` says that a ladder's nested plan failed and the plain
    ladder ran instead (see ``continuation_solve``)."""

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    rungs: list = field(default_factory=list)
    factorizations: int = 0
    gmres_iterations: int = 0
    ndofs: int = 0
    fell_back: bool = False


# SuperLU's symmetric mode: minimum degree on A^T + A, and a diagonal pivot
# kept unless it is below 0.1 times the largest entry of its column
_SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
# the symmetric mode keeping the column order of a matrix already ordered
_ORDERED_MODE = dict(_SYMMETRIC_MODE, permc_spec="NATURAL")
# nested dissection stops splitting parts of at most this many dofs
_DISSECTION_LEAF = 64

# a solve is accepted when its backward error (see _backward_error) is below
# this, whether it came from a fresh factorization or from GMRES
_RESIDUAL_TOL = 1e-10
# length of the one GMRES cycle a held factorization gets
_GMRES_ITERS = 20
# the cycle stops when its residual estimate is below this fraction of the
# bound the backward-error check puts on the true residual, which leaves
# room for the roundoff between the two
_GMRES_MARGIN = 0.1
# from half its iterations on, a cycle also stops when its estimate, reduced
# further at its average rate so far in each iteration left, would still miss
# that bound by this factor.  GMRES often speeds up late: over the 1263
# cycles of the tests and the bench workloads, a factor of 1 stopped 139 that
# went on to pass, and this one 2 (one cycle, run twice, of a 2D solve that
# fails anyway)
_GMRES_STAGNATION = 1e6


def sparse_solve(A, b, *, order=None, factor=None):
    """Sparse LU solve of a square interior system, checked in double
    precision.

    Factors P A P^T in SuperLU's symmetric mode: diagonal pivots unless one
    is below 0.1 of its column's largest entry, which suits a matrix with a
    symmetric pattern and nearly symmetric values such as the Newton
    Jacobian.  Without ``order``, P is minimum degree on A^T + A; ``order``,
    a permutation of the unknowns given as integers, is P itself.
    ``newton_solve`` passes no order in 2D and the nested-dissection order of
    the interior dofs in 3D (``_dissection_order``): on the case VI
    Jacobians of n=6 and n=12, k=2, that fills 8% and 16% less than COLAMD.

    The matrix is factored in single precision first, which took 20-47%
    less time than in double precision on Jacobians of 2D n=32 and 64 and 3D
    n=6 (one thread), with the same fill.  That factorization
    only preconditions: every solve with it, the one right after factoring
    included, is the GMRES cycle described below, and x is accepted only
    when it is finite and its backward error ||Ax - b||_inf / (||A||_inf
    ||x||_inf + ||b||_inf) is below 1e-10.  If the single-precision
    factorization fails, or its cycle's answer fails that check, it is
    dropped and P A P^T factored again in double precision, whose direct
    solve must pass the same check or raise SingularMatrixError.  ``A`` is
    anything ``scipy.sparse.csr_matrix`` accepts; a NaN or inf entry of
    ``A`` or ``b``, or an ``order`` that is not an integer permutation,
    raises ValueError before anything is solved or factored.

    ``factor`` lets a sequence of solves with nearby matrices share one
    factorization.  It is a list, empty or holding the factorization of an
    earlier matrix.  If it holds one of this matrix's shape, the system is
    first solved by one right-preconditioned GMRES cycle of at most
    ``_GMRES_ITERS`` iterations, each applying that factorization once (see
    ``_preconditioned_gmres``).  The cycle stops as soon as its residual
    estimate is a tenth of what the backward-error check allows, or when it
    cannot get there in the iterations left.  If its answer fails the
    check, the held factorization is dropped before this matrix is
    factored, so at most one factorization is alive, and the new one is
    left in the list for the next solve; without ``factor`` the list is the
    call's own.  The result is ``(x, factored, gmres_iterations)``: how many
    factorizations this call made (0, 1, or 2 when a single-precision one
    failed) and how many GMRES iterations it ran, those of a fresh factor's
    cycle included.
    """
    csr = _check_finite(sp.csr_matrix(A))
    b = np.asarray(b, dtype=float)
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1] or b.shape != (n,):
        raise ValueError("need a square matrix and a matching vector")
    if not np.isfinite(b).all():
        raise ValueError("non-finite right-hand side entries")
    if order is not None:
        order = np.asarray(order)
        if (order.dtype.kind not in "iu"
                or not np.array_equal(np.sort(order), np.arange(n))):
            raise ValueError("order must be an integer permutation of the unknowns")
    # ||A||_inf, shared by the GMRES stop and the backward-error check
    norm_a = float(np.asarray(abs(csr).sum(axis=1)).max(initial=0.0))
    factor = [] if factor is None else factor
    iters = 0
    if factor and factor[0].shape == csr.shape:
        x, iters = _preconditioned_gmres(csr, b, factor[0], norm_a)
        if _backward_error(csr, x, b, norm_a) < _RESIDUAL_TOL:
            return x, 0, iters
    factor.clear()
    if order is None:
        matrix, mode = csr.tocsc(), _SYMMETRIC_MODE
    else:
        matrix, mode = csr[order][:, order].tocsc(), _ORDERED_MODE
    try:
        # an entry beyond single precision becomes inf, and the factor or
        # its cycle fails
        with np.errstate(over="ignore"):
            factor.append(_Factor(spla.splu(matrix.astype(np.float32), **mode),
                                  order, np.float32))
    except RuntimeError:
        pass
    else:
        x, cycle = _preconditioned_gmres(csr, b, factor[0], norm_a)
        iters += cycle
        if _backward_error(csr, x, b, norm_a) < _RESIDUAL_TOL:
            return x, 1, iters
        factor.clear()
    try:
        factor.append(_Factor(spla.splu(matrix, **mode), order, np.float64))
        x = factor[0].solve(b)
    except RuntimeError as exc:
        row = _suspect_row(csr)
        raise SingularMatrixError(
            f"singular factorization (suspect row {row}): {exc}", row=row
        ) from exc
    err = _backward_error(csr, x, b, norm_a)
    if not err < _RESIDUAL_TOL:
        row = int(np.argmax(np.abs(csr @ x - b))) if np.isfinite(err) else _suspect_row(csr)
        raise SingularMatrixError(
            f"numerically singular system: relative residual {err:.2e} "
            f"(worst row {row})",
            row=row,
        )
    return x, 2, iters


class _Factor:
    """The factorization ``lu`` of P A P^T, P the permutation ``order`` or
    the identity for None, applied as one of A to double-precision vectors;
    ``dtype`` is the precision ``lu`` was factored in."""

    def __init__(self, lu, order, dtype):
        self.lu, self.dtype, self.shape = lu, dtype, lu.shape
        self.order = slice(None) if order is None else order

    def solve(self, b):
        x = np.empty(len(b))
        x[self.order] = self.lu.solve(b[self.order].astype(self.dtype, copy=False))
        return x


def _preconditioned_gmres(csr, b, lu, norm_a):
    """One GMRES cycle (Saad & Schultz 1986) right-preconditioned with
    ``lu``, from x = 0: x and its iteration count.

    Iteration j applies ``lu`` once, z_j = lu^-1 v_j, and the matrix once,
    and keeps z_j, so x_j = Z_j y_j needs no further solve (Saad 1993).
    A z_j is orthogonalized against the basis by two block Gram-Schmidt
    passes and the Hessenberg column reduced by Givens rotations, whose
    running product estimates ||b - A x_j||_2 >= ||b - A x_j||_inf.  The
    cycle stops once that estimate is below ``_GMRES_MARGIN`` of
    ``_RESIDUAL_TOL`` (||A||_inf ||x_j||_inf + ||b||_inf), after
    ``_GMRES_ITERS`` iterations, or at a breakdown: a new Hessenberg entry
    below eps ||A z_j|| spans no new direction.  A diagonal of R that small
    is roundoff of a zero one, and its direction is dropped, not divided by.
    From half its iterations on, it also stops when it stagnates: when the
    estimate, reduced further by its average reduction per iteration so far
    in each iteration left, would still miss that bound by the factor
    ``_GMRES_STAGNATION``.  A non-finite A z_j ends the cycle with a NaN x.
    """
    n = len(b)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros(n), 0
    m = min(_GMRES_ITERS, n)
    eps = np.finfo(float).eps
    bound = _GMRES_MARGIN * _RESIDUAL_TOL
    b_inf = np.abs(b).max()
    V = np.empty((m + 1, n))  # orthonormal basis v_j
    Z = np.empty((m, n))  # preconditioned directions z_j = lu^-1 v_j
    R = np.zeros((m, m))  # the Hessenberg matrix after the rotations
    rotations = np.zeros((m, 2))
    g = np.zeros(m + 1)  # beta e_1 after the rotations
    V[0] = b / beta
    g[0] = beta
    for j in range(m):
        Z[j] = lu.solve(V[j])
        w = csr @ Z[j]
        w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm):
            return np.full(n, np.nan), j + 1
        h = np.zeros(j + 2)
        for _ in range(2):
            proj = V[: j + 1] @ w
            w -= proj @ V[: j + 1]
            h[: j + 1] += proj
        h[j + 1] = np.linalg.norm(w)
        breakdown = h[j + 1] <= eps * w_norm
        if breakdown:
            h[j + 1] = 0.0
        else:
            V[j + 1] = w / h[j + 1]
        for k, (c, s) in enumerate(rotations[:j]):
            h[k], h[k + 1] = c * h[k] + s * h[k + 1], c * h[k + 1] - s * h[k]
        r = math.hypot(h[j], h[j + 1])
        c, s = (h[j] / r, h[j + 1] / r) if r else (1.0, 0.0)
        rotations[j] = c, s
        R[: j + 1, j] = h[: j + 1]
        R[j, j] = r
        g[j], g[j + 1] = c * g[j], -s * g[j]
        # only a breakdown column can have a diagonal this small
        kept = j + 1 if r > eps * w_norm else j
        y = solve_triangular(R[:kept, :kept], g[:kept])
        x = y @ Z[:kept]
        estimate = abs(g[j + 1])
        target = bound * (norm_a * np.abs(x).max() + b_inf)
        if breakdown or estimate < target:
            break
        if 2 * (j + 1) >= m and not (
                estimate * (estimate / beta) ** ((m - j - 1) / (j + 1))
                < _GMRES_STAGNATION * target):
            break  # stagnation
    return x, j + 1


def _backward_error(csr, x, b, norm_a):
    """||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) given ||A||_inf,
    with a zero denominator read as 1; NaN when x is not finite."""
    if not csr.shape[0]:
        return 0.0
    if not np.isfinite(x).all():
        return math.nan
    denom = norm_a * np.abs(x).max() + np.abs(b).max()
    return np.abs(csr @ x - b).max() / (denom or 1.0)


def _dissection_tree(space):
    """Nested-dissection tree (George 1973) of the space's interior dofs,
    given as positions in ``space.interior_dofs``.

    A part of at most ``_DISSECTION_LEAF`` dofs is a leaf: the array of its
    dofs.  A larger part is bisected at the median of its dof coordinates
    along their longest extent.  Its separator is the smaller of the two
    one-sided sets of dofs coupled, in the interior Jacobian's pattern, to a
    dof of the other half.  The part is the tuple (first half's tree, second
    half's tree, separator), the halves without the separator, which no
    coupling joins.
    """
    _, indptr, indices = _interior_pattern(space)
    coords = space.dof_coords[space.interior_dofs]
    n = len(coords)
    graph = sp.csr_matrix((np.ones(len(indices), dtype=np.int32), indices, indptr),
                          shape=(n, n))
    # (first half, second half) indicators of the part being split
    halves = np.zeros((n, 2), dtype=np.int32)

    def dissect(dofs):
        if len(dofs) <= _DISSECTION_LEAF:
            return dofs
        c = coords[dofs]
        key = c[:, np.argmax(np.ptp(c, axis=0))]
        median = np.median(key)
        first = key < median
        if not first.any():  # more than half the part on its lowest plane
            first = key <= median
        halves[dofs, 0], halves[dofs, 1] = first, ~first
        # couplings of each dof to the first and to the second half
        coupled = graph[dofs] @ halves
        halves[dofs] = 0
        touch_first = first & (coupled[:, 1] > 0)
        touch_second = ~first & (coupled[:, 0] > 0)
        sep = touch_first if touch_first.sum() <= touch_second.sum() else touch_second
        return dissect(dofs[first & ~sep]), dissect(dofs[~first & ~sep]), dofs[sep]

    return dissect(np.arange(n))


@_cached
def _dissection_order(space):
    """The space's interior dofs, as positions in ``space.interior_dofs``,
    in nested-dissection order (``_dissection_tree``), cached on the space:
    each part's first half, then its second half, then its separator, so
    that factoring in this order makes no fill between the halves."""

    def blocks(tree):
        if isinstance(tree, np.ndarray):
            return [tree]
        first, second, sep = tree
        return blocks(first) + blocks(second) + [sep]

    return _read_only(np.concatenate(blocks(_dissection_tree(space))))[0]


def _suspect_row(csr):
    """Row with the smallest max-abs entry: the usual culprit of a breakdown."""
    if csr.shape[0] == 0:
        return 0
    row_max = np.zeros(csr.shape[0])
    coo = csr.tocoo()
    np.maximum.at(row_max, coo.row, np.abs(coo.data))
    return int(np.argmin(row_max))


def newton_solve(f, g_data, params, config=None, initial=None, *,
                 factor=None):
    """Damped Newton iteration for the nonlinear scheme.

    ``initial`` must satisfy the Dirichlet dofs; each accepted step strictly
    reduces the residual infinity norm.  ``f`` and the callables of
    ``g_data`` must be pure functions: their load and boundary-flux vectors
    are formed once and reused by every residual of the solve.  A step
    solves by GMRES preconditioned with the last factorization, and factors
    its interior Jacobian only when none is held or that solve fails the
    residual check (see ``sparse_solve``).  The Jacobian is factored in
    single precision, a 2D one in minimum-degree order and a 3D one in the
    space's nested-dissection order, and that factor only preconditions the
    GMRES cycle that solves the step; every accepted step passes the
    double-precision check, and a step whose cycle fails factors again in
    double precision, so that step counts two factorizations.
    ``factor`` is the holder of that factorization, a list as
    ``sparse_solve`` takes it: passing one lets a factorization serve
    several solves, and without it the first step factors and the holder
    lives as long as this call.  Returns the solution and a report; raises
    NewtonError with a distinct reason otherwise.
    """
    if initial is None:
        raise ValueError("newton_solve needs an initial FeFunction")
    config = config or NewtonConfig()
    space = initial.space
    ii = space.interior_dofs
    u = initial.copy()
    report = SolveReport(ndofs=space.ndofs)
    if factor is None:
        factor = []
    t0 = time.perf_counter()
    try:
        order = _dissection_order(space) if space.dim == 3 else None
        while True:
            r, J = assemble_residual_and_jacobian(u, f, g_data, params)
            rn = float(np.abs(r).max())
            report.residual_history.append(rn)
            if not np.isfinite(rn):
                raise NewtonError(
                    "residual is not finite", "nonfinite_residual", report
                )
            if rn <= config.abs_tol:
                report.converged = True
                return u, report
            if report.iterations >= _MAX_ITERS:
                raise NewtonError(
                    f"no convergence in {_MAX_ITERS} iterations "
                    f"(residual {rn:.3e})",
                    "max_iters",
                    report,
                )
            try:
                step, factored, gmres_iters = sparse_solve(
                    _interior_block(space, J), -r[ii], order=order, factor=factor)
            except SingularMatrixError as exc:
                raise NewtonError(
                    f"singular Jacobian: {exc}", "singular_jacobian", report
                ) from exc
            report.factorizations += factored
            report.gmres_iterations += gmres_iters
            t = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                trial = u.copy()
                trial.coeffs[ii] += t * step
                rt = assemble_nonlinear_residual(trial, f, g_data, params)
                rtn = float(np.abs(rt).max())
                if np.isfinite(rtn) and rtn < rn:
                    break
                t *= 0.5
            else:
                raise NewtonError(
                    f"damping floor reached (residual stuck at {rn:.3e})",
                    "damping_floor",
                    report,
                )
            u = trial
            report.iterations += 1
    finally:
        report.wall_time = time.perf_counter() - t0


def default_ladder(eps_target):
    """Halving ladder from max(0.5, eps_target) down to eps_target."""
    if not 0 < eps_target < math.inf:  # NaN fails this test too
        raise ValueError("eps_target must be finite and positive")
    eps = max(0.5, float(eps_target))
    ladder = [eps]
    while eps > eps_target:
        eps = max(0.5 * eps, float(eps_target))
        ladder.append(eps)
    return ladder


def convex_seed(space, g):
    """Interpolant of |x - c|^2 / 2, c = (0.5, ..., 0.5), with boundary dofs
    pinned to g."""
    seed = interpolate(space, lambda p: 0.5 * ((p - 0.5) ** 2).sum(axis=1))
    seed.coeffs[space.boundary_dofs] = apply_dirichlet(space, g)
    return seed


def continuation_solve(space, f, g_data, sigma, eps_target, config=None,
                       weight_mode=DEFAULT_WEIGHT_MODE, data_factory=None, *, factor=None):
    """Solve the nonlinear scheme at eps_target via a decreasing epsilon ladder.

    ``data_factory(eps) -> (f, g_data)`` lets the source and boundary data
    depend on the rung (manufactured data usually does); otherwise the given
    ``f`` and ``g_data`` are used on every rung.  The first rung starts from
    ``convex_seed`` and the second from the first rung's solution.  From
    the third rung on, the start is the secant predictor in log epsilon,
    u_k + theta (u_k - u_{k-1}) with theta = log(eps_{k+1} / eps_k) /
    log(eps_k / eps_{k-1}), through the last two rungs' solutions.  Each
    start has its boundary dofs re-pinned.  Every rung but the last stops at
    the residual max(config.abs_tol, ``_RUNG_TOL``), enough to land in the
    next rung's Newton basin; the last stops at ``config.abs_tol``.

    On a Kuhn mesh of ``build_structured_mesh`` with an even n >= 4, a
    ladder of two or more rungs is climbed by nested iteration: every rung but the
    target runs on the same degree's space on the n/2 Kuhn mesh, which the
    n mesh refines, so the target rung's start moves to ``space`` exactly by
    ``interpolate(space, start.evaluate)``; it is re-pinned and the target
    rung alone runs on ``space``.  The coarse space, its solutions and its
    factorization are released before that rung assembles.  If a coarse
    rung or the target rung raises NewtonError, the plain ladder runs on
    ``space`` from its convex seed and ``report.fell_back`` is set.  Any
    other mesh (n=2 included), and a one-rung ladder, always takes the
    plain ladder.

    ``report.rungs`` lists every rung attempted, in order: coarse ones,
    failed ones and a fallback's included, each with the ``ndofs`` of its
    space.  The plain ladder's rungs share one factorization holder (see
    ``newton_solve``): ``factor`` if given, so that the last factorization
    can serve later solves, and otherwise one that dies with this call.
    The coarse rungs share a holder of their own, and ``factor`` is emptied
    before them and before a fallback, so at most one factorization is alive
    and a fallback repeats the plain ladder exactly.
    """
    config = config or NewtonConfig()
    if config.continuation_schedule is not None:
        ladder = list(config.continuation_schedule)
        if abs(ladder[-1] - eps_target) > 1e-14 * max(1.0, eps_target):
            raise ValueError("schedule must end at eps_target")
    else:
        ladder = default_ladder(eps_target)
    rung_config = replace(config, abs_tol=max(config.abs_tol, _RUNG_TOL))
    total = SolveReport(ndofs=space.ndofs)
    if factor is None:
        factor = []

    def data(eps):
        return data_factory(eps) if data_factory is not None else (f, g_data)

    def run(k, start, f_eps, g_eps, holder):
        """Newton on rung k from ``start``, recorded in ``total``."""
        eps = ladder[k]
        try:
            solution, rep = newton_solve(
                f_eps, g_eps, PenaltyParams(sigma, eps, weight_mode),
                config if k == len(ladder) - 1 else rung_config, start,
                factor=holder)
        except NewtonError as exc:
            _add_rung(total, eps, exc.report)
            raise NewtonError(
                f"continuation failed at eps = {eps:g}: {exc}",
                exc.reason,
                total,
                epsilon=eps,
            ) from exc
        _add_rung(total, eps, rep)
        return solution

    def climb(on, rungs, holder):
        """Rungs 0 .. rungs-1 on the space ``on``: the last two solutions."""
        u = prev = None
        for k in range(rungs):
            f_eps, g_eps = data(ladder[k])
            start = _rung_start(on, ladder, k, u, prev, g_eps.g)
            prev, u = u, run(k, start, f_eps, g_eps, holder)
        return u, prev

    def nested_start(n, g):
        """The target rung's start on ``space``, from the ladder climbed on
        the n Kuhn mesh; nothing of that mesh outlives this call."""
        coarse = FeSpace(build_structured_mesh(space.dim, n), space.degree)
        u, prev = climb(coarse, len(ladder) - 1, [])
        start = _rung_start(coarse, ladder, len(ladder) - 1, u, prev, g)
        fine = interpolate(space, start.evaluate)
        fine.coeffs[space.boundary_dofs] = apply_dirichlet(space, g)
        return fine

    t0 = time.perf_counter()
    try:
        n = _coarse_divisions(space, ladder)
        if n is not None:
            factor.clear()
            f_eps, g_eps = data(ladder[-1])
            try:
                start = nested_start(n, g_eps.g)
                u = run(len(ladder) - 1, start, f_eps, g_eps, factor)
            except NewtonError:
                total.fell_back = True
                factor.clear()
            else:
                total.converged = True
                return u, total
        u, _ = climb(space, len(ladder), factor)
        total.converged = True
        return u, total
    finally:
        total.wall_time = time.perf_counter() - t0


def _coarse_divisions(space, ladder):
    """Divisions per axis of the Kuhn mesh that nested iteration climbs the
    ladder on (half of ``space``'s even n), or None for the plain ladder.
    The n=2 mesh keeps the plain ladder: a ladder climbed on the one-cube
    n=1 mesh (one interior dof at k=2) can steer the target rung to a
    spurious non-convex root (case VI in 3D, k=2)."""
    structure = space.mesh.structure
    if (len(ladder) < 2 or structure is None or structure[0] != "kuhn"
            or structure[1] % 2 or structure[1] < 4):
        return None
    return structure[1] // 2


def _rung_start(space, ladder, k, u, prev, g):
    """Start of rung k on ``space`` from the last two solutions ``u`` and
    ``prev`` (None before they exist): the convex seed, the last solution,
    or the secant predictor in log epsilon, boundary dofs pinned to g."""
    if u is None:
        return convex_seed(space, g)
    start = u.copy()
    if prev is not None:
        theta = (math.log(ladder[k] / ladder[k - 1])
                 / math.log(ladder[k - 1] / ladder[k - 2]))
        start.coeffs += theta * (u.coeffs - prev.coeffs)
    start.coeffs[space.boundary_dofs] = apply_dirichlet(space, g)
    return start


def _add_rung(total, eps, rep):
    """Append one rung's report to a ladder's and add up its counts."""
    total.rungs.append((eps, rep))
    total.iterations += rep.iterations
    total.factorizations += rep.factorizations
    total.gmres_iterations += rep.gmres_iterations
    total.residual_history.extend(rep.residual_history)

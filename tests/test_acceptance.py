"""Acceptance gate: one test per headline capability, each printing a
single PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s``.  The budgets are
generous single-threaded wall-time bounds; the numeric tolerances encode
the expected convergence behavior of the scheme:

1. manufactured 2D quartic, quadratic elements: broken-H2 order 1 (and
   L2/H1 order 2) under mesh refinement at fixed epsilon;
2. the same with cubic elements: broken-H2 order 2;
3. exponential solution, fixed fine mesh: errors against the unregularized
   solution shrink like eps, eps^0.75, eps^0.25 in L2/H1/broken-H2;
4. manufactured 3D quartic: broken-H2 order 1;
5. f = 1, g = 0 viscosity profiles in 2D and 3D: convergent, symmetric,
   negative inside, zero on the boundary;
6. property suite: discrete inequalities bounded under refinement plus
   exactness/consistency spot checks;
7. coercivity probe of the linearized form at full epsilon weighting.
"""

import copy
import math
import time

import numpy as np

from maviscid.analysis import (
    _coercivity_values,
    _samples,
    rate_table,
    verify_discrete_sobolev,
    verify_miranda_talenti,
)
from maviscid.assembly import (
    CoefficientField,
    PenaltyParams,
    assemble_Ah_sigma,
    assemble_jacobian,
    assemble_nonlinear_residual,
    det_and_cofactor,
)
from maviscid.cases import builtin_case, check_case_consistency
from maviscid.cli import _run_eps_study, _run_h_study, _solve_on_mesh
from maviscid.elements import FeSpace, cell_quadrature, interpolate
from maviscid.mesh import build_structured_mesh


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print()
    print(line)
    assert ok, line


# external reference magnitudes for the same study configuration, used only
# for an order-of-magnitude comparison in the printed report (the penalty
# strength differs, so values need not match)
REFERENCE_II_K2_FINEST = {"l2": 4.63e-06, "h1": 2.57e-05, "h2": 7.37e-03}


def test_acceptance_1_quartic_2d_quadratic():
    t0 = time.perf_counter()
    spec = builtin_case("II")
    rows, failure = _run_h_study(spec, 2)
    assert failure is None, failure
    table = rate_table(rows)
    wall = time.perf_counter() - t0
    last = table[-1]
    ok = (
        abs(last.h2_order - 1.00) <= 0.10
        and abs(last.l2_order - 2.0) <= 0.2
        and abs(last.h1_order - 2.0) <= 0.2
        and wall < 180.0
    )
    ratios = {
        "l2": last.l2 / REFERENCE_II_K2_FINEST["l2"],
        "h1": last.h1 / REFERENCE_II_K2_FINEST["h1"],
        "h2": last.h2 / REFERENCE_II_K2_FINEST["h2"],
    }
    report(
        1, ok,
        f"case II k=2 last-pair orders l2={last.l2_order:.2f} "
        f"h1={last.h1_order:.2f} h2={last.h2_order:.2f} "
        f"(targets 2.0+-0.2 / 2.0+-0.2 / 1.00+-0.10); "
        f"error ratios vs reference magnitudes "
        f"l2={ratios['l2']:.2f}x h1={ratios['h1']:.2f}x h2={ratios['h2']:.2f}x; "
        f"{wall:.0f} s < 180 s",
    )


def test_acceptance_2_quartic_2d_cubic():
    t0 = time.perf_counter()
    spec = builtin_case("II")
    rows, failure = _run_h_study(spec, 3)
    assert failure is None, failure
    table = rate_table(rows)
    wall = time.perf_counter() - t0
    last = table[-1]
    ok = abs(last.h2_order - 2.00) <= 0.10 and wall < 600.0
    report(
        2, ok,
        f"case II k=3 last-pair h2 order {last.h2_order:.3f} "
        f"(target 2.00+-0.10); {wall:.0f} s < 600 s",
    )


def test_acceptance_3_exponential_eps_rates():
    t0 = time.perf_counter()
    spec = builtin_case("I")
    n = int(round(1.0 / spec.h_list[0]))
    rows, failure = _run_eps_study(spec, 2)
    assert failure is None, failure
    wall = time.perf_counter() - t0

    def fitted_slope(errors):
        k = min(4, len(rows))
        x = np.log([eps for eps, _ in rows[-k:]])
        y = np.log(errors[-k:])
        return float(np.polyfit(x, y, 1)[0])

    s_l2 = fitted_slope([e.l2 for _, e in rows])
    s_h1 = fitted_slope([e.h1 for _, e in rows])
    s_h2 = fitted_slope([e.h2_broken for _, e in rows])
    ok = (
        abs(s_l2 - 1.0) <= 0.2
        and abs(s_h1 - 0.75) <= 0.15
        and abs(s_h2 - 0.25) <= 0.15
        and wall < 900.0
    )
    report(
        3, ok,
        f"case I k=2 h=1/{n} fitted eps-slopes l2={s_l2:.3f} h1={s_h1:.3f} "
        f"h2={s_h2:.3f} (targets 1.0+-0.2 / 0.75+-0.15 / 0.25+-0.15); "
        f"{wall:.0f} s < 900 s",
    )


def test_acceptance_4_quartic_3d():
    t0 = time.perf_counter()
    spec = builtin_case("V")
    rows, failure = _run_h_study(spec, 2)
    assert failure is None, failure
    table = rate_table(rows)
    wall = time.perf_counter() - t0
    last = table[-1]
    ok = abs(last.h2_order - 1.00) <= 0.15 and wall < 600.0
    report(
        4, ok,
        f"case V k=2 last-pair h2 order {last.h2_order:.3f} "
        f"(target 1.00+-0.15); {wall:.0f} s < 600 s",
    )


def _viscosity_profile_checks(cid, budget):
    t0 = time.perf_counter()
    spec = builtin_case(cid)
    u, rep = _solve_on_mesh(spec, 2, spec.h_list[0], spec.eps_list[0])
    wall = time.perf_counter() - t0
    space = u.space
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 0.95, size=(60, spec.dim))
    base = u.evaluate(pts)
    sym = 0.0
    swaps = [(0, 1)] if spec.dim == 2 else [(0, 1), (1, 2)]
    for a, b in swaps:
        q = pts.copy()
        q[:, [a, b]] = q[:, [b, a]]
        sym = max(sym, float(np.abs(u.evaluate(q) - base).max()))
    boundary = float(np.abs(u.coeffs[space.boundary_dofs]).max())
    ok = (
        rep.converged
        and sym <= 1e-8
        and boundary <= 1e-12
        and float(base.max()) < 0.0
        and float(u.coeffs.min()) < -0.01
        and wall < budget
    )
    detail = (
        f"case {cid}: converged={rep.converged}, swap symmetry {sym:.1e} "
        f"<= 1e-8, boundary max {boundary:.1e}, interior samples all "
        f"negative (max {base.max():.2e}, min dof {u.coeffs.min():.4f}); "
        f"{wall:.0f} s < {budget:.0f} s"
    )
    return ok, detail


def test_acceptance_5_viscosity_profiles():
    ok2, d2 = _viscosity_profile_checks("III", 300.0)
    ok3, d3 = _viscosity_profile_checks("VI", 600.0)
    report(5, ok2 and ok3, d2 + " | " + d3)


# ----------------------------------------------------------- property suite


def _simplex_monomial_integral(alpha):
    # int over the unit simplex of prod x_i^{a_i} = prod(a_i!) / (|a| + d)!
    d = len(alpha)
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + d)


def _quadrature_exactness_gap():
    worst = 0.0
    for dim, top in ((2, 10), (3, 8)):
        for exactness in range(1, top + 1):
            rule = cell_quadrature(dim, exactness)
            for total in range(exactness + 1):
                for ax in range(dim):
                    alpha = [0] * dim
                    alpha[ax] = total
                    vals = np.prod(rule.points ** np.asarray(alpha), axis=1)
                    got = float(rule.weights @ vals)
                    worst = max(
                        worst, abs(got - _simplex_monomial_integral(alpha))
                    )
                mixed = [total // dim] * dim
                mixed[0] += total - sum(mixed)
                vals = np.prod(rule.points ** np.asarray(mixed), axis=1)
                got = float(rule.weights @ vals)
                worst = max(worst, abs(got - _simplex_monomial_integral(mixed)))
    return worst


def _fd_jacobian_gap():
    space = FeSpace(build_structured_mesh(2, 2), 2)
    u = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
    g_data = builtin_case("I").data(0.1)[1]
    params = PenaltyParams(20.0, 0.1, "plain")
    f = builtin_case("I").data(0.1)[0]
    J = assemble_jacobian(u, params).toarray()
    ii = space.interior_dofs
    t = 1e-6
    worst = 0.0
    for j in ii:
        up, um = u.copy(), u.copy()
        up.coeffs[j] += t
        um.coeffs[j] -= t
        rp = assemble_nonlinear_residual(up, f, g_data, params)
        rm = assemble_nonlinear_residual(um, f, g_data, params)
        fd = (rp - rm)[ii] / (2.0 * t)
        worst = max(worst, float(np.abs(fd - J[ii, j]).max()))
    return worst / float(np.abs(J[np.ix_(ii, ii)]).max())


def _label_invariance_gap():
    mesh = build_structured_mesh(2, 3)

    def bumpy(points, cells=None):
        x, y = points[:, 0], points[:, 1]
        out = np.empty((len(points), 2, 2))
        out[:, 0, 0] = 1.0 + x * y
        out[:, 0, 1] = out[:, 1, 0] = 0.25 * (x - y)
        out[:, 1, 1] = 2.0 - x
        return out

    field = CoefficientField(2, bumpy)
    params = PenaltyParams(1.3, 0.3, "full")
    A1 = assemble_Ah_sigma(FeSpace(mesh, 2), field, params).toarray()
    flipped = copy.copy(mesh)
    flipped.iface_cells = mesh.iface_cells[:, ::-1].copy()
    flipped.iface_locals = mesh.iface_locals[:, ::-1].copy()
    flipped.iface_normals = -mesh.iface_normals
    A2 = assemble_Ah_sigma(FeSpace(flipped, 2), field, params).toarray()
    return float(np.abs(A1 - A2).max() / np.abs(A1).max())


def _det_cofactor_gap():
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in (2, 3):
        B = rng.normal(size=(40, d, d))
        H = 0.5 * (B + np.swapaxes(B, 1, 2))
        det, cof = det_and_cofactor(H)
        resid = np.einsum("nij,nkj->nik", H, cof) - det[:, None, None] * np.eye(d)
        worst = max(worst, float(np.abs(resid).max() / np.abs(H).max()))
    return worst


def test_acceptance_6_property_suite():
    t0 = time.perf_counter()
    growth_ok = True
    growth_msgs = []
    probes = (
        ("miranda_talenti", verify_miranda_talenti),
        ("sobolev", verify_discrete_sobolev),
    )
    for dim, levels in ((2, (4, 8, 16)), (3, (2, 4))):
        # both probes run on one space per level and share its sample block
        consts_by_probe = {name: [] for name, _ in probes}
        for n in levels:
            space = FeSpace(build_structured_mesh(dim, n), 2)
            for name, probe in probes:
                consts_by_probe[name].append(probe(space, 150, seed=0))
        for name, consts in consts_by_probe.items():
            pair_ok = all(
                c1 <= 1.5 * c0 + 1e-12 for c0, c1 in zip(consts, consts[1:])
            )
            growth_ok = growth_ok and pair_ok
            growth_msgs.append(
                f"{name} {dim}D " + "/".join(f"{c:.2f}" for c in consts)
            )
    fd = _fd_jacobian_gap()
    label = _label_invariance_gap()
    detcof = _det_cofactor_gap()
    quad = _quadrature_exactness_gap()
    consistency = max(
        check_case_consistency(builtin_case(cid), eps=eps)
        for cid in ("I", "II", "IV", "V")
        for eps in (0.1, 0.01)
    )
    wall = time.perf_counter() - t0
    ok = (
        growth_ok
        and fd < 1e-5
        and label < 1e-13
        and detcof < 1e-12
        and quad < 1e-12
        and consistency < 1e-10
        and wall < 120.0
    )
    report(
        6, ok,
        f"inequality constants bounded ({'; '.join(growth_msgs)}); "
        f"jacobian fd {fd:.1e} < 1e-5; label invariance {label:.1e} < 1e-13; "
        f"det*cof {detcof:.1e} < 1e-12; quadrature {quad:.1e} < 1e-12; "
        f"data consistency {consistency:.1e} < 1e-10; {wall:.0f} s < 120 s",
    )


def test_acceptance_7_coercivity_probe():
    t0 = time.perf_counter()
    worst = np.inf
    for n in (8, 16):
        space = FeSpace(build_structured_mesh(2, n), 2)
        w = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
        V = _samples(space, 100, 0)
        for eps in (0.1, 0.01):
            values = _coercivity_values(w, PenaltyParams(1.0, eps, "full"), V)
            worst = min(worst, float(values.min()))
    # with the penalty removed a violation may exist; probing must detect
    # it (a finite, possibly negative minimum), not crash
    space = FeSpace(build_structured_mesh(2, 8), 2)
    w = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
    V = _samples(space, 100, 0)
    unpenalized = float(
        _coercivity_values(w, PenaltyParams(0.0, 0.1, "full"), V).min()
    )
    wall = time.perf_counter() - t0
    detected = np.isfinite(unpenalized)
    ok = worst > 0.0 and detected and wall < 120.0
    report(
        7, ok,
        f"min v'Av = {worst:.3e} > 0 over 100 random interior v at "
        f"sigma=1 full, eps in (0.1, 0.01), n in (8, 16); sigma=0 probe "
        f"detected min {unpenalized:.3e} without crashing; {wall:.0f} s",
    )

"""Built-in experiment data: consistency, frozen values, serialization."""

import math

import numpy as np
import pytest

from maviscid.cases import (
    CASE_IDS,
    ExperimentSpec,
    _boundary_points,
    builtin_case,
    case_with_overrides,
    check_case_consistency,
    parse_config_text,
    serialize_case,
)


def P(*coords):
    return np.asarray([coords], dtype=float)


def test_all_six_cases_construct():
    for cid in CASE_IDS:
        spec = builtin_case(cid)
        assert spec.id == cid
        assert spec.dim in (2, 3)
        assert spec.sigma == 20.0
        assert spec.weight_mode == "plain"


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown case"):
        builtin_case("VII")


def test_case_id_normalization():
    assert builtin_case(" ii ").id == "II"


@pytest.mark.parametrize("cid", ["I", "II", "IV", "V"])
def test_manufactured_data_consistency(cid):
    spec = builtin_case(cid)
    for eps in (0.5, 0.01):
        assert check_case_consistency(spec, eps=eps, seed=99) < 1e-10


def test_exponential_source_frozen_value():
    # det of the Hessian of exp(|x|^2/2) at (1/2, 1/2): the Hessian is
    # exp(1/4) (I + x x^T), so det = (1 + 1/2) exp(2/4) = 1.5 e^{1/2}.
    spec = builtin_case("I")
    f, _ = spec.data(0.123)
    assert f(P(0.5, 0.5))[0] == pytest.approx(1.5 * math.exp(0.5), rel=1e-14)
    # 3D analogue: (1 + 3/4) exp(3 * 3/4 / 2) at (1/2, 1/2, 1/2)
    f3, _ = builtin_case("IV").data(0.123)
    assert f3(P(0.5, 0.5, 0.5))[0] == pytest.approx(
        1.75 * math.exp(1.125), rel=1e-14
    )


def test_exponential_boundary_data():
    spec = builtin_case("I")
    _, bdata = spec.data(0.25)
    assert bdata.g(P(1.0, 0.0))[0] == pytest.approx(math.exp(0.5), rel=1e-14)
    # Laplacian trace is the constant eps for the exponential cases
    assert bdata.psi_field(0.25)(P(1.0, 0.3))[0] == 0.25


def test_quartic_2d_frozen_values():
    spec = builtin_case("II")
    f, bdata = spec.data(0.01)
    # f = 36 x^2 y^2 - 24 eps
    assert f(P(1.0, 1.0))[0] == pytest.approx(36.0 - 0.24, rel=1e-14)
    assert f(P(0.5, 0.5))[0] == pytest.approx(36.0 / 16.0 - 0.24, rel=1e-14)
    # psi = 6 x^2 + 6 y^2, independent of eps
    assert bdata.psi_field(0.01)(P(1.0, 0.5))[0] == pytest.approx(7.5)
    assert bdata.g(P(1.0, 0.5))[0] == pytest.approx(0.5 * (1.0 + 0.0625))


def test_quartic_3d_frozen_values():
    spec = builtin_case("V")
    f, bdata = spec.data(0.01)
    # f = 36 x^2 z^2 - 24 eps; y enters u quadratically so det picks up
    # the factor 1 from the middle Hessian entry
    assert f(P(1.0, 0.2, 1.0))[0] == pytest.approx(36.0 - 0.24, rel=1e-14)
    # psi = lap u = 6 x^2 + 1 + 6 z^2
    assert bdata.psi_field(0.01)(P(0.0, 0.4, 1.0))[0] == pytest.approx(7.0)


@pytest.mark.parametrize("case_id,point,value,gradient,hessian", [
    # u = (x^4 + y^4) / 2
    ("II", (0.5, 0.25), 0.033203125, (0.25, 0.03125), (1.5, 0.375)),
    # u = (x^4 + y^2 + z^4) / 2
    ("V", (0.5, 0.25, 1.0), 0.5625, (0.25, 0.25, 2.0), (1.5, 1.0, 6.0)),
])
def test_quartic_exact_solution_frozen_values(case_id, point, value, gradient, hessian):
    # dyadic points give exact values; the gradient is read only by the
    # error norms, so the consistency check does not cover it
    u = builtin_case(case_id).exact_solution
    assert u.value(P(*point)).tolist() == [value]
    assert u.gradient(P(*point)).tolist() == [list(gradient)]
    assert u.hessian(P(*point)).tolist() == [np.diag(hessian).tolist()]


def test_profile_cases_have_unit_source_and_zero_boundary():
    for cid, dim in (("III", 2), ("VI", 3)):
        spec = builtin_case(cid)
        assert spec.exact_solution is None and spec.exact_kind == "none"
        f, bdata = spec.data(0.005)
        pts = np.random.default_rng(3).uniform(0, 1, size=(5, dim))
        assert np.all(f(pts) == 1.0)
        assert np.all(bdata.g(pts) == 0.0)
        assert np.all(bdata.psi_field(0.005)(pts) == 0.005)


def test_inconsistent_data_detected():
    spec = builtin_case("II")
    from dataclasses import replace

    bad = replace(spec, make_f=lambda eps: lambda p: 36.0 * p[:, 0] ** 2)
    assert check_case_consistency(bad, eps=0.01) > 1e-3


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_points_match_the_per_point_loop(dim):
    def loop_reference(dim, count, rng):
        pts = rng.uniform(0.0, 1.0, size=(count, dim))
        walls = rng.integers(0, 2 * dim, size=count)
        for i, w in enumerate(walls):
            pts[i, w // 2] = float(w % 2)
        return pts

    got = _boundary_points(dim, 50, np.random.default_rng(7))
    want = loop_reference(dim, 50, np.random.default_rng(7))
    assert got.tobytes() == want.tobytes()
    assert np.all(np.any((got == 0.0) | (got == 1.0), axis=1))


def test_study_defaults():
    assert builtin_case("II").h_list == [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    assert builtin_case("II").degrees == [2, 3]
    assert builtin_case("II").eps_list == [0.01]
    assert builtin_case("I").eps_list == [0.5, 0.25, 0.125, 0.05, 0.025, 0.0125, 0.005]
    assert builtin_case("I").h_list == [1 / 64]
    assert builtin_case("V").h_list == [1 / 3, 1 / 6, 1 / 12]
    assert builtin_case("VI").dim == 3


def test_serialize_parse_round_trip():
    spec = builtin_case("II")
    text = serialize_case(spec)
    cfg = parse_config_text(text)
    rebuilt = case_with_overrides(cfg["case"], cfg)
    assert rebuilt.id == spec.id
    assert rebuilt.dim == spec.dim
    assert rebuilt.degrees == spec.degrees
    assert rebuilt.h_list == spec.h_list
    assert rebuilt.eps_list == spec.eps_list
    assert rebuilt.sigma == spec.sigma
    assert rebuilt.weight_mode == spec.weight_mode


def test_parse_config_comments_and_errors():
    cfg = parse_config_text("# study\ncase = III\n\nsigma = 12.5  # stiff\n")
    assert cfg == {"case": "III", "sigma": "12.5"}
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("sigma 12.5")


def test_overrides_accept_fractions_and_commas():
    spec = case_with_overrides(
        "II", {"h_list": "1/8, 1/16", "degrees": "3", "sigma": "7.5"}
    )
    assert spec.h_list == [0.125, 0.0625]
    assert spec.degrees == [3]
    assert spec.sigma == 7.5
    assert spec.eps_list == [0.01]  # untouched default


def test_data_callable_against_exact_fields():
    # spot check gradient/hessian wiring of the stored exact solutions
    for cid in ("I", "II", "IV", "V"):
        spec = builtin_case(cid)
        u = spec.exact_solution
        pts = np.random.default_rng(7).uniform(0.1, 0.9, size=(4, spec.dim))
        t = 1e-6
        for j in range(pts.shape[1]):
            bump = np.zeros_like(pts)
            bump[:, j] = t
            fd = (u.value(pts + bump) - u.value(pts - bump)) / (2 * t)
            assert np.allclose(fd, u.gradient(pts)[:, j], rtol=1e-6, atol=1e-8)
            fdh = (u.gradient(pts + bump) - u.gradient(pts - bump)) / (2 * t)
            assert np.allclose(fdh, u.hessian(pts)[:, :, j].reshape(fdh.shape),
                               rtol=1e-5, atol=1e-6)

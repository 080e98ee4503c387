"""Built-in experiment definitions with manufactured or reference data.

Six experiments, three families:

* exponential (I in 2D, IV in 3D): u = exp(|x|^2/2) solves the unregularized
  Monge-Ampere equation with f = det(D^2 u) = (1 + |x|^2) exp(d |x|^2 / 2)
  for dimension d; errors are measured against u itself while epsilon
  decreases, and the Laplacian trace is the constant epsilon.
* manufactured quartics (II in 2D, V in 3D): the exact regularized solution
  is a fixed quartic and f, g, psi are derived from it exactly:
  f = -eps lap^2 u + det(D^2 u), g = u, psi = lap u.
* viscosity profiles (III in 2D, VI in 3D): f = 1, g = 0, no exact solution;
  the computed solution approximates the (nonsmooth) viscosity solution.

Every case with an exact solution is checked at random points on
construction: data inconsistent with the derivation rule is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from maviscid.analysis import ScalarField
from maviscid.assembly import DEFAULT_WEIGHT_MODE, BoundaryData, det_and_cofactor

__all__ = [
    "ExperimentSpec",
    "builtin_case",
    "check_case_consistency",
    "serialize_case",
    "parse_config_text",
    "case_with_overrides",
]

DEFAULT_SIGMA = 20.0
# interior and boundary points that check_case_consistency draws
_CONSISTENCY_POINTS = 20
_EPS_LADDER = (0.5, 0.25, 0.125, 0.05, 0.025, 0.0125, 0.005)

# case id: (dim, family, degrees, h_list, eps_list)
_CASES = {
    "I": (2, "exponential", (2,), (1 / 64,), _EPS_LADDER),
    "II": (2, "quartic", (2, 3), (1 / 8, 1 / 16, 1 / 32, 1 / 64), (0.01,)),
    "III": (2, "profile", (2,), (1 / 64,), (0.005,)),
    "IV": (3, "exponential", (2,), (1 / 12,), _EPS_LADDER),
    "V": (3, "quartic", (2,), (1 / 3, 1 / 6, 1 / 12), (0.01,)),
    "VI": (3, "profile", (2,), (1 / 12,), (0.005,)),
}
CASE_IDS = tuple(_CASES)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative experiment: data builders plus study defaults.

    ``make_f(eps)`` and ``make_psi(eps)`` give the source and Laplacian-trace
    fields at a regularization level (psi may be None: the constant eps).
    ``exact_solution`` is None without a reference solution.  With
    ``bilap``, the bilaplacian of ``exact_solution``, the reference solves
    the regularized problem at every eps; without it, the unregularized one.
    """

    id: str
    dim: int
    exact_solution: Optional[ScalarField]
    make_f: Callable
    g: Callable
    make_psi: Optional[Callable]
    degrees: List[int]
    h_list: List[float]
    eps_list: List[float]
    sigma: float = DEFAULT_SIGMA
    weight_mode: str = DEFAULT_WEIGHT_MODE
    bilap: Optional[Callable] = None

    def data(self, eps):
        """(f, BoundaryData) at one regularization level."""
        psi = self.make_psi(eps) if self.make_psi is not None else None
        return self.make_f(eps), BoundaryData(g=self.g, psi=psi)


def _exp_field(dim):
    def value(p):
        return np.exp(0.5 * (p**2).sum(axis=1))

    def gradient(p):
        return p * value(p)[:, None]

    def hessian(p):
        H = np.einsum("ni,nj->nij", p, p) + np.eye(dim)
        return H * value(p)[:, None, None]

    return ScalarField(value, gradient, hessian)


def _exp_det(dim):
    # det of exp(|x|^2/2) (I + x x^T) is (1 + |x|^2) exp(d |x|^2 / 2)
    def f(p):
        r2 = (p**2).sum(axis=1)
        return (1.0 + r2) * np.exp(0.5 * dim * r2)

    return f


def _quartic(exponents):
    """u = (x_1^e_1 + ... + x_d^e_d) / 2 with its gradient and Hessian, each
    axis raised to its own integer power."""

    def value(p):
        return 0.5 * sum(p[:, i] ** e for i, e in enumerate(exponents))

    def gradient(p):
        return np.stack(
            [0.5 * e * p[:, i] ** (e - 1) for i, e in enumerate(exponents)], axis=1
        )

    def hessian(p):
        H = np.zeros((len(p), len(exponents), len(exponents)))
        for i, e in enumerate(exponents):
            H[:, i, i] = 0.5 * e * (e - 1) * p[:, i] ** (e - 2)
        return H

    return ScalarField(value, gradient, hessian)


# the quartics' exponents and their hand-written f = -eps lap^2 u + det D^2 u
# and psi = lap u, which check_case_consistency tests against the field
_QUARTICS = {
    2: ((4, 4),
        lambda eps: lambda p: 36.0 * p[:, 0] ** 2 * p[:, 1] ** 2 - 24.0 * eps,
        lambda eps: lambda p: 6.0 * p[:, 0] ** 2 + 6.0 * p[:, 1] ** 2),
    3: ((4, 2, 4),
        lambda eps: lambda p: 36.0 * p[:, 0] ** 2 * p[:, 2] ** 2 - 24.0 * eps,
        lambda eps: lambda p: 1.0 + 6.0 * p[:, 0] ** 2 + 6.0 * p[:, 2] ** 2),
}


def _zero(p):
    return np.zeros(len(p))


def _one(p):
    return np.ones(len(p))


def builtin_case(case_id):
    """One of the six built-in experiments, consistency-checked."""
    cid = str(case_id).strip().upper()
    if cid not in _CASES:
        raise ValueError(f"unknown case id {case_id!r} (expected I..VI)")
    dim, family, degrees, h_list, eps_list = _CASES[cid]
    u = make_psi = bilap = None
    if family == "exponential":
        # one f for every eps: the solver reuses its load vector on each rung
        u, f = _exp_field(dim), _exp_det(dim)
        make_f = lambda eps: f
    elif family == "quartic":
        exponents, make_f, make_psi = _QUARTICS[dim]
        u, bilap = _quartic(exponents), lambda p: np.full(len(p), 24.0)
    else:
        make_f = lambda eps: _one
    spec = ExperimentSpec(
        id=cid, dim=dim, exact_solution=u, make_f=make_f,
        g=_zero if u is None else u.value, make_psi=make_psi, degrees=list(degrees),
        h_list=list(h_list), eps_list=list(eps_list), bilap=bilap,
    )
    if spec.exact_solution is not None:
        gap = check_case_consistency(spec)
        if gap > 1e-10:
            raise ValueError(f"case {cid} data inconsistent by {gap:.2e}")
    return spec


def _boundary_points(dim, count, rng):
    pts = rng.uniform(0.0, 1.0, size=(count, dim))
    walls = rng.integers(0, 2 * dim, size=count)
    pts[np.arange(count), walls // 2] = walls % 2
    return pts


def check_case_consistency(spec, eps=0.37, seed=1234):
    """Max relative defect of the manufactured data against the exact
    solution, of the regularized problem if ``bilap`` is given."""
    if spec.exact_solution is None:
        return 0.0
    rng = np.random.default_rng(seed)
    interior = rng.uniform(0.02, 0.98, size=(_CONSISTENCY_POINTS, spec.dim))
    boundary = _boundary_points(spec.dim, _CONSISTENCY_POINTS, rng)
    u = spec.exact_solution
    f, bdata = spec.data(eps)
    det, _ = det_and_cofactor(u.hessian(interior))
    target = det
    if spec.bilap is not None:
        target = target - eps * spec.bilap(interior)
    scale = max(1.0, float(np.abs(target).max()))
    gap = float(np.abs(f(interior) - target).max()) / scale
    g_gap = float(np.abs(bdata.g(boundary) - u.value(boundary)).max())
    gap = max(gap, g_gap / max(1.0, float(np.abs(u.value(boundary)).max())))
    psi_vals = bdata.psi_field(eps)(boundary)
    if spec.bilap is not None:
        lap = np.einsum("nii->n", u.hessian(boundary))
        gap = max(
            gap,
            float(np.abs(psi_vals - lap).max()) / max(1.0, float(np.abs(lap).max())),
        )
    else:
        gap = max(gap, float(np.abs(psi_vals - eps).max()))
    return gap


# ------------------------------------------------------------ serialization


def serialize_case(spec):
    """Key-value text with the numeric study parameters of a case."""
    lines = [
        f"case = {spec.id}",
        f"dim = {spec.dim}",
        "degrees = " + " ".join(str(k) for k in spec.degrees),
        "h_list = " + " ".join(repr(h) for h in spec.h_list),
        "eps_list = " + " ".join(repr(e) for e in spec.eps_list),
        f"sigma = {spec.sigma!r}",
        f"weight_mode = {spec.weight_mode}",
    ]
    return "\n".join(lines) + "\n"


def parse_config_text(text):
    """Parse ``key = value`` lines, each key once; '#' starts a comment."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


def _parse_number(tok):
    if "/" in tok:
        num, den = tok.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"{tok}: zero denominator")
        return float(num) / float(den)
    return float(tok)


def _parse_list(value, kind=float):
    toks = value.replace(",", " ").split()
    if kind is int:
        return [int(t) for t in toks]
    return [_parse_number(t) for t in toks]


def case_with_overrides(base_id, overrides):
    """A builtin case with study parameters replaced from a config mapping."""
    spec = builtin_case(base_id)
    kwargs = {}
    if "degrees" in overrides:
        kwargs["degrees"] = _parse_list(overrides["degrees"], int)
    if "h_list" in overrides:
        kwargs["h_list"] = _parse_list(overrides["h_list"])
    if "eps_list" in overrides:
        kwargs["eps_list"] = _parse_list(overrides["eps_list"])
    if "sigma" in overrides:
        kwargs["sigma"] = float(overrides["sigma"])
    if "weight_mode" in overrides:
        kwargs["weight_mode"] = str(overrides["weight_mode"])
    return replace(spec, **kwargs) if kwargs else spec

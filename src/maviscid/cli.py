"""Command-line runner: convergence tables, single solves, verification.

Three subcommands:

* ``convergence`` — one rate table per polynomial degree, either over the
  mesh sizes (fixed epsilon) or over the epsilon ladder (fixed mesh),
  written as CSV and/or markdown.
* ``solve`` — one solve at the target parameters, dumping dof values plus a
  plot-ready grid (2D) or axis-aligned slice files (3D).
* ``verify`` — Monte-Carlo probes of the discrete Miranda-Talenti and
  Sobolev inequalities and of coercivity of the linearized form, with
  per-level constants and a nonzero exit when a bound degrades or fails.

Exit codes: 0 success, 1 solver or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maviscid.analysis import (
    RateRow,
    _coercivity_values,
    _miranda_talenti_constants,
    _row_cells,
    _samples,
    _sobolev_constants,
    error_norms,
    format_rate_table,
    rate_table,
)
from maviscid.assembly import PenaltyParams, apply_dirichlet
from maviscid.cases import (
    CASE_IDS,
    builtin_case,
    case_with_overrides,
    check_case_consistency,
    parse_config_text,
)
from maviscid.elements import FeSpace, ReferenceElement, interpolate
from maviscid.mesh import build_structured_mesh
from maviscid.solve import (
    NewtonConfig,
    NewtonError,
    continuation_solve,
    newton_solve,
)

__all__ = ["main", "build_parser", "RunConfig", "UsageError"]

# residual tolerance for case runs; the plain-mode roundoff floor on the
# finest study meshes sits near 5e-10, well below this and far below any
# discretization error of interest
CASE_ABS_TOL = 1e-8

_CONFIG_KEYS = {"case", "dim", "degrees", "h_list", "eps_list", "sigma",
                "weight_mode", "seed", "out", "format"}

GRID_SAMPLES = 101
# random zero-boundary samples that ``verify`` scores per mesh level
PROBE_SAMPLES = 100
SLICE_OFFSETS = (0.25, 0.5, 0.75)


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 2."""


@dataclass
class RunConfig:
    """Fully resolved run parameters for one subcommand invocation."""

    spec: object
    seed: int = 0
    out: Path = Path("out")
    fmt: str = "both"


# ------------------------------------------------------------- argument plumbing


def _add_common(p):
    p.add_argument("--case", required=True,
                   help="built-in case id (I..VI) or path to a key=value config file")
    p.add_argument("--dim", type=int, choices=(2, 3),
                   help="spatial dimension (must match the case)")
    p.add_argument("--degree", type=int, nargs="+", metavar="K",
                   help="polynomial degree(s), overriding the case default")
    p.add_argument("--h-list", nargs="+", metavar="H",
                   help="mesh sizes, e.g. 1/8 1/16 (fractions or decimals)")
    p.add_argument("--eps-list", nargs="+", metavar="E",
                   help="regularization parameters, decreasing")
    p.add_argument("--sigma", type=float, help="penalty strength")
    p.add_argument("--weight-mode", choices=("full", "reduced", "plain"),
                   help="penalty weight scaling in epsilon")
    p.add_argument("--seed", type=int, help="base random seed (default 0)")
    p.add_argument("--out", help="output directory (default ./out)")
    p.add_argument("--format", choices=("csv", "md", "both"), dest="fmt",
                   help="table file format (default both)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="maviscid",
        description="C0 interior-penalty solver for the regularized "
                    "Monge-Ampere equation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("convergence", "run a refinement or regularization study"),
        ("solve", "solve once and dump the solution"),
        ("verify", "probe the discrete inequalities"),
    ):
        _add_common(sub.add_parser(name, help=doc))
    return p


def resolve_config(args):
    """Merge case defaults, config file, and flags (flags win)."""
    raw = args.case
    file_cfg = {}
    if os.path.sep in raw or os.path.isfile(raw):
        path = Path(raw)
        if not path.is_file():
            raise UsageError(f"config file not found: {raw}")
        file_cfg = parse_config_text(path.read_text())
        if "case" not in file_cfg:
            raise UsageError(f"config file {raw} is missing 'case = ...'")
        unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown key(s) in {raw}: {', '.join(unknown)}")
        case_id = file_cfg["case"]
    else:
        case_id = raw
    overrides = dict(file_cfg)
    if args.degree:
        overrides["degrees"] = " ".join(str(k) for k in args.degree)
    if args.h_list:
        overrides["h_list"] = " ".join(args.h_list)
    if args.eps_list:
        overrides["eps_list"] = " ".join(args.eps_list)
    if args.sigma is not None:
        overrides["sigma"] = str(args.sigma)
    if args.weight_mode:
        overrides["weight_mode"] = args.weight_mode
    try:
        spec = case_with_overrides(case_id, overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for label, dim in (("--dim", args.dim), ("dim =", file_cfg.get("dim"))):
        if dim is not None and str(dim) != str(spec.dim):
            raise UsageError(
                f"case {spec.id} is {spec.dim}D but {label} {dim} was given"
            )
    if not spec.h_list or not spec.eps_list or not spec.degrees:
        raise UsageError("degrees, h_list, and eps_list must be non-empty")
    # each comparison is written so that NaN fails it
    if not all(0 < x < math.inf for x in (*spec.h_list, *spec.eps_list)):
        raise UsageError("mesh sizes and epsilons must be finite and positive")
    try:  # the element and the penalty check degree, sigma and weight mode
        for k in spec.degrees:
            ReferenceElement(spec.dim, k)
        PenaltyParams(spec.sigma, spec.eps_list[0], spec.weight_mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for h in spec.h_list:
        n = round(1.0 / h)
        if n < 1 or abs(1.0 / h - n) > 1e-9:
            raise UsageError(f"mesh size {h:g} is not 1/n for an integer n")
    for name, values in (("h_list", spec.h_list), ("eps_list", spec.eps_list)):
        if not all(a > b for a, b in zip(values, values[1:])):
            raise UsageError(f"{name} must be strictly decreasing")
    try:
        seed = args.seed if args.seed is not None else int(file_cfg.get("seed", 0))
    except ValueError as exc:
        raise UsageError(f"seed must be an integer, got {file_cfg['seed']!r}") from exc
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    out = Path(args.out if args.out is not None else file_cfg.get("out", "out"))
    fmt = args.fmt if args.fmt is not None else file_cfg.get("format", "both")
    if fmt not in ("csv", "md", "both"):
        raise UsageError(f"unknown format {fmt!r}")
    return RunConfig(spec=spec, seed=seed, out=out, fmt=fmt)


def _ensure_outdir(cfg):
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"output directory {cfg.out} is not writable: {exc}"
        ) from exc


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def _counts(report):
    """Newton steps, rungs, factorizations and GMRES iterations of one solve,
    worded the same in every summary line."""
    return (f"{report.iterations} Newton steps over {len(report.rungs)} rungs, "
            f"{report.factorizations} factorizations, "
            f"{report.gmres_iterations} GMRES iterations")


# ------------------------------------------------------------------ tables


def _csv_table(rows, axis):
    lines = [f"{axis},l2,l2_order,h1,h1_order,h2_broken,h2_order"]
    lines += [",".join(_row_cells(r, missing="")) for r in rows]
    return "\n".join(lines) + "\n"


def _write_tables(cfg, degree, rows, axis):
    if len(rows) >= 2:
        tables = rate_table(rows)
    else:
        (param, e), = rows
        tables = [RateRow(parameter=param, l2=e.l2, h1=e.h1, h2=e.h2_broken)]
    stem = cfg.out / f"case{cfg.spec.id}_k{degree}"
    md = format_rate_table(tables, parameter_name=axis)
    if cfg.fmt in ("csv", "both"):
        (stem.with_suffix(".csv")).write_text(_csv_table(tables, axis))
    if cfg.fmt in ("md", "both"):
        (stem.with_suffix(".md")).write_text(md + "\n")
    print(f"case {cfg.spec.id}, degree {degree}:")
    print(md)
    return tables


def _solve_on_mesh(spec, degree, h, eps_target, schedule=None):
    n = int(round(1.0 / h))
    mesh = build_structured_mesh(spec.dim, n)
    space = FeSpace(mesh, degree)
    config = NewtonConfig(abs_tol=CASE_ABS_TOL, continuation_schedule=schedule)
    u, report = continuation_solve(
        space, None, None, spec.sigma, eps_target, config,
        weight_mode=spec.weight_mode, data_factory=spec.data,
    )
    return u, report


def _run_h_study(spec, degree):
    """One row per mesh size at fixed epsilon, each from its own ladder.

    Returns the rows and, if a row failed, ``(h, NewtonError)``; no row
    runs after a failed one."""
    eps = spec.eps_list[0]
    rows = []
    for h in spec.h_list:
        try:
            u, rep = _solve_on_mesh(spec, degree, h, eps)
        except NewtonError as exc:
            return rows, (h, exc)
        rows.append((h, error_norms(spec.exact_solution, u)))
        _progress(f"case {spec.id} k={degree} h={h:g}: {_counts(rep)} "
                  f"({rep.wall_time:.1f} s)")
    return rows, None


def _run_eps_study(spec, degree):
    """One row per epsilon at fixed mesh, warm-starting down the ladder.

    The first row runs a ladder; later rows start from the previous row's
    solution.  All rows share one factorization holder, so the first row's
    last factorization serves the next.  Returns the rows and, if a row
    failed, ``(eps, NewtonError)``."""
    n = int(round(1.0 / spec.h_list[0]))
    space = FeSpace(build_structured_mesh(spec.dim, n), degree)
    config = NewtonConfig(abs_tol=CASE_ABS_TOL)
    rows, u, factor = [], None, []
    for eps in spec.eps_list:
        f, bdata = spec.data(eps)
        params = PenaltyParams(spec.sigma, eps, spec.weight_mode)
        try:
            if u is None:
                u, rep = continuation_solve(
                    space, None, None, spec.sigma, eps, config,
                    weight_mode=spec.weight_mode, data_factory=spec.data,
                    factor=factor,
                )
            else:
                u.coeffs[space.boundary_dofs] = apply_dirichlet(space, bdata.g)[0]
                u, rep = newton_solve(f, bdata, params, config, u, factor=factor)
        except NewtonError as exc:
            return rows, (eps, exc)
        rows.append((eps, error_norms(spec.exact_solution, u)))
        _progress(f"case {spec.id} k={degree} eps={eps:g}: {_counts(rep)} "
                  f"({rep.wall_time:.1f} s)")
    return rows, None


def cmd_convergence(cfg):
    spec = cfg.spec
    if spec.exact_solution is None:
        raise UsageError(
            f"case {spec.id} has no exact solution; convergence tables need one"
        )
    if len(spec.eps_list) > 1 and len(spec.h_list) > 1:
        raise UsageError("vary either h_list or eps_list, not both")
    _ensure_outdir(cfg)
    gap = check_case_consistency(spec, eps=spec.eps_list[0], seed=cfg.seed)
    if gap > 1e-10:
        raise UsageError(f"case {spec.id} data inconsistent by {gap:.2e}")
    axis = "eps" if len(spec.eps_list) > 1 else "h"
    status = 0
    for degree in spec.degrees:
        if axis == "h":
            rows, failure = _run_h_study(spec, degree)
        else:
            rows, failure = _run_eps_study(spec, degree)
        if rows:
            _write_tables(cfg, degree, rows, axis)
        if failure is not None:
            param, exc = failure
            _progress(
                f"solver failed for case {spec.id} k={degree} at "
                f"{axis}={param:g}: {exc}"
            )
            status = 1
            break
    return status


# ------------------------------------------------------------------- solve


def _write_dof_values(u, path):
    coords = u.space.dof_coords
    np.savetxt(
        path, np.column_stack([coords, u.coeffs]), fmt="%.12e", delimiter=",",
        header=",".join("xyz"[: coords.shape[1]]) + ",value",
    )


def _write_gridded(path, header, scan_values, line_values, sampler):
    """Blocked CSV (blank line between scans) that gnuplot can splot."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for a in scan_values:
            pts = np.column_stack(
                [np.full(len(line_values), a), line_values]
            )
            np.savetxt(
                fh, np.column_stack([pts, sampler(pts)]),
                fmt=("%.6f", "%.6f", "%.12e"), delimiter=",",
            )
            fh.write("\n")


def _write_grid_2d(u, path):
    ticks = np.linspace(0.0, 1.0, GRID_SAMPLES)
    _write_gridded(
        path, "x,y,u", ticks, ticks,
        lambda pts: u.evaluate(pts),
    )


def _write_slices_3d(u, outdir):
    ticks = np.linspace(0.0, 1.0, GRID_SAMPLES)
    paths = []
    for axis, name, cols in ((0, "x", "y,z,u"), (1, "y", "x,z,u")):
        others = [i for i in range(3) if i != axis]
        for c in SLICE_OFFSETS:
            path = outdir / f"slice_{name}_{c:g}.csv"

            def sampler(pts, axis=axis, others=others, c=c):
                full = np.empty((len(pts), 3))
                full[:, axis] = c
                full[:, others[0]] = pts[:, 0]
                full[:, others[1]] = pts[:, 1]
                return u.evaluate(full)

            _write_gridded(path, cols, ticks, ticks, sampler)
            paths.append(path)
    return paths


def cmd_solve(cfg):
    spec = cfg.spec
    _ensure_outdir(cfg)
    degree = spec.degrees[0]
    h = spec.h_list[0]
    eps_target = spec.eps_list[-1]
    schedule = tuple(spec.eps_list) if len(spec.eps_list) > 1 else None
    if spec.exact_solution is not None:
        gap = check_case_consistency(spec, eps=eps_target, seed=cfg.seed)
        if gap > 1e-10:
            raise UsageError(f"case {spec.id} data inconsistent by {gap:.2e}")
    try:
        u, report = _solve_on_mesh(spec, degree, h, eps_target, schedule)
    except NewtonError as exc:
        _progress(f"solver failed for case {spec.id}: {exc}")
        return 1
    _write_dof_values(u, cfg.out / "solution_dofs.txt")
    artifacts = [cfg.out / "solution_dofs.txt"]
    if spec.dim == 2:
        _write_grid_2d(u, cfg.out / "solution_grid.csv")
        artifacts.append(cfg.out / "solution_grid.csv")
    else:
        artifacts.extend(_write_slices_3d(u, cfg.out))
    final = report.residual_history[-1] if report.residual_history else 0.0
    print(f"case {spec.id}: converged at eps={eps_target:g} in {_counts(report)}")
    print(f"final residual {final:.3e}, min dof value {u.coeffs.min():.6e}")
    if spec.exact_solution is not None:
        e = error_norms(spec.exact_solution, u)
        print(f"errors: l2 {e.l2:.3e}, h1 {e.h1:.3e}, h2_broken {e.h2_broken:.3e}")
    for p in artifacts:
        print(f"wrote {p}")
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(cfg):
    spec = cfg.spec
    levels = [int(round(1.0 / h)) for h in spec.h_list]
    degree = spec.degrees[0]
    mt, sb = [], []
    failures = []
    for n in levels:
        space = FeSpace(build_structured_mesh(spec.dim, n), degree)
        V = _samples(space, PROBE_SAMPLES, cfg.seed)
        for name, series, consts in (
            ("miranda_talenti", mt, _miranda_talenti_constants(space, V)),
            ("sobolev", sb, _sobolev_constants(space, V)),
        ):
            i = int(np.argmax(consts))
            c, s = consts[i], cfg.seed + i
            series.append((n, c, s))
            print(f"level n={n}: {name} C = {c:.4f} (worst sample seed {s})")
        if spec.exact_solution is not None:
            w = interpolate(space, spec.exact_solution.value)
        else:
            center = np.full(spec.dim, 0.5)
            w = interpolate(
                space, lambda p: 0.5 * ((p - center) ** 2).sum(axis=1)
            )
        for eps in spec.eps_list:
            params = PenaltyParams(spec.sigma, eps, spec.weight_mode)
            values = _coercivity_values(w, params, V)
            i = int(np.argmin(values))
            q, s = values[i], cfg.seed + i
            print(f"level n={n} eps={eps:g}: coercivity min v'Av = {q:.4e} "
                  f"(worst sample seed {s})")
            if q <= 0.0:
                failures.append(
                    f"coercivity at level n={n}, eps={eps:g}: "
                    f"min v'Av = {q:.4e} (worst sample seed {s})"
                )
    for name, series in (("miranda_talenti", mt), ("sobolev", sb)):
        for (n0, c0, _), (n1, c1, s1) in zip(series, series[1:]):
            if c1 > 1.5 * c0 and c1 > 1e-12:
                failures.append(
                    f"{name} growth: C(n={n1}) = {c1:.4f} exceeds 1.5 x "
                    f"C(n={n0}) = {c0:.4f} (worst sample seed {s1})"
                )
    if failures:
        for msg in failures:
            print(f"FAIL {msg}")
        return 1
    print("verify: all inequalities bounded")
    return 0


# -------------------------------------------------------------------- main


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "convergence":
            return cmd_convergence(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_verify(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

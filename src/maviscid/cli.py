"""Command-line runner: convergence tables, single solves, verification.

Three subcommands:

* ``convergence`` — one rate table per polynomial degree, either over the
  mesh sizes (fixed epsilon) or over the epsilon ladder (fixed mesh),
  written as CSV and/or markdown.
* ``solve`` — one solve at one degree and mesh size, dumping dof values
  plus the solution on a 101 x 101 grid of the unit square (2D) or of each
  of six axis-aligned planes (3D), one evaluation per plane.
* ``verify`` — at one degree, Monte-Carlo probes of the discrete
  Miranda-Talenti and Sobolev inequalities and of coercivity of the
  linearized form, with per-level constants and a nonzero exit when a
  bound degrades or fails.

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
    _coercivity_values,
    _miranda_talenti_constants,
    _probe_block,
    _row_cells,
    _sobolev_constants,
    error_norms,
    format_rate_table,
    rate_table,
)
from maviscid.assembly import WEIGHT_MODES, PenaltyParams, apply_dirichlet
from maviscid.cases import (
    case_with_overrides,
    check_case_consistency,
    parse_config_text,
)
from maviscid.elements import FeSpace, check_degree, interpolate
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
FORMATS = ("csv", "md", "both")

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
    p.add_argument("--weight-mode", choices=tuple(WEIGHT_MODES),
                   help="penalty weight scaling in epsilon")
    p.add_argument("--seed", type=int, help="base random seed (default 0)")
    p.add_argument("--out", help="output directory (default ./out)")
    p.add_argument("--format", choices=FORMATS, dest="fmt",
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
        try:
            file_cfg = parse_config_text(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise UsageError(f"config file {raw}: {exc}") from exc
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
    try:  # the space and the penalty check degree, sigma and weight mode
        for k in spec.degrees:
            check_degree(k)
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
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    # solve runs at one degree and mesh size, verify at one degree: no more
    flags = {"degrees": "--degree", "h_list": "--h-list"}
    for key in {"solve": flags, "verify": ["degrees"]}.get(args.command, ()):
        values = getattr(spec, key)
        if len(values) > 1:
            given = " ".join(f"{v:g}" for v in values)
            raise UsageError(
                f"{args.command} takes one value of {key}, but case {spec.id} "
                f"gives {given}; pass {flags[key]} with one value")
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
    """Newton steps, rungs of a ladder (and how many ran on the coarser
    meshes of nested iteration), factorizations and GMRES iterations of one solve,
    worded the same in every summary line (a count of 1 takes the singular)."""
    steps = _count(report.iterations, "Newton step")
    if report.rungs:
        coarse = sum(rep.ndofs != report.ndofs for _, rep in report.rungs)
        fallback = ", then the plain ladder" if report.fell_back else ""
        steps += (f" over {_count(len(report.rungs), 'rung')} "
                  f"({coarse} on coarser meshes{fallback})")
    return (f"{steps}, {_count(report.factorizations, 'factorization')}, "
            f"{_count(report.gmres_iterations, 'GMRES iteration')}")


def _count(number, noun):
    return f"{number} {noun}" + ("" if number == 1 else "s")


# ------------------------------------------------------------------ tables


def _csv_table(rows, axis):
    lines = [f"{axis},l2,l2_order,h1,h1_order,h2_broken,h2_order"]
    lines += [",".join(_row_cells(r, missing="")) for r in rows]
    return "\n".join(lines) + "\n"


def _write_tables(cfg, degree, rows, axis):
    tables = rate_table(rows)
    stem = cfg.out / f"case{cfg.spec.id}_k{degree}"
    md = format_rate_table(tables, parameter_name=axis)
    if cfg.fmt in ("csv", "both"):
        (stem.with_suffix(".csv")).write_text(_csv_table(tables, axis))
    if cfg.fmt in ("md", "both"):
        (stem.with_suffix(".md")).write_text(md + "\n")
    print(f"case {cfg.spec.id}, degree {degree}:")
    print(md)


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
                u.coeffs[space.boundary_dofs] = apply_dirichlet(space, bdata.g)
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


def _write_plane(u, path, axis=None, c=None):
    """u on a GRID_SAMPLES x GRID_SAMPLES grid of the unit square (2D) or of
    the plane x_axis = c of the unit cube (3D), evaluated in one call and
    written as a blocked CSV that gnuplot can splot: one block per value of
    the first written coordinate, each followed by a blank line."""
    ticks = np.linspace(0.0, 1.0, GRID_SAMPLES)
    # the written coordinates: the first is constant along each block
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    names, pts = "xyz"[: u.space.dim], grid
    if axis is not None:
        names, pts = names[:axis] + names[axis + 1:], np.insert(grid, axis, c, axis=1)
    rows = np.column_stack([grid, u.evaluate(pts)])
    with open(path, "w") as fh:
        fh.write(f"# {','.join(names)},u\n")
        for block in np.split(rows, GRID_SAMPLES):
            np.savetxt(fh, block, fmt=("%.6f", "%.6f", "%.12e"), delimiter=",")
            fh.write("\n")


def cmd_solve(cfg):
    spec = cfg.spec
    _ensure_outdir(cfg)
    (degree,), (h,) = spec.degrees, spec.h_list
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
    planes = [("solution_grid.csv", None, None)] if spec.dim == 2 else [
        (f"slice_{'xy'[axis]}_{c:g}.csv", axis, c) for axis in (0, 1) for c in SLICE_OFFSETS]
    for name, axis, c in planes:
        _write_plane(u, cfg.out / name, axis, c)
    final = report.residual_history[-1] if report.residual_history else 0.0
    print(f"case {spec.id}: converged at eps={eps_target:g} in {_counts(report)}")
    print(f"final residual {final:.3e}, min dof value {u.coeffs.min():.6e}")
    if spec.exact_solution is not None:
        e = error_norms(spec.exact_solution, u)
        print(f"errors: l2 {e.l2:.3e}, h1 {e.h1:.3e}, h2_broken {e.h2_broken:.3e}")
    for name in ["solution_dofs.txt"] + [name for name, _, _ in planes]:
        print(f"wrote {cfg.out / name}")
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(cfg):
    spec = cfg.spec
    levels = [int(round(1.0 / h)) for h in spec.h_list]
    (degree,) = spec.degrees
    mt, sb = [], []
    failures = []
    for n in levels:
        space = FeSpace(build_structured_mesh(spec.dim, n), degree)
        V, pieces = _probe_block(space, PROBE_SAMPLES, cfg.seed)
        for name, series, consts in (
            ("miranda_talenti", mt, _miranda_talenti_constants(space, V, pieces)),
            ("sobolev", sb, _sobolev_constants(space, V, pieces)),
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

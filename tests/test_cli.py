"""Command-line interface: flags, exit codes, artifacts, determinism."""

import csv
import math
import re

import numpy as np
import pytest

from maviscid.analysis import (
    ErrorNorms,
    format_rate_table,
    rate_table,
    verify_discrete_sobolev,
    verify_miranda_talenti,
)
from maviscid.cases import builtin_case, case_with_overrides, serialize_case
from maviscid import cli
from maviscid.cli import _write_grid_2d, main
from maviscid.elements import FeSpace, interpolate
from maviscid.mesh import build_structured_mesh


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------- usage errors


def test_unknown_case_exits_2(capsys):
    assert run("convergence", "--case", "IX") == 2
    assert "unknown case" in capsys.readouterr().err


def test_dim_mismatch_exits_2(capsys):
    assert run("solve", "--case", "II", "--dim", "3") == 2
    assert "2D" in capsys.readouterr().err


def test_convergence_without_exact_exits_2(capsys):
    assert run("convergence", "--case", "III") == 2
    assert "no exact solution" in capsys.readouterr().err


def test_both_axes_varying_exits_2(capsys):
    assert (
        run("convergence", "--case", "II", "--eps-list", "0.5", "0.25") == 2
    )
    assert "not both" in capsys.readouterr().err


def test_increasing_eps_list_exits_2(capsys):
    assert run("solve", "--case", "III", "--eps-list", "0.1", "0.5") == 2
    assert "decreasing" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_missing_config_file_exits_2(capsys):
    assert run("solve", "--case", "does/not/exist.cfg") == 2
    assert "not found" in capsys.readouterr().err


# -------------------------------------------------------------- convergence


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_small_h_study_writes_tables(tmp_path, capsys):
    code = run(
        "convergence", "--case", "II", "--degree", "2",
        "--h-list", "1/4", "1/8", "--eps-list", "0.05",
        "--out", str(tmp_path), "--format", "both",
    )
    assert code == 0
    rows = read_csv(tmp_path / "caseII_k2.csv")
    assert len(rows) == 2
    assert rows[0]["l2_order"] == "" and rows[1]["l2_order"] != ""
    md = (tmp_path / "caseII_k2.md").read_text()
    assert "| h |" in md
    out = capsys.readouterr().out
    assert "case II, degree 2:" in out


def test_rate_table_text_frozen():
    # a first row without orders, a parameter of 1/3 (six significant
    # digits) and a zero error, whose order is left out
    rows = rate_table([(1 / 3, ErrorNorms(1e-3, 2e-2, 0.3)),
                       (1 / 6, ErrorNorms(0.0, 5e-3, 0.15))])
    assert format_rate_table(rows) == (
        "| h | L2 error | order | H1 error | order | H2 error | order |\n"
        "|---|---|---|---|---|---|---|\n"
        "| 0.333333 | 1.00e-03 | - | 2.00e-02 | - | 3.00e-01 | - |\n"
        "| 0.166667 | 0.00e+00 | - | 5.00e-03 | 2.00 | 1.50e-01 | 1.00 |"
    )
    assert cli._csv_table(rows, "h") == (
        "h,l2,l2_order,h1,h1_order,h2_broken,h2_order\n"
        "0.333333,1.00e-03,,2.00e-02,,3.00e-01,\n"
        "0.166667,0.00e+00,,5.00e-03,2.00,1.50e-01,1.00\n"
    )


def test_csv_round_trip_orders(tmp_path):
    run(
        "convergence", "--case", "II", "--degree", "2",
        "--h-list", "1/4", "1/8", "--eps-list", "0.05",
        "--out", str(tmp_path), "--format", "csv",
    )
    rows = read_csv(tmp_path / "caseII_k2.csv")
    for key in ("l2", "h1", "h2_broken"):
        e0, e1 = float(rows[0][key]), float(rows[1][key])
        h0, h1 = float(rows[0]["h"]), float(rows[1]["h"])
        order = math.log(e0 / e1) / math.log(h0 / h1)
        printed = float(rows[1][key.split("_")[0] + "_order"])
        # printed orders come from the unrounded errors; the 3-significant-
        # digit csv errors reproduce them to the rounding level
        assert abs(order - printed) < 0.02
    assert not (tmp_path / "caseII_k2.md").exists()


def test_small_eps_study(tmp_path):
    code = run(
        "convergence", "--case", "I", "--degree", "2",
        "--h-list", "1/8", "--eps-list", "0.5", "0.25",
        "--out", str(tmp_path),
    )
    assert code == 0
    rows = read_csv(tmp_path / "caseI_k2.csv")
    assert len(rows) == 2
    assert "eps" in rows[0]
    assert float(rows[0]["l2"]) > 0 and float(rows[1]["l2"]) > 0


def test_eps_rows_share_one_factorization(tmp_path, capsys, monkeypatch):
    # the first row factors in its ladder and the rows after it reuse that
    # factorization; the rows are those of a study that factored per row
    written = []
    write_tables = cli._write_tables

    def spy(cfg, degree, rows, axis):
        written.extend(rows)
        return write_tables(cfg, degree, rows, axis)

    monkeypatch.setattr(cli, "_write_tables", spy)
    code = run(
        "convergence", "--case", "I", "--degree", "2", "--h-list", "1/8",
        "--eps-list", "0.5", "0.25", "0.125", "--out", str(tmp_path),
    )
    assert code == 0
    err = capsys.readouterr().err
    counts = [
        int(re.search(r"(\d+) factorizations", line).group(1))
        for line in err.splitlines() if " eps=" in line
    ]
    assert counts == [1, 0, 0]
    assert err.count("GMRES iterations") == 3
    # (l2, h1, h2) per row from a study that factored on rows 1 and 2
    expected = (
        (0.5, 0.09833667421828635, 0.4704466564254509, 2.7922476548662036),
        (0.25, 0.09485383103592042, 0.4556829051031701, 2.781058487029934),
        (0.125, 0.0798138460967133, 0.3891977873343098, 2.5581750854959293),
    )
    assert [eps for eps, _ in written] == [row[0] for row in expected]
    for (_, got), (_, *want) in zip(written, expected):
        assert np.allclose([got.l2, got.h1, got.h2_broken], want, rtol=1e-6, atol=0)


def test_config_file_with_flag_override(tmp_path):
    spec = case_with_overrides(
        "II", {"h_list": "1/4 1/8", "eps_list": "0.05"}
    )
    cfg = tmp_path / "study.cfg"
    cfg.write_text(serialize_case(spec))
    code = run(
        "convergence", "--case", str(cfg), "--degree", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "caseII_k2.csv").exists()
    # the file lists degrees 2 and 3; the flag restricted the run to k=2
    assert not (tmp_path / "caseII_k3.csv").exists()


def test_failed_row_stops_the_h_study(tmp_path, capsys):
    # plain weights at sigma = 1 under-penalize: row 1/8 fails at eps = 0.125
    code = run(
        "convergence", "--case", "II", "--degree", "2",
        "--h-list", "1/4", "1/8", "1/16", "--eps-list", "0.01",
        "--sigma", "1", "--weight-mode", "plain", "--format", "csv",
        "--out", str(tmp_path),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "h=0.125" in err
    assert "h=0.0625" not in err
    assert [row["h"] for row in read_csv(tmp_path / "caseII_k2.csv")] == ["0.25"]


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = run(
        "solve", "--case", "III", "--h-list", "1/4",
        "--eps-list", "0.1", "--out", str(blocker),
    )
    assert code == 2
    assert "not writable" in capsys.readouterr().err


def test_config_file_with_empty_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("case = II\nh_list =\n")
    code = run("convergence", "--case", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "non-empty" in capsys.readouterr().err


def test_mesh_size_not_reciprocal_integer_exits_2(tmp_path, capsys):
    # 0.3 0.2 0.15 would silently run n = 3, 5, 7 under mislabelled rows
    code = run(
        "convergence", "--case", "II", "--degree", "2",
        "--h-list", "0.3", "0.2", "0.15", "--eps-list", "0.05",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "not 1/n" in capsys.readouterr().err


def test_mesh_size_above_one_exits_2(tmp_path, capsys):
    code = run(
        "convergence", "--case", "II", "--degree", "2",
        "--h-list", "3", "--eps-list", "0.05", "--out", str(tmp_path),
    )
    assert code == 2
    assert "not 1/n" in capsys.readouterr().err


_SOLVE_III = ("solve", "--case", "III", "--h-list", "1/4")
_CONV_II = ("convergence", "--case", "II", "--degree", "2")


class _ConfigLine(str):
    """An argv entry standing for a case III config file with this line."""


@pytest.mark.parametrize("argv", [
    _SOLVE_III + ("--eps-list", "nan"),  # must not fall back to the ladder top, 0.5
    _SOLVE_III + ("--eps-list", "inf"),
    _SOLVE_III + ("--sigma", "nan"),
    _SOLVE_III + ("--sigma", "inf"),
    _SOLVE_III + ("--sigma", "-1"),
    ("solve", "--case", "III", "--h-list", "nan"),
    _CONV_II + ("--h-list", "1/8", "1/4"),
    _CONV_II + ("--h-list", "1/4", "1/4"),
    _CONV_II + ("--h-list", "1/4", "--eps-list", "0.5", "0.5"),
    ("solve", "--case", "II", "--degree", "4", "--h-list", "1/2"),
    ("verify", "--case", "II", "--degree", "1", "--h-list", "1/4"),
    ("solve", "--h-list", "1/4", "--case", _ConfigLine("weight_mode = bogus")),
    ("solve", "--h-list", "1/4", "--case", _ConfigLine("seed = abc")),
    ("verify", "--case", "II", "--h-list", "1/4", "--seed", "-1"),
    ("solve", "--case", "II", "--h-list", "1/0"),
    ("solve", "--case", "II", "--eps-list", "1/0"),
    ("verify", "--case", "II", "--h-list", "1/4", "--eps-list", "0/0"),
    ("solve", "--h-list", "1/4", "--case", _ConfigLine("sigam = 5")),
    ("solve", "--h-list", "1/4", "--case", _ConfigLine("dim = 3")),
], ids=lambda argv: " ".join(argv[3:]))
def test_bad_input_exits_2(argv, tmp_path, capsys):
    # rejected before any solve: no traceback and nothing written
    for i, arg in enumerate(argv):
        if isinstance(arg, _ConfigLine):
            cfg = tmp_path / "case.cfg"
            cfg.write_text(f"case = III\n{arg}\n")
            argv = argv[:i] + (str(cfg),) + argv[i + 1:]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


# -------------------------------------------------------------------- solve


def parse_blocked_csv(path):
    blocks, cur = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            if cur:
                blocks.append(np.asarray(cur))
                cur = []
            continue
        cur.append([float(t) for t in line.split(",")])
    if cur:
        blocks.append(np.asarray(cur))
    return blocks


def test_solve_2d_artifacts(tmp_path, capsys):
    code = run(
        "solve", "--case", "III", "--h-list", "1/6",
        "--eps-list", "0.05", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out and "min dof value" in out
    assert "factorizations" in out and "GMRES iterations" in out

    dofs = (tmp_path / "solution_dofs.txt").read_text().splitlines()
    space = FeSpace(build_structured_mesh(2, 6), 2)
    assert len(dofs) == space.ndofs + 1  # header line
    assert dofs[0] == "# x,y,value"

    blocks = parse_blocked_csv(tmp_path / "solution_grid.csv")
    assert len(blocks) == 101 and all(len(b) == 101 for b in blocks)
    # zero Dirichlet data: the x = 0 scan and the y-endpoints vanish
    assert np.abs(blocks[0][:, 2]).max() < 1e-9
    assert abs(blocks[50][0, 2]) < 1e-9 and abs(blocks[50][-1, 2]) < 1e-9
    # the profile is negative inside
    assert blocks[50][50, 2] < -1e-3


def test_solve_3d_slices(tmp_path):
    code = run(
        "solve", "--case", "VI", "--h-list", "1/4",
        "--eps-list", "0.1", "--out", str(tmp_path),
    )
    assert code == 0
    names = [
        f"slice_{axis}_{c:g}.csv"
        for axis in ("x", "y")
        for c in (0.25, 0.5, 0.75)
    ]
    for name in names:
        blocks = parse_blocked_csv(tmp_path / name)
        assert len(blocks) == 101 and len(blocks[0]) == 101
    mid = parse_blocked_csv(tmp_path / "slice_x_0.5.csv")
    assert mid[50][50, 2] < -1e-4  # negative at the domain center
    assert np.abs(mid[0][:, 2]).max() < 1e-9  # boundary face y = 0
    # the midplane slice of the symmetric profile is symmetric in y <-> z
    vals = np.stack([b[:, 2] for b in mid])
    assert np.abs(vals - vals.T).max() < 1e-8


def test_solve_reports_errors_for_manufactured_case(tmp_path, capsys):
    code = run(
        "solve", "--case", "II", "--h-list", "1/6",
        "--eps-list", "0.05", "--out", str(tmp_path),
    )
    assert code == 0
    assert "errors: l2" in capsys.readouterr().out


def test_solve_byte_identical_repeat(tmp_path):
    argv = ("solve", "--case", "III", "--h-list", "1/6", "--eps-list", "0.1")
    assert run(*argv, "--out", str(tmp_path / "a")) == 0
    assert run(*argv, "--out", str(tmp_path / "b")) == 0
    for name in ("solution_dofs.txt", "solution_grid.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_grid_sampler_reproduces_interpolated_boundary_data(tmp_path):
    # sampling machinery alone: the interpolant of an affine g lies in the
    # space exactly, so grid samples on the boundary reproduce g
    space = FeSpace(build_structured_mesh(2, 4), 2)
    g = lambda p: 2.0 * p[:, 0] + 3.0 * p[:, 1]
    u = interpolate(space, g)
    path = tmp_path / "grid.csv"
    _write_grid_2d(u, path)
    blocks = parse_blocked_csv(path)
    first, last = blocks[0], blocks[-1]
    assert np.abs(first[:, 2] - 3.0 * first[:, 1]).max() < 1e-12
    assert np.abs(last[:, 2] - (2.0 + 3.0 * last[:, 1])).max() < 1e-12


# ------------------------------------------------------------------- verify


def test_verify_bounded_levels(capsys):
    code = run(
        "verify", "--case", "III", "--h-list", "1/4", "1/8",
        "--eps-list", "0.1", "--sigma", "20",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "miranda_talenti C =" in out
    assert "sobolev C =" in out
    assert "coercivity min v'Av" in out
    assert "verify: all inequalities bounded" in out


def test_verify_fixed_seed_is_deterministic(capsys):
    argv = (
        "verify", "--case", "III", "--h-list", "1/4",
        "--eps-list", "0.1", "--seed", "7",
    )
    assert run(*argv) == 0
    first = capsys.readouterr().out
    assert run(*argv) == 0
    assert capsys.readouterr().out == first


def test_verify_sigma_zero_reports_violation(capsys):
    code = run(
        "verify", "--case", "III", "--h-list", "1/4",
        "--eps-list", "0.1", "--sigma", "0",
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL coercivity" in out
    assert "worst sample seed" in out


def test_verify_prints_the_library_constants(capsys):
    # the CLI and the library score the same samples for the same seed
    argv = ("verify", "--case", "III", "--h-list", "1/4", "--eps-list", "0.1",
            "--seed", "3")
    assert run(*argv) == 0
    out = capsys.readouterr().out
    space = FeSpace(build_structured_mesh(2, 4), 2)
    mt = verify_miranda_talenti(space, 100, seed=3)
    sb = verify_discrete_sobolev(space, 100, seed=3)
    assert f"miranda_talenti C = {mt:.4f} " in out
    assert f"sobolev C = {sb:.4f} " in out

"""The package's public API: each module's ``__all__``, re-exported, and
each export read somewhere; the weight mode's one default; and no source
file imports a name it does not use."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import maviscid
from maviscid import cli
from maviscid.assembly import WEIGHT_MODES, PenaltyParams
from maviscid.cases import CASE_IDS, builtin_case
from maviscid.solve import continuation_solve

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("mesh", "elements", "assembly", "solve", "analysis", "cases")

# the names the package exported from its own list before it re-exported the
# modules' ``__all__``s, less the two dump writers that had no caller
EXPORTED_BEFORE = {
    "SimplicialMesh", "build_structured_mesh",
    "QuadratureRule", "ReferenceElement", "FeSpace", "FeFunction",
    "cell_quadrature", "face_quadrature", "eval_fe", "interpolate",
    "CoefficientField", "PenaltyParams", "BoundaryData",
    "det_and_cofactor", "assemble_Ah_sigma", "assemble_linearized_rhs",
    "assemble_nonlinear_residual", "assemble_jacobian",
    "assemble_residual_and_jacobian", "apply_dirichlet",
    "SingularMatrixError", "NewtonError", "NewtonConfig", "SolveReport",
    "sparse_solve", "newton_solve", "default_ladder", "convex_seed",
    "continuation_solve",
    "ScalarField", "ErrorNorms", "RateRow", "error_norms", "mesh_norm",
    "verify_miranda_talenti", "verify_discrete_sobolev", "rate_table",
    "format_rate_table",
    "ExperimentSpec", "builtin_case", "check_case_consistency",
    "serialize_case",
    "__version__",
}


def test_package_all_is_the_modules_all():
    names = maviscid.__all__
    assert len(names) == len(set(names))
    modules = [importlib.import_module(f"maviscid.{m}") for m in MODULES]
    assert names == [n for m in modules for n in m.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(maviscid, name) is getattr(module, name)
    assert isinstance(maviscid.__version__, str)
    assert len(EXPORTED_BEFORE) == 43 and EXPORTED_BEFORE <= set(names)


# exports that no library code, demo or benchmark reads, with the reason each
# stays
UNCALLED_EXPORTS = {
    "eval_fe": "the tests' oracle for FeFunction.evaluate",
}


def _names_read(path):
    """Every name an AST ``Name`` or ``Attribute`` node in ``path`` reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_export_has_a_caller():
    files = sorted(p for d in ("src", "demos", "bench") for p in (ROOT / d).rglob("*.py"))
    read = set().union(*(_names_read(p) for p in files))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    uncalled = [name for name in maviscid.__all__ if name != "__version__"
                and name not in read and not re.search(rf"\b{name}\b", readme)]
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


def _weight_mode_choices(parser):
    """The ``--weight-mode`` choices of every subcommand's parser."""
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return [a.choices for p in sub.choices.values() for a in p._actions
            if "--weight-mode" in a.option_strings]


def test_one_weight_mode_default_and_one_set_of_modes():
    default = PenaltyParams(1.0, 0.1).weight_mode
    signature = inspect.signature(continuation_solve)
    assert signature.parameters["weight_mode"].default == default
    assert {builtin_case(c).weight_mode for c in CASE_IDS} == {default}
    choices = _weight_mode_choices(cli.build_parser())
    assert len(choices) == 3
    assert all(set(c) == set(WEIGHT_MODES) for c in choices)
    for mode in WEIGHT_MODES:
        assert PenaltyParams(1.0, 0.1, mode).weight_mode == mode


def _unused_imports(path):
    """Names that a module imports and never reads, except star imports,
    ``__future__`` features and names listed in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported |= {c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in imported.items() if name not in read | exported)


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [u for p in files for u in _unused_imports(p)] == []

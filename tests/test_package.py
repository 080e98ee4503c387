"""The package's public API: each module's ``__all__``, re-exported."""

import importlib

import maviscid

MODULES = ("mesh", "elements", "assembly", "solve", "analysis", "cases")

# the names the package exported from its own list before it re-exported the
# modules' ``__all__``s
EXPORTED_BEFORE = {
    "SimplicialMesh", "build_structured_mesh", "dump_off",
    "QuadratureRule", "ReferenceElement", "FeSpace", "FeFunction",
    "cell_quadrature", "face_quadrature", "eval_fe", "interpolate",
    "CoefficientField", "PenaltyParams", "BoundaryData",
    "det_and_cofactor", "assemble_Ah_sigma", "assemble_linearized_rhs",
    "assemble_nonlinear_residual", "assemble_jacobian",
    "assemble_residual_and_jacobian", "apply_dirichlet",
    "dump_matrix_market",
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
    assert len(EXPORTED_BEFORE) == 45 and EXPORTED_BEFORE <= set(names)

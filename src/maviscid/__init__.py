"""C0 interior-penalty finite elements for the vanishing-moment
regularization of the Monge-Ampere equation on the unit square/cube.

The regularized problem reads  -eps lap^2 u + det(D^2 u) = f  with u = g
and lap u = eps on the boundary; as eps decreases the discrete solutions
approach the viscosity solution of det(D^2 u) = f.  The package provides
structured simplicial meshes, Lagrange spaces of degree 2 and 3, the penalized
bilinear forms and their consistent Newton linearization, a damped Newton
solver with epsilon-continuation, error/rate reporting, six built-in
experiments, and a command-line runner.
"""

from maviscid.mesh import (
    SimplicialMesh,
    build_structured_mesh,
    dump_off,
)
from maviscid.elements import (
    QuadratureRule,
    ReferenceElement,
    FeSpace,
    FeFunction,
    cell_quadrature,
    face_quadrature,
    eval_fe,
    interpolate,
)
from maviscid.assembly import (
    CoefficientField,
    PenaltyParams,
    BoundaryData,
    det_and_cofactor,
    assemble_Ah_sigma,
    assemble_linearized_rhs,
    assemble_nonlinear_residual,
    assemble_jacobian,
    assemble_residual_and_jacobian,
    apply_dirichlet,
    dump_matrix_market,
)
from maviscid.solve import (
    SingularMatrixError,
    NewtonError,
    NewtonConfig,
    SolveReport,
    sparse_solve,
    newton_solve,
    default_ladder,
    convex_seed,
    continuation_solve,
)
from maviscid.analysis import (
    ScalarField,
    ErrorNorms,
    RateRow,
    error_norms,
    mesh_norm,
    verify_miranda_talenti,
    verify_discrete_sobolev,
    rate_table,
    format_rate_table,
)
from maviscid.cases import (
    ExperimentSpec,
    builtin_case,
    check_case_consistency,
    serialize_case,
)

__version__ = "0.1.0"

__all__ = [
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
]

"""The penalized fourth-order operator as a linear solver.

With the coefficient field Phi = 0 the stabilized form solves the linear
model problem

    eps lap^2 u = phi in the unit square,   u = g,  lap u = psi on the edge,

using only C0 (Lagrange) elements: the interior-face jump penalty supplies
the missing C1 control.  We manufacture data from u* = (x^4 + y^4)/2 and
watch the broken-H2 error fall at first order.

Run:  python3 demos/02_penalized_linear_solve.py
"""

import numpy as np

from maviscid import (
    CoefficientField,
    FeFunction,
    FeSpace,
    PenaltyParams,
    ScalarField,
    apply_dirichlet,
    assemble_Ah_sigma,
    assemble_linearized_rhs,
    build_structured_mesh,
    error_norms,
    sparse_solve,
)

EPS = 0.1
PARAMS = PenaltyParams(sigma=20.0, epsilon=EPS, weight_mode="plain")
ZERO_FIELD = CoefficientField.constant(np.zeros((2, 2)))  # Phi = 0


def hessian(p):
    H = np.zeros((len(p), 2, 2))
    H[:, 0, 0] = 6.0 * p[:, 0] ** 2
    H[:, 1, 1] = 6.0 * p[:, 1] ** 2
    return H


u_star = ScalarField(
    value=lambda p: 0.5 * (p[:, 0] ** 4 + p[:, 1] ** 4),
    gradient=lambda p: 2.0 * p**3,
    hessian=hessian,
)

phi = lambda p: 24.0 * EPS * np.ones(len(p))          # eps lap^2 u*
psi = lambda p: 6.0 * (p[:, 0] ** 2 + p[:, 1] ** 2)   # lap u* on the edge

print("eps lap^2 u = 24 eps with quartic boundary data, degree 2")
print("  n    dofs   l2 error    h2 error")
prev = None
for n in (4, 8, 16, 32):
    space = FeSpace(build_structured_mesh(2, n), 2)
    A = assemble_Ah_sigma(space, ZERO_FIELD, PARAMS)
    rhs = assemble_linearized_rhs(space, phi, psi, PARAMS)

    interior = space.interior_dofs
    coeffs = np.zeros(space.ndofs)
    coeffs[space.boundary_dofs] = apply_dirichlet(space, u_star.value)
    rhs_i = rhs[interior] - (A @ coeffs)[interior]
    coeffs[interior], _, _ = sparse_solve(A[np.ix_(interior, interior)], rhs_i)

    e = error_norms(u_star, FeFunction(space, coeffs))
    marker = ""
    if prev is not None:
        marker = f"  (h2 ratio {prev / e.h2_broken:.2f}x)"
    prev = e.h2_broken
    print(f"  {n:3d}  {space.ndofs:5d}  {e.l2:.3e}  {e.h2_broken:.3e}{marker}")
print("the broken-H2 error halves with h: first-order, as the penalty "
      "method predicts for quadratic elements")

"""Computing a viscosity solution by vanishing-moment continuation.

det(D^2 u) = 1 with u = 0 on the boundary of the unit square has a unique
convex viscosity solution but no classical one.  The regularized problems
-eps lap^2 u + det(D^2 u) = 1 are solvable; driving eps down a halving
ladder (warm-starting each rung) produces a bowl-shaped, symmetric,
negative profile whose center value settles as eps -> 0.

Run:  python3 demos/04_viscosity_profile.py
"""

import numpy as np

from maviscid import (
    BoundaryData,
    FeSpace,
    NewtonConfig,
    build_structured_mesh,
    continuation_solve,
)

N = 24
space = FeSpace(build_structured_mesh(2, N), 2)
f = lambda p: np.ones(len(p))
g_data = BoundaryData(g=lambda p: np.zeros(len(p)))  # psi defaults to eps

print(f"mesh n={N}, degree 2, sigma=20 plain penalty")
print("eps ladder with warm starts; center value u(0.5, 0.5):")
center = np.array([[0.5, 0.5]])
for eps in (0.16, 0.08, 0.04, 0.02):
    u, report = continuation_solve(
        space, f, g_data, sigma=20.0, eps_target=eps,
        config=NewtonConfig(abs_tol=1e-8), weight_mode="plain",
    )
    print(f"  eps={eps:<5g} u={u.evaluate(center)[0]:+.6f} "
          f"({report.iterations} total Newton steps)")

# profile along the horizontal midline
xs = np.linspace(0.0, 1.0, 9)
line = np.column_stack([xs, np.full_like(xs, 0.5)])
vals = u.evaluate(line)
print("\nprofile along y = 0.5:")
print("  x: " + "  ".join(f"{x:.3f}" for x in xs))
print("  u: " + "  ".join(f"{v:+.3f}" for v in vals))

swap = u.evaluate(line[:, ::-1])
print(f"\nx<->y symmetry gap: {np.abs(vals - swap).max():.2e}")
print(f"min dof value: {u.coeffs.min():+.6f} (negative, convex bowl)")
print("the same study at scale: maviscid solve --case III --out out/")

"""Monte-Carlo verification of the discrete inequalities behind the method.

Stability of the scheme rests on three facts about the mesh-dependent norm
||v||_h^2 = ||D^2 v||^2 + sum_F h_F^{-1} ||jump of grad v||^2 on the
zero-boundary subspace:

* discrete Miranda-Talenti: ||D^2 v|| <= ||lap v|| + C |v|_jump,
* a discrete Sobolev bound: ||v||_inf <= C ||v||_h,
* coercivity of the stabilized linearized form for sigma large enough.

The constants must stay bounded under refinement.  We sample random
discrete functions and track the worst observed constant per level, then
probe coercivity with and without the penalty.

Run:  python3 demos/05_inequality_verification.py
"""

import numpy as np

from maviscid import (
    FeSpace,
    PenaltyParams,
    assemble_jacobian,
    build_structured_mesh,
    interpolate,
    verify_discrete_sobolev,
    verify_miranda_talenti,
)

print("worst observed constants over 150 random zero-boundary samples:")
print("  n    miranda-talenti   sobolev")
for n in (4, 8, 16):
    space = FeSpace(build_structured_mesh(2, n), 2)
    mt = verify_miranda_talenti(space, 150, seed=0)
    sb = verify_discrete_sobolev(space, 150, seed=0)
    print(f"  {n:3d}  {mt:15.4f}   {sb:.4f}")
print("both stay bounded as h decreases\n")

# coercivity of the linearized operator at the convex exponential state
space = FeSpace(build_structured_mesh(2, 8), 2)
w = interpolate(space, lambda p: np.exp(0.5 * (p**2).sum(axis=1)))
ii = space.interior_dofs

for sigma in (1.0, 0.0):
    # the linearized operator A_h(cof(D^2 w)) is minus the Newton jacobian at w
    A = -assemble_jacobian(w, PenaltyParams(sigma, 0.1, "full"))
    worst = np.inf
    for s in range(100):
        rng = np.random.default_rng(s)
        v = np.zeros(space.ndofs)
        v[ii] = rng.uniform(-1.0, 1.0, len(ii))
        worst = min(worst, float(v @ (A @ v)))
    verdict = "coercive" if worst > 0 else "NOT coercive (violation detected)"
    print(f"sigma={sigma:g}, full eps-weighting: min v'Av over 100 samples = "
          f"{worst:.3e} -> {verdict}")
print("\nthe same probes at scale: maviscid verify --case I --h-list 1/8 1/16")

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

from maviscid import analysis, assembly, cases, elements, mesh, solve
from maviscid.mesh import *  # noqa: F401,F403
from maviscid.elements import *  # noqa: F401,F403
from maviscid.assembly import *  # noqa: F401,F403
from maviscid.solve import *  # noqa: F401,F403
from maviscid.analysis import *  # noqa: F401,F403
from maviscid.cases import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public API is each module's ``__all__``
__all__ = [
    name
    for module in (mesh, elements, assembly, solve, analysis, cases)
    for name in module.__all__
] + ["__version__"]

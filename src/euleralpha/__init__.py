"""
Pseudospectral solver and experiment harness for the 2D averaged Euler
(Euler-alpha) equations on the periodic torus, in vorticity and velocity
form, with the viscous variant, an exact-diffusion/Lie-Trotter product
formula integrator, Lagrangian flow-map tracking, and parameter sweeps.

The package root holds ``__version__`` and the six solver modules; every
function and class is named through its module:

- ``spectral``: ``TorusGrid`` and the Fourier-multiplier operators.
- ``dynamics``: states, the Euler-alpha vector field and the diagnostics.
- ``integrators``: the RK4, Lie-Trotter and Strang steppers and ``integrate``.
- ``particles``: the Lagrangian flow map eta and its Jacobian determinant.
- ``experiments``: configs, initial conditions, runs and parameter sweeps.
- ``output``: the snapshot, diagnostics-CSV and manifest formats.
"""

__version__ = "0.1.0"

from . import dynamics, experiments, integrators, output, particles, spectral  # noqa: F401

"""
Pseudospectral solver and experiment harness for the 2D averaged Euler
(Euler-alpha) equations on the periodic torus, in vorticity and velocity
form, with the viscous variant, an exact-diffusion/Lie-Trotter product
formula integrator, Lagrangian flow-map tracking, and parameter sweeps.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    TorusGrid,
    dealias,
    ddx,
    ddy,
    helmholtz,
    integral,
    inverse_helmholtz,
    l2_inner,
    l2_norm,
    laplacian,
)
from .dynamics import (  # noqa: F401
    Diagnostics,
    SimState,
    ad_star_hats,
    compute_diagnostics,
    energy_quadrature,
    leray_project_hats,
    omega_from_q,
    state_from_omega,
)
from .integrators import (  # noqa: F401
    CflViolation,
    NumericsFailure,
    diffusion_semigroup,
    integrate,
    step_lie_trotter,
    step_rk4,
    step_strang,
)
from .particles import (  # noqa: F401
    JacobianField,
    ParticleMap,
    advect_particles,
    eval_velocity_at,
    integrate_with_particles,
    jacobian_determinant,
)
from .experiments import (  # noqa: F401
    ConfigError,
    RunConfig,
    SweepResult,
    load_config,
    make_initial_condition,
    run,
    splitting_order_study,
    sweep_alpha,
    sweep_nu,
)

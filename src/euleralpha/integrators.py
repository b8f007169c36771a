"""
Time integration of the vorticity-form dynamics.

Three steppers are provided:

* ``rk4``: classical explicit Runge-Kutta on the full (viscous or
  inviscid) right-hand side;
* ``lie_trotter``: first-order product formula, the exact diffusion
  semigroup over dt followed by one inviscid RK4 transport step over dt;
* ``strang``: the symmetric second-order variant with half-step
  diffusion on each side.

The diffusion sub-flow dq/dt = nu * Lap (1 - alpha^2 Lap)^{-1} q is solved
in closed form: each mode is multiplied by exp(-nu dt k^2 / (1 + a^2 k^2)),
a contraction for every nonzero mode. The splitting order within a
Lie-Trotter step is fixed as diffusion first (both orders are first-order
accurate; one had to be picked).

The steppers work on the state's retained columns ky = 0..kmax, which
hold all of q (see :func:`dynamics.rhs_columns`): the RK4 stages, the
update and the diffusion factor all act on that block.

Every step re-pins the mean of q to zero and advances t. All three run one
RK4 body, :func:`_rk4` (the splitting steppers on the diffused state, nu = 0),
which raises :class:`CflViolation` when the CFL number max|u| dt / h of the
velocity its first stage transports with exceeds :data:`CFL_LIMIT`. The one
time loop, :func:`_march`, rejects a dt that is not positive and finite and
a t_final that is not finite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dynamics import SimState, rhs_columns, rhs_columns_and_speed
from .spectral import helmholtz_table, k2_table

#: largest advective CFL number max|u| dt / h a step accepts
CFL_LIMIT = 0.5

#: leave sub-femtosecond residual intervals to roundoff
_TIME_ATOL = 1e-12


class CflViolation(RuntimeError):
    """Step rejected: advective CFL number beyond :data:`CFL_LIMIT`."""

    def __init__(self, cfl: float, limit: float, t: float):
        super().__init__(f"CFL number {cfl:.4g} exceeds limit {limit:.4g} at t={t:.6g}")
        self.cfl = cfl
        self.limit = limit
        self.t = t

    def __reduce__(self):  # a sweep member's exception is pickled back from its worker
        return type(self), (self.cfl, self.limit, self.t)


class NumericsFailure(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t:.6g}")
        self.t = t

    def __reduce__(self):
        return type(self), (self.t,)


def _rk4(state: SimState, dt: float) -> np.ndarray:
    """
    The columns after one classical RK4 step of dq/dt = rhs_columns, mean pinned to 0;
    :class:`CflViolation`, before the second stage, if the first stage's CFL number is too large.

    The stage inputs q + c k share one buffer, and the update is summed into k1's
    array, in the order q + (dt/6) (((k1 + 2 k2) + 2 k3) + k4); k2 and k3 are summed
    before the last stage's RHS, so that only the sum and the stage stay alive in it.
    """
    q = state.columns
    k1, speed = rhs_columns_and_speed(state, q)
    cfl = speed * dt / state.grid.h
    if cfl > CFL_LIMIT:
        raise CflViolation(cfl, CFL_LIMIT, state.t)
    stage = np.empty_like(q)

    def at(c: float, k: np.ndarray) -> np.ndarray:
        return np.add(q, np.multiply(c, k, out=stage), out=stage)

    k2 = rhs_columns(state, at(0.5 * dt, k1))
    k3 = rhs_columns(state, at(0.5 * dt, k2))
    total = np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
    at(dt, k3)
    total += np.multiply(2.0, k3, out=k3)
    del k2, k3
    total += rhs_columns(state, stage)
    total *= dt / 6.0
    q_new = np.add(q, total, out=total)
    q_new[0, 0] = 0.0
    return q_new


def step_rk4(state: SimState, dt: float) -> SimState:
    """One classical RK4 step of the full vorticity equation."""
    return state.replace(columns=_rk4(state, dt), t=state.t + dt)


def _decay(state: SimState, dt: float) -> np.ndarray | None:
    """exp(-nu dt k^2 / (1 + alpha^2 k^2)) on the retained columns; None for the identity."""
    if state.nu == 0.0 or dt == 0.0:
        return None
    grid, w = state.grid, state.columns.shape[1]
    rate = (-state.nu * dt) * k2_table(grid, w)
    rate /= helmholtz_table(grid, w, state.alpha)
    return np.exp(rate, out=rate)


def _diffused(columns: np.ndarray, decay: np.ndarray | None) -> np.ndarray:
    return columns.copy() if decay is None else columns * decay


def diffusion_semigroup(state: SimState, dt: float) -> SimState:
    """
    Exact flow of dq/dt = nu * Lap (1 - alpha^2 Lap)^{-1} q over dt.

    Multiplies each retained column's q_hat(k) by exp(-nu dt k^2 / (1 + alpha^2 k^2));
    the identity for nu = 0. Satisfies the semigroup law F_t F_s = F_{t+s}
    to roundoff by construction.
    """
    return state.replace(columns=_diffused(state.columns, _decay(state, dt)), t=state.t + dt)


def step_lie_trotter(state: SimState, dt: float) -> SimState:
    """Diffusion semigroup over dt, then one inviscid transport step over dt."""
    q_new = _rk4(state.replace(columns=diffusion_semigroup(state, dt).columns, nu=0.0), dt)
    return state.replace(columns=q_new, t=state.t + dt)


def step_strang(state: SimState, dt: float) -> SimState:
    """Half-step diffusion, inviscid transport over dt, half-step diffusion: one decay factor."""
    decay = _decay(state, 0.5 * dt)
    mid = _rk4(state.replace(columns=_diffused(state.columns, decay), nu=0.0), dt)
    if decay is not None:
        mid *= decay
    return state.replace(columns=mid, t=state.t + dt)


STEPPERS: dict[str, Callable[..., SimState]] = {
    "rk4": step_rk4,
    "lie_trotter": step_lie_trotter,
    "strang": step_strang,
}
SCHEMES = tuple(STEPPERS)


def _march(state: SimState, t_final: float, dt: float, step: Callable):
    """
    Generate ``(step_index, state)`` pairs from ``state.t`` to ``t_final``
    with ``step(state, dt)``.

    The final partial step is shortened so the last state lands exactly on
    t_final; every earlier state has t < t_final. Non-finite states abort
    with :class:`NumericsFailure`, and no floating-point warning. A dt that
    is not positive and finite, or a t_final that is not finite or precedes
    ``state.t``, raises ``ValueError`` before the first state is yielded.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < state.t:
        raise ValueError(f"t_final={t_final} precedes the state time {state.t}")
    t0 = state.t
    atol = _TIME_ATOL * max(1.0, abs(t_final))
    k = 0
    yield k, state
    while t_final - state.t > atol:
        with np.errstate(over="ignore", invalid="ignore"):
            state = step(state, min(dt, t_final - state.t))
        k += 1
        # land on the exact step grid: accumulation drift would otherwise
        # leave the end time (and sweep comparability) off by roundoff
        t_exact = t0 + k * dt
        state = state.replace(t=t_final if t_final - t_exact <= atol else t_exact)
        if not np.all(np.isfinite(state.columns)):
            raise NumericsFailure(state.t)
        yield k, state


def advance(state: SimState, t_final: float, dt: float, scheme: str = "rk4"):
    """
    Generate ``(step_index, state)`` pairs from ``state.t`` to ``t_final`` with
    the ``scheme`` stepper, one of :data:`SCHEMES`, through :func:`_march`.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    yield from _march(state, t_final, dt, STEPPERS[scheme])


def integrate(state: SimState, t_final: float, dt: float, scheme: str = "rk4") -> SimState:
    """Step ``state`` to ``t_final``; returns the final state (t == t_final exactly)."""
    for _, state in advance(state, t_final, dt, scheme):
        pass
    return state

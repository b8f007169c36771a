"""
Right-hand sides and diagnostics for the 2D averaged Euler (Euler-alpha)
equations on the torus.

The prognostic variable is the potential vorticity q = (1 - alpha^2 Lap) w,
where w is the scalar vorticity curl u. The inviscid dynamics is the pure
transport equation dq/dt = -u . grad q; the viscous variant adds nu*Lap(w)
(the curl of the momentum-form dissipation -nu*Lap(u)).

Sign conventions, fixed once and validated by the cross-form consistency
check below:

    w = dx(u_y) - dy(u_x),   w = -Lap(psi),   u = (dy(psi), -dx(psi)),

so curl u = w holds exactly in spectral space and the transport form
coincides with the bracket form dq/dt = {psi, q} with
{f, g} = f_x g_y - f_y g_x.

The velocity (Euler-Poincare) form of the same dynamics is
du/dt = -ad*_u u with

    ad*_u u = P (1 - alpha^2 Lap)^{-1} [ (u.grad) v - alpha^2 (grad u)^T . Lap u ],
    v = (1 - alpha^2 Lap) u,

where P is the Leray projection; the pressure gradient never appears
explicitly because P removes it exactly on the torus. Both forms agree:
curl((1 - alpha^2 Lap)(-ad*_u u)) = -u . grad q, which
``checks.cross_form_residual`` measures and the test suite asserts to near
machine precision.

Nonlinear products are formed pointwise in physical space from dealiased
spectral factors, and the product is dealiased again (2/3 rule). q is a
real field, so its spectrum is fixed by the columns ky = 0..kmax that
dealiasing keeps; the state stores only that block,
:attr:`SimState.columns`. The RHS, velocity and diagnostics read it through
:func:`_half_fields`, and ad*_u u is formed and returned on the same
columns. The full spectrum, :attr:`SimState.q_hat`, is built on demand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TorusGrid,
    columns_to_grid,
    ddx,
    ddy,
    dealias,
    grid_to_columns,
    helmholtz,
    integral,
    inverse_helmholtz,
    l2_inner,
    laplacian,
    rhs_factors,
)

_ENERGY_QUADRATURE_RTOL = 1e-11


@dataclass(frozen=True)
class SimState:
    """
    Full dynamical state: spectral potential vorticity plus parameters.

    ``columns`` is the ``(n, kmax + 1)`` block of columns ky = 0..kmax of the
    spectrum of q, kept mean-zero and inside the dealias mask by every
    operation that produces states.
    """

    grid: TorusGrid
    columns: np.ndarray
    alpha: float
    nu: float = 0.0
    t: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (np.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        shape = (self.grid.n, self.grid.kmax_dealias + 1)
        if self.columns.shape != shape:
            raise ValueError(f"expected the retained columns, shape {shape}, "
                             f"got {self.columns.shape}")

    def replace(self, **changes) -> "SimState":
        return dataclasses.replace(self, **changes)

    @property
    def q_hat(self) -> np.ndarray:
        """The full ``(n, n)`` spectrum: the block, zeros, and the block's conjugate at -ky."""
        n, w = self.columns.shape
        out = np.zeros((n, n), dtype=complex)
        out[:, :w] = self.columns
        out[:, n - w + 1 :] = np.conjugate(self.columns[-np.arange(n) % n, w - 1 : 0 : -1])
        return out


@dataclass(frozen=True)
class Diagnostics:
    """Conserved-quantity diagnostics of a single state."""

    t: float
    energy: float      # 0.5 * int |u|^2 + alpha^2 |grad u|^2 dx
    mean_q: float      # int q dx (pinned to 0 by construction)
    casimir2: float    # int q^2 dx
    enstrophy: float   # int w^2 dx
    max_u: float       # max pointwise speed
    cfl: float         # max_u * dt / h for the dt supplied by the caller


def state_from_omega(
    grid: TorusGrid, omega_hat: np.ndarray, alpha: float, nu: float = 0.0, t: float = 0.0
) -> SimState:
    """Build a state from spectral vorticity: q = (1 - alpha^2 Lap) w on its columns, dealiased."""
    q = dealias(grid, helmholtz(grid, omega_hat[:, : grid.kmax_dealias + 1], alpha))
    q[0, 0] = 0.0
    return SimState(grid=grid, columns=q, alpha=alpha, nu=nu, t=t)


def omega_from_q(grid: TorusGrid, q_hat: np.ndarray, alpha: float) -> np.ndarray:
    """Vorticity from potential vorticity: w = (1 - alpha^2 Lap)^{-1} q."""
    return inverse_helmholtz(grid, q_hat, alpha)


def _half_fields(grid: TorusGrid, q_half: np.ndarray, alpha: float) -> np.ndarray:
    """Stacked spectra of (dx q, dy q, u_x, u_y) on the columns ky = 0..w-1 of ``q_half``."""
    dx, dy = grid.DX, grid.DY[:, : q_half.shape[1]]
    psi = q_half * rhs_factors(grid, alpha)[0, :, : q_half.shape[1]]
    fields = np.empty((4, *q_half.shape), dtype=complex)
    for i, (d, f) in enumerate(((dx, q_half), (dy, q_half), (dy, psi), (-dx, psi))):
        np.multiply(d, f, out=fields[i])
    return fields


def velocity_columns(grid: TorusGrid, q: np.ndarray, alpha: float) -> np.ndarray:
    """Stacked spectral (u_x, u_y) on the columns ky = 0..w-1 of a Hermitian q_hat, ``q``."""
    return _half_fields(grid, q, alpha)[2:]


def _rhs_and_velocity(state: SimState, q: np.ndarray):
    """The block of :func:`rhs_columns` and the grid velocity (u_x, u_y) it transports with."""
    grid = state.grid
    n, w = grid.n, grid.kmax_dealias + 1
    if q.shape != (n, w):
        raise ValueError(f"expected the retained columns, shape {(n, w)}, got {q.shape}")
    mask = grid.dealias_mask[:, :w]
    q_masked = q * mask
    qx, qy, ux, uy = columns_to_grid(_half_fields(grid, q_masked, state.alpha), n)
    out = -(grid_to_columns(ux * qx + uy * qy, w) * mask)
    if state.nu != 0.0:
        out -= (state.nu * rhs_factors(grid, state.alpha)[1, :, :w]) * q_masked
    out[0, 0] = 0.0
    return out, ux, uy


def rhs_columns(state: SimState, q: np.ndarray) -> np.ndarray:
    """
    dq_hat/dt = -FFT(u . grad q) + nu * Lap(w_hat) on the retained columns.

    ``q`` is the ``(n, kmax + 1)`` block of columns ky = 0..kmax of a
    Hermitian spectrum (the grid, alpha and nu come from ``state``); the
    result is the same block of dq_hat/dt, mean mode pinned to 0.
    """
    return _rhs_and_velocity(state, q)[0]


def rhs_columns_and_speed(state: SimState, q: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`rhs_columns` and the max pointwise |u| of the velocity it transports with."""
    out, ux, uy = _rhs_and_velocity(state, q)
    return out, float(np.hypot(ux, uy).max())


def leray_project_hats(
    grid: TorusGrid, wx_hat: np.ndarray, wy_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """
    L2-orthogonal projection onto divergence-free fields, on the full
    spectrum or a leading block of columns.

    On the torus this is the mode-wise multiplier I - k k^T / k^2; the k = 0
    (mean) component is already divergence-free and passes through.
    """
    w = wx_hat.shape[-1]
    kx, ky = grid.kx[:, None], grid.kx[None, :w]
    k2 = grid.K2[:, :w]
    kdotw = (kx * wx_hat + ky * wy_hat) / np.where(k2 == 0.0, 1.0, k2)
    px = wx_hat - kx * kdotw
    py = wy_hat - ky * kdotw
    px[0, 0] = wx_hat[0, 0]
    py[0, 0] = wy_hat[0, 0]
    return px, py


def ad_star_hats(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """
    Spectral ad*_u u for the state's velocity, on the retained columns ky = 0..kmax.

    Computes m = (u.grad) v - alpha^2 (grad u)^T . Lap u pointwise from
    dealiased factors (one batched inverse transform), dealiases m, then
    applies the Leray projection and the inverse Helmholtz filter. The two
    operators are both Fourier multipliers on the torus, so the application
    order is immaterial.
    """
    grid, alpha = state.grid, state.alpha
    u = velocity_columns(grid, dealias(grid, state.columns), alpha)
    v = helmholtz(grid, u, alpha)
    factors = [u, ddx(grid, u), ddy(grid, u), ddx(grid, v), ddy(grid, v)]
    if alpha != 0.0:
        factors.append(laplacian(grid, u))
    fields = columns_to_grid(np.stack(factors), grid.n)
    (ux, uy), grad_u, grad_v = fields[0], fields[1:3], fields[3:5]  # grad_u[j, c] = d_j u_c
    m = ux * grad_v[0] + uy * grad_v[1]
    if alpha != 0.0:
        m -= alpha**2 * (grad_u * fields[5]).sum(axis=1)
    mx_hat, my_hat = dealias(grid, grid_to_columns(m, grid.kmax_dealias + 1))
    mx_hat, my_hat = leray_project_hats(grid, mx_hat, my_hat)
    return inverse_helmholtz(grid, mx_hat, alpha), inverse_helmholtz(grid, my_hat, alpha)


def energy_hats(grid: TorusGrid, ux_hat: np.ndarray, uy_hat: np.ndarray, alpha: float) -> float:
    """H^1_alpha energy 0.5 * <u, (1 - alpha^2 Lap) u> from a dealiased spectral velocity."""
    return 0.5 * sum(l2_inner(grid, u, helmholtz(grid, u, alpha)) for u in (ux_hat, uy_hat))


def energy_quadrature(
    grid: TorusGrid, ux: np.ndarray, uy: np.ndarray, vx: np.ndarray, vy: np.ndarray
) -> float:
    """
    H^1_alpha energy by physical-space quadrature, 0.5 * int u . v dx, from
    grid samples of u and of v = (1 - alpha^2 Lap) u. Independent of
    :func:`energy_hats` up to roundoff; the pair gives two quadratures of
    the same metric.
    """
    return 0.5 * float(np.sum(ux * vx + uy * vy)) * grid.h**2


def compute_diagnostics(state: SimState, dt: float = 0.0) -> Diagnostics:
    """
    Evaluate all diagnostics by exact spectral quadrature on the retained columns.

    The energy is computed both spectrally and by physical-space
    quadrature; disagreement beyond 1e-11 relative indicates a corrupted
    state and raises.
    """
    grid, alpha, q = state.grid, state.alpha, state.columns
    fields = _half_fields(grid, q, alpha)
    fields[:2] = helmholtz(grid, fields[2:], alpha)  # v in the slots of (dx q, dy q)
    vx, vy, ux, uy = columns_to_grid(fields, grid.n)

    energy = energy_hats(grid, fields[2], fields[3], alpha)
    energy_phys = energy_quadrature(grid, ux, uy, vx, vy)
    scale = max(abs(energy), abs(energy_phys), 1e-300)
    if abs(energy - energy_phys) > _ENERGY_QUADRATURE_RTOL * scale and scale > 1e-30:
        raise FloatingPointError(
            f"energy quadratures disagree: {energy!r} vs {energy_phys!r}"
        )

    omega = omega_from_q(grid, q, alpha)
    mean_q = integral(grid, q)
    casimir2 = l2_inner(grid, q, q)
    enstrophy = l2_inner(grid, omega, omega)
    umax = float(np.hypot(ux, uy).max())
    return Diagnostics(
        t=state.t,
        energy=energy,
        mean_q=mean_q,
        casimir2=casimir2,
        enstrophy=enstrophy,
        max_u=umax,
        cfl=umax * dt / grid.h,
    )

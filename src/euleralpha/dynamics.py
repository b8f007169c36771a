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
spectral factors, and the product is dealiased again (2/3 rule). The state
keeps the full spectrum of q; the RHS and the CFL speed transform its half,
and :func:`rhs_columns` works on the retained columns ky = 0..kmax alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TorusGrid,
    _ifft_real,
    add_columns,
    ddx,
    ddy,
    dealias,
    forward_transform,
    helmholtz,
    integral,
    inverse_helmholtz,
    l2_inner,
    laplacian,
    rhs_factors,
    stream_from_omega,
)

_ENERGY_QUADRATURE_RTOL = 1e-11


@dataclass(frozen=True)
class SimState:
    """
    Full dynamical state: spectral potential vorticity plus parameters.

    ``q_hat`` is kept mean-zero, Hermitian-symmetric, and supported inside
    the dealias mask by every operation that produces states.
    """

    grid: TorusGrid
    q_hat: np.ndarray
    alpha: float
    nu: float = 0.0
    t: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (np.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if self.q_hat.shape != (self.grid.n, self.grid.n):
            raise ValueError("q_hat shape does not match the grid")

    def replace(self, **changes) -> "SimState":
        return dataclasses.replace(self, **changes)


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
    """Build a state from spectral vorticity: q = (1 - alpha^2 Lap) w, dealiased."""
    q_hat = dealias(grid, helmholtz(grid, omega_hat, alpha))
    q_hat[0, 0] = 0.0
    return SimState(grid=grid, q_hat=q_hat, alpha=alpha, nu=nu, t=t)


def omega_from_q(grid: TorusGrid, q_hat: np.ndarray, alpha: float) -> np.ndarray:
    """Vorticity from potential vorticity: w = (1 - alpha^2 Lap)^{-1} q."""
    return inverse_helmholtz(grid, q_hat, alpha)


def velocity_hats_from_q(
    grid: TorusGrid, q_hat: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """
    Spectral velocity from potential vorticity.

    Chain: w = (1 - alpha^2 Lap)^{-1} q, psi from -Lap psi = w, then
    u = (dy psi, -dx psi). The result is exactly divergence-free and, for q
    without Nyquist modes (every dealiased state), satisfies curl u = w
    mode by mode.
    """
    omega_hat = omega_from_q(grid, q_hat, alpha)
    psi_hat = stream_from_omega(grid, omega_hat)
    return ddy(grid, psi_hat), -ddx(grid, psi_hat)


def _half_fields(state: SimState, q_half: np.ndarray) -> np.ndarray:
    """Stacked half spectra of (dx q, dy q, u_x, u_y) for ``q_half``."""
    dx, dy = state.grid.DX, state.grid.DY[:, : q_half.shape[1]]
    psi = q_half * rhs_factors(state.grid, state.alpha)[0, :, : q_half.shape[1]]
    fields = np.empty((4, *q_half.shape), dtype=complex)
    for i, (d, f) in enumerate(((dx, q_half), (dy, q_half), (dy, psi), (-dx, psi))):
        np.multiply(d, f, out=fields[i])
    return fields


def max_speed(state: SimState) -> float:
    """Max pointwise |u| of the state's velocity field (q_hat must be Hermitian)."""
    n = state.grid.n
    ux, uy = np.fft.irfft2(_half_fields(state, state.q_hat[:, : n // 2 + 1])[2:], s=(n, n))
    return float(np.hypot(ux, uy).max())


def _rhs_and_velocity(state: SimState, q: np.ndarray):
    """The block of :func:`rhs_columns` and the grid velocity (u_x, u_y) it transports with."""
    grid = state.grid
    n, w = grid.n, grid.kmax_dealias + 1
    if q.shape != (n, w):
        raise ValueError(f"expected the retained columns, shape {(n, w)}, got {q.shape}")
    mask = grid.dealias_mask[:, :w]
    q_masked = q * mask
    qx, qy, ux, uy = np.fft.irfft2(_half_fields(state, q_masked), s=(n, n))
    out = -(np.fft.rfft2(ux * qx + uy * qy)[:, :w] * mask)
    if state.nu != 0.0:
        out -= (state.nu * rhs_factors(grid, state.alpha)[1, :, :w]) * q_masked
    out[0, 0] = 0.0
    return out, ux, uy


def rhs_columns(state: SimState, q: np.ndarray) -> np.ndarray:
    """
    dq_hat/dt = -FFT(u . grad q) + nu * Lap(w_hat) on the retained columns.

    ``q`` is the ``(n, kmax + 1)`` block of columns ky = 0..kmax of a
    Hermitian spectrum (the grid, alpha and nu come from ``state``); the
    result is the same block of dq_hat/dt, mean mode pinned to 0. One
    batched irfft2 of the dealiased (dx q, dy q, u_x, u_y), passing only
    these columns, and one rfft2 of their product, sliced to them.
    """
    return _rhs_and_velocity(state, q)[0]


def rhs_columns_and_speed(state: SimState, q: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`rhs_columns` and the max pointwise |u| of the velocity it transports with."""
    out, ux, uy = _rhs_and_velocity(state, q)
    return out, float(np.hypot(ux, uy).max())


def rhs_vorticity(state: SimState) -> np.ndarray:
    """
    dq_hat/dt on the full spectrum, for Hermitian q_hat: :func:`rhs_columns`
    of its retained columns, with the conjugate reflection filling ky < 0.
    """
    grid = state.grid
    block = rhs_columns(state, state.q_hat[:, : grid.kmax_dealias + 1])
    return add_columns(np.zeros((grid.n, grid.n), dtype=complex), block)


def leray_project_hats(
    grid: TorusGrid, wx_hat: np.ndarray, wy_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """
    L2-orthogonal projection onto divergence-free fields.

    On the torus this is the mode-wise multiplier I - k k^T / k^2; the k = 0
    (mean) component is already divergence-free and passes through.
    """
    kdotw = (grid.KX * wx_hat + grid.KY * wy_hat) / grid.K2_nonzero
    px = wx_hat - grid.KX * kdotw
    py = wy_hat - grid.KY * kdotw
    px[0, 0] = wx_hat[0, 0]
    py[0, 0] = wy_hat[0, 0]
    return px, py


def ad_star_hats(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """
    Spectral ad*_u u for the state's velocity.

    Computes m = (u.grad) v - alpha^2 (grad u)^T . Lap u pointwise from
    dealiased factors, dealiases m, then applies the Leray projection and
    the inverse Helmholtz filter. The two operators are both Fourier
    multipliers on the torus, so the application order is immaterial.
    """
    grid = state.grid
    alpha = state.alpha
    q_hat = dealias(grid, state.q_hat)
    ux_hat, uy_hat = velocity_hats_from_q(grid, q_hat, alpha)
    vx_hat = helmholtz(grid, ux_hat, alpha)
    vy_hat = helmholtz(grid, uy_hat, alpha)

    ux = _ifft_real(ux_hat)
    uy = _ifft_real(uy_hat)
    dux_dx = _ifft_real(ddx(grid, ux_hat))
    dux_dy = _ifft_real(ddy(grid, ux_hat))
    duy_dx = _ifft_real(ddx(grid, uy_hat))
    duy_dy = _ifft_real(ddy(grid, uy_hat))
    mx = ux * _ifft_real(ddx(grid, vx_hat)) + uy * _ifft_real(ddy(grid, vx_hat))
    my = ux * _ifft_real(ddx(grid, vy_hat)) + uy * _ifft_real(ddy(grid, vy_hat))
    if alpha != 0.0:
        lap_ux = _ifft_real(laplacian(grid, ux_hat))
        lap_uy = _ifft_real(laplacian(grid, uy_hat))
        mx = mx - alpha**2 * (dux_dx * lap_ux + duy_dx * lap_uy)
        my = my - alpha**2 * (dux_dy * lap_ux + duy_dy * lap_uy)

    mx_hat = dealias(grid, forward_transform(mx))
    my_hat = dealias(grid, forward_transform(my))
    mx_hat, my_hat = leray_project_hats(grid, mx_hat, my_hat)
    return inverse_helmholtz(grid, mx_hat, alpha), inverse_helmholtz(grid, my_hat, alpha)


def energy_hats(grid: TorusGrid, ux_hat: np.ndarray, uy_hat: np.ndarray, alpha: float) -> float:
    """H^1_alpha energy from spectral velocity: 0.5 * sum (1 + a^2 k^2) |u_hat|^2."""
    weight = 1.0 + alpha**2 * grid.K2
    total = np.sum(weight * (np.abs(ux_hat) ** 2 + np.abs(uy_hat) ** 2))
    return 0.5 * float(total) * (2.0 * np.pi) ** 2 / grid.n**4


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
    Evaluate all diagnostics by exact spectral quadrature.

    The energy is computed both spectrally and by physical-space
    quadrature; disagreement beyond 1e-11 relative indicates a corrupted
    state and raises.
    """
    grid = state.grid
    q_hat = state.q_hat
    omega_hat = omega_from_q(grid, q_hat, state.alpha)
    ux_hat, uy_hat = velocity_hats_from_q(grid, q_hat, state.alpha)
    ux, uy = _ifft_real(ux_hat), _ifft_real(uy_hat)
    vx = _ifft_real(helmholtz(grid, ux_hat, state.alpha))
    vy = _ifft_real(helmholtz(grid, uy_hat, state.alpha))

    energy = energy_hats(grid, ux_hat, uy_hat, state.alpha)
    energy_phys = energy_quadrature(grid, ux, uy, vx, vy)
    scale = max(abs(energy), abs(energy_phys), 1e-300)
    if abs(energy - energy_phys) > _ENERGY_QUADRATURE_RTOL * scale and scale > 1e-30:
        raise FloatingPointError(
            f"energy quadratures disagree: {energy!r} vs {energy_phys!r}"
        )

    mean_q = integral(grid, q_hat)
    casimir2 = l2_inner(grid, q_hat, q_hat)
    enstrophy = l2_inner(grid, omega_hat, omega_hat)
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

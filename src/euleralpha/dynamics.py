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
dealiasing keeps; the state stores only that block, :attr:`SimState.columns`,
the shape of ``rhs_factors``' table. ad*_u u is formed and returned on the
same columns. The full spectrum, :attr:`SimState.q_hat`, is built on demand.

The RHS is one pass over the block. Every retained column has ky <= kmax <
n/3, so there the 2/3 mask is the row mask |kx| < n/3, ``grid.dealias_rows``,
applied to the input and, in place, to the output. The four spectra
(dx q, dy q, u_x, u_y) go into one buffer, which ``spectral.grid_pass`` turns
into grid rows a block at a time; u . grad q is summed into the slot of dx q.
So no whole grid field is held, and every operation is that of separate
multiplies, bit for bit. The max speed is the max of u_x^2 + u_y^2, with
``hypot`` only at the points within 1e-12 of it (at every point when that max
is not a finite normal number): ``hypot(u_x, u_y).max()`` without its cost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TorusGrid,
    ddx,
    ddy,
    dealias,
    grid_pass,
    helmholtz,
    integral,
    inverse_helmholtz,
    k2_table,
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
    """The state of a vorticity block or full spectrum: q = (1 - alpha^2 Lap) w, dealiased."""
    q = dealias(grid, helmholtz(grid, omega_hat[:, : grid.kmax_dealias + 1], alpha))
    q[0, 0] = 0.0
    return SimState(grid=grid, columns=q, alpha=alpha, nu=nu, t=t)


def omega_from_q(grid: TorusGrid, q_hat: np.ndarray, alpha: float) -> np.ndarray:
    """Vorticity from potential vorticity: w = (1 - alpha^2 Lap)^{-1} q."""
    return inverse_helmholtz(grid, q_hat, alpha)


def vorticity_values(state: SimState) -> np.ndarray:
    """
    The grid vorticity, ``ifft2(omega_from_q(...)).real``, with the passes in place. The
    block is divided before its expansion: the divisor is real and even in k, so the division
    commutes with the conjugate reflection.
    """
    w_hat = state.replace(columns=omega_from_q(state.grid, state.columns, state.alpha)).q_hat
    np.fft.ifft(w_hat, axis=1, out=w_hat)
    return np.fft.ifft(w_hat, axis=0, out=w_hat).real


def velocity_columns(grid: TorusGrid, q: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """Stacked spectral (u_x, u_y) = (dy psi, -dx psi) on the retained block ``q``, in ``out``."""
    out = np.empty((2, *q.shape), dtype=complex) if out is None else out
    psi = np.multiply(q, rhs_factors(grid, alpha)[0], out=out[1])
    np.multiply(grid.DY[:, : q.shape[1]], psi, out=out[0])
    np.multiply(-grid.DX, psi, out=out[1])
    return out


def _rhs(state: SimState, q: np.ndarray, speed: bool) -> tuple[np.ndarray, float | None]:
    """The block of :func:`rhs_columns`, and if ``speed`` the max |u| it transports with."""
    grid = state.grid
    n, w = grid.n, grid.kmax_dealias + 1
    if q.shape != (n, w):
        raise ValueError(f"expected the retained columns, shape {(n, w)}, got {q.shape}")
    rows = grid.dealias_rows  # the 2/3 mask on the block
    fields = np.empty((4, n, w), dtype=complex)
    q_masked = np.multiply(q, rows, out=fields[0])  # dx q is formed over it last
    velocity_columns(grid, q_masked, state.alpha, fields[2:])
    np.multiply(grid.DY[:, :w], q_masked, out=fields[1])
    viscous = (state.nu * rhs_factors(grid, state.alpha)[1]) * q_masked if state.nu else None
    np.multiply(grid.DX, q_masked, out=fields[0])
    peaks = []

    def advect(values):
        qx, qy, ux, uy = values
        np.multiply(ux, qx, out=qx)  # u . grad q into the slot of qx
        np.multiply(uy, qy, out=qy)
        np.add(qx, qy, out=qx)
        if speed:
            peaks.append(_max_speed(ux, uy, qy))
        return values[:1]

    out = grid_pass(fields, advect)[0]
    np.multiply(out, rows, out=out)
    np.negative(out, out=out)
    if viscous is not None:
        out -= viscous
    out[0, 0] = 0.0
    return out, _peak(peaks) if speed else None


def _max_speed(ux: np.ndarray, uy: np.ndarray, square: np.ndarray) -> float:
    """
    ``float(np.hypot(ux, uy).max())`` from the max of ux^2 + uy^2, formed in the free array
    ``square``: that sum is within a few ulps of |u|^2, so ``hypot`` takes only the points
    within 1e-12 of its max, or every point if that max is not a finite normal number.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.multiply(ux, ux, out=square)
        square += uy * uy
    peak = square.max()
    if not (np.isfinite(peak) and peak >= np.finfo(np.float64).tiny):
        return float(np.hypot(ux, uy).max())
    near = square >= peak * (1.0 - 1e-12)
    return float(np.hypot(ux[near], uy[near]).max())


def _peak(peaks: list[float]) -> float:
    """The max of the blocks' max speeds, NaN if one is, as one max over the grid gives."""
    return peaks[0] if len(peaks) == 1 else float(np.max(peaks))


def rhs_columns(state: SimState, q: np.ndarray) -> np.ndarray:
    """
    dq_hat/dt = -FFT(u . grad q) + nu * Lap(w_hat) on the retained columns.

    ``q`` is the ``(n, kmax + 1)`` block of columns ky = 0..kmax of a
    Hermitian spectrum (the grid, alpha and nu come from ``state``); the
    result is the same block of dq_hat/dt, mean mode pinned to 0.
    """
    return _rhs(state, q, speed=False)[0]


def rhs_columns_and_speed(state: SimState, q: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`rhs_columns` and the max pointwise |u| of the velocity it transports with."""
    return _rhs(state, q, speed=True)


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
    k2 = k2_table(grid, w)
    k2[0, 0] = 1.0  # the mean mode's guard: no other k^2 is 0
    kdotw = (kx * wx_hat + ky * wy_hat) / k2
    px = wx_hat - kx * kdotw
    py = wy_hat - ky * kdotw
    px[0, 0] = wx_hat[0, 0]
    py[0, 0] = wy_hat[0, 0]
    return px, py


def ad_star_hats(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """
    Spectral ad*_u u for the state's velocity, on the retained columns ky = 0..kmax.

    Computes m = (u.grad) v - alpha^2 (grad u)^T . Lap u pointwise from
    dealiased factors (one :func:`~euleralpha.spectral.grid_pass`), dealiases m, then
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

    def product(values):
        fields = values.reshape(len(factors), 2, *values.shape[1:])
        (ux, uy), grad_u, grad_v = fields[0], fields[1:3], fields[3:5]  # grad_u[j, c] = d_j u_c
        m = ux * grad_v[0] + uy * grad_v[1]
        if alpha != 0.0:
            m -= alpha**2 * (grad_u * fields[5]).sum(axis=1)
        return m

    spectra = np.stack(factors).reshape(-1, *u.shape[1:])
    mx_hat, my_hat = dealias(grid, grid_pass(spectra, product))
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

    The energy is computed both spectrally and by physical-space quadrature over
    the blocks of one grid pass, which also gives max |u|; disagreement beyond
    1e-11 relative indicates a corrupted state and raises.
    """
    grid, alpha, q = state.grid, state.alpha, state.columns
    fields = np.empty((4, *q.shape), dtype=complex)
    u = velocity_columns(grid, q, alpha, fields[2:])
    fields[:2] = helmholtz(grid, u, alpha)  # v
    energy = energy_hats(grid, u[0], u[1], alpha)
    partials, peaks = [], []

    def quadrature(values):
        vx, vy, ux, uy = values
        partials.append(energy_quadrature(grid, ux, uy, vx, vy))
        peaks.append(_max_speed(ux, uy, vx))  # vx read above

    grid_pass(fields, quadrature)
    energy_phys = sum(partials)
    scale = max(abs(energy), abs(energy_phys), 1e-300)
    if abs(energy - energy_phys) > _ENERGY_QUADRATURE_RTOL * scale and scale > 1e-30:
        raise FloatingPointError(
            f"energy quadratures disagree: {energy!r} vs {energy_phys!r}"
        )

    omega = omega_from_q(grid, q, alpha)
    mean_q = integral(grid, q)
    casimir2 = l2_inner(grid, q, q)
    enstrophy = l2_inner(grid, omega, omega)
    umax = _peak(peaks)
    return Diagnostics(
        t=state.t,
        energy=energy,
        mean_q=mean_q,
        casimir2=casimir2,
        enstrophy=enstrophy,
        max_u=umax,
        cfl=umax * dt / grid.h,
    )

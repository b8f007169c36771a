"""Shared fixtures and field builders for the test suite."""

import numpy as np
import pytest

from euleralpha.dynamics import (
    Diagnostics,
    SimState,
    _half_fields,
    energy_hats,
    energy_quadrature,
    leray_project_hats,
    omega_from_q,
    rhs_columns,
    state_from_omega,
    velocity_columns,
)
from euleralpha.integrators import diffusion_semigroup
from euleralpha.particles import ParticleMap, jacobian_determinant
from euleralpha.spectral import (
    TorusGrid,
    _ifft_real,
    columns_to_grid,
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
)

#: Hermitian-symmetry tolerance of ``inverse_transform`` (relative to the field magnitude)
_HERMITIAN_RTOL = 1e-9

#: tolerance of the stream-function solve's mean check (relative to the field magnitude)
_MEAN_RTOL = 1e-9


def mesh(grid: TorusGrid) -> list[np.ndarray]:
    """The collocation coordinates (X, Y) as an ``indexing="ij"`` meshgrid."""
    return np.meshgrid(grid.x, grid.x, indexing="ij")


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Max modulus of ``coeff(k) - conj(coeff(-k))`` over all modes."""
    n = coeffs.shape[0]
    idx = (-np.arange(n)) % n
    reflected = coeffs[np.ix_(idx, idx)]
    return float(np.abs(coeffs - np.conj(reflected)).max())


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """
    Fourier coefficients -> real physical samples.

    Rejects input that is not Hermitian-symmetric (a real field's
    coefficients satisfy coeff(-k) = conj(coeff(k))); such input signals
    an internal logic error upstream.
    """
    defect = hermitian_defect(coeffs)
    scale = np.abs(coeffs).max()
    if defect > _HERMITIAN_RTOL * (1.0 + scale):
        raise ValueError(
            f"coefficients are not Hermitian-symmetric (defect {defect:.3e})"
        )
    return np.fft.ifft2(coeffs).real


def stream_from_omega(grid: TorusGrid, omega_hat: np.ndarray) -> np.ndarray:
    """
    Solve ``-Lap psi = omega`` for the stream function.

    psi_hat(k) = omega_hat(k) / k**2 for k != 0, with the k = 0 mode pinned
    to zero (gauge). The input must be mean-zero; a nonzero mean makes the
    inversion ill-posed and is rejected.
    """
    scale = np.abs(omega_hat).max()
    if np.abs(omega_hat[0, 0]) > _MEAN_RTOL * (1.0 + scale):
        raise ValueError("stream-function solve requires a mean-zero vorticity")
    psi_hat = omega_hat / np.where(grid.K2 == 0.0, 1.0, grid.K2)
    psi_hat[0, 0] = 0.0
    return psi_hat


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


def direct_ad_star_hats(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """
    Oracle for ``dynamics.ad_star_hats``: the full-spectrum body, the velocity
    from :func:`velocity_hats_from_q`, ten or twelve complex inverse
    transforms and two forward transforms.
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


def direct_rhs(state: SimState) -> np.ndarray:
    """
    Oracle for ``dynamics.rhs_columns``: the full-spectrum body, four
    complex inverse transforms of the dealiased factors and one forward
    transform of their product, dealiased again.
    """
    grid = state.grid
    q_hat = dealias(grid, state.q_hat)
    qx = _ifft_real(ddx(grid, q_hat))
    qy = _ifft_real(ddy(grid, q_hat))
    ux_hat, uy_hat = velocity_hats_from_q(grid, q_hat, state.alpha)
    ux = _ifft_real(ux_hat)
    uy = _ifft_real(uy_hat)
    adv_hat = dealias(grid, forward_transform(ux * qx + uy * qy))
    out = -adv_hat
    if state.nu != 0.0:
        omega_hat = omega_from_q(grid, q_hat, state.alpha)
        out = out - state.nu * grid.K2 * omega_hat
    out[0, 0] = 0.0
    return out


def full_rhs(state: SimState) -> np.ndarray:
    """
    dq_hat/dt on the full spectrum: ``rhs_columns`` of the state's columns,
    expanded as ``SimState.q_hat`` expands a state, bit for bit the
    right-hand side the steppers' column stages use.
    """
    return state.replace(columns=rhs_columns(state, state.columns)).q_hat


def max_speed(state: SimState) -> float:
    """
    Max pointwise |u| of the velocity of the whole half spectrum ky = 0..n/2 of a
    Hermitian q_hat, on the solver's 1D passes. On a dealiased state it is the speed
    ``rhs_columns_and_speed`` reports, the one the steppers' CFL check reads.
    """
    n = state.grid.n
    u = velocity_columns(state.grid, state.q_hat[:, : n // 2 + 1], state.alpha)
    return float(np.hypot(*columns_to_grid(u, n)).max())


def direct_max_speed(state: SimState) -> float:
    """Oracle for :func:`max_speed`: two full-spectrum inverse transforms."""
    ux_hat, uy_hat = velocity_hats_from_q(state.grid, state.q_hat, state.alpha)
    return float(np.hypot(_ifft_real(ux_hat), _ifft_real(uy_hat)).max())


def cfl_number(state: SimState, dt: float) -> float:
    """The advective CFL number max|u| * dt / h of the state's whole velocity field."""
    return max_speed(state) * dt / state.grid.h


def direct_l2_inner(grid: TorusGrid, f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """Oracle for ``spectral.l2_inner``: the Parseval sum over the full spectrum, then scaled."""
    return float(np.sum(np.conj(f_hat) * g_hat).real) * (2.0 * np.pi) ** 2 / grid.n**4


def direct_diagnostics(state: SimState, dt: float = 0.0) -> Diagnostics:
    """
    Oracle for ``dynamics.compute_diagnostics``: the full-spectrum body, the
    velocity from ``velocity_hats_from_q``, four complex inverse transforms
    and the full-spectrum Parseval sums, the energy cross-check asserted.
    """
    grid = state.grid
    q_hat = state.q_hat
    omega_hat = omega_from_q(grid, q_hat, state.alpha)
    ux_hat, uy_hat = velocity_hats_from_q(grid, q_hat, state.alpha)
    ux, uy = _ifft_real(ux_hat), _ifft_real(uy_hat)
    vx = _ifft_real(helmholtz(grid, ux_hat, state.alpha))
    vy = _ifft_real(helmholtz(grid, uy_hat, state.alpha))
    weight = 1.0 + state.alpha**2 * grid.K2
    total = np.sum(weight * (np.abs(ux_hat) ** 2 + np.abs(uy_hat) ** 2))
    energy = 0.5 * float(total) * (2.0 * np.pi) ** 2 / grid.n**4
    assert abs(energy - energy_quadrature(grid, ux, uy, vx, vy)) <= 1e-11 * max(energy, 1e-300)
    umax = float(np.hypot(ux, uy).max())
    return Diagnostics(
        t=state.t,
        energy=energy,
        mean_q=integral(grid, q_hat),
        casimir2=direct_l2_inner(grid, q_hat, q_hat),
        enstrophy=direct_l2_inner(grid, omega_hat, omega_hat),
        max_u=umax,
        cfl=umax * dt / grid.h,
    )


def nd_rhs_and_velocity(state: SimState, q: np.ndarray):
    """
    Oracle for ``dynamics._rhs_and_velocity``: its body through numpy's nd
    transforms, one batched ``irfft2`` of the four fields and an ``rfft2`` of
    their product sliced to the block, which the 1D passes must equal bit for bit.
    """
    grid = state.grid
    n, w = grid.n, grid.kmax_dealias + 1
    mask = grid.dealias_mask[:, :w]
    q_masked = q * mask
    qx, qy, ux, uy = np.fft.irfft2(_half_fields(grid, q_masked, state.alpha), s=(n, n))
    out = -(np.fft.rfft2(ux * qx + uy * qy)[:, :w] * mask)
    if state.nu != 0.0:
        out -= (state.nu * rhs_factors(grid, state.alpha)[1, :, :w]) * q_masked
    out[0, 0] = 0.0
    return out, ux, uy


def nd_max_speed(state: SimState) -> float:
    """Oracle for :func:`max_speed`: one ``irfft2`` of the velocity on the half spectrum."""
    n = state.grid.n
    u = velocity_columns(state.grid, state.q_hat[:, : n // 2 + 1], state.alpha)
    return float(np.hypot(*np.fft.irfft2(u, s=(n, n))).max())


def nd_diagnostics(state: SimState, dt: float = 0.0) -> Diagnostics:
    """Oracle for ``dynamics.compute_diagnostics``: its body with one batched ``irfft2``."""
    grid, alpha, q = state.grid, state.alpha, state.columns
    fields = _half_fields(grid, q, alpha)
    fields[:2] = helmholtz(grid, fields[2:], alpha)
    vx, vy, ux, uy = np.fft.irfft2(fields, s=(grid.n, grid.n))
    energy = energy_hats(grid, fields[2], fields[3], alpha)
    assert abs(energy - energy_quadrature(grid, ux, uy, vx, vy)) <= 1e-11 * max(energy, 1e-300)
    omega = omega_from_q(grid, q, alpha)
    umax = float(np.hypot(ux, uy).max())
    return Diagnostics(
        t=state.t,
        energy=energy,
        mean_q=integral(grid, q),
        casimir2=l2_inner(grid, q, q),
        enstrophy=l2_inner(grid, omega, omega),
        max_u=umax,
        cfl=umax * dt / grid.h,
    )


def direct_rk4_update(state: SimState, dt: float) -> np.ndarray:
    """
    Oracle for the steppers' RK4 update: the full-spectrum stage body, four
    :func:`full_rhs` calls on whole (n, n) stages, each stage state holding
    its stage's retained columns. Returns the full (n, n) q_hat.
    """
    q_hat = state.q_hat

    def stage(q, t):
        return full_rhs(state.replace(columns=q[:, : state.columns.shape[1]], t=t))

    k1 = full_rhs(state)
    k2 = stage(q_hat + 0.5 * dt * k1, state.t + 0.5 * dt)
    k3 = stage(q_hat + 0.5 * dt * k2, state.t + 0.5 * dt)
    k4 = stage(q_hat + dt * k3, state.t + dt)
    q_new = q_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q_new[0, 0] = 0.0
    return q_new


def transported_state(scheme: str, state: SimState, dt: float) -> SimState:
    """
    The state a ``scheme`` step over dt runs its RK4 body on: the state itself for
    rk4; for a splitting scheme the state diffused over dt (Lie-Trotter) or dt/2
    (Strang), with nu = 0 and t still the step's start.
    """
    if scheme == "rk4":
        return state
    first = dt if scheme == "lie_trotter" else 0.5 * dt
    return state.replace(columns=diffusion_semigroup(state, first).columns, nu=0.0)


def direct_step(scheme: str, state: SimState, dt: float) -> np.ndarray:
    """The full q_hat after one ``scheme`` step of :func:`direct_rk4_update` (no CFL check)."""
    q_new = direct_rk4_update(transported_state(scheme, state, dt), dt)
    if scheme != "strang":
        return q_new
    mid = state.replace(columns=q_new[:, : state.columns.shape[1]])
    return diffusion_semigroup(mid, 0.5 * dt).q_hat


def random_spectrum(grid: TorusGrid, band: int, seed: int) -> np.ndarray:
    """
    The retained columns ky = 0..kmax of the mean-zero coefficients of a real
    white-noise field, kept for |kx|, |ky| <= band: the block a state holds.
    A band of n/2 keeps every kx row, the Nyquist row included, so the result
    need not be dealiased.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.fft.fft2(rng.standard_normal((grid.n, grid.n)))
    outside = np.abs(grid.kx) > band
    coeffs[outside[:, None] | outside[None, :]] = 0.0
    coeffs[0, 0] = 0.0
    return coeffs[:, : grid.kmax_dealias + 1]


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid(16)


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(32)


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(64)


def random_band_hat(grid: TorusGrid, kmax: int, seed: int, amplitude: float = 1.0):
    """
    Random mean-zero band-limited field, built by superposing real
    harmonics in physical space (independent of the package's spectral
    symmetrization route, so it doubles as a cross-check of it).
    """
    rng = np.random.default_rng(seed)
    X, Y = mesh(grid)
    f = np.zeros((grid.n, grid.n))
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if (kx, ky) == (0, 0):
                continue
            phase = kx * X + ky * Y
            f += rng.standard_normal() * np.cos(phase) + rng.standard_normal() * np.sin(phase)
    f *= amplitude / np.abs(f).max()
    return np.fft.fft2(f)


def random_state(
    grid: TorusGrid, alpha: float, nu: float = 0.0, kmax: int = 4,
    seed: int = 0, amplitude: float = 1.0,
) -> SimState:
    """Band-limited random state with |omega| maximum ``amplitude``."""
    return state_from_omega(grid, random_band_hat(grid, kmax, seed, amplitude), alpha, nu=nu)


def extrapolated_determinant(coarse: ParticleMap, fine: ParticleMap) -> np.ndarray:
    """
    Richardson estimate of det(D eta) from the stencil fields on an m and a
    2m marker lattice of the same flow map.

    The stencil in ``jacobian_determinant`` is second order, so
    ``(4 det_2m - det_m) / 3`` at the m x m shared labels cancels the h^2
    term and leaves O(h^4): what remains is the map's own volume defect,
    not the stencil's truncation error. Only labels where both lattices use
    central differences are returned (rows and columns 1..m-2); at the
    lattice cut the one-sided stencil's h^3 term survives the two-level
    extrapolation.
    """
    if fine.m != 2 * coarse.m:
        raise ValueError(f"fine lattice must have 2m markers per side, got {coarse.m} and {fine.m}")
    det_m = jacobian_determinant(coarse).det
    det_2m = jacobian_determinant(fine).det[::2, ::2]
    return ((4.0 * det_2m - det_m) / 3.0)[1:-1, 1:-1]


def spectral_determinant(pm: ParticleMap) -> np.ndarray:
    """
    det(D eta) on the m x m lattice from spectral derivatives of the
    displacement eta(a) - a, which is periodic in the label a: the solver's
    ``ddx``/``ddy`` (Nyquist zeroed) on a ``TorusGrid(m)`` whose axes are
    the two label directions.
    """
    grid = TorusGrid(pm.m)
    d = pm.displacements().reshape(pm.m, pm.m, 2)
    hats = [forward_transform(d[:, :, c]) for c in (0, 1)]
    dxda, dxdb, dyda, dydb = (inverse_transform(op(grid, h)) for h in hats for op in (ddx, ddy))
    return (1.0 + dxda) * (1.0 + dydb) - dxdb * dyda


def direct_velocity_sum(grid: TorusGrid, u_hats, points) -> np.ndarray:
    """
    Oracle for ``particles.eval_velocity_at``: the full-spectrum summation
    over every unmasked (kx, ky), with ``exp(1j * outer(points, k))`` built
    directly, needing no Hermitian symmetry.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("evaluation points must be finite")
    kmax = grid.kmax_dealias
    kvec = np.arange(-kmax, kmax + 1)
    idx = kvec % grid.n
    # series amplitudes of the retained block, ordered -kmax..kmax
    sub = np.ix_(idx, idx)
    scale = 1.0 / grid.n**2
    ex = np.exp(1j * np.outer(points[:, 0], kvec))
    ey = np.exp(1j * np.outer(points[:, 1], kvec))
    out = np.empty((points.shape[0], 2))
    for comp, coeffs in enumerate(u_hats):
        block = coeffs[sub] * scale
        out[:, comp] = ((ex @ block) * ey).sum(axis=1).real
    return out

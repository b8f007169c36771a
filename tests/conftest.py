"""Shared fixtures and field builders for the test suite."""

import numpy as np
import pytest

from euleralpha.dynamics import (
    SimState,
    omega_from_q,
    rhs_vorticity,
    state_from_omega,
    velocity_hats_from_q,
)
from euleralpha.integrators import diffusion_semigroup
from euleralpha.particles import ParticleMap, jacobian_determinant
from euleralpha.spectral import TorusGrid, _ifft_real, ddx, ddy, dealias, forward_transform

#: Hermitian-symmetry tolerance of ``inverse_transform`` (relative to the field magnitude)
_HERMITIAN_RTOL = 1e-9


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


def direct_rhs(state: SimState) -> np.ndarray:
    """
    Oracle for ``dynamics.rhs_vorticity``: the full-spectrum body, four
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


def direct_max_speed(state: SimState) -> float:
    """Oracle for ``dynamics.max_speed``: two full-spectrum inverse transforms."""
    ux_hat, uy_hat = velocity_hats_from_q(state.grid, state.q_hat, state.alpha)
    return float(np.hypot(_ifft_real(ux_hat), _ifft_real(uy_hat)).max())


def direct_rk4_update(state: SimState, dt: float) -> np.ndarray:
    """
    Oracle for the steppers' RK4 update: the full-spectrum stage body, four
    ``rhs_vorticity`` calls on whole (n, n) stage states.
    """
    k1 = rhs_vorticity(state)
    k2 = rhs_vorticity(state.replace(q_hat=state.q_hat + 0.5 * dt * k1, t=state.t + 0.5 * dt))
    k3 = rhs_vorticity(state.replace(q_hat=state.q_hat + 0.5 * dt * k2, t=state.t + 0.5 * dt))
    k4 = rhs_vorticity(state.replace(q_hat=state.q_hat + dt * k3, t=state.t + dt))
    q_new = state.q_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q_new[0, 0] = 0.0
    return q_new


def direct_step(scheme: str, state: SimState, dt: float) -> np.ndarray:
    """q_hat after one ``scheme`` step built on :func:`direct_rk4_update` (no CFL check)."""
    if scheme == "rk4":
        return direct_rk4_update(state, dt)
    first = dt if scheme == "lie_trotter" else 0.5 * dt
    diffused = diffusion_semigroup(state, first).q_hat
    q_new = direct_rk4_update(state.replace(q_hat=diffused, nu=0.0), dt)
    if scheme == "lie_trotter":
        return q_new
    return diffusion_semigroup(state.replace(q_hat=q_new), 0.5 * dt).q_hat


def random_spectrum(grid: TorusGrid, band: int, seed: int) -> np.ndarray:
    """
    Mean-zero coefficients of a real white-noise field, kept for
    |kx|, |ky| <= band. A band of n/2 keeps the full spectrum, Nyquist
    modes included, so the result need not be dealiased.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.fft.fft2(rng.standard_normal((grid.n, grid.n)))
    coeffs[(np.abs(grid.KX) > band) | (np.abs(grid.KY) > band)] = 0.0
    coeffs[0, 0] = 0.0
    return coeffs


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
    f = np.zeros((grid.n, grid.n))
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if (kx, ky) == (0, 0):
                continue
            phase = kx * grid.X + ky * grid.Y
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

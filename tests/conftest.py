"""Shared fixtures and field builders for the test suite."""

import numpy as np
import pytest

from euleralpha.dynamics import SimState, state_from_omega
from euleralpha.particles import ParticleMap, jacobian_determinant
from euleralpha.spectral import TorusGrid, ddx, ddy, forward_transform, inverse_transform


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

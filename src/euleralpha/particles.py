"""
Lagrangian flow map: marker advection under the Eulerian solution.

The flow map is represented by an m x m lattice of markers whose positions
are integrated through dx/dt = u(t, x). Positions are stored *unwrapped*
(winding retained), so the map stays a smooth function of the material
label and finite-difference stencils for det(D eta) are well defined.

Off-grid velocities come from the exact trigonometric interpolant of the
spectral field, evaluated by direct Fourier summation over the unmasked
(2/3-rule) modes: evolving states carry no energy outside the mask, so
this is exact for them and spectrally accurate in general. Hermitian
symmetry halves the sum (ky >= 0 only), and the exponentials come from
powers of exp(ix) and exp(iy), two complex exponentials per point. One
evaluation of M points costs about 0.45 M n^2 complex multiply-adds in a
single matrix product, which is fine at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import SimState, velocity_hats_from_q
from .integrators import NumericsFailure, _march, step_rk4
from .spectral import TorusGrid


@dataclass(frozen=True)
class ParticleMap:
    """Marker positions approximating the flow map on an m x m lattice."""

    m: int
    positions: np.ndarray       # (m*m, 2), unwrapped
    ref_positions: np.ndarray   # (m*m, 2), the initial lattice

    @classmethod
    def lattice(cls, m: int) -> "ParticleMap":
        """Markers initialized exactly on the uniform lattice (eta(0) = identity)."""
        if m < 3:
            raise ValueError(f"need at least 3 markers per dimension, got {m}")
        a = 2.0 * np.pi * np.arange(m) / m
        AX, AY = np.meshgrid(a, a, indexing="ij")
        pts = np.column_stack([AX.ravel(), AY.ravel()])
        return cls(m=m, positions=pts.copy(), ref_positions=pts)

    def displacements(self) -> np.ndarray:
        return self.positions - self.ref_positions


def eval_velocity_at(
    grid: TorusGrid, u_hats: tuple[np.ndarray, np.ndarray], points: np.ndarray
) -> np.ndarray:
    """
    Evaluate the velocity interpolant at arbitrary points.

    ``u_hats`` are the spectral coefficients of (u_x, u_y); ``points`` is
    an (M, 2) array. Returns an (M, 2) array of velocities. Summation runs
    over the unmasked modes only.

    The coefficients must be Hermitian, ``c(-k) == conj(c(k))``, as those
    of every real field are: the sum runs over ky >= 0 only, with weight 2
    for ky > 0, and keeps its real part. A non-Hermitian input gives the
    real part of a different field, without an error.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("evaluation points must be finite")
    kmax = grid.kmax_dealias
    m = points.shape[0]
    # series amplitudes of the retained kx = -kmax..kmax, ky = 0..kmax
    # block, ky > 0 doubled; u_x's and u_y's side by side
    kx = np.arange(-kmax, kmax + 1) % grid.n
    ky = np.arange(kmax + 1)
    weight = np.where(ky == 0, 1.0, 2.0) / grid.n**2
    block = np.concatenate([c[np.ix_(kx, ky)] * weight for c in u_hats], axis=1)
    # exp(i k x) for k = -kmax..kmax and exp(i k y) for k = 0..kmax, one
    # row per k: powers of exp(ix) and exp(iy), negative k by conjugation
    ex = np.empty((2 * kmax + 1, m), dtype=np.complex128)
    ey = np.empty((kmax + 1, m), dtype=np.complex128)
    for powers, coord in ((ex[kmax:], points[:, 0]), (ey, points[:, 1])):
        powers[0] = 1.0
        np.exp(1j * coord, out=powers[1])
        for k in range(2, kmax + 1):
            np.multiply(powers[k - 1], powers[1], out=powers[k])
    np.conjugate(ex[:kmax:-1], out=ex[:kmax])
    # one matrix product for both components, then the sum over ky
    amp = (block.T @ ex).reshape(2, kmax + 1, m)
    return np.ascontiguousarray(np.einsum("ckm,km->mc", amp, ey).real)


def _half_steps(state: SimState, dt: float, cfl_limit: Optional[float]):
    """Two Eulerian half steps over dt: the state at t + dt and the three stage velocities."""
    half = step_rk4(state, 0.5 * dt, cfl_limit)
    full = step_rk4(half, 0.5 * dt, cfl_limit)
    # a non-finite value at t or t + dt/2 carries through to t + dt; stop
    # before any marker is moved by it
    if not np.all(np.isfinite(full.q_hat)):
        raise NumericsFailure(full.t)
    stages = tuple(velocity_hats_from_q(s.grid, s.q_hat, s.alpha) for s in (state, half, full))
    return full, stages


def advect_particles(
    pm: ParticleMap,
    state: SimState,
    dt: float,
    stages: Optional[tuple] = None,
    cfl_limit: Optional[float] = 0.5,
) -> ParticleMap:
    """
    One RK4 step of dx/dt = u(t, x) for every marker.

    The velocity is frozen per substage from the concurrently integrated
    Eulerian state: stages use u at t, t + dt/2 and t + dt. ``stages`` may
    supply those three spectral velocity pairs (as produced by a coupled
    driver); otherwise they are computed here by two Eulerian half steps,
    and a non-finite field raises :class:`NumericsFailure`.
    """
    grid = state.grid
    if stages is None:
        _, stages = _half_steps(state, dt, cfl_limit)
    u0, u_half, u1 = stages

    x = pm.positions
    k1 = eval_velocity_at(grid, u0, x)
    k2 = eval_velocity_at(grid, u_half, x + 0.5 * dt * k1)
    k3 = eval_velocity_at(grid, u_half, x + 0.5 * dt * k2)
    k4 = eval_velocity_at(grid, u1, x + dt * k3)
    new_pos = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ParticleMap(m=pm.m, positions=new_pos, ref_positions=pm.ref_positions)


def integrate_with_particles(
    state: SimState,
    pm: ParticleMap,
    t_final: float,
    dt: float,
    cfl_limit: Optional[float] = 0.5,
    observer=None,
):
    """
    Co-integrate the Eulerian state and the marker map to ``t_final``.

    The Eulerian field advances by half steps of dt/2 so each marker RK4
    step sees u at t, t + dt/2, t + dt. The final partial step is
    shortened. A non-finite field raises :class:`NumericsFailure` before
    the markers move. Returns ``(state, pm)`` at t_final.
    """
    def coupled(s: SimState, step_dt: float) -> SimState:
        nonlocal pm
        full, stages = _half_steps(s, step_dt, cfl_limit)
        pm = advect_particles(pm, s, step_dt, stages=stages)
        return full

    for k, state in _march(state, t_final, dt, coupled):
        if observer is not None and k > 0:
            observer(state, pm)
    return state, pm


@dataclass(frozen=True)
class JacobianField:
    """det(D eta) estimates on the marker lattice, with per-cell flags."""

    det: np.ndarray         # (m, m)
    degenerate: np.ndarray  # (m, m) bool: collapsed or inverted cells

    def max_deviation(self) -> float:
        """max |det - 1| over the lattice."""
        return float(np.abs(self.det - 1.0).max())


def jacobian_determinant(pm: ParticleMap) -> JacobianField:
    """
    Central-difference estimate of det(D eta) on the marker lattice.

    Differences act on the unwrapped marker displacements (second-order
    central in the interior, second-order one-sided at the lattice edges),
    which is exact for the identity and affine maps. Degenerate cells
    (nonpositive or non-finite determinant) are flagged per cell, not
    fatal.
    """
    m = pm.m
    h = 2.0 * np.pi / m
    # differentiate the displacement, not the raw position: D eta = I + D d,
    # exact (not just machine-exact) for the identity map
    d = pm.displacements().reshape(m, m, 2)
    dxda, dxdb, dyda, dydb = (
        np.gradient(d[:, :, c], h, axis=ax, edge_order=2) for c in (0, 1) for ax in (0, 1)
    )
    det = (1.0 + dxda) * (1.0 + dydb) - dxdb * dyda
    # inverted or collapsed (det ~ 0 up to roundoff) cells
    degenerate = ~np.isfinite(det) | (det <= 1e-12)
    return JacobianField(det=det, degenerate=degenerate)

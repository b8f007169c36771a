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
symmetry folds the sum into real arithmetic: with K = kmax + 1, each
component is X^T R Y, a real (2K, 2K) coefficient table R between the
cos/sin rows X of kx = 0..kmax and Y of ky = 0..kmax, which come from
powers of exp(ix) and exp(iy), one cos and one sin per coordinate. One
evaluation of M points costs about 0.9 M n^2 real multiply-adds, in
blocks of a fixed number of markers, so its working memory does not grow
with M. The block buffers live in an :class:`EvalWorkspace`, which the
coupled integration makes once and lends to every evaluation, so that a
step does not allocate (and fault in) fresh buffers four times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimState, velocity_columns
from .integrators import NumericsFailure, _march, step_rk4
from .spectral import TorusGrid


@dataclass(frozen=True, eq=False)
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


# markers per block of eval_velocity_at, whose buffers grow with it: on the
# flow-map benchmark, with the buffers made once per integration, blocks of
# 1024, 2048 and 4096 ran alike (body medians 0.43, 0.44, 0.45 s) and blocks
# of 256 slower (0.51 s)
_BLOCK = 1024


def _coefficient_table(grid: TorusGrid, u_hats) -> np.ndarray:
    """
    The real ``(4K, 2K)`` table of :func:`eval_velocity_at`, K = kmax + 1.

    Row ``(c, j)`` holds component c's coefficients of Y row j (cos ky y
    for j < K, else sin ky y); column i is X row i (cos kx x for i < K,
    else sin kx x). With a = Re c(±kx, ky), b = Im c(±kx, ky), a pair
    ±kx folds into cos.cos a+ + a-, sin.cos b- - b+, cos.sin -(b+ + b-)
    and sin.sin a- - a+; kx = 0 is counted once (its c- is zero).
    """
    kmax = grid.kmax_dealias
    w = kmax + 1
    k = np.arange(w)
    weight = (np.where(k == 0, 1.0, 2.0) / grid.n**2)[:, None]
    table = np.empty((2, 2 * w, 2 * w))
    for c, coeffs in zip(table, u_hats):
        # [ky, kx] blocks of c(kx, ky) and c(-kx, ky), ky > 0 doubled
        plus = coeffs[k, :w].T * weight
        minus = coeffs[-k % grid.n, :w].T * weight
        minus[:, 0] = 0.0
        c[:w, :w] = plus.real + minus.real
        c[:w, w:] = minus.imag - plus.imag
        c[w:, :w] = -(plus.imag + minus.imag)
        c[w:, w:] = minus.real - plus.real
    return table.reshape(4 * w, 2 * w)


class EvalWorkspace:
    """
    The block buffers of :func:`eval_velocity_at` on one grid, made once.

    They are flat, so that every block, the tail one too, views a
    contiguous prefix: exp(i k x) and exp(i k y) for k = 0..kmax, their
    cos rows over their sin rows (X over Y), the table times X, and the
    two components (an einsum straight into the (M, 2) result ran 2-4x
    slower). They hold one block of ``_BLOCK`` markers, and every evaluation
    overwrites what it reads, so a workspace can serve any number of calls
    with any number of points on its grid. It holds only buffers: every call
    builds the coefficient table of the fields it is given.
    """

    def __init__(self, grid: TorusGrid):
        w = grid.kmax_dealias + 1
        self.n = grid.n
        self.powers = np.empty(2 * w * _BLOCK, dtype=np.complex128)
        self.trig = np.empty(4 * w * _BLOCK)
        self.amp = np.empty(4 * w * _BLOCK)
        self.comps = np.empty(2 * _BLOCK)


def eval_velocity_at(
    grid: TorusGrid,
    u_hats: tuple[np.ndarray, np.ndarray],
    points: np.ndarray,
    workspace: EvalWorkspace | None = None,
) -> np.ndarray:
    """
    Evaluate the velocity interpolant at arbitrary points.

    ``u_hats`` are the spectral coefficients of (u_x, u_y), at least their
    columns ky = 0..kmax; ``points`` is an (M, 2) array, and any other
    shape is a ``ValueError``. Returns an (M, 2) array of velocities.
    Summation runs over the unmasked modes only.

    The coefficients must be Hermitian, ``c(-k) == conj(c(k))``, as those
    of every real field are: the sum runs over ky = 0..kmax only, with
    weight 2 for ky > 0, and keeps its real part. A non-Hermitian input
    gives the real part of a different field, without an error.

    The points are taken in blocks of ``_BLOCK``: per block, one real
    matrix product of the coefficient table with the cos/sin rows of x,
    then a sum against the rows of y. The buffers come from ``workspace``,
    which the coupled integration makes once per run; a call without one
    makes its own. The result does not depend on the workspace or on what
    it held before.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"evaluation points must be an (M, 2) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("evaluation points must be finite")
    m = points.shape[0]
    if workspace is None:
        workspace = EvalWorkspace(grid)
    elif workspace.n != grid.n:
        raise ValueError(f"workspace for n={workspace.n} cannot evaluate points at n={grid.n}")
    w = grid.kmax_dealias + 1
    table = _coefficient_table(grid, u_hats)
    out = np.empty((m, 2))
    for start in range(0, m, _BLOCK):
        r = min(_BLOCK, m - start)
        p = workspace.powers[: 2 * w * r].reshape(w, 2, r)
        t = workspace.trig[: 4 * w * r].reshape(2, 2 * w, r)
        a = workspace.amp[: 4 * w * r].reshape(4 * w, r)
        u = workspace.comps[: 2 * r].reshape(2, r)
        p[0] = 1.0
        np.cos(points[start : start + r].T, out=p[1].real)
        np.sin(points[start : start + r].T, out=p[1].imag)
        for k in range(2, w):
            np.multiply(p[k - 1], p[1], out=p[k])
        np.copyto(t[:, :w], p.real.transpose(1, 0, 2))
        np.copyto(t[:, w:], p.imag.transpose(1, 0, 2))
        np.matmul(table, t[0], out=a)
        np.einsum("cjm,jm->cm", a.reshape(2, 2 * w, r), t[1], out=u)
        np.copyto(out[start : start + r], u.T)
    return out


def advect_particles(
    pm: ParticleMap, state: SimState, dt: float, stages: tuple, workspace: EvalWorkspace | None = None
) -> ParticleMap:
    """
    One RK4 step of dx/dt = u(t, x) for every marker.

    ``stages`` holds the spectral velocity pairs (u_x, u_y) at t, t + dt/2
    and t + dt, as the coupled driver produces them; ``state`` supplies the
    grid. The four evaluations share ``workspace``'s buffers (one made for
    this step if none is given). Only the markers move.
    """
    grid = state.grid
    u0, u_half, u1 = stages
    x = pm.positions
    if workspace is None:
        workspace = EvalWorkspace(grid)

    def stage(k, h):
        # x + h k, rounded as x + (h * k), in one (M, 2) array
        point = k * h
        point += x
        return point

    k1 = eval_velocity_at(grid, u0, x, workspace)
    k2 = eval_velocity_at(grid, u_half, stage(k1, 0.5 * dt), workspace)
    k3 = eval_velocity_at(grid, u_half, stage(k2, 0.5 * dt), workspace)
    k4 = eval_velocity_at(grid, u1, stage(k3, dt), workspace)
    # x + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), summed in place into k2, so
    # that the update's temporaries and the workspace, which outlives the
    # step, do not raise its peak memory; every sum and product rounds as
    # that expression does
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += x
    return ParticleMap(m=pm.m, positions=k2, ref_positions=pm.ref_positions)


def integrate_with_particles(state: SimState, pm: ParticleMap, t_final: float, dt: float):
    """
    Co-integrate the Eulerian state and the marker map to ``t_final``.

    The Eulerian field advances by half steps of dt/2 so each marker RK4
    step sees u at t, t + dt/2, t + dt. The final partial step is
    shortened. A non-finite field raises :class:`NumericsFailure` before
    the markers move; a bad dt or t_final raises ``ValueError`` as
    :func:`~euleralpha.integrators.integrate` does. Returns ``(state, pm)``
    at t_final. Every marker step evaluates in one :class:`EvalWorkspace`.
    """
    workspace = EvalWorkspace(state.grid)

    def coupled(s: SimState, step_dt: float) -> SimState:
        nonlocal pm
        half = step_rk4(s, 0.5 * step_dt)
        full = step_rk4(half, 0.5 * step_dt)
        # a non-finite value at t or t + dt/2 carries through to t + dt; stop
        # before any marker is moved by it
        if not np.all(np.isfinite(full.columns)):
            raise NumericsFailure(full.t)
        stages = tuple(velocity_columns(x.grid, x.columns, x.alpha) for x in (s, half, full))
        pm = advect_particles(pm, s, step_dt, stages, workspace)
        return full

    for _, state in _march(state, t_final, dt, coupled):
        pass
    return state, pm


@dataclass(frozen=True, eq=False)
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

"""
The solver's structural invariants, each measured by one function.

Every function below takes its inputs (grid, fields or state, alpha, nu,
times) and returns the residuals it measures. They are the single source
of these measurements: the test suite calls them with its own sizes,
seeds and bounds, and ``CHECKS`` fixes the inputs and bounds of the
``check`` CLI subcommand, which runs all nine in about a second at n = 32.
The full acceptance suite lives in the test tree and is run with pytest.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from .dynamics import (
    SimState,
    ad_star_hats,
    compute_diagnostics,
    leray_project_hats,
    omega_from_q,
    rhs_columns,
    state_from_omega,
    vorticity_values,
)
from .experiments import _random_band_hat
from .integrators import advance, diffusion_semigroup, integrate
from .output import read_snapshot, write_snapshot
from .particles import ParticleMap, jacobian_determinant
from .spectral import (
    TorusGrid,
    ddx,
    ddy,
    forward_transform,
    helmholtz,
    inverse_helmholtz,
    l2_norm,
)


def transform_residuals(f: np.ndarray) -> tuple[float, float]:
    """Relative max round-trip error of the real field ``f`` and its relative Parseval defect."""
    F = forward_transform(f)
    parseval = abs(np.sum(f**2) - np.sum(np.abs(F) ** 2) / f.shape[0] ** 2)
    parseval /= np.sum(f**2)
    roundtrip = np.abs(np.fft.ifft2(F).real - f).max() / np.abs(f).max()
    return float(roundtrip), float(parseval)


def helmholtz_pair_residuals(grid: TorusGrid, F: np.ndarray, alpha: float) -> tuple[float, float]:
    """Relative max errors of (1 - a^2 Lap)^-1 (1 - a^2 Lap) F and (1 - a^2 Lap) omega_from_q(F)."""
    scale = np.abs(F).max()
    back = inverse_helmholtz(grid, helmholtz(grid, F, alpha), alpha)
    forth = helmholtz(grid, omega_from_q(grid, F, alpha), alpha)
    return float(np.abs(back - F).max() / scale), float(np.abs(forth - F).max() / scale)


def single_mode_decay_error(
    grid: TorusGrid, alpha: float, nu: float, dt: float, t_final: float, scheme: str
) -> float:
    """
    Relative error of the peak vorticity of omega0 = cos 2x, integrated to
    ``t_final`` with ``scheme``, against its exact decay
    exp(-nu k^2 t / (1 + alpha^2 k^2)) with k^2 = 4.
    """
    X = np.meshgrid(grid.x, grid.x, indexing="ij")[0]
    state = state_from_omega(grid, forward_transform(np.cos(2.0 * X)), alpha, nu=nu)
    exact = np.exp(-nu * 4.0 * t_final / (1.0 + alpha**2 * 4.0))
    final = integrate(state, t_final, dt, scheme)
    peak = vorticity_values(final).max()
    return float(abs(peak - exact) / exact)


def cross_form_residual(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """
    Spectral residual of curl((1 - a^2 Lap)(-ad*_u u)) = -u . grad q, the
    identity between the velocity (Euler-Poincare) and the vorticity form
    that fixes every sign convention, and the vorticity-form right-hand
    side it is measured against, both on the retained columns.
    """
    grid, alpha = state.grid, state.alpha
    hx, hy = ad_star_hats(state)
    rhs = rhs_columns(state, state.columns)
    curl = ddx(grid, helmholtz(grid, -hy, alpha)) - ddy(grid, helmholtz(grid, -hx, alpha))
    return curl - rhs, rhs


def leray_residuals(
    grid: TorusGrid, p_hat: np.ndarray, wx_hat: np.ndarray, wy_hat: np.ndarray
) -> tuple[float, float]:
    """
    What the Leray projection P leaves of grad p, relative to max|dx p|, and
    the max divergence of P w, relative to max|P w|.
    """
    gx, gy = ddx(grid, p_hat), ddy(grid, p_hat)
    px, py = leray_project_hats(grid, gx, gy)
    kill = max(np.abs(px).max(), np.abs(py).max()) / np.abs(gx).max()
    qx, qy = leray_project_hats(grid, wx_hat, wy_hat)
    div = np.abs(ddx(grid, qx) + ddy(grid, qy)).max()
    div /= max(np.abs(qx).max(), np.abs(qy).max())
    return float(kill), float(div)


def conservation_drifts(
    state: SimState, t_final: float, dt: float, every: int
) -> tuple[float, float, float]:
    """
    Max relative drifts of the energy and of int q^2, and max |int q|, over
    the states at every ``every``-th RK4 step of size ``dt`` and at ``t_final``.
    """
    rows = [compute_diagnostics(s) for step, s in advance(state, t_final, dt)
            if step % every == 0 or s.t == t_final]
    d0 = rows[0]  # the step-0 row, whose own drifts are 0
    energy = max(abs(d.energy - d0.energy) / d0.energy for d in rows)
    casimir2 = max(abs(d.casimir2 - d0.casimir2) / d0.casimir2 for d in rows)
    mean = max(abs(d.mean_q) for d in rows)
    return energy, casimir2, mean


def semigroup_error(state: SimState, s: float, t: float) -> float:
    """max |F_{s+t} q - F_t F_s q| / max |q| for the diffusion semigroup F."""
    once = diffusion_semigroup(state, s + t)
    twice = diffusion_semigroup(diffusion_semigroup(state, s), t)
    return float(np.abs(once.columns - twice.columns).max() / np.abs(state.columns).max())


def affine_jacobian_deviation(m: int, scale: tuple[float, float]) -> float:
    """max |det - 1| of the stencil for a -> (scale[0] a_x, scale[1] a_y), scale[0] scale[1] = 1."""
    pm = ParticleMap.lattice(m)
    mapped = ParticleMap(
        m=m, positions=pm.ref_positions * np.array(scale), ref_positions=pm.ref_positions
    )
    return jacobian_determinant(mapped).max_deviation()


def snapshot_roundtrip_error(
    path: Path, n: int, alpha: float, nu: float, time: float, omega: np.ndarray
) -> float:
    """Largest difference of a header value or sample after a write and read at ``path``."""
    write_snapshot(path, n, alpha, nu, time, omega)
    snap = read_snapshot(path)
    if snap.omega.shape != omega.shape:
        return float("inf")
    header = np.subtract((snap.n, snap.alpha, snap.nu, snap.time), (n, alpha, nu, time))
    # np.max, unlike the builtin max, keeps a NaN from either side
    return float(np.max([np.abs(header).max(), np.abs(snap.omega - omega).max()]))


# -- the ``check`` subcommand: fixed inputs, mostly on one n = 32 grid -------

_GRID = TorusGrid(32)


def _random_band_limited(K: int, seed: int) -> np.ndarray:
    return _random_band_hat(_GRID, K, seed) * _GRID.n**2 / (2 * K + 1) ** 2


def _cross_form_case() -> list[float]:
    worst = 0.0
    for seed in (11, 12, 13):
        for alpha in (0.0, 0.25, 1.0):
            state = state_from_omega(_GRID, _random_band_limited(4, seed), alpha)
            residual, rhs = cross_form_residual(state)
            worst = max(worst, l2_norm(_GRID, residual) / l2_norm(_GRID, rhs))
    return [worst]


def _snapshot_case() -> list[float]:
    grid = TorusGrid(16)
    X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
    omega = np.cos(2 * X) + 0.5 * np.sin(Y)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap_00000000.eaf"
        return [snapshot_roundtrip_error(path, 16, 0.25, 0.01, 1.5, omega)]


#: (name, measurement, (label, limit, strict) for each measured value); a
#: value passes below its limit if strict, else up to it
CHECKS = (
    ("transform round-trip & Parseval",
     lambda: transform_residuals(
         vorticity_values(SimState(_GRID, _random_band_limited(9, 1), 0.0))),
     (("roundtrip", 1e-12, True), ("parseval", 1e-12, True))),
    ("helmholtz inverse pair",
     lambda: np.max([helmholtz_pair_residuals(_GRID, _random_band_limited(9, seed=2), a)
                     for a in (0.0, 0.1, 1.0, 10.0)], axis=0),
     (("inverse of filter", 1e-13, True), ("filter of inverse", 1e-13, True))),
    ("single-mode viscous decay",
     lambda: [single_mode_decay_error(_GRID, 0.5, 0.01, 0.01, 1.0, scheme)
              for scheme in ("rk4", "lie_trotter")],
     (("rk4", 1e-9, False), ("lie_trotter", 1e-12, False))),
    ("velocity-form vs vorticity-form", _cross_form_case, (("max rel L2 err", 1e-10, False),)),
    ("leray projection",
     lambda: leray_residuals(_GRID, *(_random_band_limited(6, seed) for seed in (21, 22, 23))),
     (("gradient-kill", 1e-12, True), ("residual-div", 1e-12, True))),
    ("inviscid conservation (t=1)",
     lambda: conservation_drifts(state_from_omega(_GRID, _random_band_limited(4, seed=31), 0.25),
                                 1.0, 2e-3, every=500),
     (("energy", 1e-8, False), ("casimir2", 1e-7, False), ("mean_q", 0.0, False))),
    ("diffusion semigroup law",
     lambda: [semigroup_error(
         SimState(_GRID, _random_band_limited(9, seed=41), 0.5, nu=0.3),
         0.3, 0.4)],
     (("rel err", 1e-14, False),)),
    ("jacobian determinant stencil",
     lambda: [affine_jacobian_deviation(16, s) for s in ((1.0, 1.0), (2.0, 0.5))],
     (("identity", 0.0, False), ("affine", 1e-12, False))),
    ("snapshot bit-exact round-trip", _snapshot_case, (("max difference", 0.0, False),)),
)


def run_checks() -> list[tuple[str, bool, str]]:
    """(name, passed, measured values next to their bounds) for each entry of ``CHECKS``."""
    results = []
    for name, measure, bounds in CHECKS:
        pairs = list(zip(measure(), bounds, strict=True))
        ok = all(v < limit if strict else v <= limit for v, (_, limit, strict) in pairs)
        detail = ", ".join(f"{label}={v:.2e} ({'<' if strict else '<='}{limit:g})"
                           for v, (label, limit, strict) in pairs)
        results.append((name, ok, detail))
    return results

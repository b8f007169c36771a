"""
Fast runtime self-checks of the solver's structural invariants.

Backs the ``check`` CLI subcommand. Each check returns (name, passed,
detail); everything here runs in a few seconds at n = 32. The full
acceptance suite lives in the test tree and is run with pytest.
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
    rhs_vorticity,
    state_from_omega,
)
from .experiments import _random_band_hat
from .integrators import StepperConfig, diffusion_semigroup, integrate
from .output import read_snapshot, write_snapshot
from .particles import ParticleMap, jacobian_determinant
from .spectral import (
    TorusGrid,
    _ifft_real,
    ddx,
    ddy,
    dealias,
    forward_transform,
    helmholtz,
    inverse_helmholtz,
    l2_norm,
)


def _random_band_limited(grid: TorusGrid, K: int, seed: int) -> np.ndarray:
    return _random_band_hat(grid, K, seed) * grid.n**2 / (2 * K + 1) ** 2


def check_transform_roundtrip() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    f = _ifft_real(_random_band_limited(grid, 9, seed=1))
    f_hat = forward_transform(f)
    err = np.abs(_ifft_real(f_hat) - f).max() / np.abs(f).max()
    parseval = abs(np.sum(f**2) - np.sum(np.abs(f_hat) ** 2) / grid.n**2)
    parseval /= np.sum(f**2)
    ok = err < 1e-12 and parseval < 1e-12
    return "transform round-trip & Parseval", ok, f"roundtrip={err:.2e} parseval={parseval:.2e}"


def check_helmholtz_pair() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    F = _random_band_limited(grid, 9, seed=2)
    worst = 0.0
    for alpha in (0.0, 0.1, 1.0, 10.0):
        back = inverse_helmholtz(grid, helmholtz(grid, F, alpha), alpha)
        worst = max(worst, float(np.abs(back - F).max() / np.abs(F).max()))
    return "helmholtz inverse pair", worst < 1e-13, f"max rel err {worst:.2e}"


def check_single_mode_decay() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    alpha, nu, dt, t_final = 0.5, 0.01, 0.01, 1.0
    omega0 = forward_transform(np.cos(2.0 * grid.X))
    state = state_from_omega(grid, omega0, alpha, nu=nu)
    exact = np.exp(-nu * 4.0 * t_final / (1.0 + alpha**2 * 4.0))
    final = integrate(state, t_final, StepperConfig(dt=dt, scheme="rk4"))
    got = _ifft_real(omega_from_q(grid, final.q_hat, alpha)).max()
    err_rk4 = abs(got - exact) / exact
    s = integrate(state, t_final, StepperConfig(dt=dt, scheme="lie_trotter"))
    got_lt = _ifft_real(omega_from_q(grid, s.q_hat, alpha)).max()
    err_lt = abs(got_lt - exact) / exact
    ok = err_rk4 <= 1e-9 and err_lt <= 1e-12
    return "single-mode viscous decay", ok, f"rk4={err_rk4:.2e} lie_trotter={err_lt:.2e}"


def check_cross_form_consistency() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    worst = 0.0
    for seed in (11, 12, 13):
        for alpha in (0.0, 0.25, 1.0):
            q = dealias(grid, helmholtz(grid, _random_band_limited(grid, 4, seed), alpha))
            state = SimState(grid=grid, q_hat=q, alpha=alpha)
            hx, hy = ad_star_hats(state)
            lhs = ddx(grid, helmholtz(grid, -hy, alpha)) - ddy(grid, helmholtz(grid, -hx, alpha))
            rhs = rhs_vorticity(state)
            worst = max(worst, l2_norm(grid, lhs - rhs) / l2_norm(grid, rhs))
    return "velocity-form vs vorticity-form", worst <= 1e-10, f"max rel L2 err {worst:.2e}"


def check_leray() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    p = _random_band_limited(grid, 6, seed=21)
    gx, gy = ddx(grid, p), ddy(grid, p)
    px, py = leray_project_hats(grid, gx, gy)
    kill = max(np.abs(px).max(), np.abs(py).max()) / np.abs(gx).max()
    wx = _random_band_limited(grid, 6, seed=22)
    wy = _random_band_limited(grid, 6, seed=23)
    qx, qy = leray_project_hats(grid, wx, wy)
    div = np.abs(ddx(grid, qx) + ddy(grid, qy)).max()
    div /= max(np.abs(qx).max(), np.abs(qy).max())
    ok = kill < 1e-12 and div < 1e-12
    return "leray projection", ok, f"gradient-kill={kill:.2e} residual-div={div:.2e}"


def check_conservation() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    omega0 = _random_band_limited(grid, 4, seed=31)
    state = state_from_omega(grid, omega0, alpha=0.25, nu=0.0)
    e0 = compute_diagnostics(state).energy
    c0 = compute_diagnostics(state).casimir2
    final = integrate(state, 1.0, StepperConfig(dt=2e-3, scheme="rk4"))
    d = compute_diagnostics(final)
    e_drift = abs(d.energy - e0) / e0
    c_drift = abs(d.casimir2 - c0) / c0
    ok = e_drift <= 1e-8 and c_drift <= 1e-7 and d.mean_q == 0.0
    return "inviscid conservation (t=1)", ok, f"energy={e_drift:.2e} casimir2={c_drift:.2e}"


def check_semigroup_law() -> tuple[str, bool, str]:
    grid = TorusGrid(32)
    q = _random_band_limited(grid, 9, seed=41)
    state = SimState(grid=grid, q_hat=q, alpha=0.5, nu=0.3)
    once = diffusion_semigroup(state, 0.7)
    twice = diffusion_semigroup(diffusion_semigroup(state, 0.3), 0.4)
    err = np.abs(once.q_hat - twice.q_hat).max() / np.abs(q).max()
    return "diffusion semigroup law", err <= 1e-14, f"rel err {err:.2e}"


def check_jacobian_stencil() -> tuple[str, bool, str]:
    pm = ParticleMap.lattice(16)
    ident = jacobian_determinant(pm).max_deviation()
    affine = ParticleMap(
        m=16,
        positions=pm.ref_positions * np.array([2.0, 0.5]),
        ref_positions=pm.ref_positions,
    )
    aff = jacobian_determinant(affine).max_deviation()
    ok = ident == 0.0 and aff <= 1e-12
    return "jacobian determinant stencil", ok, f"identity={ident:.2e} affine={aff:.2e}"


def check_snapshot_roundtrip() -> tuple[str, bool, str]:
    grid = TorusGrid(16)
    omega = np.cos(2 * grid.X) + 0.5 * np.sin(grid.Y)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap_00000000.eaf"
        write_snapshot(path, 16, 0.25, 0.01, 1.5, omega)
        snap = read_snapshot(path)
    ok = (
        snap.n == 16
        and snap.alpha == 0.25
        and snap.nu == 0.01
        and snap.time == 1.5
        and np.array_equal(snap.omega, omega)
    )
    return "snapshot bit-exact round-trip", ok, "exact" if ok else "mismatch"


ALL_CHECKS = (
    check_transform_roundtrip,
    check_helmholtz_pair,
    check_single_mode_decay,
    check_cross_form_consistency,
    check_leray,
    check_conservation,
    check_semigroup_law,
    check_jacobian_stencil,
    check_snapshot_roundtrip,
)


def run_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]

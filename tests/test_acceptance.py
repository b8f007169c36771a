"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values next to the stated tolerances (run with -s to see
the lines for passing criteria too).

The shared random flow is the fixed-seed, unit-energy, K=4 band-limited
state at n=64, alpha=0.25 (seed 2025 throughout).
"""

import time

import numpy as np

from euleralpha.checks import conservation_drifts, cross_form_residual, single_mode_decay_error
from euleralpha.dynamics import omega_from_q
from euleralpha.experiments import (
    RunConfig,
    make_initial_condition,
    run,
    splitting_order_study,
    sweep_alpha,
    sweep_nu,
)
from euleralpha.integrators import integrate
from euleralpha.output import read_diagnostics, read_snapshot, snapshot_name
from euleralpha.particles import ParticleMap, integrate_with_particles, jacobian_determinant
from euleralpha.spectral import l2_norm

from conftest import extrapolated_determinant, random_state, spectral_determinant, sub_lattice

SEED = 2025

BASE_FLOW = RunConfig(
    n=64, alpha=0.25, nu=0.0, dt=1e-3, t_final=5.0,
    ic="random_bandlimited", ic_band=4, ic_energy=1.0, seed=SEED,
)


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    return line


def test_criterion_01_exact_single_mode_decay(grid32):
    started = time.perf_counter()
    # alpha = 0.5, nu = 0.01, dt = 0.01 to t = 1: exact factor exp(-0.02)
    err_rk4, err_lt = (single_mode_decay_error(grid32, 0.5, 0.01, 0.01, 1.0, scheme)
                       for scheme in ("rk4", "lie_trotter"))
    elapsed = time.perf_counter() - started
    ok = err_rk4 <= 1e-9 and err_lt <= 1e-12 and elapsed < 1.0
    line = _report(1, "exact single-mode decay", ok,
                   f"rk4={err_rk4:.2e} (<=1e-9), lie_trotter={err_lt:.2e} (<=1e-12), "
                   f"runtime={elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_02_inviscid_conservation():
    started = time.perf_counter()
    state = make_initial_condition(BASE_FLOW)
    e_drift, c_drift, mean = conservation_drifts(state, 5.0, 1e-3, every=500)
    elapsed = time.perf_counter() - started
    mean_exact = mean == 0.0
    ok = e_drift <= 1e-6 and c_drift <= 1e-5 and mean_exact and elapsed < 120
    line = _report(2, "inviscid conservation t=5", ok,
                   f"energy drift={e_drift:.2e} (<=1e-6), casimir2 drift={c_drift:.2e} "
                   f"(<=1e-5), mean_q exactly 0: {mean_exact}, runtime={elapsed:.1f}s (<2min)")
    assert ok, line


def test_criterion_03_euler_poincare_vorticity_consistency(grid32):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for alpha in (0.0, 0.25, 1.0):
            state = random_state(grid32, alpha=alpha, kmax=4, seed=seed)
            residual, rhs = cross_form_residual(state)
            worst = max(worst, l2_norm(grid32, residual) / l2_norm(grid32, rhs))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10
    line = _report(3, "Euler-Poincare vs vorticity form", ok,
                   f"max rel L2 residual={worst:.2e} (<=1e-10) over 20 states x 3 alphas, "
                   f"runtime={elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_04_zero_viscosity_limit():
    started = time.perf_counter()
    cfg = BASE_FLOW.replace(t_final=1.0)
    nus = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    res = sweep_nu(cfg, nus)
    elapsed = time.perf_counter() - started
    decreasing = all(a > b for a, b in zip(res.distances_q, res.distances_q[1:]))
    ok = decreasing and res.slope >= 0.9 and res.residual <= 0.1 and elapsed < 300
    line = _report(4, "zero-viscosity limit", ok,
                   f"D={['%.3e' % d for d in res.distances_q]} strictly decreasing: "
                   f"{decreasing}, slope={res.slope:.3f} (>=0.9), "
                   f"residual={res.residual:.3f} (<=0.1), runtime={elapsed:.0f}s (<5min)")
    assert ok, line


def test_criterion_05_product_formula_orders():
    started = time.perf_counter()
    cfg = RunConfig(n=32, alpha=0.25, nu=0.05, dt=1.0, t_final=0.5,
                    ic="random_bandlimited", ic_band=4, ic_energy=1.0, seed=SEED)
    res = splitting_order_study(cfg, (0.02, 0.01, 0.005, 0.0025))
    elapsed = time.perf_counter() - started
    lt, st, rk = res["lie_trotter"].slope, res["strang"].slope, res["rk4"].slope
    ok = 0.8 <= lt <= 1.2 and 1.8 <= st <= 2.2 and rk >= 3.8 and elapsed < 180
    line = _report(5, "product-formula orders", ok,
                   f"lie_trotter={lt:.3f} (in [0.8,1.2]), strang={st:.3f} (in [1.8,2.2]), "
                   f"rk4={rk:.3f} (>=3.8), 4 dyadic dt levels, runtime={elapsed:.0f}s (<3min)")
    assert ok, line


def test_criterion_06_alpha_to_zero_euler_limit():
    started = time.perf_counter()
    cfg = BASE_FLOW.replace(t_final=1.0)
    alphas = (0.4, 0.2, 0.1, 0.05)
    res = sweep_alpha(cfg, alphas)
    elapsed = time.perf_counter() - started
    decreasing = all(a > b for a, b in zip(res.distances_q, res.distances_q[1:]))
    ok = decreasing and 1.5 <= res.slope <= 2.5 and elapsed < 300
    line = _report(6, "alpha->0 Euler limit", ok,
                   f"D={['%.3e' % d for d in res.distances_q]} strictly decreasing: "
                   f"{decreasing}, slope={res.slope:.3f} (in [1.5,2.5]), "
                   f"runtime={elapsed:.0f}s (<5min)")
    assert ok, line


def test_criterion_07_flow_map_volume_preservation():
    # The 1e-3 bound applies to the map's volume defect: the Richardson
    # extrapolation of the m=64 and m=128 stencil fields, which cancels the
    # stencil's O(h^2) truncation error. The raw stencil maxima are that
    # truncation error (their ratio is ~4), so they are reported, not bounded.
    started = time.perf_counter()
    cfg = BASE_FLOW.replace(t_final=1.0)
    state = make_initial_condition(cfg)
    # one run: the m=64 markers are the m=128 lattice's every other marker
    _, fine = integrate_with_particles(state, ParticleMap.lattice(128), 1.0, dt=1e-2)
    maps, errs, spectral = {64: sub_lattice(fine), 128: fine}, {}, {}
    for m in (64, 128):
        errs[m] = jacobian_determinant(maps[m]).max_deviation()
        spectral[m] = float(np.abs(spectral_determinant(maps[m]) - 1.0).max())
    defect = float(np.abs(extrapolated_determinant(maps[64], maps[128]) - 1.0).max())
    ratio = errs[64] / errs[128]
    elapsed = time.perf_counter() - started
    tol_ok = defect <= 1e-3
    ratio_ok = 3.4 <= ratio <= 4.6
    time_ok = elapsed < 120
    ok = tol_ok and ratio_ok and time_ok
    line = _report(7, "flow-map volume preservation", ok,
                   f"extrapolated max|det-1|(m=64,128)={defect:.3e} (<=1e-3: {tol_ok}), "
                   f"stencil max|det-1| m=64={errs[64]:.3e}, m=128={errs[128]:.3e} "
                   f"(reported, not gated), "
                   f"spectral max|det-1| m=64={spectral[64]:.3e}, m=128={spectral[128]:.3e} "
                   f"(reported, not gated), "
                   f"refinement ratio={ratio:.2f} (in [3.4,4.6]: {ratio_ok}), "
                   f"runtime={elapsed:.0f}s (<2min: {time_ok})")
    assert ok, line


def test_criterion_08_time_reversal():
    started = time.perf_counter()
    state = make_initial_condition(BASE_FLOW)
    fwd = integrate(state, 2.0, 1e-3)
    rev = fwd.replace(columns=-fwd.columns, t=0.0)
    back = integrate(rev, 2.0, 1e-3)
    err = l2_norm(state.grid, -back.columns - state.columns) / l2_norm(state.grid, state.columns)
    elapsed = time.perf_counter() - started
    ok = err <= 1e-8 and elapsed < 120
    line = _report(8, "time reversal", ok,
                   f"rel L2 recovery error={err:.2e} (<=1e-8), runtime={elapsed:.1f}s (<2min)")
    assert ok, line


def test_criterion_09_determinism_and_io(tmp_path):
    cfg = RunConfig(n=32, alpha=0.25, nu=5e-3, dt=1e-2, t_final=0.2,
                    ic="random_bandlimited", ic_band=4, ic_energy=1.0, seed=SEED,
                    save_every=5, diag_every=2)
    final_a = run(cfg.replace(out=str(tmp_path / "a")))
    run(cfg.replace(out=str(tmp_path / "b")))

    csv_identical = (
        (tmp_path / "a" / "diagnostics.csv").read_bytes()
        == (tmp_path / "b" / "diagnostics.csv").read_bytes()
    )
    steps = (0, 5, 10, 15, 20)
    snaps_identical = all(
        (tmp_path / "a" / snapshot_name(s)).read_bytes()
        == (tmp_path / "b" / snapshot_name(s)).read_bytes()
        for s in steps
    )
    # reader round-trips the in-memory terminal field bit-exactly
    snap = read_snapshot(tmp_path / "a" / snapshot_name(20))
    omega_mem = np.fft.ifft2(omega_from_q(final_a.grid, final_a.q_hat, cfg.alpha)).real
    reader_exact = (
        np.array_equal(snap.omega, omega_mem)
        and snap.n == 32 and snap.alpha == 0.25 and snap.nu == 5e-3
        and snap.time == final_a.t
    )
    # diagnostics reader recovers exact float values
    cols = read_diagnostics(tmp_path / "a" / "diagnostics.csv")
    diag_exact = cols["t"][-1] == final_a.t

    ok = csv_identical and snaps_identical and reader_exact and diag_exact
    line = _report(9, "determinism & I/O", ok,
                   f"csv byte-identical: {csv_identical}, snapshots byte-identical: "
                   f"{snaps_identical}, snapshot reader bit-exact: {reader_exact}, "
                   f"csv reader exact: {diag_exact}")
    assert ok, line

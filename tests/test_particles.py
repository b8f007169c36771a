"""
Tests for the Lagrangian flow-map module: spectral off-grid evaluation,
marker advection, and the volume-preservation diagnostic.
"""

import re
import tracemalloc

import numpy as np
import pytest

from euleralpha import particles
from euleralpha.checks import affine_jacobian_deviation
from euleralpha.dynamics import compute_diagnostics, velocity_columns
from euleralpha.integrators import NumericsFailure, step_rk4
from euleralpha.particles import (
    ParticleMap,
    advect_particles,
    eval_velocity_at,
    integrate_with_particles,
    jacobian_determinant,
)
from euleralpha.spectral import TorusGrid

from conftest import (
    direct_velocity_sum,
    extrapolated_determinant,
    mesh,
    random_state,
    spectral_determinant,
    velocity_hats_from_q,
)

EPS = 0.3
B = particles._BLOCK


def _sheared(a):
    """eta(a) = a + EPS * grad^perp(chi): an analytic volume-distorting map."""
    x, y = a[:, 0], a[:, 1]
    return np.column_stack(
        [x + EPS * np.sin(x) * np.cos(y), y - EPS * np.cos(x) * np.sin(y)]
    )


def _sheared_det(x, y):
    """Exact det(D eta) of ``_sheared``, the oracle for the stencil tests."""
    j11 = 1 + EPS * np.cos(x) * np.cos(y)
    j12 = -EPS * np.sin(x) * np.sin(y)
    j21 = EPS * np.sin(x) * np.sin(y)
    j22 = 1 - EPS * np.cos(x) * np.cos(y)
    return j11 * j22 - j12 * j21


def _mapped(pm, eta):
    """The marker map carrying ``pm``'s lattice labels to ``eta`` of them."""
    return ParticleMap(m=pm.m, positions=eta(pm.ref_positions), ref_positions=pm.ref_positions)


def steady_shear_state(grid, alpha=0.5):
    """omega = cos(2x): steady flow with u = (0, sin(2x)/2)."""
    from euleralpha.dynamics import state_from_omega

    return state_from_omega(grid, np.fft.fft2(np.cos(2 * mesh(grid)[0])), alpha)


def steady_stages(state):
    """The stage velocities of a steady state: its own velocity pair, three times."""
    u = velocity_hats_from_q(state.grid, state.q_hat, state.alpha)
    return (u, u, u)


class TestParticleMap:
    def test_lattice_initialization_exact(self):
        pm = ParticleMap.lattice(4)
        assert pm.positions.shape == (16, 2)
        assert np.array_equal(pm.positions, pm.ref_positions)
        assert pm.positions[0].tolist() == [0.0, 0.0]
        assert pm.positions[5].tolist() == [np.pi / 2, np.pi / 2]

    def test_rejects_tiny_lattice(self):
        with pytest.raises(ValueError):
            ParticleMap.lattice(2)


class TestEvalVelocityAt:
    def test_collocates_at_grid_points(self, grid32):
        state = random_state(grid32, alpha=0.25, seed=1)
        hats = velocity_hats_from_q(grid32, state.q_hat, 0.25)
        pts = np.column_stack([c.ravel() for c in mesh(grid32)])
        vals = eval_velocity_at(grid32, hats, pts)
        ux = np.fft.ifft2(hats[0]).real.ravel()
        uy = np.fft.ifft2(hats[1]).real.ravel()
        scale = np.abs(ux).max()
        assert np.abs(vals[:, 0] - ux).max() <= 1e-12 * scale
        assert np.abs(vals[:, 1] - uy).max() <= 1e-12 * scale

    def test_closed_form_off_grid(self, grid32):
        # field (0, -sin(2x)/2) evaluated at x = pi/4 gives (0, -1/2)
        uy = -np.sin(2 * mesh(grid32)[0]) / 2.0
        hats = (np.zeros((32, 32), dtype=complex), np.fft.fft2(uy))
        vals = eval_velocity_at(grid32, hats, np.array([[np.pi / 4, 1.2345]]))
        assert abs(vals[0, 0]) <= 1e-14
        assert abs(vals[0, 1] - (-0.5)) <= 1e-13

    def test_constant_field(self, grid16):
        hats = (np.full((16, 16), 0j), np.full((16, 16), 0j))
        hats[0][0, 0] = 3.25 * 16**2
        pts = np.array([[0.1, 6.0], [3.3, 2.2], [5.9, 0.0]])
        vals = eval_velocity_at(grid16, hats, pts)
        assert np.allclose(vals[:, 0], 3.25, atol=1e-13)
        assert np.allclose(vals[:, 1], 0.0, atol=1e-14)

    def test_rejects_nonfinite_points(self, grid16):
        hats = (np.zeros((16, 16), dtype=complex),) * 2
        with pytest.raises(ValueError):
            eval_velocity_at(grid16, hats, np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3), (0,), (2, 2, 2)])
    def test_rejects_points_that_are_not_m_by_2(self, grid16, shape):
        # an (M,) or (M, 1) array would broadcast into both coordinates and
        # give wrong velocities; (M, 3) would fail deep inside numpy
        hats = (np.zeros((16, 16), dtype=complex),) * 2
        with pytest.raises(ValueError, match=rf"\(M, 2\) array, got shape {re.escape(str(shape))}"):
            eval_velocity_at(grid16, hats, np.zeros(shape))

    def test_no_points_give_an_empty_result(self, grid16):
        hats = (np.zeros((16, 16), dtype=complex),) * 2
        vals = eval_velocity_at(grid16, hats, np.zeros((0, 2)))
        assert vals.shape == (0, 2) and vals.dtype == np.float64

    def test_fields_changed_in_place_are_read_again(self, grid16):
        # the cached buffers keep no table: after u *= 2 the same call, on the
        # same arrays, returns twice what it did
        u = velocity_columns(grid16, random_state(grid16, alpha=0.25, seed=3).columns, 0.25)
        pts = np.random.default_rng(3).uniform(-5.0, 5.0, (7, 2))
        first = eval_velocity_at(grid16, u, pts)
        u *= 2.0
        assert np.array_equal(eval_velocity_at(grid16, u, pts), 2.0 * first)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_full_spectrum_sum(self, n, alpha):
        # every retained mode carries energy; unwrapped points stress the
        # recurrence for exp(i k x) far from the first period
        grid = TorusGrid(n)
        state = random_state(grid, alpha=alpha, kmax=grid.kmax_dealias, seed=n)
        hats = velocity_hats_from_q(grid, state.q_hat, alpha)
        scale = max(np.abs(np.fft.ifft2(h).real).max() for h in hats)
        lattice = np.column_stack([c.ravel() for c in mesh(grid)])
        unwrapped = np.random.default_rng(n).uniform(-50.0, 50.0, (2000, 2))
        for pts in (lattice, unwrapped):
            vals = eval_velocity_at(grid, hats, pts)
            assert np.abs(vals - direct_velocity_sum(grid, hats, pts)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_edges(self, grid32, m):
        # marker counts on either side of the block size and with a tail
        # block of one marker, the production column input against the
        # full-spectrum oracle
        state = random_state(grid32, alpha=0.25, kmax=grid32.kmax_dealias, seed=m)
        hats = velocity_hats_from_q(grid32, state.q_hat, 0.25)
        scale = max(np.abs(np.fft.ifft2(h).real).max() for h in hats)
        pts = np.random.default_rng(m).uniform(-50.0, 50.0, (m, 2))
        vals = eval_velocity_at(grid32, velocity_columns(grid32, state.columns, 0.25), pts)
        assert vals.shape == (m, 2) and vals.dtype == np.float64
        assert np.abs(vals - direct_velocity_sum(grid32, hats, pts)).max(initial=0.0) <= 1e-13 * scale

    def test_working_memory_does_not_grow_with_markers(self):
        # 65536 markers at n = 64: the (M, 2) result is 1 MiB; a kernel
        # that builds its mode tables for all markers at once needs 112 MiB
        grid = TorusGrid(64)
        state = random_state(grid, alpha=0.25, seed=3)
        cols = velocity_columns(grid, state.columns, 0.25)
        pts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, (65536, 2))
        tracemalloc.start()
        try:
            eval_velocity_at(grid, cols, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_corner_modes_closed_form(self, grid32):
        # cos(K x + K y) lives on (K, K) and (-K, -K); sin(K x - K y) on
        # (-K, K) and (K, -K): the retained ky = K row at both kx ends,
        # where the ky > 0 weight meets the conjugated negative kx
        K = grid32.kmax_dealias
        X, Y = mesh(grid32)
        hats = (np.fft.fft2(np.cos(K * X + K * Y)), np.fft.fft2(np.sin(K * X - K * Y)))
        # within a period of the first on either side, so that rounding of
        # the closed form's phase K x + K y stays far below the bound
        pts = np.random.default_rng(5).uniform(-2 * np.pi, 4 * np.pi, (400, 2))
        vals = eval_velocity_at(grid32, hats, pts)
        x, y = pts[:, 0], pts[:, 1]
        assert np.abs(vals[:, 0] - np.cos(K * x + K * y)).max() <= 1e-13
        assert np.abs(vals[:, 1] - np.sin(K * x - K * y)).max() <= 1e-13


class TestAdvectParticles:
    def test_zero_velocity_keeps_positions(self, grid16):
        from euleralpha.dynamics import state_from_omega

        state = state_from_omega(grid16, np.zeros((16, 16), dtype=complex), 0.5)
        pm = ParticleMap.lattice(4)
        out = advect_particles(pm, state, 0.3, steady_stages(state))
        assert np.array_equal(out.positions, pm.positions)

    def test_steady_shear_closed_form(self, grid32):
        # marker at x = pi/4 rides u_y = sin(pi/2)/2 = 1/2: y grows by t/2, x fixed
        state = steady_shear_state(grid32)
        pm = ParticleMap(
            m=3,
            positions=np.array([[np.pi / 4, 1.0], [np.pi / 2, 1.0], [1.0, 2.0]]),
            ref_positions=np.zeros((3, 2)),
        )
        stages = steady_stages(state)
        for _ in range(10):
            pm = advect_particles(pm, state, 0.1, stages)
        assert pm.positions[0, 0] == pytest.approx(np.pi / 4, abs=1e-12)
        assert pm.positions[0, 1] == pytest.approx(1.5, abs=1e-12)
        # at x = pi/2 the velocity vanishes: the marker must not move at all
        assert pm.positions[1].tolist() == pytest.approx([np.pi / 2, 1.0], abs=1e-12)

    def test_four_evaluations_four_tables_one_workspace_per_step(self, grid16, monkeypatch):
        # every evaluation builds the table of the fields it is given; all four
        # stages evaluate in one set of block buffers, which the next step reuses
        calls, tables = [], []
        evaluate, build = particles.eval_velocity_at, particles._coefficient_table

        def counting_eval(grid, u_hats, points):
            calls.append(u_hats)
            return evaluate(grid, u_hats, points)

        def counting_table(grid, u_hats):
            tables.append(u_hats)
            return build(grid, u_hats)

        monkeypatch.setattr(particles, "eval_velocity_at", counting_eval)
        monkeypatch.setattr(particles, "_coefficient_table", counting_table)
        state = random_state(grid16, alpha=0.25, seed=4)
        stages = tuple(velocity_columns(grid16, state.columns * f, 0.25) for f in (1.0, 1.1, 1.2))
        pm = ParticleMap.lattice(4)
        particles._block_buffers.cache_clear()
        advect_particles(pm, state, 0.05, stages)
        assert calls == tables == [stages[0], stages[1], stages[1], stages[2]]
        advect_particles(pm, state, 0.05, stages)
        assert len(calls) == 8
        info = particles._block_buffers.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 7, 1)

    def test_step_is_the_rk4_expression_bit_for_bit(self, grid32):
        # the in-place stage points and update round as the textbook RK4
        # expression does
        state = random_state(grid32, alpha=0.25, seed=8)
        stages = tuple(velocity_columns(grid32, state.columns * f, 0.25) for f in (1.0, 1.1, 1.2))
        pm = ParticleMap.lattice(40)
        x, dt = pm.positions, 0.07
        u0, uh, u1 = stages
        k1 = eval_velocity_at(grid32, u0, x)
        k2 = eval_velocity_at(grid32, uh, x + 0.5 * dt * k1)
        k3 = eval_velocity_at(grid32, uh, x + 0.5 * dt * k2)
        k4 = eval_velocity_at(grid32, u1, x + dt * k3)
        expected = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(advect_particles(pm, state, dt, stages).positions, expected)

    def test_x_coordinates_invariant_under_shear(self, grid32):
        state = steady_shear_state(grid32)
        pm = ParticleMap.lattice(4)
        out = advect_particles(pm, state, 0.25, steady_stages(state))
        assert np.abs(out.positions[:, 0] - pm.positions[:, 0]).max() <= 1e-13


class TestJacobianDeterminant:
    def test_identity_map_exact(self):
        # det == 1 exactly on every cell, so no cell is flagged degenerate
        assert affine_jacobian_deviation(8, (1.0, 1.0)) == 0.0

    def test_affine_map_exact(self):
        assert affine_jacobian_deviation(8, (2.0, 0.5)) <= 1e-12

    def test_degenerate_cells_flagged_not_fatal(self):
        pm = ParticleMap.lattice(4)
        collapsed = ParticleMap(
            m=4, positions=np.ones_like(pm.positions), ref_positions=pm.ref_positions
        )
        jac = jacobian_determinant(collapsed)
        assert jac.degenerate.all()
        assert np.isfinite(jac.det).all()

    def test_second_order_convergence_on_analytic_map(self):
        errs = []
        for m in (16, 32, 64):
            pm = ParticleMap.lattice(m)
            jac = jacobian_determinant(_mapped(pm, _sheared))
            a = pm.ref_positions
            exact = _sheared_det(a[:, 0], a[:, 1]).reshape(m, m)
            errs.append(np.abs(jac.det - exact).max())
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8, errs

    # extrapolated_determinant: the Richardson measure acceptance criterion 7 bounds

    def test_extrapolated_fourth_order_convergence_on_analytic_map(self):
        # the h^2 term cancels: the error falls ~16x per doubling
        # (measured 2.3e-5, 1.5e-6, 9.3e-8 at m = 16, 32, 64)
        errs = []
        for m in (16, 32, 64):
            coarse, fine = ParticleMap.lattice(m), ParticleMap.lattice(2 * m)
            ext = extrapolated_determinant(_mapped(coarse, _sheared), _mapped(fine, _sheared))
            a = coarse.ref_positions
            exact = _sheared_det(a[:, 0], a[:, 1]).reshape(m, m)[1:-1, 1:-1]
            errs.append(np.abs(ext - exact).max())
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 13.0 <= r1 <= 19.0 and 13.0 <= r2 <= 19.0, errs
        assert errs[2] <= 2e-7, errs

    def test_extrapolated_compressible_map_defect_exceeds_bound(self):
        # eta(a) = (x + 2e-3 sin x, y): det = 1 + 2e-3 cos x, defect 2e-3,
        # above criterion 7's 1e-3 bound, so that measure can fail
        def squeezed(a):
            return np.column_stack([a[:, 0] + 2e-3 * np.sin(a[:, 0]), a[:, 1]])

        coarse, fine = ParticleMap.lattice(64), ParticleMap.lattice(128)
        ext = extrapolated_determinant(_mapped(coarse, squeezed), _mapped(fine, squeezed))
        defect = np.abs(ext - 1.0).max()
        assert defect > 1e-3
        assert defect == pytest.approx(2e-3, rel=1e-2)

    def test_extrapolated_identity_on_central_labels_only(self):
        ext = extrapolated_determinant(ParticleMap.lattice(8), ParticleMap.lattice(16))
        assert ext.shape == (6, 6)
        assert np.array_equal(ext, np.ones((6, 6)))

    def test_extrapolated_lattices_must_nest(self):
        with pytest.raises(ValueError, match="2m markers"):
            extrapolated_determinant(ParticleMap.lattice(8), ParticleMap.lattice(12))

    # spectral_determinant: the estimate acceptance criterion 7 reports beside it

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_spectral_exact_on_analytic_map(self, m):
        # the displacement is a trigonometric polynomial of degree 2, so FFT
        # derivatives are exact up to roundoff (measured 2.9e-15 to 2.0e-14)
        pm = ParticleMap.lattice(m)
        det = spectral_determinant(_mapped(pm, _sheared))
        a = pm.ref_positions
        exact = _sheared_det(a[:, 0], a[:, 1]).reshape(m, m)
        assert np.abs(det - exact).max() <= 1e-12


class TestCoupledIntegration:
    def test_volume_preservation_second_order_refinement(self, grid32):
        # gentle flow: stencil truncation dominates and halves-squared cleanly
        state = random_state(grid32, alpha=0.25, seed=5, amplitude=0.2)
        errs = []
        for m in (24, 48):
            pm = ParticleMap.lattice(m)
            _, out = integrate_with_particles(state, pm, 0.5, dt=0.025)
            errs.append(jacobian_determinant(out).max_deviation())
        assert 3.0 <= errs[0] / errs[1] <= 5.0, errs

    def test_geodesic_energy_constant_along_flow(self, grid32):
        # right invariance: the Eulerian energy equals the geodesic speed and
        # stays constant through the coupled run (inviscid)
        state = random_state(grid32, alpha=0.25, seed=6)
        e0 = compute_diagnostics(state).energy
        pm = ParticleMap.lattice(8)
        series = []
        for k in range(1, 21):
            state, pm = integrate_with_particles(state, pm, 0.025 * k, dt=0.025)
            series.append(compute_diagnostics(state).energy)
        drift = max(abs(e - e0) / e0 for e in series)
        assert drift <= 1e-9

    def test_positions_unwrapped_winding_retained(self, grid32):
        # a strong steady shear pushes markers beyond 2pi without wrapping
        state = steady_shear_state(grid32, alpha=0.0)
        amplified = state.replace(columns=state.columns * 30.0)
        pm = ParticleMap(
            m=3,
            positions=np.array([[np.pi / 4, 5.0], [np.pi / 4, 6.0], [np.pi / 4, 0.0]]),
            ref_positions=np.zeros((3, 2)),
        )
        _, out = integrate_with_particles(amplified, pm, 1.0, dt=0.01)
        # u_y = 15 sin(2x): at x=pi/4 the marker travels +15 in y
        assert out.positions[0, 1] == pytest.approx(20.0, rel=1e-9)
        assert out.positions[0, 1] > 2 * np.pi

    def test_lands_on_target_and_observes_every_step(self, grid16, monkeypatch):
        # 0.13 / 0.025: five full steps and a shortened sixth, each made of
        # two Eulerian half steps
        calls = []

        def counting_step(state, dt):
            calls.append(dt)
            return step_rk4(state, dt)

        monkeypatch.setattr(particles, "step_rk4", counting_step)
        state = random_state(grid16, alpha=0.25, seed=7)
        out, _ = integrate_with_particles(state, ParticleMap.lattice(4), 0.13, dt=0.025)
        assert out.t == 0.13
        assert len(calls) == 12

    def test_coupled_step_makes_four_evaluations_in_one_workspace(self, grid16, monkeypatch):
        # 0.1 / 0.025: four coupled steps, four evaluations each, every one
        # in the one set of block buffers the run made
        grids = []
        evaluate = particles.eval_velocity_at

        def counting_eval(grid, u_hats, points):
            grids.append(grid)
            return evaluate(grid, u_hats, points)

        monkeypatch.setattr(particles, "eval_velocity_at", counting_eval)
        state = random_state(grid16, alpha=0.25, seed=7)
        particles._block_buffers.cache_clear()
        integrate_with_particles(state, ParticleMap.lattice(4), 0.1, dt=0.025)
        assert grids == [grid16] * 16
        info = particles._block_buffers.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 15, 1)

    def test_rejects_backward_target(self, grid16):
        state = random_state(grid16, alpha=0.25, seed=7).replace(t=1.0)
        with pytest.raises(ValueError, match="precedes"):
            integrate_with_particles(state, ParticleMap.lattice(4), 0.5, dt=0.025)

    @pytest.mark.parametrize("nan_at", [0.5, None])
    def test_nonfinite_field_is_numerics_failure(self, grid16, monkeypatch, nan_at):
        # nan_at=None: the initial field is non-finite; nan_at=0.5: the field
        # turns non-finite at the first half step t + dt/2. No marker may move.
        dt = 0.025
        moved = []

        def poisoning_step(state, step_dt):
            out = step_rk4(state, step_dt)
            if nan_at is not None and np.isclose(out.t, nan_at * dt):
                out = out.replace(columns=out.columns * np.nan)
            return out

        def recording_advect(*args):
            moved.append(args)
            return advect_particles(*args)

        monkeypatch.setattr(particles, "step_rk4", poisoning_step)
        monkeypatch.setattr(particles, "advect_particles", recording_advect)
        state = random_state(grid16, alpha=0.25, seed=7)
        if nan_at is None:
            state = state.replace(columns=state.columns * np.nan)
        with pytest.raises(NumericsFailure):
            integrate_with_particles(state, ParticleMap.lattice(4), 0.1, dt=dt)
        assert moved == []

    @pytest.mark.parametrize("dt, t_final", [
        (0.0, 0.1), (-0.01, 0.1), (np.nan, 0.1), (np.inf, 0.1), (0.025, np.nan), (0.025, np.inf),
    ])
    def test_rejects_bad_dt_and_t_final(self, grid16, dt, t_final):
        # a dt <= 0 never reaches t_final, so the loop refuses it up front
        state = random_state(grid16, alpha=0.25, seed=7)
        with pytest.raises(ValueError, match="dt must be|t_final must be"):
            integrate_with_particles(state, ParticleMap.lattice(4), t_final, dt=dt)

"""
Tests for the dynamics module: velocity recovery, right-hand sides,
Leray projection, the coadjoint operator, and diagnostics.

The load-bearing oracle here is the cross-form consistency identity
curl((1 - a^2 Lap)(-ad*_u u)) == -u.grad q, which fails loudly under any
sign mistake in the psi/u/omega conventions.
"""

import dataclasses
import gc
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from euleralpha import dynamics, spectral
from euleralpha.checks import cross_form_residual, helmholtz_pair_residuals, leray_residuals
from euleralpha.dynamics import (
    SimState,
    ad_star_hats,
    compute_diagnostics,
    energy_quadrature,
    leray_project_hats,
    omega_from_q,
    rhs_columns,
    rhs_columns_and_speed,
    state_from_omega,
    velocity_columns,
    vorticity_values,
)
from euleralpha.experiments import RunConfig, run
from euleralpha.output import read_snapshot, write_snapshot
from euleralpha.particles import ParticleMap, jacobian_determinant
from euleralpha.spectral import (
    TorusGrid,
    dealias,
    forward_transform,
    helmholtz,
    inverse_helmholtz,
    l2_inner,
    l2_norm,
)

from conftest import (
    direct_ad_star_hats,
    direct_max_speed,
    direct_rhs,
    full_rhs,
    hermitian_defect,
    mesh,
    nd_diagnostics,
    nd_max_speed,
    nd_rhs_and_velocity,
    random_band_hat,
    random_spectrum,
    random_state,
    square_tables,
    stream_from_omega,
    velocity_hats_from_q,
)


def single_shell_state(grid, alpha, nu=0.0, k=2):
    """omega0 = cos(k x): an exact steady state of the inviscid dynamics."""
    return state_from_omega(grid, forward_transform(np.cos(k * mesh(grid)[0])), alpha, nu=nu)


def physical(*hats):
    """Real physical samples of each spectral field."""
    return tuple(np.fft.ifft2(h).real for h in hats)


def peak_speed(ux, uy):
    """Max pointwise |u| of physical samples."""
    return np.hypot(ux, uy).max()


def column_rhs(state):
    """``rhs_columns`` of the state's retained columns."""
    return rhs_columns(state, state.columns)


class TestSimState:
    def test_rejects_bad_parameters(self, grid16):
        q = np.zeros((16, 6), dtype=complex)
        with pytest.raises(ValueError):
            SimState(grid=grid16, columns=q, alpha=-0.1)
        with pytest.raises(ValueError):
            SimState(grid=grid16, columns=q, alpha=0.1, nu=-1.0)
        with pytest.raises(ValueError):
            SimState(grid=grid16, columns=np.zeros((8, 8), dtype=complex), alpha=0.1)

    @pytest.mark.parametrize("width", [5, 7, 9, 16])
    def test_stores_only_the_retained_columns(self, grid16, width):
        # the full (n, n) spectrum, the half spectrum or any other width is refused
        with pytest.raises(ValueError, match="retained columns"):
            SimState(grid16, np.zeros((16, width), dtype=complex), 0.1)

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_q_hat_is_the_hermitian_expansion_of_the_columns(self, n):
        grid = TorusGrid(n)
        w = grid.kmax_dealias + 1
        state = SimState(grid, random_spectrum(grid, n // 2, seed=n), 0.3)
        q_hat = state.q_hat
        assert q_hat.shape == (n, n)
        assert np.array_equal(q_hat[:, :w], state.columns)
        assert not q_hat[:, w : n - w + 1].any()
        # ky < 0 is the conjugate reflection bit for bit: every defect left
        # is the ky = 0 column's own, which a Hermitian column 0 makes zero
        col0, col0_reflected = state.columns[:, 0], state.columns[-np.arange(n) % n, 0]
        assert hermitian_defect(q_hat) == np.abs(col0 - np.conj(col0_reflected)).max()
        hermitian = state.columns.copy()
        hermitian[:, 0] = 0.5 * (col0 + np.conj(col0_reflected))
        assert hermitian_defect(state.replace(columns=hermitian).q_hat) == 0.0


def test_grids_compare_by_n_and_array_holders_by_identity(grid16, tmp_path):
    # a dataclass's generated == on array fields would raise on their truth value
    assert TorusGrid(16) == grid16 and hash(TorusGrid(16)) == hash(grid16)
    assert TorusGrid(32) != grid16 and {TorusGrid(16): 1}[grid16] == 1
    state = SimState(grid16, np.zeros((16, 6), dtype=complex), 0.1)
    write_snapshot(tmp_path / "s.eaf", 16, 0.1, 0.0, 0.0, np.zeros((16, 16)))
    pm = ParticleMap.lattice(4)
    twins = [(state, state.replace()), (pm, ParticleMap.lattice(4)),
             (jacobian_determinant(pm), jacobian_determinant(pm)),
             (read_snapshot(tmp_path / "s.eaf"), read_snapshot(tmp_path / "s.eaf"))]
    for one, other in twins:
        assert one == one and one != other and len({one, other}) == 2


class TestOmegaFromQ:
    def test_alpha_zero_identity(self, grid16):
        q = random_band_hat(grid16, 4, seed=1)
        assert np.array_equal(omega_from_q(grid16, q, 0.0), q)

    def test_diagonal_shell_closed_form(self, grid16):
        X, Y = mesh(grid16)
        q = forward_transform(3.0 * np.cos(X + Y))
        omega = omega_from_q(grid16, q, alpha=1.0)  # divide by 1 + 2
        expected = forward_transform(np.cos(X + Y))
        assert np.abs(omega - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_helmholtz_inverse_pair(self, grid32, alpha):
        # (1 - a^2 lap) omega_from_q(q) = q
        q = random_band_hat(grid32, 6, seed=2)
        _, filter_of_inverse = helmholtz_pair_residuals(grid32, q, alpha)
        assert filter_of_inverse <= 1e-13


class TestVelocityFromQ:
    """velocity_columns: the velocity of a block of q's columns ky = 0..w-1."""

    @staticmethod
    def physical(grid, u):
        """Real grid samples of a stacked (u_x, u_y) column block."""
        return np.fft.irfft2(u, s=(grid.n, grid.n))

    def test_zero_q_zero_velocity(self, grid16):
        u = velocity_columns(grid16, np.zeros((16, 6), dtype=complex), 0.5)
        assert u.shape == (2, 16, 6)
        ux, uy = self.physical(grid16, u)
        assert not ux.any() and not uy.any()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_single_shell_closed_form(self, grid32, alpha):
        # omega = cos(2x) -> psi = cos(2x)/4 -> u = (dy psi, -dx psi) = (0, sin(2x)/2)
        state = single_shell_state(grid32, alpha)
        ux, uy = self.physical(grid32, velocity_columns(grid32, state.columns, alpha))
        assert np.abs(ux).max() <= 1e-13
        assert np.abs(uy - np.sin(2 * mesh(grid32)[0]) / 2.0).max() <= 1e-13

    def test_curl_recovers_omega(self, grid32):
        w = grid32.kmax_dealias + 1
        q = dealias(grid32, random_band_hat(grid32, 6, seed=3))[:, :w]
        q[0, 0] = 0.0
        ux_hat, uy_hat = velocity_columns(grid32, q, 0.25)
        curl = 1j * grid32.kx[:, None] * uy_hat - 1j * grid32.kx[None, :w] * ux_hat
        omega = omega_from_q(grid32, q, 0.25)
        assert np.abs(curl - omega).max() <= 1e-12 * np.abs(omega).max()

    def test_divergence_free(self, grid32):
        w = grid32.kmax_dealias + 1
        q = dealias(grid32, random_band_hat(grid32, 6, seed=4))[:, :w]
        q[0, 0] = 0.0
        u = velocity_columns(grid32, q, 0.25)
        div = 1j * grid32.kx[:, None] * u[0] + 1j * grid32.kx[None, :w] * u[1]
        assert np.abs(div).max() <= 1e-10 * peak_speed(*self.physical(grid32, u))

    def test_nyquist_row_gives_real_velocity(self, grid32):
        # cos(16x + y) puts energy on the unpaired kx = 16 row of the retained block;
        # the velocity of the block expands to a real field's full spectrum
        X, Y = mesh(grid32)
        q = forward_transform(np.cos(16 * X + Y))[:, : grid32.kmax_dealias + 1]
        assert np.abs(q[16]).max() > 0.0
        for coeffs in velocity_columns(grid32, q, 0.0):
            full = SimState(grid32, coeffs, 0.0).q_hat
            assert hermitian_defect(full) <= 1e-9 * (1 + np.abs(coeffs).max())


class TestRhsVorticity:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_single_shell_is_steady(self, grid32, alpha):
        state = single_shell_state(grid32, alpha)
        rhs = column_rhs(state)
        assert np.abs(rhs).max() <= 1e-12 * np.abs(state.columns).max()

    def test_single_shell_viscous_decay_rate(self, grid32):
        # pure single-mode decay: dq/dt = -nu k^2 omega, k^2 = 4
        state = single_shell_state(grid32, alpha=0.5, nu=0.01)
        rhs = column_rhs(state)
        omega = omega_from_q(grid32, state.columns, 0.5)
        expected = -0.01 * 4.0 * omega
        assert np.abs(rhs - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_zero_velocity_zero_rhs(self, grid16):
        state = SimState(grid=grid16, columns=np.zeros((16, 6), dtype=complex), alpha=0.3)
        assert not column_rhs(state).any()

    def test_mean_mode_pinned(self, grid32):
        state = random_state(grid32, alpha=0.25, nu=0.02, seed=5)
        assert column_rhs(state)[0, 0] == 0.0

    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_alpha_zero_reduces_to_classical_euler(self, grid32, nu):
        # independent classical-Euler construction: -u.grad(w) + nu lap(w)
        state = random_state(grid32, alpha=0.0, nu=nu, seed=6)
        g = grid32
        kx, ky = g.kx[:, None], g.kx[None, :]
        w_hat = dealias(g, state.q_hat)
        psi_hat = stream_from_omega(g, w_hat)
        ux = np.fft.ifft2(1j * ky * psi_hat).real
        uy = np.fft.ifft2(-1j * kx * psi_hat).real
        wx = np.fft.ifft2(1j * kx * w_hat).real
        wy = np.fft.ifft2(1j * ky * w_hat).real
        k2 = square_tables(g)[0]
        expected = -dealias(g, np.fft.fft2(ux * wx + uy * wy)) - nu * k2 * w_hat
        expected[0, 0] = 0.0
        expected = expected[:, : g.kmax_dealias + 1]
        rhs = column_rhs(state)
        assert np.abs(rhs - expected).max() <= 1e-13 * np.abs(expected).max()


class TestHalfSpectrumRhs:
    """rhs_columns and its speed on the rfft2 half spectrum, against the full-spectrum bodies."""

    @staticmethod
    def assert_matches_oracle(state):
        expected = direct_rhs(state)
        scale = np.abs(expected).max()
        w = state.grid.kmax_dealias + 1
        assert np.abs(column_rhs(state) - expected[:, :w]).max() <= 1e-13 * scale
        # the block holds all of it: its expansion onto the full spectrum is the oracle
        assert np.abs(full_rhs(state) - expected).max() <= 1e-13 * scale
        # the speed is that of the dealiased velocity the RHS transports with
        speed = direct_max_speed(state.replace(columns=dealias(state.grid, state.columns)))
        assert abs(rhs_columns_and_speed(state, state.columns)[1] - speed) <= 1e-13 * speed

    def test_rhs_columns_takes_only_the_retained_columns(self):
        grid = TorusGrid(16)
        state = random_state(grid, alpha=0.3)
        for width in (grid.kmax_dealias, grid.n // 2 + 1):
            with pytest.raises(ValueError, match="retained columns"):
                rhs_columns(state, state.q_hat[:, :width])

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_matches_full_spectrum_body(self, n, alpha, nu):
        grid = TorusGrid(n)
        for seed in range(3):
            # a dealiased state, and a full band with the Nyquist modes
            # that only the multiplier's own mask removes
            dealiased = state_from_omega(grid, random_spectrum(grid, n // 2, seed), alpha, nu=nu)
            full_band = SimState(grid, random_spectrum(grid, n // 2, seed + 10), alpha, nu=nu)
            assert np.abs(full_band.columns[n // 2]).max() > 0.0  # the Nyquist kx row
            for state in (dealiased, full_band):
                self.assert_matches_oracle(state)

    def test_alpha_change_on_one_grid(self):
        grid = TorusGrid(32)
        q = random_spectrum(grid, 10, seed=4)
        for alpha in (0.25, 0.5, 0.25):
            self.assert_matches_oracle(SimState(grid, q, alpha, nu=0.05))

    def test_grid_not_kept_alive(self):
        grid = TorusGrid(16)
        state = random_state(grid, alpha=0.4, nu=0.01)
        column_rhs(state)
        rhs_columns_and_speed(state, state.columns)
        compute_diagnostics(state)
        ref = weakref.ref(grid)
        del grid, state
        gc.collect()
        assert ref() is None


class TestOneDimensionalPasses:
    """The RHS, its speed and diagnostics on 1D transform passes equal their nd bodies bit for bit."""

    @staticmethod
    def assert_passes_match(state, stage):
        # the state's columns, and a stage input that is not dealiased; the speed is
        # that of the velocity the pass transports with
        for q in (state.columns, stage):
            out, speed = rhs_columns_and_speed(state, q)
            expected, ux, uy = nd_rhs_and_velocity(state, q)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
            assert speed == float(np.hypot(ux, uy).max())
        assert rhs_columns_and_speed(state, state.columns)[1] == nd_max_speed(state)
        assert compute_diagnostics(state, 1e-2) == nd_diagnostics(state, 1e-2)

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_rhs_and_velocity(self, n, nu):
        grid = TorusGrid(n)
        state = random_state(grid, alpha=0.3, nu=nu, kmax=grid.kmax_dealias, seed=n)
        stage = state.columns + 0.01 * random_spectrum(grid, n // 2, seed=n)
        self.assert_passes_match(state, stage)

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_max_speed_and_diagnostics(self, n, nu):
        grid = TorusGrid(n)
        state = random_state(grid, alpha=0.3, nu=nu, kmax=grid.kmax_dealias, seed=n)
        assert rhs_columns_and_speed(state, state.columns)[1] == nd_max_speed(state)
        assert compute_diagnostics(state, 1e-2) == nd_diagnostics(state, 1e-2)

    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_alpha_zero(self, n, nu):
        grid = TorusGrid(n)
        state = random_state(grid, alpha=0.0, nu=nu, kmax=grid.kmax_dealias, seed=n)
        self.assert_passes_match(state, state.columns + 0.01 * random_spectrum(grid, n // 2, seed=n))

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_n512(self, alpha, nu):
        # spectral draws: random_state's harmonic sum is too slow at this size
        grid = TorusGrid(512)
        state = state_from_omega(grid, random_spectrum(grid, grid.kmax_dealias, seed=5), alpha, nu=nu)
        self.assert_passes_match(state, state.columns + 0.01 * random_spectrum(grid, 256, seed=6))


class TestRowBlocks:
    """The row-blocked grid pass gives the one-block pass's outputs byte for byte."""

    # at n = 48 the RHS's four fields take 1, 21 + 21 + 6 and 48 rows per block,
    # and ad*'s twelve (alpha != 0) 1, 6 x 7 + 6 and 48
    N = 48
    BLOCKINGS = {"one row": 1, "ragged": 12 * 48 * 7, "one block": 1 << 40}

    @staticmethod
    def use_blocks(monkeypatch, samples):
        """Set the block size; the list it returns collects the rows of every block."""
        monkeypatch.setattr(spectral, "_BLOCK_SAMPLES", samples)
        rows = []

        def counting(spectra, pointwise):
            def counted(values):
                rows.append(values.shape[1])
                return pointwise(values)

            return spectral.grid_pass(spectra, counted)

        monkeypatch.setattr(dynamics, "grid_pass", counting)
        return rows

    @staticmethod
    def outputs(state):
        stage = state.columns + 0.01 * random_spectrum(state.grid, state.grid.n // 2, seed=2)
        out, speed = rhs_columns_and_speed(state, state.columns)
        diag = compute_diagnostics(state, 1e-2)
        return [rhs_columns(state, stage).tobytes(), out.tobytes(), struct.pack("<d", speed),
                *(struct.pack("<d", v) for v in dataclasses.astuple(diag)),
                *(h.tobytes() for h in ad_star_hats(state))]

    @pytest.mark.parametrize("blocking", list(BLOCKINGS))
    @pytest.mark.parametrize("alpha, nu", [(0.3, 0.0), (0.3, 0.05), (0.0, 0.05)])
    def test_rhs_diagnostics_and_ad_star(self, blocking, alpha, nu, monkeypatch):
        grid = TorusGrid(self.N)
        state = random_state(grid, alpha=alpha, nu=nu, kmax=grid.kmax_dealias, seed=9)
        self.use_blocks(monkeypatch, self.BLOCKINGS["one block"])
        expected = self.outputs(state)
        rows = self.use_blocks(monkeypatch, self.BLOCKINGS[blocking])
        assert self.outputs(state) == expected
        if blocking == "one row":
            assert set(rows) == {1}
        elif blocking == "ragged":
            assert {21, 6}.issubset(rows) and self.N not in rows
        else:
            assert set(rows) == {self.N}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_speed_of_non_finite_and_overflowing_states(self, bad, monkeypatch):
        # NaN and inf spread over the grid; 1e160 overflows the squares, so hypot
        # takes every point of a block
        grid = TorusGrid(self.N)
        state = random_state(grid, alpha=0.3, kmax=grid.kmax_dealias, seed=4)
        columns = state.columns * (1.0 if np.isnan(bad) or np.isinf(bad) else bad)
        if not np.isfinite(bad):
            columns[3, 2] = bad
        state = state.replace(columns=columns)
        speeds = []
        for blocking in ("one block", "one row", "ragged"):
            self.use_blocks(monkeypatch, self.BLOCKINGS[blocking])
            with np.errstate(all="ignore"):
                speeds.append(rhs_columns_and_speed(state, state.columns)[1])
        assert np.array_equal(speeds, [speeds[0]] * 3, equal_nan=True)
        assert np.isnan(speeds[0]) if not np.isfinite(bad) else np.isfinite(speeds[0])
        # a NaN speed in any one block, the first, second or last, is the grid's max,
        # as one max over the grid gives
        state = random_state(grid, alpha=0.3, kmax=grid.kmax_dealias, seed=4)
        max_speed = dynamics._max_speed
        for blocking in ("one row", "ragged"):
            monkeypatch.setattr(dynamics, "_max_speed", max_speed)
            rows = self.use_blocks(monkeypatch, self.BLOCKINGS[blocking])
            assert np.isfinite(rhs_columns_and_speed(state, state.columns)[1])
            blocks = len(rows)
            for nan_block in (0, 1, blocks - 1):
                calls = []

                def one_nan(ux, uy, square):
                    calls.append(len(calls))
                    return np.nan if calls[-1] == nan_block else max_speed(ux, uy, square)

                monkeypatch.setattr(dynamics, "_max_speed", one_nan)
                assert np.isnan(rhs_columns_and_speed(state, state.columns)[1])
                assert len(calls) == blocks > 2

    @pytest.mark.parametrize("blocking", ["one row", "ragged"])
    def test_run_files(self, blocking, monkeypatch, tmp_path):
        cfg = RunConfig(n=self.N, alpha=0.25, nu=0.01, dt=0.01, t_final=0.03, scheme="strang",
                        ic_band=6, seed=5, diag_every=1, save_every=1)

        def files(samples, name):
            self.use_blocks(monkeypatch, samples)
            out = tmp_path / name
            run(cfg.replace(out=str(out)))
            return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.txt"}

        expected = files(self.BLOCKINGS["one block"], "one")
        assert len(expected) == 5
        assert files(self.BLOCKINGS[blocking], "blocked") == expected

    def test_snapshot_is_the_ifft2_of_the_vorticity_at_n512(self):
        # the formula of the benchmark's run_n512 gate
        grid = TorusGrid(512)
        state = state_from_omega(grid, random_spectrum(grid, grid.kmax_dealias, seed=3), 0.25)
        expected = np.fft.ifft2(omega_from_q(grid, state.q_hat, state.alpha)).real
        assert vorticity_values(state).tobytes() == expected.tobytes()


class TestLerayProjection:
    def test_annihilates_gradients(self, grid32):
        p_hat = random_band_hat(grid32, 6, seed=7)
        w_hats = random_band_hat(grid32, 6, seed=14), random_band_hat(grid32, 6, seed=15)
        gradient_kill, residual_div = leray_residuals(grid32, p_hat, *w_hats)
        assert gradient_kill <= 1e-12
        assert residual_div <= 1e-12

    def test_fixes_divergence_free_fields(self, grid32):
        q = dealias(grid32, random_band_hat(grid32, 6, seed=8))
        q[0, 0] = 0.0
        u_hats = velocity_hats_from_q(grid32, q, 0.3)
        ux, uy = physical(*u_hats)
        pux, puy = physical(*leray_project_hats(grid32, *u_hats))
        assert np.abs(pux - ux).max() <= 1e-12 * peak_speed(ux, uy)
        assert np.abs(puy - uy).max() <= 1e-12 * peak_speed(ux, uy)

    def test_idempotent(self, grid32):
        w_hats = random_band_hat(grid32, 6, seed=9), random_band_hat(grid32, 6, seed=10)
        once = leray_project_hats(grid32, *w_hats)
        twice = leray_project_hats(grid32, *once)
        once_x, once_y = physical(*once)
        twice_x, _ = physical(*twice)
        assert np.abs(twice_x - once_x).max() <= 1e-12 * peak_speed(once_x, once_y)

    def test_output_orthogonal_to_gradients(self, grid32):
        # <P w, grad p> = 0 in L2 for random w and p
        w_hats = random_band_hat(grid32, 6, seed=11), random_band_hat(grid32, 6, seed=12)
        pwx, pwy = leray_project_hats(grid32, *w_hats)
        p_hat = random_band_hat(grid32, 6, seed=13)
        gx, gy = 1j * grid32.kx[:, None] * p_hat, 1j * grid32.kx[None, :] * p_hat
        inner = l2_inner(grid32, pwx, gx) + l2_inner(grid32, pwy, gy)
        scale = l2_norm(grid32, pwx) * l2_norm(grid32, gx)
        assert abs(inner) <= 1e-10 * scale


class TestAdStar:
    def test_zero_state(self, grid16):
        state = SimState(grid=grid16, columns=np.zeros((16, 6), dtype=complex), alpha=0.5)
        hx, hy = ad_star_hats(state)
        assert hx.shape == hy.shape == state.columns.shape
        assert not hx.any() and not hy.any()

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_matches_full_spectrum_body(self, n, alpha):
        grid = TorusGrid(n)
        w = grid.kmax_dealias + 1
        for seed in range(3):
            # a full band with Nyquist modes, which only the dealiasing removes, and a dealiased state
            full_band = SimState(grid, random_spectrum(grid, n // 2, seed), alpha)
            dealiased = state_from_omega(grid, random_spectrum(grid, n // 2, seed + 10), alpha)
            for state in (full_band, dealiased):
                got = np.stack(ad_star_hats(state))
                expected = np.stack(direct_ad_star_hats(state))
                assert np.abs(got - expected[..., :w]).max() <= 1e-13 * np.abs(expected).max()

    def test_single_shell_curl_free_acceleration(self, grid32):
        # du/dt = -ad*_u u must carry zero curl-content, matching rhs = 0
        state = single_shell_state(grid32, alpha=0.5)
        residual, rhs = cross_form_residual(state)
        assert not rhs.any()
        assert np.abs(residual).max() <= 1e-12 * np.abs(state.columns).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_cross_form_consistency(self, grid32, alpha, seed):
        # curl((1 - a^2 lap)(-ad*_u u)) + u.grad q = 0
        residual, rhs = cross_form_residual(random_state(grid32, alpha=alpha, seed=seed))
        assert l2_norm(grid32, residual) <= 1e-10 * l2_norm(grid32, rhs)

    def test_projection_filter_orders_agree(self, grid32):
        # ad*_u u projects, then filters: both are Fourier multipliers, so they commute
        wx, wy = random_band_hat(grid32, 6, seed=24), random_band_hat(grid32, 6, seed=26)
        px, py = leray_project_hats(grid32, wx, wy)
        ax, ay = inverse_helmholtz(grid32, px, 0.25), inverse_helmholtz(grid32, py, 0.25)
        bx, by = leray_project_hats(
            grid32, inverse_helmholtz(grid32, wx, 0.25), inverse_helmholtz(grid32, wy, 0.25)
        )
        scale = max(np.abs(ax).max(), np.abs(ay).max())
        assert np.abs(ax - bx).max() <= 1e-11 * scale
        assert np.abs(ay - by).max() <= 1e-11 * scale

    def test_output_divergence_free(self, grid32):
        state = random_state(grid32, alpha=0.25, seed=25)
        hx, hy = ad_star_hats(state)
        w = hx.shape[1]
        div = 1j * grid32.kx[:, None] * hx + 1j * grid32.kx[None, :w] * hy
        assert np.abs(div).max() <= 1e-10 * max(np.abs(hx).max(), np.abs(hy).max())


class TestDiagnostics:
    def test_zero_state_all_zero(self, grid16):
        state = SimState(grid=grid16, columns=np.zeros((16, 6), dtype=complex), alpha=0.5, t=2.0)
        d = compute_diagnostics(state)
        assert d.t == 2.0
        assert d.energy == 0.0 and d.mean_q == 0.0 and d.casimir2 == 0.0
        assert d.enstrophy == 0.0 and d.max_u == 0.0 and d.cfl == 0.0

    def test_single_shell_energy_closed_form(self, grid32):
        # E = (1 + 4 a^2) pi^2 / 4 for omega = cos(2x); a = 0.5 gives pi^2/2
        for alpha in (0.0, 0.5, 1.0):
            state = single_shell_state(grid32, alpha)
            d = compute_diagnostics(state)
            assert d.energy == pytest.approx((1 + 4 * alpha**2) * np.pi**2 / 4, rel=1e-12)
        d = compute_diagnostics(single_shell_state(grid32, 0.5))
        assert d.energy == pytest.approx(np.pi**2 / 2, rel=1e-12)
        assert d.max_u == pytest.approx(0.5, rel=1e-12)
        assert d.enstrophy == pytest.approx(2 * np.pi**2, rel=1e-12)

    def test_two_quadratures_agree(self, grid32):
        # spectral energy_hats (inside compute_diagnostics) against the physical quadrature
        state = random_state(grid32, alpha=0.25, seed=31)
        u_hats = velocity_hats_from_q(grid32, state.q_hat, 0.25)
        v_hats = [helmholtz(grid32, h, 0.25) for h in u_hats]
        quadrature = energy_quadrature(grid32, *physical(*u_hats, *v_hats))
        d = compute_diagnostics(state)
        assert abs(d.energy - quadrature) <= 1e-11 * d.energy

    def test_scaling_homogeneity(self, grid32):
        state = random_state(grid32, alpha=0.25, seed=32)
        doubled = state.replace(columns=2.0 * state.columns)
        d1, d2 = compute_diagnostics(state), compute_diagnostics(doubled)
        assert d2.energy == pytest.approx(4 * d1.energy, rel=1e-12)
        assert d2.casimir2 == pytest.approx(4 * d1.casimir2, rel=1e-12)
        assert d2.enstrophy == pytest.approx(4 * d1.enstrophy, rel=1e-12)
        assert d2.max_u == pytest.approx(2 * d1.max_u, rel=1e-12)
        assert d1.mean_q == 0.0 and d2.mean_q == 0.0

    def test_energy_positive_unless_zero(self, grid32):
        state = random_state(grid32, alpha=0.1, seed=33)
        assert compute_diagnostics(state).energy > 0.0


class TestSemiDiscreteConservation:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_casimir_and_energy_rates_vanish_inviscid(self, grid64, alpha):
        # alias-free band-limited state: Galerkin-exact quadratic invariants
        state = random_state(grid64, alpha=alpha, kmax=4, seed=41)
        g = grid64
        rhs = column_rhs(state)
        c2_rate = 2.0 * l2_inner(g, state.q_hat, rhs)
        c2 = l2_inner(g, state.q_hat, state.q_hat)
        assert abs(c2_rate) <= 1e-10 * c2
        psi_hat = stream_from_omega(g, omega_from_q(g, state.q_hat, alpha))
        e_rate = l2_inner(g, psi_hat, rhs)
        energy = compute_diagnostics(state).energy
        assert abs(e_rate) <= 1e-10 * energy

    def test_viscous_energy_rate_is_minus_nu_enstrophy(self, grid64):
        # dE/dt = <psi, dq/dt> = -nu * int w^2 exactly for band-limited states
        state = random_state(grid64, alpha=0.25, nu=0.03, kmax=4, seed=42)
        g = grid64
        rhs = column_rhs(state)
        psi_hat = stream_from_omega(g, omega_from_q(g, state.q_hat, 0.25))
        e_rate = l2_inner(g, psi_hat, rhs)
        d = compute_diagnostics(state)
        assert e_rate < 0.0
        assert e_rate == pytest.approx(-0.03 * d.enstrophy, rel=1e-11)

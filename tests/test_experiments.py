"""
Tests for the experiment harness: config parsing, initial conditions,
persisted runs, the snapshot/CSV formats, and the parameter sweeps.
"""

import dataclasses
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from euleralpha import experiments
from euleralpha.checks import snapshot_roundtrip_error
from euleralpha.dynamics import SimState, compute_diagnostics
from euleralpha.experiments import (
    ConfigError,
    RunConfig,
    load_config,
    make_initial_condition,
    make_omega0,
    parse_config_text,
    run,
    splitting_order_study,
    sweep_alpha,
    sweep_nu,
)
from euleralpha.output import (
    DIAG_COLUMNS,
    read_diagnostics,
    read_snapshot,
    snapshot_name,
    write_snapshot,
)
from euleralpha.spectral import TorusGrid

from conftest import full_random_band_hat, mesh


class TestConfigParsing:
    def test_key_value_lines_and_comments(self):
        text = """
        # a comment
        n = 32
        alpha=0.5   # trailing comment
        scheme = strang

        nu_list = 1e-2, 5e-3
        """
        entries = parse_config_text(text)
        assert entries == {
            "n": "32", "alpha": "0.5", "scheme": "strang", "nu_list": "1e-2, 5e-3"
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("banana = 3")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("n 32")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
            parse_config_text("n = 16\nalpha = 0.5\nn = 32\n")

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 32\nalpha = 0.5\n")
        cfg = load_config(path, {"alpha": "0.75"})
        assert cfg.n == 32
        assert cfg.alpha == 0.75

    def test_bad_value_reported_with_key(self):
        for key, raw in [("n", "thirty-two"), ("nu_list", "0.1,,0.05"),
                         ("nu_list", "0.1, ,0.05"), ("nu_list", "0.1,0.05,")]:
            with pytest.raises(ConfigError, match=f"bad value for {key}: {raw!r}"):
                load_config(None, {key: raw})

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_empty_list_value_means_no_entries(self, raw):
        assert load_config(None, {"nu_list": raw}).nu_list == ()

    def test_validation_catches_bad_combinations(self):
        with pytest.raises(ConfigError):
            load_config(None, {"n": "31"})
        with pytest.raises(ConfigError):
            load_config(None, {"scheme": "leapfrog"})
        with pytest.raises(ConfigError):
            load_config(None, {"ic": "vortex_pair"})
        with pytest.raises(ConfigError):
            load_config(None, {"dt": "-0.1"})

    @pytest.mark.parametrize("out", ["", "   "])
    def test_empty_out_rejected(self, out):
        with pytest.raises(ConfigError, match="out must name a directory"):
            RunConfig(out=out).validate()

    def test_overflowing_alpha_rejected(self):
        # alpha^2 = 1e308 is finite, but alpha^2 n^4 / 4 at n = 64 is not;
        # at alpha = 1e150 both are
        with pytest.raises(ConfigError, match="alpha=1e\\+154 is too large for n=64"):
            RunConfig(alpha=1e154).validate()
        assert RunConfig(alpha=1e150).validate().alpha == 1e150

    def test_size_cap(self, monkeypatch):
        # the cap is checked before any grid of the size is built
        monkeypatch.setattr(experiments, "TorusGrid", None)
        assert RunConfig(n=4096).validate().n == 4096
        for n in (4098, 10**9):
            with pytest.raises(ConfigError, match=f"<= 4096 \\(the size cap\\), got {n}"):
                RunConfig(n=n).validate()

    def test_step_cap(self):
        # t_final / dt as floats: 1e8 steps pass, more do not, and a quotient that
        # overflows is inf
        assert RunConfig(t_final=1e5, dt=1e-3).validate().t_final == 1e5
        for t_final, dt, steps in ((1e5, 9.99e-4, "1.001e+08"), (1e300, 1e-300, "inf")):
            with pytest.raises(ConfigError, match=f"= {re.escape(steps)} steps exceeds the cap "
                                                  "of 1e\\+08 steps"):
                RunConfig(t_final=t_final, dt=dt).validate()

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("ic_band", 2.0), ("save_every", 2.5),
                                            ("n", np.float64(32.0)), ("workers", True)])
    def test_integer_keys_refuse_other_numbers(self, key, value):
        # on the library path a float seed or band would fail deep in numpy and a float
        # cadence would run; numpy integers pass, and the CLI's strings are coerced by int()
        message = f"{key} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(None, {key: value})
        for integer in (np.int64(32), "32"):
            assert getattr(load_config(None, {key: integer}), key) == 32

    @pytest.mark.parametrize("key, value", [("alpha", "0.5"), ("dt", None), ("nu", True),
                                            ("ic_energy", float("nan")), ("out", Path("x")),
                                            ("out", b"x"), ("alpha", Fraction(1, 2)),
                                            pytest.param("alpha", 10**400, id="alpha-10**400"),
                                            ("nu_list", ("a",)),
                                            pytest.param("nu_list", (10**400,), id="nu_list-10**400"),
                                            ("dt_list", 0.1)])
    def test_float_and_out_keys_refuse_other_types(self, key, value, tmp_path):
        # on the library path these reached numpy (TypeError) or str.strip (AttributeError); a
        # bad list entry passed and a run wrote its files before config_entries raised
        kind = ("entries must be finite numbers" if key.endswith("_list") else
                "must name a directory as a non-empty str" if key == "out" else
                "must be a finite number")
        message = re.escape(f"{key} {kind}, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{key: value}).validate()
        if key != "out":
            with pytest.raises(ConfigError, match=message):
                run(RunConfig(**{"n": 8, "t_final": 0.01, "out": str(tmp_path / "o"), key: value}))
            assert not list(tmp_path.iterdir())
        assert RunConfig(alpha=np.float64(0.5), out="x").validate().alpha == 0.5

    def test_list_coercion(self):
        cfg = load_config(None, {"dt_list": "0.02,0.01,0.005"})
        assert cfg.dt_list == (0.02, 0.01, 0.005)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        text = "n = 32\nalpha = 0.5\nic = single_mode\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(bom) == load_config(plain)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestInitialConditions:
    def test_single_mode_two_spectral_modes(self):
        cfg = RunConfig(n=32, ic="single_mode", ic_kx=2, ic_ky=0)
        grid = TorusGrid(32)
        omega_hat = make_omega0(cfg, grid)
        nonzero = np.argwhere(np.abs(omega_hat) > 1e-9)
        assert {tuple(ij) for ij in nonzero} == {(2, 0), (30, 0)}

    def test_single_mode_outside_band_rejected(self):
        cfg = RunConfig(n=32, ic="single_mode", ic_kx=11, ic_ky=0)
        with pytest.raises(ConfigError, match="resolved band"):
            make_omega0(cfg, TorusGrid(32))

    def test_taylor_green_profile(self):
        cfg = RunConfig(n=32, ic="taylor_green", ic_amplitude=1.5)
        grid = TorusGrid(32)
        omega = np.fft.irfft2(make_omega0(cfg, grid), s=(32, 32))
        X, Y = np.meshgrid(grid.x, grid.x, indexing="ij")
        assert np.allclose(omega, 3.0 * np.cos(X) * np.cos(Y), atol=1e-12)

    def test_random_ic_deterministic(self):
        cfg = RunConfig(n=32, ic="random_bandlimited", seed=77)
        grid = TorusGrid(32)
        a = make_omega0(cfg, grid)
        b = make_omega0(cfg, grid)
        assert np.array_equal(a, b)
        c = make_omega0(cfg.replace(seed=78), grid)
        assert not np.array_equal(a, c)

    def test_random_ic_energy_exact(self):
        for energy in (1.0, 0.25):
            cfg = RunConfig(n=64, ic="random_bandlimited", seed=5, ic_energy=energy)
            state = make_initial_condition(cfg)
            got = compute_diagnostics(state).energy
            assert abs(got - energy) <= 1e-12 * energy

    def test_random_ic_band_support_and_symmetry(self):
        cfg = RunConfig(n=64, ic="random_bandlimited", seed=6, ic_band=4)
        grid = TorusGrid(64)
        omega_hat = make_omega0(cfg, grid)
        assert omega_hat.shape == (64, grid.kmax_dealias + 1)
        outside = np.abs(grid.kx) > 4
        assert not omega_hat[outside[:, None] | outside[None, : omega_hat.shape[1]]].any()
        assert omega_hat[0, 0] == 0.0
        # the ky = 0 column holds both kx and -kx; the expansion holds every -k
        full = SimState(grid, omega_hat, 0.0).q_hat
        idx = (-np.arange(64)) % 64
        assert np.allclose(full, np.conj(full[np.ix_(idx, idx)]), atol=1e-12)

    def test_band_beyond_mask_rejected(self):
        cfg = RunConfig(n=16, ic="random_bandlimited", ic_band=6)
        with pytest.raises(ConfigError, match="dealiased band"):
            make_omega0(cfg, TorusGrid(16))

    @pytest.mark.filterwarnings("error")
    def test_energy_overflow_rejected(self, omega_energy_calls):
        # at n = 16 and alpha = 0.25, sum |q0|^2 is 4.5e307 for ic_energy
        # 1e303 and overflows for 1e304; the random path evaluates the
        # energy once, to rescale
        grid = TorusGrid(16)
        state = make_initial_condition(RunConfig(n=16, ic_energy=1e303), grid)
        assert len(omega_energy_calls) == 1
        assert np.isfinite(compute_diagnostics(state).energy)
        with pytest.raises(ConfigError, match=r"ic_energy=1e\+304 is too large for n=16"):
            make_initial_condition(RunConfig(n=16, ic_energy=1e304), grid)
        assert len(omega_energy_calls) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ic", ["taylor_green", "single_mode"])
    def test_amplitude_overflow_rejected(self, ic, omega_energy_calls):
        grid = TorusGrid(16)
        cfg = RunConfig(n=16, ic=ic, ic_amplitude=1e151)
        assert np.isfinite(compute_diagnostics(make_initial_condition(cfg, grid)).energy)
        for amplitude in (1e152, 1e300, -1e308):
            with pytest.raises(ConfigError, match="ic_amplitude=.* is too large for n=16"):
                make_initial_condition(cfg.replace(ic_amplitude=amplitude), grid)
        assert not omega_energy_calls


@pytest.fixture
def omega_energy_calls(monkeypatch):
    """The argument tuples of every ``experiments._omega_energy`` call."""
    calls = []
    energy = experiments._omega_energy
    monkeypatch.setattr(experiments, "_omega_energy",
                        lambda *args: calls.append(args) or energy(*args))
    return calls


class TestInitialConditionBlock:
    """make_omega0 returns the retained block of the full-spectrum initial conditions, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("n", [8, 16, 64, 512])
    def test_random_equals_full_spectrum_oracle(self, n, alpha):
        grid = TorusGrid(n)
        w = grid.kmax_dealias + 1
        for band in sorted({1, 2, min(4, grid.kmax_dealias), grid.kmax_dealias}):
            for seed in (0, 7, 2025):
                cfg = RunConfig(n=n, alpha=alpha, ic_band=band, seed=seed, ic_energy=0.5)
                got = make_omega0(cfg, grid)
                assert got.shape == (n, w)
                oracle = full_random_band_hat(grid, band, seed)
                oracle *= np.sqrt(cfg.ic_energy / experiments._omega_energy(grid, oracle, alpha))
                assert np.array_equal(got, oracle[:, :w])

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("n", [8, 16, 64, 512])
    def test_grid_samples_equal_transform_block(self, n, alpha):
        grid = TorusGrid(n)
        kmax = grid.kmax_dealias
        X, Y = mesh(grid)
        for amplitude in (1.0, -0.7):
            cfg = RunConfig(n=n, alpha=alpha, ic="taylor_green", ic_amplitude=amplitude)
            expected = np.fft.fft2(amplitude * 2.0 * np.cos(X) * np.cos(Y))
            assert np.array_equal(make_omega0(cfg, grid), expected[:, : kmax + 1])
            for kx, ky in ((1, 0), (0, -1), (kmax, -kmax), (-1, 2)):
                cfg = cfg.replace(ic="single_mode", ic_kx=kx, ic_ky=ky)
                expected = np.fft.fft2(amplitude * np.cos(kx * X + ky * Y))
                assert np.array_equal(make_omega0(cfg, grid), expected[:, : kmax + 1])

    def test_random_draw_peaks_below_two_blocks(self):
        # the draw is symmetrized on its own (2K+1)^2 modes, with no (n, n) spectrum
        grid = TorusGrid(512)
        block_bytes = 16 * grid.n * (grid.kmax_dealias + 1)
        for band in (1, 4, 16):
            tracemalloc.start()
            try:
                experiments._random_band_hat(grid, band, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * block_bytes

    @pytest.mark.parametrize("ic", ["taylor_green", "single_mode"])
    def test_grid_sampled_state_peaks_below_44_n_squared_bytes(self, ic):
        # the samples (8 n^2 B), their complex copy and the axis-1 pass (16 n^2 B each) make
        # 40 n^2 B; an (n, n) axis-0 pass before the cut to the block made 56 n^2 B
        grid = TorusGrid(512)
        tracemalloc.start()
        try:
            make_initial_condition(RunConfig(n=grid.n, ic=ic), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 44 * grid.n**2


class TestRun:
    def _tiny_cfg(self, tmp_path, **kw):
        base = dict(
            n=32, alpha=0.5, nu=0.01, dt=0.01, t_final=0.1, scheme="rk4",
            ic="single_mode", ic_kx=2, ic_ky=0, seed=1,
            out=str(tmp_path / "out"), save_every=5, diag_every=2,
        )
        base.update(kw)
        return RunConfig(**base)

    def test_requires_out_dir(self):
        with pytest.raises(ConfigError, match="output directory"):
            run(RunConfig(out=None))

    def test_writes_expected_files(self, tmp_path):
        cfg = self._tiny_cfg(tmp_path)
        final = run(cfg)
        out = tmp_path / "out"
        assert final.t == pytest.approx(0.1)
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.txt").exists()
        # snapshots at steps 0, 5, 10 (10 steps of dt=0.01 to t=0.1)
        for step in (0, 5, 10):
            assert (out / snapshot_name(step)).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "code_version" in manifest and "wall_time_s" in manifest

    def test_short_n512_run_peaks_below_66_n_squared_bytes(self, tmp_path):
        # one rk4 step at n = 512, a diagnostics row and a snapshot at steps 0 and 1:
        # traced, the run peaks at about 62 n^2 B; a grid that held (n, n) tables of k^2
        # and the 2/3 mask (9 n^2 B) took it to 70-71 n^2 B
        n = 512
        cfg = self._tiny_cfg(tmp_path, n=n, alpha=0.25, nu=0.0, dt=1e-3, t_final=1e-3,
                             ic="random_bandlimited", ic_band=4, seed=0,
                             save_every=1, diag_every=1)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "out").glob("snap_*.eaf"))) == 2
        assert peak <= 66 * n * n, f"{peak / n**2:.1f} n^2 B"

    def test_zero_velocity_ic_gives_all_zero_rows(self, tmp_path):
        cfg = self._tiny_cfg(tmp_path, ic_amplitude=0.0, nu=0.0)
        run(cfg)
        cols = read_diagnostics(tmp_path / "out" / "diagnostics.csv")
        for name in DIAG_COLUMNS:
            if name == "t":
                continue
            assert not cols[name].any(), name

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = self._tiny_cfg(tmp_path, out=str(tmp_path / "a"), ic="random_bandlimited")
        cfg_b = self._tiny_cfg(tmp_path, out=str(tmp_path / "b"), ic="random_bandlimited")
        run(cfg_a)
        run(cfg_b)
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        snap_a = (tmp_path / "a" / snapshot_name(10)).read_bytes()
        snap_b = (tmp_path / "b" / snapshot_name(10)).read_bytes()
        assert snap_a == snap_b

    def test_terminal_state_recorded_off_cadence(self, tmp_path):
        # 3.5 steps of dt=0.02: rows at steps 0, 2 and the partial step 4;
        # snapshots at steps 0, 3 and 4
        cfg = self._tiny_cfg(tmp_path, n=16, dt=0.02, t_final=0.07,
                             diag_every=2, save_every=3)
        run(cfg)
        out = tmp_path / "out"
        assert list(read_diagnostics(out / "diagnostics.csv")["t"]) == [0.0, 0.04, 0.07]
        assert sorted(p.name for p in out.glob("snap_*.eaf")) == [
            snapshot_name(step) for step in (0, 3, 4)
        ]
        assert read_snapshot(out / snapshot_name(4)).time == 0.07

    def test_failed_run_keeps_history_and_failure_manifest(self, tmp_path):
        # amplitude 100 at dt=0.1: the t=0 row is logged, then the first
        # step violates the CFL limit
        from euleralpha.integrators import CflViolation

        cfg = self._tiny_cfg(tmp_path, ic_amplitude=100.0, dt=0.1, t_final=1.0)
        with pytest.raises(CflViolation) as caught:
            run(cfg)
        out = tmp_path / "out"
        assert list(read_diagnostics(out / "diagnostics.csv")["t"]) == [0.0]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[-3:] == [
            "status = failed", "failed_at_t = 0.0", f"reason = {caught.value}",
        ]

    def test_diagnostics_csv_round_trips_exact_floats(self, tmp_path):
        cfg = self._tiny_cfg(tmp_path, ic="random_bandlimited")
        run(cfg)
        path = tmp_path / "out" / "diagnostics.csv"
        cols = read_diagnostics(path)
        # rewrite from parsed values: identical bytes proves exact round-trip
        header = ",".join(DIAG_COLUMNS)
        rows = [
            ",".join(repr(float(cols[c][i])) for c in DIAG_COLUMNS)
            for i in range(len(cols["t"]))
        ]
        rebuilt = header + "\n" + "\n".join(rows) + "\n"
        assert rebuilt == path.read_text()

    @pytest.mark.parametrize("row, message", [
        (",".join(["1.0"] * 8), "expected 9 values, got 8"),
        (",".join(["1.0"] * 10), "expected 9 values, got 10"),
        (",".join(["1.0"] * 18), "expected 9 values, got 18"),
        ("", "expected 9 values, got 1"),
        ("abc" + ",1.0" * 8, "could not convert string to float: 'abc'"),
    ], ids=["8", "10", "18", "blank", "abc"])
    def test_diagnostics_row_of_wrong_width_names_file_and_line(self, tmp_path, row, message):
        # 18 values would otherwise read back as two rows
        path = tmp_path / "diagnostics.csv"
        rows = ["0.0," * 8 + "0.0", row, "0.0," * 8 + "0.0"]
        path.write_text(",".join(DIAG_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 3: {message}')}$"):
            read_diagnostics(path)


class TestSnapshotFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        omega = np.random.default_rng(3).standard_normal((16, 16))
        path = tmp_path / "snap_00000000.eaf"
        assert snapshot_roundtrip_error(path, 16, 0.25, 1e-3, 2.75, omega) == 0.0

    @pytest.mark.parametrize("corrupt", [
        lambda snap: dataclasses.replace(snap, omega=np.full_like(snap.omega, np.nan)),
        lambda snap: dataclasses.replace(snap, alpha=np.nan),
        lambda snap: dataclasses.replace(snap, omega=snap.omega[np.newaxis]),
    ], ids=["nan-samples", "nan-header", "wrong-shape"])
    def test_round_trip_error_sees_a_corrupt_read(self, tmp_path, monkeypatch, corrupt):
        from euleralpha import checks

        monkeypatch.setattr(checks, "read_snapshot", lambda path: corrupt(read_snapshot(path)))
        omega = np.random.default_rng(3).standard_normal((16, 16))
        err = snapshot_roundtrip_error(tmp_path / "s.eaf", 16, 0.25, 1e-3, 2.75, omega)
        assert not err <= 0.0

    def test_layout_row_major_y_fastest(self, tmp_path):
        omega = np.arange(64.0).reshape(8, 8)  # [ix, iy]
        path = tmp_path / "s.eaf"
        write_snapshot(path, 8, 0.0, 0.0, 0.0, omega)
        raw = path.read_bytes()
        header = 4 + 4 + 3 * 8
        first_row = np.frombuffer(raw, dtype="<f8", offset=header, count=8)
        assert first_row.tolist() == omega[0, :].tolist()  # y varies fastest
        assert raw[:4] == b"EAF1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.eaf"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        grid = TorusGrid(16)
        path = tmp_path / "t.eaf"
        write_snapshot(path, 16, 0.0, 0.0, 0.0, np.zeros((16, 16)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    @pytest.mark.parametrize("size", [4, 5, 31])
    def test_truncated_header_rejected(self, tmp_path, size):
        # a killed run can leave a file cut inside its 32-byte header
        path = tmp_path / "t.eaf"
        write_snapshot(path, 16, 0.25, 0.01, 1.5, np.zeros((16, 16)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"truncated snapshot \\({size} bytes"):
            read_snapshot(path)


@pytest.fixture
def inline_pool(monkeypatch):
    """
    In-process stand-in for the sweeps' process pool (``experiments._process_pool``; a
    real pool forks all max_workers at the first submit): runs each member at its submit
    and records the pool sizes and the submitted members' configs in submit order.
    """
    from concurrent.futures import Future

    class InlinePool:
        sizes, submitted = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cfg, *args):
            self.submitted.append(cfg)
            future = Future()
            future.set_result(fn(cfg, *args))
            return future

    monkeypatch.setattr(experiments, "_process_pool", InlinePool)
    return InlinePool


def _sweep_cfg(**kw):
    base = dict(n=32, alpha=0.5, nu=0.0, dt=0.01, t_final=1.0,
                ic="single_mode", ic_kx=2, ic_ky=0, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestSweepNu:
    def test_single_shell_closed_form_distances_and_slope(self):
        # q^nu(t) = exp(-2 nu t) q0 for k^2=4, alpha=0.5; reference stays q0.
        cfg = _sweep_cfg()
        nus = (1e-4, 5e-5, 2.5e-5, 1.25e-5)
        res = sweep_nu(cfg, nus)
        q_norm = (1 + 4 * 0.5**2) * np.sqrt(2.0 * np.pi**2)  # ||q0||_2
        for nu, d in zip(nus, res.distances_q):
            exact = q_norm * (1.0 - np.exp(-2.0 * nu))
            assert abs(d - exact) <= 1e-9 * exact
        assert res.slope == pytest.approx(1.0, abs=0.01)
        assert res.residual <= 0.01

    def test_tiny_viscosity_vanishing_distance(self):
        cfg = _sweep_cfg(ic="random_bandlimited", ic_band=4, ic_energy=1.0,
                         alpha=0.25, t_final=0.2)
        res = sweep_nu(cfg, (1e-12,))
        assert res.distances_q[0] < 1e-8
        assert np.isnan(res.slope)  # one point cannot be fitted

    def test_validation(self):
        cfg = _sweep_cfg()
        with pytest.raises(ConfigError):
            sweep_nu(cfg, ())
        with pytest.raises(ConfigError):
            sweep_nu(cfg, (1e-3, 1e-2))  # ascending
        with pytest.raises(ConfigError):
            sweep_nu(cfg, (1e-3, -1e-4))
        with pytest.raises(ConfigError, match="finite"):
            sweep_nu(cfg, (float("nan"), 1e-3))

    @pytest.mark.parametrize("values", [(10**400, 1.0), ("x",)], ids=["10**400", "x"])
    def test_entries_that_are_no_finite_float_are_config_errors(self, values):
        # float() raised OverflowError and a bare ValueError here
        with pytest.raises(ConfigError, match="nu_list entries must be finite numbers"):
            sweep_nu(_sweep_cfg(), values)

    def test_parallel_workers_match_serial(self):
        cfg = _sweep_cfg(t_final=0.2)
        nus = (1e-3, 5e-4)
        serial = sweep_nu(cfg, nus, workers=1)
        parallel = sweep_nu(cfg, nus, workers=2)
        assert serial.distances_q == parallel.distances_q

    def test_pool_no_larger_than_member_count(self, inline_pool):
        cfg = _sweep_cfg(t_final=0.05)
        nus = (1e-2, 5e-3)
        assert sweep_nu(cfg, nus, workers=64) == sweep_nu(cfg, nus, workers=1)
        assert inline_pool.sizes == [3]  # two members and the inviscid reference

    def test_equal_length_members_submitted_in_list_order(self, inline_pool):
        cfg = _sweep_cfg(t_final=0.05)
        nus = (1e-2, 5e-3)
        assert sweep_nu(cfg, nus, workers=2) == sweep_nu(cfg, nus, workers=1)
        assert [c.nu for c in inline_pool.submitted] == [1e-2, 5e-3, 0.0]

    def test_member_outputs_written(self, tmp_path):
        cfg = _sweep_cfg(t_final=0.05, out=str(tmp_path), save_every=1000, diag_every=5)
        sweep_nu(cfg, (1e-3,))
        assert (tmp_path / "nu_0.001" / "diagnostics.csv").exists()
        assert (tmp_path / "nu_0" / "diagnostics.csv").exists()
        assert (tmp_path / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_members_printing_alike_write_two_directories(self, workers, tmp_path, inline_pool):
        # 0.1234568 and 0.1234567 both print as 0.123457 with {:g}; their directories,
        # like their labels, are named by the shortest repr that reads back
        out = tmp_path / "o"
        cfg = _sweep_cfg(t_final=0.05, out=str(out), save_every=1000, diag_every=5)
        res = sweep_nu(cfg, (0.1234568, 0.1234567), workers=workers)
        assert sorted(p.name for p in out.iterdir()) == [
            "nu_0", "nu_0.1234567", "nu_0.1234568", "sweep_summary.csv"]
        for v in res.values:
            manifest = (out / f"nu_{v!r}" / "manifest.txt").read_text()
            assert f"nu = {v!r}\n" in manifest


class TestSweepAlpha:
    def test_single_shell_closed_forms(self):
        # steady for every alpha: u-distance vanishes; the literal q-distance
        # is the representation gap alpha^2 k^2 ||omega0||
        cfg = _sweep_cfg(alpha=0.25)
        alphas = (0.5, 0.25)
        res = sweep_alpha(cfg, alphas)
        w_norm = np.sqrt(2.0 * np.pi**2)
        for a, dq, du in zip(alphas, res.distances_q, res.distances_u):
            assert abs(dq - a**2 * 4.0 * w_norm) <= 1e-9 * w_norm
            assert du <= 1e-11
        assert res.slope == pytest.approx(2.0, abs=1e-6)

    def test_alpha_zero_member_distance_exactly_zero(self):
        cfg = _sweep_cfg(ic="random_bandlimited", ic_band=3, alpha=0.25, t_final=0.1)
        res = sweep_alpha(cfg, (0.0,))
        assert res.distances_q[0] == 0.0

    def test_nonfinite_entry_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            sweep_alpha(_sweep_cfg(), (float("inf"), 0.1))

    def test_alpha_zero_member_shares_the_reference_directory(self, tmp_path):
        # an alpha = 0 member is the reference's own run, so one directory holds both
        cfg = _sweep_cfg(ic="random_bandlimited", ic_band=3, alpha=0.25, t_final=0.05,
                         out=str(tmp_path))
        res = sweep_alpha(cfg, (0.1, 0.0))
        assert res.distances_q[1] == 0.0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alpha_0", "alpha_0.1", "sweep_summary.csv"]

    def test_member_initial_state_checked_at_its_alpha(self):
        # omega0 is representable at alpha = 0.01, q0 = (1 + 100 k^2) omega0 is not
        cfg = _sweep_cfg(ic="random_bandlimited", ic_band=3, ic_energy=1e300, alpha=0.01)
        with pytest.raises(ConfigError, match=r"sweep member alpha=10 failed: ic_energy=1e\+300"):
            sweep_alpha(cfg, (10.0, 5.0), workers=2)

    def test_members_forced_inviscid(self):
        cfg = _sweep_cfg(ic="random_bandlimited", ic_band=3, alpha=0.25,
                         nu=0.05, t_final=0.2)
        res_viscous_cfg = sweep_alpha(cfg, (0.2, 0.1))
        res_inviscid_cfg = sweep_alpha(cfg.replace(nu=0.0), (0.2, 0.1))
        assert res_viscous_cfg.distances_q == res_inviscid_cfg.distances_q


class TestSplittingOrderStudy:
    def test_single_shell_lie_trotter_exact(self):
        # commuting sub-flows: splitting error collapses to roundoff
        cfg = _sweep_cfg(nu=0.02, t_final=0.5, alpha=0.5)
        res = splitting_order_study(cfg, (0.05, 0.025, 0.0125))
        assert max(res["lie_trotter"].distances_q) <= 1e-10
        assert max(res["strang"].distances_q) <= 1e-10

    def test_validation(self):
        cfg = _sweep_cfg(nu=0.02)
        with pytest.raises(ConfigError, match="dyadic"):
            splitting_order_study(cfg, (0.05, 0.03, 0.015))
        with pytest.raises(ConfigError, match="nu > 0"):
            splitting_order_study(_sweep_cfg(nu=0.0), (0.04, 0.02, 0.01))
        with pytest.raises(ConfigError, match="3 positive"):
            splitting_order_study(cfg, (0.04, 0.02))
        with pytest.raises(ConfigError, match="finite"):
            splitting_order_study(cfg, (float("nan"), 0.01, 0.005))

    def test_pool_takes_the_reference_first(self, inline_pool):
        # most steps first: the rk4 reference, then the members by falling
        # t_final / dt, the three schemes at one dt in their list order
        cfg = _sweep_cfg(n=16, ic="random_bandlimited", ic_band=3, alpha=0.25, nu=0.05,
                         t_final=0.1)
        dts = (0.02, 0.01, 0.005)
        pooled = splitting_order_study(cfg, dts, workers=2)
        assert pooled == splitting_order_study(cfg, dts, workers=1)
        members = [(s, dt) for dt in reversed(dts) for s in ("lie_trotter", "strang", "rk4")]
        assert [(c.scheme, c.dt) for c in inline_pool.submitted] == [("rk4", 0.005 / 16), *members]

    def test_reference_step_count_checked_before_any_member(self, tmp_path):
        # the members take 2.5e7 steps or fewer, the reference at min(dt)/16 4e8
        cfg = _sweep_cfg(nu=0.05, t_final=100.0, out=str(tmp_path / "o"))
        with pytest.raises(ConfigError, match="sweep member reference failed: t_final / dt = "
                                              "4e\\+08 steps exceeds"):
            splitting_order_study(cfg, (1.6e-5, 8e-6, 4e-6))
        assert not (tmp_path / "o").exists()


class TestSweepInitialCondition:
    @pytest.mark.parametrize("sweep, values", [
        (sweep_nu, (1e-3, 5e-4)),
        (sweep_alpha, (0.2, 0.1)),
        (splitting_order_study, (0.02, 0.01, 0.005)),
    ], ids=["nu", "alpha", "splitting"])
    def test_omega0_drawn_once(self, sweep, values, omega_energy_calls, monkeypatch):
        draws = []
        draw = experiments.make_omega0
        monkeypatch.setattr(experiments, "make_omega0",
                            lambda *args: draws.append(args) or draw(*args))
        cfg = _sweep_cfg(n=16, ic="random_bandlimited", ic_band=3, alpha=0.25, nu=0.05,
                         t_final=0.02)
        sweep(cfg, values)
        assert len(draws) == 1
        assert len(omega_energy_calls) == 1


def _fine_member_fails(cfg, omega_bytes):
    """
    Stands in for a splitting-study member: Lie-Trotter at dt = 0.00625, the first
    member a pool takes after the reference, fails at once; any other makes its directory.
    """
    from euleralpha.integrators import CflViolation

    if (cfg.scheme, cfg.dt) == ("lie_trotter", 0.00625):
        raise CflViolation(1.0, 0.5, 0.0)
    time.sleep(0.3)
    Path(cfg.out).mkdir(parents=True)


def _first_member_fails(cfg, omega_bytes):
    """Stands in for a sweep member: nu = 1e-3 fails at once, any other makes its directory."""
    from euleralpha.integrators import CflViolation

    if cfg.nu == 1e-3:
        raise CflViolation(1.0, 0.5, 0.0)
    time.sleep(0.3)
    Path(cfg.out).mkdir(parents=True)


class TestSweepFailurePropagation:
    def test_pooled_failure_cancels_members_not_started(self, tmp_path, monkeypatch):
        # the pool forks after the patch; members already handed to a worker
        # finish, the rest of the ten never start
        from euleralpha.integrators import CflViolation

        monkeypatch.setattr(experiments, "_terminal_q", _first_member_fails)
        nu_list = tuple(1e-4 * (10 - i) for i in range(9))
        with pytest.raises(CflViolation, match=r"sweep member nu=0\.001 failed"):
            sweep_nu(_sweep_cfg(out=str(tmp_path)), nu_list, workers=2)
        started = [p.name for p in tmp_path.iterdir()]
        assert "nu_0" not in started and len(started) < len(nu_list) - 1


    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_short_member_raises_its_own_label(self, workers):
        # max|u| = 20: the three members at dt = 0.008, which a pool takes last,
        # violate the CFL limit at their first step (0.81 > 0.5), the rest do not
        from euleralpha.integrators import CflViolation

        cfg = _sweep_cfg(nu=0.02, ic_amplitude=40.0, t_final=0.04)
        with pytest.raises(CflViolation, match=r"sweep member lie_trotter dt=0\.008 failed: CFL"):
            splitting_order_study(cfg, (0.008, 0.004, 0.002), workers=workers)

    def test_pooled_failure_under_longest_first(self, tmp_path, monkeypatch):
        # the reference was taken first and runs to its end; members not yet
        # handed to a worker are cancelled and make no directory
        from euleralpha.integrators import CflViolation

        monkeypatch.setattr(experiments, "_terminal_q", _fine_member_fails)
        dts = (0.05, 0.025, 0.0125, 0.00625)
        with pytest.raises(CflViolation, match=r"sweep member lie_trotter dt=0\.00625 failed"):
            splitting_order_study(_sweep_cfg(nu=0.02, out=str(tmp_path)), dts, workers=2)
        started = [p.name for p in tmp_path.iterdir()]
        assert "split_reference" in started and len(started) < 3 * len(dts)

    def test_failing_member_aborts_with_its_value(self):
        # amplitude 100 at dt=0.1 violates the CFL limit immediately
        from euleralpha.integrators import CflViolation

        cfg = _sweep_cfg(ic_amplitude=100.0, dt=0.1, t_final=0.5)
        with pytest.raises(CflViolation, match=r"sweep member nu=0\.001"):
            sweep_nu(cfg, (1e-3,))

    def test_pooled_cfl_violation_stays_a_numerics_failure(self):
        # the exception is pickled back from the worker with its fields
        from euleralpha.integrators import CflViolation

        cfg = _sweep_cfg(ic_amplitude=100.0, dt=0.1, t_final=0.5)
        with pytest.raises(CflViolation, match=r"sweep member nu=0\.001 failed: CFL") as caught:
            sweep_nu(cfg, (1e-3, 5e-4), workers=2)
        assert (caught.value.limit, caught.value.t) == (0.5, 0.0)

    def test_energy_cross_check_failure_names_member(self, tmp_path, monkeypatch):
        from euleralpha import experiments

        def disagree(state, dt=None):
            raise FloatingPointError("energy quadratures disagree")

        monkeypatch.setattr(experiments, "compute_diagnostics", disagree)
        cfg = _sweep_cfg(t_final=0.05, out=str(tmp_path))
        with pytest.raises(FloatingPointError, match=r"sweep member nu=0\.001 failed"):
            sweep_nu(cfg, (1e-3,), workers=1)

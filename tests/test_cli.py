"""
End-to-end tests of the CLI: subcommands, flag/file precedence, and the
documented exit-status contract (0 ok, 1 config, 2 numerics, 3 i/o or
system).
"""

import os
import warnings

import numpy as np
import pytest

from euleralpha import experiments
from euleralpha.cli import main
from euleralpha.output import read_diagnostics, read_snapshot


def run_args(tmp_path, **kw):
    args = {
        "n": "32", "alpha": "0.5", "nu": "0.01", "dt": "0.01", "t_final": "0.05",
        "ic": "single_mode", "ic_kx": "2", "ic_ky": "0", "seed": "1",
        "out": str(tmp_path / "out"), "save_every": "5", "diag_every": "1",
    }
    args.update(kw)
    flat = ["run"]
    for key, value in args.items():
        flat += [f"--{key.replace('_', '-')}", value]
    return flat


def lone_config_error(argv, tmp_path, monkeypatch, capsys) -> str:
    """Run ``main(argv)`` in an empty ``tmp_path``: exit 1 with one line, no warning, no file."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not caught
    assert not list(tmp_path.iterdir())
    return err


def _worker_dies(cfg, omega_hat):
    """Stands in for a sweep member whose worker process is killed."""
    os._exit(1)


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        assert "run complete" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n = 32\nalpha = 0.5\nnu = 0.0\ndt = 0.01\nt_final = 0.05\n"
            "ic = single_mode\nic_kx = 2\n"
        )
        out = tmp_path / "from_file"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--t-final", "0.02"])
        assert code == 0
        snap = read_snapshot(out / "snap_00000002.eaf")
        assert snap.time == pytest.approx(0.02)
        assert snap.alpha == 0.5

    def test_config_error_exit_1(self, tmp_path, capsys):
        assert main(run_args(tmp_path, scheme="leapfrog")) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_out_is_config_error(self, capsys):
        code = main(["run", "--n", "32", "--ic", "single_mode", "--t-final", "0.01"])
        assert code == 1

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_out_is_config_error(self, spelling, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["run", "--n", "16", "--ic", "single_mode", "--t-final", "0.01"]
        if spelling == "flag":
            args += ["--out", ""]
        else:
            (tmp_path / "exp.cfg").write_text("out =\n")
            args += ["--config", "exp.cfg"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if spelling == "flag" else ["exp.cfg"]
        )

    @pytest.mark.parametrize("content, message", [
        ("n = 16\nout = r\xe9sultats\n".encode("latin-1"), "config file exp.cfg is not UTF-8"),
        (b"n = 16\nout = a\0b\n", "out must not contain a NUL character"),
    ], ids=["not_utf8", "nul_in_out"])
    def test_bad_config_bytes_are_config_errors(self, content, message, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(content)
        args = ["run", "--config", "exp.cfg", "--ic", "single_mode", "--t-final", "0.01"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_cfl_violation_exit_2(self, tmp_path, capsys):
        # amplitude 100 -> max|u| = 50, dt = 0.1 -> CFL ~ 25 >> 0.5
        code = main(run_args(tmp_path, ic_amplitude="100", dt="0.1", t_final="1.0"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--ic-energy", "1e308"],
        ["--ic", "taylor_green", "--ic-amplitude", "1e153"],
        ["--ic", "taylor_green", "--ic-amplitude", "1e300"],
        ["--alpha", "1", "--ic-energy", "2e303"],
        ["--n", "32", "--alpha", "8.3e107", "--ic-energy", "1e-200"],
    ], ids=["energy", "amplitude_1e153", "amplitude_1e300", "casimir_sum", "underflow"])
    def test_unrepresentable_initial_condition_is_config_error(self, flags, tmp_path,
                                                               monkeypatch, capsys):
        # finite inputs whose sum |q0|^2 overflows (at alpha = 1 the energy
        # sum of 2e303 is still finite), or whose rescale to ic_energy
        # underflows to the zero field
        err = lone_config_error(
            ["run", "--n", "16", "--t-final", "0.01", "--out", "o", *flags],
            tmp_path, monkeypatch, capsys)
        assert err.startswith("configuration error: ic_")

    def test_size_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # rejected by validation, before a grid of n^2 values is allocated
        monkeypatch.setattr(experiments, "TorusGrid", None)
        err = lone_config_error(["run", "--n", "1000000000", "--out", "o"],
                                tmp_path, monkeypatch, capsys)
        assert "size cap" in err

    def test_step_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        # 1e303 steps: rejected by validation, before any grid, step or file
        monkeypatch.setattr(experiments, "TorusGrid", None)
        err = lone_config_error(["run", "--n", "16", "--t-final", "1e300", "--dt", "1e-3",
                                 "--out", "o"], tmp_path, monkeypatch, capsys)
        assert err == ("configuration error: t_final / dt = 1e+303 steps exceeds the cap "
                       "of 1e+08 steps\n")

    def test_initial_row_near_overflow_is_finite(self, tmp_path, monkeypatch, capsys):
        # sum |q0|^2 is 4.5e307: the diagnostics scale each term before they sum
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--n", "16", "--ic-energy", "1e303", "--t-final", "0.001",
                         "--out", "o"])
        assert code == 2 and not caught
        assert capsys.readouterr().err.startswith("numerical failure: CFL number")
        cols = read_diagnostics(tmp_path / "o" / "diagnostics.csv")
        assert list(cols["t"]) == [0.0]
        assert all(np.isfinite(cols[name]).all() for name in cols)
        assert cols["casimir2"][0] == pytest.approx(2.72e304, rel=1e-2)

    def test_huge_cfl_number_is_one_short_line(self, tmp_path, capsys):
        code = main(["run", "--n", "8", "--ic", "taylor_green", "--ic-amplitude", "1e150",
                     "--t-final", "0.01", "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 100
        assert lines[0].startswith("numerical failure: CFL number 1.273e+147 exceeds limit 0.5")

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(run_args(tmp_path, out=str(blocker / "sub")))
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_nu_prints_slope(self, tmp_path, capsys):
        code = main([
            "sweep-nu", "--n", "32", "--alpha", "0.5", "--dt", "0.01",
            "--t-final", "0.5", "--ic", "single_mode", "--ic-kx", "2",
            "--nu-list", "1e-3,5e-4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted log-log slope" in out

    def test_sweep_table_prints_distinct_values_distinctly(self, capsys):
        # both values read 0.123457 at 6 significant digits
        code = main(["sweep-nu", "--n", "16", "--ic-band", "2", "--dt", "0.01",
                     "--t-final", "0.05", "--nu-list", "0.1234568,0.1234567"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["0.1234568", "0.1234567"]

    @pytest.mark.parametrize("command, key", [
        ("sweep-nu", "nu_list"),
        ("sweep-alpha", "alpha_list"),
        ("splitting-order", "dt_list"),
    ])
    def test_sweep_requires_list(self, command, key, capsys):
        assert main([command, "--n", "32"]) == 1
        err = capsys.readouterr().err
        assert f"{command} needs {key} (config key {key} or --{key.replace('_', '-')})" in err

    def test_splitting_order_reports_schemes(self, capsys):
        code = main([
            "splitting-order", "--n", "32", "--alpha", "0.5", "--nu", "0.02",
            "--t-final", "0.25", "--ic", "single_mode", "--ic-kx", "2",
            "--dt-list", "0.025,0.0125,0.00625",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[lie_trotter]" in out and "[strang]" in out and "[rk4]" in out

    @pytest.mark.parametrize("command, flag, values", [
        ("sweep-nu", "--nu-list", "nan,1e-3"),
        ("sweep-alpha", "--alpha-list", "inf,0.1"),
        ("splitting-order", "--dt-list", "nan,0.01,0.005"),
        ("sweep-nu", "--nu-list", "0.1,,0.05"),
    ])
    def test_nonfinite_list_entry_is_config_error(self, command, flag, values, capsys):
        code = main([command, "--n", "16", "--nu", "0.01", "--t-final", "0.01", flag, values])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--alpha", "1e155", "--out", "X"]),
        ("sweep-alpha", ["--alpha-list", "1e155,1"]),
    ], ids=["run", "sweep-alpha"])
    def test_overflowing_alpha_is_config_error(self, command, flags, tmp_path, monkeypatch,
                                               capsys):
        # 1e155**2 overflows a float: the Helmholtz operator would raise OverflowError
        monkeypatch.chdir(tmp_path)
        assert main([command, "--n", "16", "--t-final", "0.01", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: alpha=1e+155") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_alpha_overflowing_rhs_factor_is_config_error(self, tmp_path, monkeypatch, capsys):
        # alpha^2 n^2 is finite, (1 + alpha^2 k^2) k^2 at k^2 = n^2 / 2 is not
        err = lone_config_error(["run", "--n", "32", "--alpha", "4e152", "--t-final", "0.01",
                                 "--out", "o"], tmp_path, monkeypatch, capsys)
        assert err.startswith("configuration error: alpha=4e+152 is too large for n=32")

    def test_member_initial_state_overflow_is_config_error(self, tmp_path, monkeypatch, capsys):
        # omega0 is checked at alpha = 0.01, each member's q0 at its own
        # alpha, all before the first member starts: no member directory
        for workers in ("1", "2"):
            err = lone_config_error(["sweep-alpha", "--n", "16", "--alpha", "0.01", "--ic-energy",
                                     "1e300", "--t-final", "0.01", "--dt", "1e-3", "--alpha-list",
                                     "10,5", "--out", "o", "--workers", workers],
                                    tmp_path, monkeypatch, capsys)
            assert err.startswith("configuration error: sweep member alpha=10 failed: ic_energy=")

    def test_dead_worker_is_one_line_exit_3(self, monkeypatch, capsys):
        # the pool forks after the patch, so both workers run _worker_dies
        monkeypatch.setattr(experiments, "_terminal_q", _worker_dies)
        code = main([
            "splitting-order", "--n", "16", "--nu", "0.02", "--t-final", "0.05",
            "--dt-list", "0.025,0.0125,0.00625", "--workers", "2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("system error: sweep member ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestNumericalBreakdown:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "16", "--t-final", "0.02", "--dt", "0.01", "--nu", "1e308",
          "--out", "o"],
         "numerical failure: non-finite state at t=0.01"),
        (["splitting-order", "--n", "16", "--t-final", "0.05", "--nu", "1e300",
          "--dt-list", "0.02,0.01,0.005"],
         "numerical failure: sweep member rk4 dt="),
    ], ids=["run", "splitting-order"])
    def test_overflowing_step_is_one_line(self, argv, message, workers, tmp_path, monkeypatch,
                                          capsys):
        # the state overflows inside a step; only the non-finite check reports it. A
        # warning raises, in this process and in a forked pool worker, so none was issued
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_failing_check_exit_2(self, capsys, monkeypatch):
        from euleralpha import checks

        name, _, bounds = checks.CHECKS[0]
        failing = (name, lambda: (1.0, 0.0), bounds)
        monkeypatch.setattr(checks, "CHECKS", (failing, *checks.CHECKS[1:]))
        assert main(["check"]) == 2
        out = capsys.readouterr().out
        assert f"FAIL  {name}: roundtrip=1.00e+00 (<1e-12)" in out
        assert out.count("FAIL") == 1
        assert "1 check(s) failed" in out
        assert "all checks passed" not in out

"""
Checks of the benchmark's tracing: every boundary a workload should
exercise records calls, and the exact counts repeat across traced runs.

    python3 -m pytest -q perfbench/test_perfbench.py    (about a minute)
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

# boundaries (bindings as their callers use them) each workload must cross
EXPECTED = {
    "run_n512": (
        "fft.fft2", "fft.ifft2", "experiments.run", "experiments.advance",
        "integrators.STEPPERS[rk4]", "integrators.rhs_vorticity", "integrators.max_speed",
        "experiments.compute_diagnostics", "experiments.write_snapshot",
        "experiments.write_manifest", "output.DiagnosticsLog.write",
        "spectral.TorusGrid.__post_init__", "dynamics.dealias", "dynamics.stream_from_omega",
    ),
    "flowmap_m128": (
        "fft.fft2", "fft.ifft2", "particles.integrate_with_particles", "particles.step_rk4",
        "particles.eval_velocity_at", "particles.jacobian_determinant",
        "particles.advect_particles", "integrators.rhs_vorticity",
    ),
    "sweep_split_n32": (
        "fft.fft2", "fft.ifft2", "experiments.splitting_order_study", "experiments._terminal_q",
        "experiments.make_omega0", "experiments.run", "integrators.STEPPERS[lie_trotter]",
        "integrators.STEPPERS[strang]", "integrators.STEPPERS[rk4]",
        "integrators.diffusion_semigroup", "integrators.step_rk4",
        "experiments.write_snapshot", "experiments._write_sweep_summary",
        "spectral.TorusGrid.__post_init__",
    ),
}

# counts that must repeat exactly between traced runs
EXACT = ("fft.calls", "fft.calls_per_step", "fft.bytes_per_step", "spectral.grid_builds",
         "dynamics.rhs_calls", "dynamics.max_speed_calls", "dynamics.diagnostics_calls",
         "integrators.steps", "particles.eval_calls", "particles.points_evaluated",
         "experiments.members", "output.snapshot_writes", "output.snapshot_bytes",
         "output.files_written")


@pytest.fixture(scope="module")
def ea():
    modules, _ = bench.import_solver()
    return modules


def _traced(wl, tmp_path, tag):
    spool = tmp_path / f"spool-{tag}"
    spool.mkdir()
    tracer = Tracer(spool)
    body_s, checks = bench.repetition(wl, tmp_path / f"out-{tag}", tracer)
    assert all(ok for ok, _ in bench._gated(checks).values()), checks
    assert not list(spool.iterdir()), "worker tables left unmerged"
    return tracer, bench.layer_metrics(tracer, body_s, wl)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_boundaries_recorded_and_counts_repeat(ea, tmp_path, workload):
    wl = bench.WORKLOAD_CLASSES[workload](ea, bench.DEFAULT_SEED)
    wl.build()
    first, metrics_a = _traced(wl, tmp_path, "a")
    second, metrics_b = _traced(wl, tmp_path, "b")

    for binding in EXPECTED[workload]:
        assert first.binding(binding).count > 0, binding
    assert first.counts() == second.counts()
    for name in EXACT:
        assert metrics_a[name] == metrics_b[name], name

    steps = metrics_a["integrators.steps"][0]
    assert steps == wl.eulerian_steps() * (2 if workload == "flowmap_m128" else 1)
    assert metrics_a["dynamics.rhs_calls"][0] == 4 * steps
    assert metrics_a["fft.calls_per_step"][0] == 22
    if workload == "sweep_split_n32":
        assert metrics_a["experiments.members"][0] == len(wl.member_labels())


def test_uninstall_restores_every_binding(ea, tmp_path):
    import numpy.fft

    steppers = sys.modules["euleralpha.integrators"].STEPPERS

    def bindings():
        return (ea.experiments.run, dict(steppers), numpy.fft.fft2,
                ea.spectral.TorusGrid.__post_init__)

    before = bindings()
    tracer = Tracer(tmp_path)
    tracer.install()
    assert ea.experiments.run is not before[0]
    assert steppers["rk4"] is not before[1]["rk4"]
    assert numpy.fft.fft2 is not before[2]
    tracer.uninstall()
    assert bindings() == before

"""
End-to-end and per-layer benchmark of the euleralpha solver.

    python3 perfbench/run.py --workload run_n512 --seed 2025 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run it from the root of a source checkout: the solver is imported from
``src/`` of that checkout and nowhere else, so the benchmark fails (exit
status 2, no result) where there is no source tree.

Workloads (one per run, each in a fresh process; see README.md):

* ``run_n512``: ``experiments.run`` at n=512, 20 rk4 steps, a diagnostics
  row and a 2 MiB snapshot every 10 steps;
* ``flowmap_m128``: ``particles.integrate_with_particles`` on an n=64 flow
  with an m=64 and then an m=128 marker lattice, then
  ``jacobian_determinant`` of each;
* ``sweep_split_n32``: ``experiments.splitting_order_study`` at n=32 with
  an output directory and a pool of 2 workers.

The body of a workload is repeated for ``--seconds`` seconds and every
repetition passes a physics gate.  With ``--trace 0`` the last line holds
the end-to-end metrics (medians over repetitions); with ``--trace 1``
repetitions alternate untraced and traced, and the last line holds the
per-layer metrics of the traced ones.  Lines before the last are comments
(``#``) for people: sample counts, gate values and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("run_n512", "flowmap_m128", "sweep_split_n32")
DEFAULT_SEED = 2025  # the acceptance suite's seed
IMPORT_SAMPLES = 5   # import timings per run: this process plus fresh interpreters
BUILD_SAMPLES = 5    # grid and initial-condition builds per run
MIN_REPS = 3
WORK_DIR = ".perfbench_work"  # scratch outputs inside the checkout, removed at exit

# the import as a user pays it, timed in a fresh interpreter
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import euleralpha; print(time.perf_counter() - t)"
)

ACCEPTANCE_FLOW = dict(alpha=0.25, nu=0.0, ic="random_bandlimited", ic_band=4, ic_energy=1.0)


def _comment(text: str) -> None:
    print(f"# {text}", flush=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


# ---------------------------------------------------------------------------
# workloads: each builds its inputs from the seed and returns the body, the
# physics gate and what one body does


class RunN512:
    """Spectral and dynamics layers at a large grid, with large output files."""

    n, steps, every = 512, 20, 10
    kmax = 0  # no off-grid evaluation

    def __init__(self, ea, seed: int):
        self.ea = ea
        self.cfg = ea.experiments.RunConfig(
            n=self.n, dt=1e-3, t_final=self.steps * 1e-3, scheme="rk4", seed=seed,
            save_every=self.every, diag_every=self.every, **ACCEPTANCE_FLOW,
        )
        self.omega_hat = None

    def build(self):
        grid = self.ea.spectral.TorusGrid(self.n)
        self.omega_hat = self.ea.experiments.make_omega0(self.cfg, grid)

    def describe(self):
        return (f"experiments.run n={self.n} alpha=0.25 nu=0 rk4 dt=1e-3, {self.steps} steps, "
                f"diagnostics and snapshot every {self.every} steps")

    def body(self, out: Path):
        return self.ea.experiments.run(self.cfg.replace(out=str(out)), omega_hat=self.omega_hat)

    def eulerian_steps(self) -> int:
        return self.steps

    def gate(self, out: Path, final) -> dict:
        ea = self.ea
        np = ea.np
        cols = ea.output.read_diagnostics(out / "diagnostics.csv")
        expected = list(range(0, self.steps + 1, self.every))
        energy = float(np.abs(cols["energy_rel_drift"]).max())
        casimir = float(np.abs(cols["casimir2_rel_drift"]).max())
        snaps_ok = sorted(p.name for p in out.glob("snap_*.eaf")) == [
            ea.output.snapshot_name(s) for s in expected]
        for step in expected:
            snap = ea.output.read_snapshot(out / ea.output.snapshot_name(step))
            snaps_ok = snaps_ok and snap.n == self.n and bool(np.all(np.isfinite(snap.omega)))
        omega_final = np.fft.ifft2(ea.dynamics.omega_from_q(final.grid, final.q_hat, final.alpha)).real
        last = ea.output.read_snapshot(out / ea.output.snapshot_name(self.steps))
        snaps_ok = snaps_ok and np.array_equal(last.omega, omega_final) and last.time == final.t
        return {
            "energy_drift<=1e-6": (energy <= 1e-6, energy),
            "casimir2_drift<=1e-5": (casimir <= 1e-5, casimir),
            "mean_q==0": (bool(np.all(cols["mean_q"] == 0.0)), float(np.abs(cols["mean_q"]).max())),
            "diagnostic_rows": (len(cols["t"]) == len(expected), len(cols["t"])),
            "snapshots_read_back": (snaps_ok, len(expected)),
        }


class FlowmapM128:
    """Particles layer: off-grid velocity evaluation on two marker lattices."""

    n, dt, t_final, lattices = 64, 1e-2, 0.1, (64, 128)
    edge = 1  # lattice rows/columns at each edge where np.gradient is one-sided

    def __init__(self, ea, seed: int):
        self.ea = ea
        self.cfg = ea.experiments.RunConfig(
            n=self.n, dt=self.dt, t_final=self.t_final, seed=seed, **ACCEPTANCE_FLOW)
        self.state = None
        self.maps = {}
        self.kmax = ea.spectral.TorusGrid(self.n).kmax_dealias

    def build(self):
        self.state = self.ea.experiments.make_initial_condition(self.cfg)
        self.maps = {m: self.ea.particles.ParticleMap.lattice(m) for m in self.lattices}

    def describe(self):
        return (f"particles.integrate_with_particles n={self.n} dt={self.dt} t={self.t_final}, "
                f"m={self.lattices[0]} then m={self.lattices[1]}, then jacobian_determinant")

    def body(self, out: Path):
        particles = self.ea.particles
        result = {}
        for m in self.lattices:
            _, pm = particles.integrate_with_particles(self.state, self.maps[m], self.t_final, dt=self.dt)
            result[m] = (pm, particles.jacobian_determinant(pm))
        return result

    def eulerian_steps(self) -> int:
        # coupled steps: each advances the field by two half steps
        return len(self.lattices) * round(self.t_final / self.dt)

    def gate(self, out: Path, result) -> dict:
        np = self.ea.np
        (m0, (pm0, jac0)), (m1, (pm1, jac1)) = sorted(result.items())
        finite = all(bool(np.all(np.isfinite(pm.positions))) for pm in (pm0, pm1))
        e = self.edge
        # second-order convergence of the central stencil: RMS of |det-1|
        # over the lattice interior.  The maximum over the whole lattice sits
        # on the one-sided edge stencil (the known criterion-7 defect); its
        # refinement ratio leaves [3.4, 4.6] for some seeds, so it and the
        # m=128 max|det-1| are reported, not gated.
        interior = [float(np.sqrt(np.mean((j.det[e:-e, e:-e] - 1.0) ** 2))) for j in (jac0, jac1)]
        full = [j.max_deviation() for j in (jac0, jac1)]
        ratio = interior[0] / interior[1]
        return {
            "markers_finite": (finite, m0 * m0 + m1 * m1),
            "interior_rms_refinement_ratio_in[3.4,4.6]": (3.4 <= ratio <= 4.6, ratio),
            f"report:max|det-1|_m{m1}": (True, full[1]),
            "report:max|det-1|_refinement_ratio": (True, full[0] / full[1]),
        }


class SweepSplitN32:
    """Experiments and integrators layers: many small runs under a process pool."""

    n, workers = 32, 2
    kmax = 0  # no off-grid evaluation
    dt_list = (0.02, 0.01, 0.005, 0.0025)

    def __init__(self, ea, seed: int):
        self.ea = ea
        self.cfg = ea.experiments.RunConfig(
            n=self.n, alpha=0.25, nu=0.05, dt=1.0, t_final=0.5, ic="random_bandlimited",
            ic_band=4, ic_energy=1.0, seed=seed)

    def build(self):
        # the study builds its own grid and initial condition from the config
        self.cfg.validate()

    def describe(self):
        return (f"experiments.splitting_order_study n={self.n} nu=0.05 t=0.5 "
                f"dt_list={','.join(map(str, self.dt_list))} workers={self.workers}")

    def body(self, out: Path):
        return self.ea.experiments.splitting_order_study(
            self.cfg.replace(out=str(out)), self.dt_list, workers=self.workers)

    def member_labels(self):
        labels = [f"split_{s}_dt_{dt:g}" for s in ("lie_trotter", "strang", "rk4") for dt in self.dt_list]
        return labels + ["split_reference"]

    def eulerian_steps(self) -> int:
        per_scheme = sum(round(self.cfg.t_final / dt) for dt in self.dt_list)
        return 3 * per_scheme + round(self.cfg.t_final / (min(self.dt_list) / 16))

    def gate(self, out: Path, result) -> dict:
        lt, st, rk = (result[s].slope for s in ("lie_trotter", "strang", "rk4"))
        member_csvs = sum((out / label / "diagnostics.csv").is_file() for label in self.member_labels())
        summaries = sum((out / f"sweep_summary_{s}.csv").is_file() for s in result)
        return {
            "lie_trotter_order_in[0.8,1.2]": (0.8 <= lt <= 1.2, lt),
            "strang_order_in[1.8,2.2]": (1.8 <= st <= 2.2, st),
            "rk4_order>=3.8": (rk >= 3.8, rk),
            "member_csvs": (member_csvs == len(self.member_labels()), member_csvs),
            "summary_csvs": (summaries == 3, summaries),
        }


WORKLOAD_CLASSES = {"run_n512": RunN512, "flowmap_m128": FlowmapM128, "sweep_split_n32": SweepSplitN32}


# ---------------------------------------------------------------------------
# set-up, environment


class Modules:
    """The solver's modules, imported from this checkout's src/."""

    def __init__(self):
        import numpy
        import euleralpha
        from euleralpha import dynamics, experiments, output, particles, spectral

        self.np = numpy
        self.package = euleralpha
        self.dynamics, self.experiments, self.output = dynamics, experiments, output
        self.particles, self.spectral = particles, spectral


def import_solver() -> tuple[Modules, float]:
    if not (SRC / "euleralpha" / "__init__.py").is_file():
        print(f"perfbench: no solver source at {SRC.relative_to(ROOT)}/euleralpha", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    ea = Modules()
    elapsed = time.perf_counter() - started
    if Path(ea.package.__file__).resolve().parent != SRC / "euleralpha":
        print(f"perfbench: euleralpha imported from {ea.package.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return ea, elapsed


def import_samples(first: float) -> list[float]:
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(np) -> dict:
    model = "unknown"
    for line in _read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read_text(index / "size")
    blas_env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ}
    head = _read_text(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        head = _read_text(str(ROOT / ".git" / head[5:]))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_env or "library default (no thread variable set)",
        "git_revision": head if head != "unknown" else "unknown (not a git checkout)",
        "note": ("working set about 124 MB peak at n=512, below the L3 size; "
                 "fft bytes are computed from array sizes and no bandwidth is claimed"),
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition


def layer_metrics(tracer, body_s: float, wl) -> dict:
    by = tracer.by_origin
    steps = len(tracer.steps)
    fft = by("fft")
    rhs = by("dynamics.rhs_vorticity")
    evals = by("particles.eval_velocity_at")
    members = by("experiments._terminal_q")
    sweep = by("experiments.splitting_order_study", "experiments.sweep_nu", "experiments.sweep_alpha")
    snaps = by("output.write_snapshot")
    csvs = by("output.DiagnosticsLog", "experiments._write_sweep_summary")
    euler = tracer.binding("particles.step_rk4")
    modes = (2 * wl.kmax + 1) ** 2
    workers = getattr(wl, "workers", 1)
    return {
        "fft.calls": (fft.count, "count"),
        "fft.calls_per_step": (tracer.fft_step_calls / steps if steps else 0.0, "count"),
        "fft.bytes_per_step": (tracer.fft_step_bytes / steps if steps else 0.0, "B"),
        "fft.self_s": (fft.own, "s"),
        "fft.share": (fft.own / body_s, "frac"),
        "spectral.grid_builds": (by("spectral.TorusGrid").count, "count"),
        "spectral.grid_build_s": (by("spectral.TorusGrid").incl, "s"),
        "spectral.multiplier_s": (by("spectral.dealias", "spectral.stream_from_omega",
                                     "spectral.helmholtz", "spectral.inverse_helmholtz").own, "s"),
        "dynamics.rhs_calls": (rhs.count, "count"),
        "dynamics.rhs_ms_p50": (_median(rhs.durations) * 1e3, "ms"),
        "dynamics.rhs_self_s": (rhs.own, "s"),
        "dynamics.max_speed_calls": (by("dynamics.max_speed").count, "count"),
        "dynamics.max_speed_s": (by("dynamics.max_speed").incl, "s"),
        "dynamics.diagnostics_calls": (by("dynamics.compute_diagnostics").count, "count"),
        "dynamics.diagnostics_s": (by("dynamics.compute_diagnostics").incl, "s"),
        "integrators.steps": (steps, "count"),
        "integrators.step_ms_p50": (_median(tracer.steps) * 1e3, "ms"),
        "integrators.step_ms_p90": (_quantile(tracer.steps, 0.9) * 1e3, "ms"),
        "integrators.self_s": (by("integrators").own, "s"),
        "integrators.diffusion_s": (by("integrators.diffusion_semigroup").incl, "s"),
        "particles.eval_calls": (evals.count, "count"),
        "particles.points_evaluated": (evals.work // modes if evals.count else 0, "count"),
        "particles.eval_s": (evals.incl, "s"),
        "particles.eval_ns_per_point_mode": (evals.incl * 1e9 / evals.work if evals.work else 0.0, "ns"),
        "particles.euler_s": (euler.incl, "s"),
        "particles.jacobian_s": (by("particles.jacobian_determinant").incl, "s"),
        "experiments.members": (members.count, "count"),
        "experiments.member_s_p50": (_median(members.durations), "s"),
        "experiments.member_s_max": (max(members.durations, default=0.0), "s"),
        # the initial-condition builders, without double counting the nested calls
        "experiments.ic_s": (by("experiments.make_omega0").incl
                             + tracer.binding("experiments.state_from_omega").incl, "s"),
        "experiments.pool_idle_frac": (1.0 - members.incl / (workers * sweep.incl) if sweep.incl else 0.0,
                                       "frac"),
        "output.snapshot_writes": (snaps.count, "count"),
        "output.snapshot_bytes": (snaps.work, "B"),
        "output.snapshot_s": (snaps.incl, "s"),
        "output.csv_s": (csvs.incl, "s"),
        "output.files_written": (snaps.count + csvs.count + by("output.write_manifest").count, "count"),
    }


# ---------------------------------------------------------------------------
# measurement


def repetition(wl, out: Path, tracer=None):
    """
    Run the body once into ``out`` (traced when a tracer is given) and gate it.

    Returns the body's wall time and the gate's ``{check: (passed, value)}``;
    a body or gate that raises fails the repetition.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    started = time.perf_counter()
    stage = "body"
    try:
        try:
            result = wl.body(out)
        finally:
            body_s = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
                tracer.collect_spool()
        stage = "gate"
        return body_s, wl.gate(out, result)
    except Exception as exc:  # a raised run or member, or unreadable output
        return body_s, {f"{stage}_completed": (False, f"{type(exc).__name__}: {exc}")}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _enough(times, traced: bool) -> bool:
    """Minimum repetitions: MIN_REPS untraced, or 2 of each kind when tracing."""
    if traced:
        return min(len(times[False]), len(times[True])) >= 2
    return len(times[False]) >= MIN_REPS


def _gated(checks: dict) -> dict:
    return {k: v for k, v in checks.items() if not k.startswith("report:")}


def measure(wl, seconds: float, work: Path, tracer=None):
    """
    Repeat the body until ``seconds`` are used; with a tracer, alternate
    untraced and traced repetitions.  Returns body times by tracedness,
    the gate results and the per-layer metrics and call counts of each
    traced repetition.
    """
    times = {False: [], True: []}
    gates, layers, counts = [], [], []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(times[False]) > len(times[True])
        body_s, checks = repetition(wl, work / f"rep{len(gates)}", tracer if traced else None)
        times[traced].append(body_s)
        gates.append(checks)
        if traced:
            layers.append(layer_metrics(tracer, body_s, wl))
            counts.append(tracer.counts())
        elapsed = time.perf_counter() - started
        if (_enough(times, tracer is not None)
                and elapsed + _median(times[False] + times[True]) > seconds):
            return times, gates, layers, counts


def run_workload(args) -> int:
    ea, first_import = import_solver()
    wl = WORKLOAD_CLASSES[args.workload](ea, args.seed)
    builds = []
    for _ in range(BUILD_SAMPLES):
        started = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - started)

    work = ROOT / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        (work / "spool").mkdir()
        tracer = Tracer(work / "spool")
    _comment(f"workload {args.workload}: {wl.describe()}; seed {args.seed}")
    try:
        times, gates, layers, counts = measure(wl, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:  # another run still uses it
            pass

    rss = peak_rss_mib()
    imports = import_samples(first_import)
    setup_s = _median(imports) + _median(builds)
    untraced = times[False]
    ttS = _median(untraced)
    steps = wl.eulerian_steps()
    attempted = sum(len(_gated(g)) for g in gates)
    failed = sum(not ok for g in gates for ok, _ in _gated(g).values())

    names = list(dict.fromkeys(name for g in gates for name in g))
    for name in names:
        values = [g[name][1] for g in gates if name in g]
        oks = [g[name][0] for g in gates if name in g]
        _comment(f"gate {name}: {sum(oks)}/{len(oks)} passed; first {values[0]!r}, last {values[-1]!r}")
    _comment(f"time_to_solution_s: median {ttS:.4f} s of {len(untraced)} untraced repetitions "
             f"({', '.join(f'{t:.3f}' for t in untraced)}); {steps} Eulerian steps each")
    _comment(f"setup_s: median import {_median(imports):.4f} s of {len(imports)} "
             f"+ median build {_median(builds):.4f} s of {len(builds)}")
    _comment("env " + json.dumps(environment(ea.np), sort_keys=True))

    if tracer is None:
        metrics = {
            "time_to_solution_s": (ttS, "s"),
            "steps_per_s": (steps / ttS, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MiB"),
            "gates_passed_frac": (1.0 - failed / attempted, "frac"),
        }
    else:
        if any(c != counts[0] for c in counts):
            _comment("WARNING: call counts differ between traced repetitions")
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [rep[name][0] for rep in layers]
            # counts and computed bytes are exact; times are medians over repetitions
            metrics[name] = (values[0] if unit in ("count", "B") else _median(values), unit)
        traced_s = _median(times[True])
        metrics["trace.body_s"] = (traced_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - ttS) / ttS, "frac")
        _comment(f"trace: {len(times[True])} traced and {len(untraced)} untraced repetitions; "
                 "shares are of trace.body_s; times are summed over pool workers")
        _comment("trace counts " + json.dumps(counts[0], sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            _comment(f"{name:16s} {metric:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must be a 64-bit unsigned integer")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

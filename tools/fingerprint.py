"""
Byte-identity fingerprint of the solver's outputs.

    python3 tools/fingerprint.py src

Imports ``euleralpha`` from the given source root and, in a temporary
directory, runs:

* ``experiments.run`` for every scheme x nu in {0, 0.01} x three initial
  conditions (n=16 random band, n=32 Taylor-Green, n=16 single mode), with
  a shortened last step and diagnostics rows and snapshots off the step
  cadence;
* ``experiments.run`` at n=256, 3 rk4 and 3 strang steps with nu=0.01 and
  a diagnostics row and a snapshot every step: grids this large take the
  RHS and diagnostics grid pass in more than one block of rows;
* the three sweeps with and without an output directory, at 1 and 2
  workers;
* ``euleralpha check``, capturing its stdout;
* the criterion-7 flow (n=64, seed 2025) with an m=16 marker lattice to
  t=1, keeping the marker positions and the final q_hat.

It prints one SHA-256 over every file written (manifests without their
``wall_time_s`` and ``out`` lines, which name a time and a temporary
path), the check output, the sweep results and the marker run, followed by
the number of files. Run it on two source trees, for example the parent
of a change and the change itself: equal hashes mean every output stayed
byte-identical. In-memory arrays are hashed with each -0.0 read as +0.0,
the only difference a reordering of exact zero additions can make.

One more line per output category follows, with the SHA-256 of that
category's share of the same input, so that a change can show which
outputs' bytes moved: the diagnostics CSVs of runs and sweep members, the
snapshots, the manifests, the sweep results and summaries, the ``check``
output, and the marker positions with the final q_hat of every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

_MANIFEST_SKIP = ("wall_time_s =", "out =")
CATEGORIES = ("csv", "snapshots", "manifests", "sweeps", "check", "states")


def _file_category(path: Path) -> str:
    if path.name == "diagnostics.csv":
        return "csv"
    if path.suffix == ".eaf":
        return "snapshots"
    if path.name == "manifest.txt":
        return "manifests"
    return "sweeps"  # sweep_summary*.csv


def _array_bytes(a) -> bytes:
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is
    return (a + 0.0).tobytes()


def _file_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "manifest.txt":
        return data
    lines = data.decode("utf-8").splitlines(keepends=True)
    return "".join(l for l in lines if not l.startswith(_MANIFEST_SKIP)).encode("utf-8")


def fingerprint(src_root: Path) -> tuple[str, int, dict[str, str]]:
    sys.path.insert(0, str(src_root))
    import euleralpha as ea
    from euleralpha import cli, experiments, particles

    if Path(ea.__file__).resolve().parent != (src_root / "euleralpha").resolve():
        raise SystemExit(f"euleralpha imported from {ea.__file__}, not {src_root}")

    digest = hashlib.sha256()
    parts = {name: hashlib.sha256() for name in CATEGORIES}

    def feed(category: str, label: str, payload: bytes) -> None:
        chunk = label.encode("utf-8") + b"\0" + payload + b"\0"
        digest.update(chunk)
        parts[category].update(chunk)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base = experiments.RunConfig(alpha=0.25, dt=0.01, t_final=0.105, save_every=4, diag_every=3)
        ics = (dict(n=16, ic="random_bandlimited", ic_band=4, seed=7),
               dict(n=32, ic="taylor_green", ic_amplitude=0.5),
               dict(n=16, ic="single_mode", ic_kx=3, ic_ky=-2, ic_amplitude=0.7))
        for scheme in experiments.SCHEMES:
            for nu in (0.0, 0.01):
                for i, ic in enumerate(ics):
                    cfg = base.replace(scheme=scheme, nu=nu, **ic)
                    final = experiments.run(cfg.replace(out=str(root / f"run_{scheme}_{nu}_{i}")))
                    feed("states", f"run {scheme} {nu} {i}", _array_bytes(final.q_hat))
        for scheme in ("rk4", "strang"):
            cfg = experiments.RunConfig(n=256, alpha=0.25, nu=0.01, dt=5e-3, t_final=1.5e-2,
                                        scheme=scheme, seed=11, save_every=1, diag_every=1,
                                        out=str(root / f"run_n256_{scheme}"))
            feed("states", f"run n256 {scheme}", _array_bytes(experiments.run(cfg).q_hat))

        sweep = experiments.RunConfig(n=16, alpha=0.25, nu=0.05, dt=0.01, t_final=0.1, seed=3)
        studies = (
            ("nu", lambda c, w: experiments.sweep_nu(c, (0.02, 0.01, 0.005), workers=w)),
            ("alpha", lambda c, w: experiments.sweep_alpha(c, (0.2, 0.1, 0.05), workers=w)),
            ("split", lambda c, w: experiments.splitting_order_study(
                c, (0.02, 0.01, 0.005), workers=w)),
        )
        for name, study in studies:
            for workers in (1, 2):
                for with_out in (False, True):
                    out = str(root / f"sweep_{name}_{workers}") if with_out else None
                    result = study(sweep.replace(out=out), workers)
                    feed("sweeps", f"sweep {name} {workers} {with_out}", repr(result).encode("utf-8"))

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["check"])
        feed("check", f"check {status}", stdout.getvalue().encode("utf-8"))

        flow = experiments.RunConfig(n=64, alpha=0.25, nu=0.0, ic="random_bandlimited",
                                     ic_band=4, ic_energy=1.0, seed=2025)
        state, pm = particles.integrate_with_particles(
            experiments.make_initial_condition(flow), particles.ParticleMap.lattice(16),
            1.0, dt=1e-2)
        feed("states", "markers", _array_bytes(pm.positions) + _array_bytes(state.q_hat))

        files = sorted(p for p in root.rglob("*") if p.is_file())
        for path in files:
            feed(_file_category(path), str(path.relative_to(root)), _file_bytes(path))
    return digest.hexdigest(), len(files), {name: h.hexdigest() for name, h in parts.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/fingerprint.py <src-root>", file=sys.stderr)
        return 2
    digest, count, parts = fingerprint(Path(argv[1]).resolve())
    print(f"{digest} {count} files")
    for name, part in parts.items():
        print(f"{part} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

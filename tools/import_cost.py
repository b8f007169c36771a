"""
The cost of ``import euleralpha`` in fresh interpreters, after numpy.

    python3 tools/import_cost.py src [--samples 8]

Each sample starts a new interpreter that imports numpy, then times
``import euleralpha`` from the given source root and reads the growth of
its resident set (``VmRSS`` in ``/proc/self/status``, so Linux only).
Prints the median and range of the milliseconds and MiB over the samples,
and the top-level modules that the import added to ``sys.modules``.

numpy's own import is left out of both readings, so they show the
package's share of the start-up that every run, sweep and ``check`` pays,
which the benchmark's ``setup_s`` reads together with numpy's import and
the machine's noise. To compare two trees, run it on each and alternate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# one sample: [seconds, KiB of VmRSS growth, top-level modules added, euleralpha's file]
_PROBE = """
import json, sys, time
import numpy

def rss_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))

sys.path.insert(0, sys.argv[1])
before, kib = set(sys.modules), rss_kib()
started = time.perf_counter()
import euleralpha
elapsed = time.perf_counter() - started
added = sorted({m.split(".")[0] for m in set(sys.modules) - before})
print(json.dumps([elapsed, rss_kib() - kib, added, euleralpha.__file__]))
"""


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def sample(root: Path) -> tuple[float, float, list[str], str]:
    """One fresh interpreter's import: milliseconds, MiB, added modules, the package's file."""
    done = subprocess.run([sys.executable, "-c", _PROBE, str(root)], capture_output=True,
                          text=True)
    if done.returncode:
        raise RuntimeError(done.stderr.strip().splitlines()[-1])
    seconds, kib, added, file = json.loads(done.stdout)
    return 1e3 * seconds, kib / 1024, added, file


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="time and size of a fresh import euleralpha")
    parser.add_argument("root", type=Path, help="source root that holds the euleralpha package")
    parser.add_argument("--samples", type=_positive, default=8, help="fresh interpreters (8)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    try:
        samples = [sample(root) for _ in range(args.samples)]
    except RuntimeError as exc:
        print(f"import_cost: {exc}", file=sys.stderr)
        return 1
    files = {s[3] for s in samples}
    if files != {str(root / "euleralpha" / "__init__.py")}:
        print(f"import_cost: euleralpha imported from {sorted(files)}, not {root}",
              file=sys.stderr)
        return 1
    print(f"import euleralpha from {root}, after numpy, {len(samples)} fresh interpreters")
    for name, unit, values in (("time", "ms", [s[0] for s in samples]),
                               ("rss", "MiB", [s[1] for s in samples])):
        print(f"{name:<8}{statistics.median(values):8.2f} {unit}  "
              f"(min {min(values):.2f}, max {max(values):.2f})")
    print("modules " + " ".join(sorted({m for s in samples for m in s[2]})))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

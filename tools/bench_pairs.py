"""
Alternating parent/change pairs of the benchmark, written as ``BENCH_*.json``.

    python3 tools/bench_pairs.py <parent-rev> --out BENCH_<n>.json
    python3 tools/bench_pairs.py <parent-rev> --workload flowmap_m128 --seed 7 \\
        --out BENCH_<n>.json --section seed_7_flowmap_m128 --faults 8

Run it inside the git repository. The parent revision and ``HEAD`` are
extracted with ``git archive`` into a scratch directory, so that each side
runs from a plain directory of its committed files, as the benchmark's own
comparison does, and the repository itself is left as it was. Pair i runs
``perfbench/run.py`` once per side, the parent first in even pairs and the
change first in odd ones.

The result keeps the layout of the committed ``BENCH_*.json`` files: the
pair order, the machine and each side's ``# env`` line, the commits with
their ``src/`` tree hashes, the operations attempted and failed, and per
workload and end-to-end metric both sides' runs, medians and inclusive
quartiles, the ratio of the medians (change over parent) and the number of
pairs that the change won. With ``--faults N`` each side then runs N bodies
of every benchmarked workload in one process and records the wall time and
the minor page faults (``resource.getrusage``) of each; pool workers' faults
are not counted. With ``--section`` the result is stored under that key of
the ``--out`` file, whose other keys stay as they are.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUNNER = "perfbench/run.py"

# N bodies of one workload in one process, from the checkout it is started in:
# [body seconds, minor page faults] per body
_FAULT_PROBE = """
import json, resource, shutil, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, "perfbench")
import run
ea, _ = run.import_solver()
wl = run.WORKLOAD_CLASSES[sys.argv[1]](ea, int(sys.argv[2]))
wl.build()
work = Path(tempfile.mkdtemp(dir="."))
bodies = []
try:
    for i in range(int(sys.argv[3])):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.perf_counter()
        wl.body(work / f"rep{i}")
        bodies.append([time.perf_counter() - started,
                       resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before])
finally:
    shutil.rmtree(work, ignore_errors=True)
print(json.dumps(bodies))
"""


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(repo: Path, commit: str, dest: Path) -> None:
    """The committed files of ``commit``, written under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result line and its ``# env`` line."""
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(l[len("# env "):]) for l in lines if l.startswith("# env ")), None)
    return {"result": json.loads(lines[-1]), "env": env}


def _by_workload(result: dict, workload: str) -> dict:
    """``{workload: {metric: (value, unit)}}`` from one result line."""
    out: dict[str, dict] = {}
    for name, entry in result["metrics"].items():
        wl, metric = name.split(".", 1) if workload == "all" else (workload, name)
        out.setdefault(wl, {})[metric] = (entry["value"], entry["unit"])
    return out


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent_runs: list[dict], change_runs: list[dict], workload: str, better: dict) -> dict:
    """Per workload and metric: both sides' runs, the median ratio and the pairs won."""
    sides = [[_by_workload(r["result"], workload) for r in runs] for runs in (parent_runs, change_runs)]
    table = {}
    for wl, metrics in sides[0][0].items():
        table[wl] = {}
        for metric, (_, unit) in metrics.items():
            p, c = ([run[wl][metric][0] for run in side] for side in sides)
            entry = {"unit": unit, "better": better.get(metric), "parent": summary(p), "change": summary(c)}
            pm = entry["parent"]["median"]
            entry["change_over_parent"] = entry["change"]["median"] / pm if pm else None
            if entry["better"] in ("lower", "higher"):
                sign = 1 if entry["better"] == "lower" else -1
                entry["pairs_change_better"] = sum(sign * (b - a) < 0 for a, b in zip(p, c))
            table[wl][metric] = entry
    return table


def body_faults(checkout: Path, workload: str, seed: int, bodies: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, workload, str(seed), str(bodies)],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"fault probe of {workload} in {checkout} failed:\n{done.stderr}")
    per_body = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "body_s": [round(s, 6) for s, _ in per_body],
        "minor_faults": [f for _, f in per_body],
        "median_body_s": statistics.median(s for s, _ in per_body),
        "median_minor_faults": statistics.median(f for _, f in per_body),
    }


def bench(repo: Path, parent_rev: str, workload: str, pairs: int, seed: int, faults: int,
          scratch: Path) -> dict:
    commits = {"parent": _git(repo, "rev-parse", f"{parent_rev}^{{commit}}"),
               "change": _git(repo, "rev-parse", "HEAD")}
    checkouts = {side: scratch / side for side in commits}
    for side, commit in commits.items():
        extract(repo, commit, checkouts[side])

    runs = {"parent": [], "change": []}
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(f"{sides[0]} first")
        for side in sides:
            runs[side].append(run_side(checkouts[side], workload, seed))
            print(f"pair {i + 1}/{pairs} {side} done", file=sys.stderr, flush=True)

    better = {}
    benchmark = checkouts["change"] / "BENCHMARK.json"
    if benchmark.is_file():
        better = {m["name"]: m["better"] for m in json.loads(benchmark.read_text())["end_to_end"]}
    env = {side: runs[side][0]["env"] for side in runs}
    out = {
        "command": f"python3 {RUNNER} --workload {workload} --seed {seed}",
        "pairs": pairs,
        "pair_order": order,
        "machine": {k: (env["change"] or {}).get(k) for k in ("nproc", "cpu_model", "python", "numpy",
                                                              "blas_threads")},
        "env": env,
        "revisions": {side: {"git_revision": commit, "src_tree": _git(repo, "rev-parse", f"{commit}:src")}
                      for side, commit in commits.items()},
        "quartiles": "inclusive method over the runs of one side",
        "operations": {side: {"attempted": sum(r["result"]["attempted"] for r in runs[side]),
                              "failed": sum(r["result"]["failed"] for r in runs[side])}
                       for side in runs},
        "workloads": compare(runs["parent"], runs["change"], workload, better),
    }
    if faults:
        out["body_faults"] = {
            "what": f"{faults} bodies per workload in one process per side, parent first; "
                    "minor page faults of that process (resource.getrusage), pool workers not counted",
            **{wl: {side: body_faults(checkouts[side], wl, seed, faults) for side in commits}
               for wl in out["workloads"]},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--faults", type=int, default=0, metavar="N",
                        help="bodies per side and workload in a page-fault probe (default none)")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--section", help="store the result under this key of --out")
    parser.add_argument("--what", help="a sentence saying what the change is")
    parser.add_argument("--scratch", type=Path, help="where the checkouts go (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.scratch))
    try:
        result = bench(repo, args.parent, args.workload, args.pairs, args.seed, args.faults, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.what:
        result = {"what": args.what, **result}
    if args.section:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc[args.section] = result
        result = doc
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""
Tests for ``tools/bench_pairs.py`` on a throwaway repository whose
``perfbench/run.py`` prints fixed metrics: the parent's commit prints one
set, the change's another, so the expected ratios and pair counts are known.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# prints the metrics of VALUES.json for --workload all, or of one workload,
# after an env comment; its WORKLOAD_CLASSES serve the fault probe
STUB_RUN = '''
import json, sys
from pathlib import Path
HERE = Path(__file__).resolve().parent
VALUES = json.loads((HERE.parent / "VALUES.json").read_text())

def import_solver():
    return None, 0.0

class Body:
    def __init__(self, ea, seed):
        pass
    def build(self):
        pass
    def body(self, out):
        bytearray(VALUES["faulting_bytes"])

WORKLOAD_CLASSES = {"wl_a": Body, "wl_b": Body}

if __name__ == "__main__":
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1]
    names = ["wl_a", "wl_b"] if workload == "all" else [workload]
    print("# env " + json.dumps({"nproc": 2, "cpu_model": "stub", "python": "3", "numpy": "2",
                                 "blas_threads": "none", "seed": args[args.index("--seed") + 1]}))
    metrics = {}
    for wl in names:
        for metric, (value, unit) in VALUES["metrics"].items():
            key = f"{wl}.{metric}" if workload == "all" else metric
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": 3, "failed": VALUES["failed"], "metrics": metrics}))
'''

BENCHMARK = {"end_to_end": [{"name": "time_to_solution_s", "better": "lower"},
                            {"name": "steps_per_s", "better": "higher"}]}


def _git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def _commit(repo, values, message):
    (repo / "VALUES.json").write_text(json.dumps(values))
    (repo / "src" / "marker.txt").write_text(message)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", message)
    return _git(repo, "rev-parse", "HEAD")


@pytest.fixture
def stub_repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _git(repo, "init", "-q")
    _git(repo, "config", "user.email", "bench@example.com")
    _git(repo, "config", "user.name", "bench")
    parent = _commit(repo, {"metrics": {"time_to_solution_s": [2.0, "s"], "steps_per_s": [10.0, "1/s"],
                                        "peak_rss_mb": [50.0, "MiB"]},
                            "failed": 0, "faulting_bytes": 1}, "parent")
    change = _commit(repo, {"metrics": {"time_to_solution_s": [1.5, "s"], "steps_per_s": [12.5, "1/s"],
                                        "peak_rss_mb": [50.0, "MiB"]},
                            "failed": 1, "faulting_bytes": 1 << 24}, "change")
    return repo, parent, change


def _bench(repo, *args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=repo, capture_output=True,
                          text=True, timeout=120)


def test_pairs_layout_and_ratios(stub_repo):
    repo, parent, change = stub_repo
    done = _bench(repo, parent, "--pairs", "3", "--seed", "7", "--out", "out.json",
                  "--what", "a stub change")
    assert done.returncode == 0, done.stderr
    result = json.loads((repo / "out.json").read_text())
    assert list(result)[:3] == ["what", "command", "pairs"]
    assert result["command"] == "python3 perfbench/run.py --workload all --seed 7"
    assert result["pairs"] == 3
    assert result["pair_order"] == ["parent first", "change first", "parent first"]
    assert result["revisions"] == {
        "parent": {"git_revision": parent, "src_tree": _git(repo, "rev-parse", f"{parent}:src")},
        "change": {"git_revision": change, "src_tree": _git(repo, "rev-parse", f"{change}:src")},
    }
    assert result["revisions"]["parent"]["src_tree"] != result["revisions"]["change"]["src_tree"]
    assert result["env"]["change"]["seed"] == "7" and result["machine"]["cpu_model"] == "stub"
    assert result["operations"] == {"parent": {"attempted": 9, "failed": 0},
                                    "change": {"attempted": 9, "failed": 3}}
    assert set(result["workloads"]) == {"wl_a", "wl_b"}
    tts = result["workloads"]["wl_b"]["time_to_solution_s"]
    assert tts["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0] * 3}
    assert tts["change_over_parent"] == 0.75 and tts["pairs_change_better"] == 3
    sps = result["workloads"]["wl_a"]["steps_per_s"]
    assert (sps["better"], sps["change_over_parent"], sps["pairs_change_better"]) == ("higher", 1.25, 3)
    # a tie wins no pair; a metric BENCHMARK.json does not list has no direction
    rss = result["workloads"]["wl_a"]["peak_rss_mb"]
    assert rss["better"] is None and "pairs_change_better" not in rss
    # the checkouts are gone and the repository holds only what it held
    assert _git(repo, "status", "--porcelain") == "?? out.json"
    assert _git(repo, "worktree", "list").count("\n") == 0


def test_section_and_fault_probe(stub_repo):
    repo, parent, _ = stub_repo
    (repo / "out.json").write_text(json.dumps({"what": "kept"}))
    done = _bench(repo, parent, "--workload", "wl_a", "--pairs", "1",
                  "--faults", "2", "--out", "out.json", "--section", "recheck")
    assert done.returncode == 0, done.stderr
    result = json.loads((repo / "out.json").read_text())
    assert result["what"] == "kept"
    recheck = result["recheck"]
    assert recheck["pair_order"] == ["parent first"]
    assert set(recheck["workloads"]) == {"wl_a"}
    faults = recheck["body_faults"]["wl_a"]
    assert len(faults["parent"]["minor_faults"]) == 2 == len(faults["change"]["body_s"])
    # the change's body touches 16 MiB, 4096 pages, the parent's one byte
    assert faults["change"]["median_minor_faults"] >= 4096 > faults["parent"]["median_minor_faults"]


def test_failed_run_stops_the_tool(stub_repo):
    repo, parent, _ = stub_repo
    (repo / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    _git(repo, "commit", "-qam", "broken runner")
    done = _bench(repo, parent, "--pairs", "1", "--out", "out.json")
    assert done.returncode != 0 and "exited 3" in done.stderr
    assert not (repo / "out.json").exists()

"""Smoke tests for ``tools/import_cost.py`` on this checkout's source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_cost.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True,
                          text=True)


def test_one_sample_prints_time_rss_and_the_added_modules():
    result = run_tool(ROOT / "src", "--samples", "1")
    assert result.returncode == 0, result.stderr
    header, time_line, rss_line, modules_line = result.stdout.splitlines()
    assert header == f"import euleralpha from {ROOT / 'src'}, after numpy, 1 fresh interpreters"
    name, value, unit, *_ = time_line.split()
    assert (name, unit) == ("time", "ms") and float(value) > 0
    name, value, unit, *_ = rss_line.split()
    assert (name, unit) == ("rss", "MiB") and float(value) >= 0
    modules = modules_line.split()
    assert modules[0] == "modules" and "euleralpha" in modules
    assert not {"concurrent", "multiprocessing", "logging", "numpy"} & set(modules)


def test_root_without_the_package_is_one_line_exit_1(tmp_path):
    result = run_tool(tmp_path, "--samples", "1")
    assert result.returncode == 1
    # no euleralpha at all, or one found elsewhere on the path: either way one line
    assert result.stderr.startswith("import_cost: ") and len(result.stderr.splitlines()) == 1
    assert "euleralpha" in result.stderr


def test_samples_below_one_is_a_usage_error():
    result = run_tool(ROOT / "src", "--samples", "0")
    assert result.returncode == 2
    assert "must be at least 1" in result.stderr

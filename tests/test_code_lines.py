"""Tests for ``tools/code_lines.py`` on a small synthetic source tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 16 lines: 7 code, 5 docstring (a module, a class and a method docstring,
# a blank line inside one), 2 comment and 2 blank; the string assigned to
# TEXT is not a docstring, so its lines are code, the one starting with "#" too
MODULE = '''"""Module docstring."""
import os  # a trailing comment keeps the line code

# a comment line
class A:
    """Class docstring,

    over three lines."""

    def f(self):
        """Method docstring."""
        #   an indented comment
        return os.sep
TEXT = """
# not a comment
"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_synthetic_module():
    counts = load_tool().count_lines(MODULE)
    assert counts == {"lines": 16, "code": 7, "docstring": 5, "comment": 2, "blank": 2}
    assert counts["lines"] == MODULE.count("\n")  # what wc -l counts


def test_prints_each_module_and_the_total(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["module", "lines", "code", "docstring", "comment", "blank"]
    assert out[1].split() == ["pkg/a.py", "16", "7", "5", "2", "2"]
    assert out[2].split() == ["pkg/b.py", "2", "1", "0", "0", "1"]
    assert out[3].split() == ["total", "18", "8", "5", "2", "3"]


def test_usage_error_without_a_root():
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert result.returncode == 2
    assert "usage" in result.stderr

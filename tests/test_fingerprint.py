"""
The byte fingerprint of the solver's outputs against its committed baseline.

``tools/fingerprint.py src`` prints seven lines that hash every file, state
and printout of a fixed set of runs (see its docstring). The baseline in
``fingerprint_baseline.json`` holds those lines with the numpy version and
machine they were made on; on another numpy or machine the bits may move
for reasons outside the solver, so the test skips there. A change that
moves bits on purpose updates the baseline and states the largest relative
change and why it moved (ROADMAP, "Moved bits").
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = json.loads((Path(__file__).parent / "fingerprint_baseline.json").read_text())


def test_outputs_are_byte_identical_to_the_baseline():
    made_on = (BASELINE["numpy"], BASELINE["machine"])
    here = (np.__version__, platform.machine())
    if here != made_on:
        pytest.skip(f"baseline made with numpy {made_on[0]} on {made_on[1]}, "
                    f"this is numpy {here[0]} on {here[1]}")
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), str(ROOT / "src")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == BASELINE["lines"]

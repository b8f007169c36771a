"""
What ``import euleralpha`` loads and what the package root holds.

The root holds the six solver modules and ``__version__``, nothing else:
every function and class has one name, under its own module. The
benchmark's ``setup_s`` times this import in a fresh interpreter, so it
must keep loading the solver and nothing more (``checks`` and ``cli``
stay out).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import euleralpha

SOLVER_MODULES = ["dynamics", "experiments", "integrators", "output", "particles", "spectral"]

PROBE = """
import json, sys, types
import euleralpha
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "euleralpha"),
    "public": {k: isinstance(v, types.ModuleType)
               for k, v in vars(euleralpha).items() if not k.startswith("__")},
}))
"""


def test_import_loads_the_six_solver_modules_and_exports_no_alias():
    src = str(Path(euleralpha.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    seen = json.loads(out)
    assert seen["loaded"] == ["euleralpha"] + [f"euleralpha.{m}" for m in SOLVER_MODULES]
    assert seen["public"] == dict.fromkeys(SOLVER_MODULES, True)

"""
What ``import euleralpha`` loads and what the package root holds.

The root holds the six solver modules and ``__version__``, nothing else:
every function and class has one name, under its own module. The
benchmark's ``setup_s`` times this import in a fresh interpreter, so it
must keep loading the solver and nothing more (``checks`` and ``cli``
stay out). The sweeps' process pool loads at the first pooled sweep: the
import, a serial sweep and the CLI's start load no pool module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import euleralpha

SOLVER_MODULES = ["dynamics", "experiments", "integrators", "output", "particles", "spectral"]

# the modules of sys.modules under concurrent, multiprocessing and logging after
# the import, a serial n = 16 sweep, the CLI's import and a sweep on two workers
PROBE = """
import json, sys, types
pool = lambda: sorted(m for m in sys.modules
                      if m.split(".")[0] in ("concurrent", "multiprocessing", "logging"))
import euleralpha
seen = {
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "euleralpha"),
    "public": {k: isinstance(v, types.ModuleType)
               for k, v in vars(euleralpha).items() if not k.startswith("__")},
    "import": pool(),
}
cfg = euleralpha.experiments.RunConfig(n=16, dt=0.01, t_final=0.02)
euleralpha.experiments.sweep_nu(cfg, (1e-3,), workers=1)
seen["serial sweep"] = pool()
import euleralpha.cli
seen["cli"] = pool()
euleralpha.experiments.sweep_nu(cfg, (1e-3,), workers=2)
seen["pooled sweep"] = pool()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    src = str(Path(euleralpha.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_the_six_solver_modules_and_exports_no_alias(seen):
    assert seen["loaded"] == ["euleralpha"] + [f"euleralpha.{m}" for m in SOLVER_MODULES]
    assert seen["public"] == dict.fromkeys(SOLVER_MODULES, True)


def test_pool_modules_load_at_the_first_pooled_sweep(seen):
    assert seen["import"] == seen["serial sweep"] == []
    # the CLI catches concurrent.futures.BrokenExecutor, which needs neither of these
    assert not {"concurrent.futures.process", "multiprocessing"} & set(seen["cli"])
    assert {"concurrent.futures.process", "multiprocessing"} <= set(seen["pooled sweep"])

"""The package imports with numpy alone: scipy is LU's, loaded only by a
process that builds an LU application.

Every kernel a multiprocess engine forks inherits its parent's modules,
so a module-top ``import scipy`` anywhere on the import path of the CLI
or a non-LU app costs every process of every engine its footprint.
"""

import ast
import os
import subprocess
import sys

import pytest

import repro

MODULES = ("repro", "repro.cli", "repro.apps.ring", "repro.apps.strings",
           "repro.apps.gol_service", "repro.apps.stream_pipeline")

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _run(script: str) -> str:
    """Run *script* in a fresh interpreter on this checkout's package;
    return its stdout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_scipy(block: bool) -> list:
    """Import MODULES in a fresh interpreter; return the scipy modules
    it loaded.  With *block*, ``import scipy`` fails there as it does
    where scipy is not installed."""
    script = "\n".join([
        "import sys",
        "if %r: sys.modules['scipy'] = None" % block,
        *(f"import {name}" for name in MODULES),
        "print(sorted(m for m, mod in sys.modules.items()",
        "             if m.split('.')[0] == 'scipy' and mod is not None))",
    ])
    return ast.literal_eval(_run(script))


@pytest.mark.parametrize("block", [True, False],
                         ids=["scipy-blocked", "scipy-installed"])
def test_package_imports_without_scipy(block):
    assert _loaded_scipy(block) == []


def test_building_lu_loads_scipy_before_any_fork():
    """The process that builds an LU application imports scipy there, so
    the kernels it forks afterwards inherit it."""
    script = "\n".join([
        "import sys, numpy as np",
        "from repro.apps.lu import DistributedLU",
        "from repro.runtime.base import Engine",
        "assert 'scipy.linalg' not in sys.modules",
        "DistributedLU(Engine(), np.eye(4), 2, ['node01'])",
        "assert 'scipy.linalg' in sys.modules",
    ])
    _run(script)

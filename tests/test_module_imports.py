"""Each driftbench module imports on its own, in a fresh interpreter.

The package root imports no submodule, so a module that leaned on an
earlier import of a sibling for its names would only fail when imported
alone.
"""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import driftbench

SRC = str(Path(driftbench.__file__).resolve().parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(driftbench.__path__))


def test_every_module_is_found():
    assert {"analysis", "cli", "dataset", "mlp", "training"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", f"import driftbench.{module}"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr

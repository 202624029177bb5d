"""Each driftbench module imports on its own, in a fresh interpreter, and
each command loads only the modules it runs.

The package root imports no submodule, so a module that leaned on an
earlier import of a sibling for its names would only fail when imported
alone. A command runs in a fresh interpreter, so a module it loads but does
not run would cost every run its import.
"""
import json
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
    result = run_python(f"import driftbench.{module}")
    assert result.returncode == 0, result.stderr


def run_python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)


# Runs cli.main on argv, then prints the exit code, the driftbench modules
# loaded and whether concurrent.futures was, as the last line of stdout.
RUN_COMMAND = """
import json, sys
from driftbench import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("driftbench.")),
                  "concurrent.futures" in sys.modules]))
"""


SYNTH = ["synth", "--domains", "3", "--classes", "2", "--per-cell", "4", "--dim", "3",
         "--out-dir", "data"]
SCORE = ["score", "--manifest", "data/manifest.jsonl", "--features", "data/features.egf",
         "--k-clusters", "3", "--out-dir", "score"]
CORRELATE = ["correlate", "--shift-report", "shift.json", "--eval-report", "eval.json",
             "--out", "c.json"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    assert run_python(RUN_COMMAND, *SYNTH, cwd=root).returncode == 0
    (root / "shift.json").write_text(json.dumps(
        {"groups": [{"group": d, "score": s} for d, s in (("a", 1.0), ("b", 2.0),
                                                          ("c", 4.0))]}))
    (root / "eval.json").write_text(json.dumps({"per_domain": {"a": 90.0, "b": 70.0,
                                                               "c": 10.0}}))
    return root


@pytest.mark.parametrize("argv, least, most", [
    pytest.param(SYNTH, {"cli", "dataset", "synth"}, set(), id="synth"),
    pytest.param(SCORE, {"cli", "dataset", "clustering", "shift_metric"}, {"splits"},
                 id="score"),
    pytest.param(CORRELATE, {"cli", "dataset", "analysis"}, set(), id="correlate"),
])
def test_command_loads_only_the_modules_it_runs(inputs, argv, least, most):
    result = run_python(RUN_COMMAND, *argv, cwd=inputs)
    code, modules, futures = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    assert least <= set(modules) <= least | most
    assert not futures

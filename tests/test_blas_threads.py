"""Importing driftbench keeps the BLAS library on one thread, unless the caller says otherwise.

OpenBLAS starts its thread pool when NumPy is imported, one thread per CPU
of the affinity mask, so a process pinned to one CPU holds one thread
either way; there these tests would pass without testing anything.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftbench

SRC = str(Path(driftbench.__file__).resolve().parent.parent)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                       reason="counts threads in /proc/self/task (Linux)"),
    pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                       reason="on one CPU BLAS starts no second thread anyway"),
]

# Threads after the imports, and at each fork of train-all's workers.
COUNTING = """
import json, os, sys
threads = lambda: len(os.listdir("/proc/self/task"))
from driftbench import cli, parallel
seen = {"imports": threads(), "forks": []}
run_forked = parallel.run_forked
def counting(*args):
    seen["forks"].append(threads())
    return run_forked(*args)
parallel.run_forked = counting
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(seen))
"""


def run_python(code, *args, cwd, **blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(blas, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=env, cwd=cwd, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_driftbench_keeps_blas_on_one_thread_from_imports_to_train_all_forks(tmp_path):
    data = tmp_path / "data"
    run_python(COUNTING, "synth", "--domains", "3", "--classes", "3", "--per-cell", "6",
               "--dim", "8", "--out-dir", str(data), cwd=tmp_path)
    seen = run_python(COUNTING, "train-all", "--manifest", str(data / "manifest.jsonl"),
                      "--features", str(data / "features.egf"), "--epochs", "1",
                      "--hidden1", "8", "--hidden2", "4", "--out-dir", "runs", cwd=tmp_path)
    assert seen == {"imports": 1, "forks": [1]}


def test_numpy_imported_first_or_a_value_set_by_the_caller_keeps_blas_threads(tmp_path):
    # the control: the count above is one because of the package, not the host
    numpy_first = "import numpy\n" + COUNTING
    assert run_python(numpy_first, cwd=tmp_path)["imports"] > 1
    assert run_python(COUNTING, cwd=tmp_path, OPENBLAS_NUM_THREADS="2")["imports"] > 1

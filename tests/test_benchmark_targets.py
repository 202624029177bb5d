"""The benchmark's tracer still finds what it wraps and reads in this package.

perfbench/tracing.py wraps (module, attribute) pairs of driftbench and reads
a few fields of their arguments and results. A rename or deletion here
would otherwise show only in the benchmark's own smoke test.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from driftbench import mlp
from driftbench.clustering import kmeans_fit

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def resolve(module_name, attr):
    return getattr(importlib.import_module(f"driftbench.{module_name}"), attr, None)


def test_every_target_resolves_to_a_function():
    assert len(tracing.TARGETS) == 22
    missing = [f"{m}.{a}" for m, a in tracing.TARGETS if not callable(resolve(m, a))]
    assert missing == []


def test_every_attrs_callback_has_a_target():
    # the tracer picks a callback by the wrapped function's defining module and name
    keys = set()
    for module_name, attr in tracing.TARGETS:
        fn = resolve(module_name, attr)
        keys.add(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
    assert set(tracing.ATTRS) <= keys


def test_attrs_callbacks_read_existing_fields():
    X = np.random.default_rng(0).standard_normal((12, 3))
    model = kmeans_fit(X, 3, seed=0)
    params = mlp.init_params(3, 2, seed=0, hidden1=5, hidden2=4)
    attrs = tracing.ATTRS
    assert attrs["clustering.kmeans_fit"]((X, 3), {}, model) == \
        {"iterations": model.iterations_run}
    assert attrs["clustering.assign_nearest"]((X, model.centroids), {}, None) == \
        {"n": 12, "k": 3, "d": 3}
    assert attrs["mlp.forward"]((params, X[:7]), {}, None) == \
        {"b": 7, "i": 3, "h1": 5, "h2": 4, "c": 2}
    assert attrs["training.adam_step"]((params,), {}, None) == \
        {"params": params.flat.size, "itemsize": 8}
    assert attrs["cli.main"]((["score"],), {}, 0) == {"command": "score"}

"""The benchmark's tracer still finds what it wraps and reads in this package.

perfbench/tracing.py wraps (module, attribute) pairs of driftbench and reads
a few fields of their arguments and results. A rename or deletion here
would otherwise show only in the benchmark's own smoke test.
"""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from driftbench import mlp, training
from driftbench.clustering import kmeans_fit
from driftbench.splits import SplitSpec

from conftest import make_features, make_manifest, train_best

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


def test_train_loop_calls_each_traced_layer_once_per_step(monkeypatch):
    """Per-layer metrics (training.steps, step_ms, forward/backward/Adam time)
    come from wrappers on these module attributes; each step must go through
    all four, in order, with the arguments the ATTRS callbacks read."""
    calls = []

    def counting(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            name = tracing._forward_name(args, kwargs) if attr == "forward" else attr
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    for module, attr in ((mlp, "forward"), (mlp, "ova_bce_loss"), (mlp, "backward"),
                         (training, "adam_step")):
        counting(module, attr)
    monkeypatch.setattr(training, "EVAL_BLOCK", 10)  # 2 rows a chunk: hidden1 = 5 is widest
    n_train, n_val, batch, epochs = 10, 7, 4, 3
    n = n_train + n_val
    rows = [(f"c{i}", "d0", f"k{i % 2}", i) for i in range(n)]
    X = np.random.default_rng(0).standard_normal((n, 3)).astype(np.float32)
    data = training.TrainingData.from_features(make_manifest(rows), make_features(X))
    ids = tuple(r[0] for r in rows)
    split = SplitSpec("d1", ids[:n_train], ids[n_train:], ())
    train_best(data, split, training.TrainConfig(epochs=epochs, batch_size=batch),
               hidden1=5, hidden2=4)

    step = ["mlp.forward_train", "ova_bce_loss", "backward", "adam_step"]
    val = ["mlp.forward_eval"] * math.ceil(n_val / 2)
    epoch = step * math.ceil(n_train / batch) + val
    assert [name for name, _, _ in calls] == epoch * epochs
    for name, args, kwargs in calls:
        if name.startswith("mlp.forward"):
            assert tracing.ATTRS["mlp.forward"](args, kwargs, None)["i"] == 3
            assert name == "mlp.forward_train" or len(args[1]) <= 2
        elif name == "adam_step":
            assert tracing.ATTRS["training.adam_step"](args, kwargs, None)["params"] == \
                args[0].flat.size

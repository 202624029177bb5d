"""Outside-in span tracing of one driftbench CLI command, and the per-layer sums.

Run as a script, this module is a drop-in for `python3 -m driftbench.cli`:

    python3 perfbench/tracing.py SPANS_JSON <driftbench arguments...>

It replaces public functions of the package modules with timing wrappers,
each installed on the module attribute its caller looks up (for example
`shift_metric.kmeans_fit` and `cli.save_checkpoint`, not only the names
where they are defined), runs the command, and writes the spans to
SPANS_JSON when the command ends. Spans stay in memory until then. No file
of the package is changed.

`layer_metrics` turns the spans of several commands into per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) pairs in driftbench: the name each caller looks up.
# A function imported by name into its caller's module (shift_metric.kmeans_fit,
# training.pool_temporal, cli.save_checkpoint) is wrapped there; one function
# reached under two names gets one wrapper.
TARGETS = (
    ("cli", "main"),
    ("synth", "generate"),
    ("dataset", "write_manifest"), ("dataset", "write_feature_pack"),
    ("dataset", "load_manifest"), ("dataset", "load_feature_pack"),
    ("dataset", "pool_temporal"), ("training", "pool_temporal"),
    ("clustering", "assign_nearest"), ("shift_metric", "kmeans_fit"),
    ("shift_metric", "score_dataset"),
    ("splits", "build_lodo_split"),
    ("mlp", "forward"), ("mlp", "ova_bce_loss"), ("mlp", "backward"), ("mlp", "predict"),
    ("cli", "save_checkpoint"), ("cli", "load_checkpoint"),
    ("training", "adam_step"), ("training", "train"), ("training", "evaluate"),
    ("analysis", "correlate_shift_accuracy"),
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _forward_name(args, kwargs):
    return f"mlp.forward_{_arg(args, kwargs, 2, 'mode', 'eval')}"


def _assign_attrs(args, kwargs, result):
    x, centroids = args[0], args[1]
    return {"n": len(x), "k": len(centroids), "d": len(centroids[0])}


def _forward_attrs(args, kwargs, result):
    params, batch = args[0], args[1]
    return {"b": len(batch), "i": params.input_dim, "h1": params.hidden1,
            "h2": params.hidden2, "c": params.n_classes}


def _adam_attrs(args, kwargs, result):
    tensors = args[0].tensors().values()
    return {"params": sum(t.size for t in tensors),
            "itemsize": next(iter(tensors)).itemsize}


ATTRS = {
    "clustering.assign_nearest": _assign_attrs,
    "clustering.kmeans_fit": lambda a, k, r: {"iterations": r.iterations_run},
    "mlp.forward": _forward_attrs,
    "training.adam_step": _adam_attrs,
    "cli.main": lambda a, k, r: {"command": (_arg(a, k, 0, "argv") or ["?"])[0]},
}


class Tracer:
    """Records (id, name, start, end, parent, thread id, attrs) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else {}
                self.spans.append((span_id, span_name, start, end, parent,
                                   threading.get_ident(), attrs))
        return traced

    def install(self) -> None:
        wrappers = {}
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"driftbench.{module_name}")
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                name = _forward_name if key == "mlp.forward" else key
                wrappers[id(fn)] = self.wrap(fn, name, ATTRS.get(key))
            setattr(module, attr, wrappers[id(fn)])

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "tid", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (0 if none)."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 0


def _nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer sums over commands, each given as (launch time, spans).

    The launch time is when the process was started, on the perf_counter
    clock the spans use (system-wide on Linux). Every span name N yields
    N_s (busy time), N_calls and N_self_s (minus its child spans); the rest
    are derived. cli.startup_s runs from launch to the start of cli.main:
    interpreter start, imports and installing the wrappers, but not the
    writing of spans after cli.main returns. Work counts are computed from
    shapes: the E-step does 3*N*K*D flops and its (N, K, D) float64
    difference temporary takes 8*N*K*D bytes (the largest call is kept).
    """
    out: dict[str, float] = defaultdict(float)
    steps_ms: list[float] = []
    train_all_busy = train_all_wall = 0.0
    for launch, spans in commands:
        by_id = {s["id"]: s for s in spans}
        child_s: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name, dur, attrs = s["name"], s["end"] - s["start"], s["attrs"]
            out[f"{name}_s"] += dur
            out[f"{name}_calls"] += 1
            out[f"{name}_self_s"] += dur - child_s[s["id"]]
            parent = by_id.get(s["parent"], {}).get("name")
            if name == "cli.main":
                out["cli.startup_s"] += s["start"] - launch
                if attrs.get("command") == "train-all":
                    train_all_wall += dur
                    train_all_busy += sum(t["end"] - t["start"] for t in spans
                                          if t["name"] == "training.train")
            elif name == "clustering.assign_nearest" and attrs:
                nkd = attrs["n"] * attrs["k"] * attrs["d"]
                out["clustering.estep_flops"] += 3 * nkd
                out["clustering.estep_temp_bytes"] = max(
                    out["clustering.estep_temp_bytes"], 8 * nkd)
            elif name == "clustering.kmeans_fit" and attrs:
                out["clustering.iterations"] += attrs["iterations"]
            elif name == "mlp.forward_train" and attrs:
                # GEMMs only: forward 2*B*weights, backward twice that.
                out["mlp.step_flops"] += 6 * attrs["b"] * (
                    attrs["i"] * attrs["h1"] + attrs["h1"] * attrs["h2"]
                    + attrs["h2"] * attrs["c"])
            elif name == "training.adam_step" and attrs:
                # Minimum traffic: read param, grad, m, v; write param, m, v.
                out["training.adam_bytes"] += 7 * attrs["params"] * attrs["itemsize"]
            if parent == "training.train" and name in ("mlp.forward_eval", "mlp.predict"):
                out["training.val_eval_s"] += dur
        # A training step runs from its forward pass to the end of its Adam update.
        pending: dict[int, float] = {}
        for s in sorted(spans, key=lambda s: s["start"]):
            if s["name"] == "mlp.forward_train":
                pending[s["tid"]] = s["start"]
            elif s["name"] == "training.adam_step" and s["tid"] in pending:
                steps_ms.append((s["end"] - pending.pop(s["tid"])) * 1e3)
        out["trace.spans"] += len(spans)
    out["clustering.kmeans_self_s"] = out["clustering.kmeans_fit_self_s"]
    out["shift_metric.post_fit_s"] = out["shift_metric.score_dataset_self_s"]
    steps_ms.sort()
    out["training.steps"] = len(steps_ms)
    out["training.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
    pct = tail_percentile(len(steps_ms))
    out["training.step_ms_tail_pct"] = pct
    out["training.step_ms_tail"] = _nearest_rank(steps_ms, pct) if pct else 0.0
    out["cli.train_all_parallelism"] = (
        train_all_busy / train_all_wall if train_all_wall else 0.0)
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("driftbench.cli")
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

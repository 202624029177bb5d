"""Adam training loop over a leave-one-domain-out split, plus evaluation.

Training consumes flattened clip features, optimizes the one-vs-all BCE
objective with Adam, measures val top-1 after every epoch in eval mode,
and returns the checkpoint with the best val top-1 (earliest epoch wins
ties). Gradient updates only ever see train ids; the id sets are checked
for disjointness up front.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp, parallel
from .dataset import FeatureSet, Manifest, pool_temporal, row_blocks, write_json
from .mlp import MlpParams
from .splits import SplitSpec

EVAL_BATCH = 512
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of the Adam pass, and at most in its scratch: not dataset.BLOCK,
# as at paper widths (2 CPUs, BLAS on one thread) a step took 33.0 ms on fixed 2^13-element
# update blocks, against 18.3 ms here, and 21.9 against 19.6 ms on 2^13 check blocks.
ADAM_BLOCK = 1 << 15
ADAM_PART = 1 << 19  # fewest elements worth a thread of the Adam pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 100
    drop_prob: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning_rate (finite), batch_size must be positive; "
                             "epochs >= 0")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {self.drop_prob}")


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like MlpParams.flat
    v: np.ndarray  # second moment, likewise
    step: int = 0

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _adam_range(params: MlpParams, grads: MlpParams, state: AdamState, lr: float,
                elements: slice, scratch: np.ndarray) -> None:
    """Update the elements in blocks; the first block's intermediates go into scratch."""
    t = state.step
    m_scale, v_scale = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    start = lo = elements.start
    hi = elements.stop
    while lo < hi:
        b = slice(lo, min(lo + scratch.size, hi))
        g, m, v = grads.flat[b], state.m[b], state.v[b]
        s = scratch[:g.size]
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, g, out=s)
        v *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, g, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, m_scale, out=g)
        g *= lr
        np.divide(v, v_scale, out=s)
        np.sqrt(s, out=s)
        g /= np.add(s, ADAM_EPS, out=s)
        params.flat[b] -= g
        # The gradients of this range up to here are spent: the next block's scratch.
        lo = b.stop
        scratch = grads.flat[max(start, lo - ADAM_BLOCK):lo]


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              config: TrainConfig) -> tuple[MlpParams, AdamState]:
    """Bias-corrected Adam update of params.flat, in place, in one blockwise pass.

    Per element, in this operation order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps). Consumes grads. A
    non-finite gradient is refused, one ADAM_BLOCK slice at a time, before
    params, m, v or state.step change. The update then runs in blocks of
    at most ADAM_BLOCK elements; each block's intermediates go into the
    spent gradients of the blocks before it, the first block's into one
    scratch vector of at most ADAM_BLOCK elements. From 2 * ADAM_PART elements up,
    both passes cut the vector into contiguous parts that run on
    parallel.WORKERS threads. Each element is computed on its own, so the
    bits do not depend on the cut.
    """
    if grads.dims != params.dims:
        raise ValueError(f"gradient shape {grads.dims} != params {params.dims}")
    size = params.flat.size
    parts = parallel.cuts(size, parallel.parts_for(size, ADAM_PART, size))
    first = max(1, min(ADAM_BLOCK, size) // len(parts))
    scratch = np.empty(first * len(parts), dtype=params.flat.dtype)
    checks = [True] * len(parts)

    def check(p: int, elements: slice) -> None:
        g = grads.flat[elements]
        checks[p] = all(np.isfinite(g[b]).all() for b in row_blocks(g.size, 1, ADAM_BLOCK))

    parallel.run_parts(check, parts)
    if not all(checks):
        name = next(k for k, g in grads.tensors().items() if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient in {name} at Adam step {state.step + 1}")
    state.step += 1
    parallel.run_parts(lambda p, elements: _adam_range(
        params, grads, state, config.learning_rate, elements,
        scratch[p * first:(p + 1) * first]), parts)
    return params, state


@dataclass
class TrainingData:
    """The pooled feature pack with labels, indexed by pack row (row_index).

    X is the pooled pack itself, in the pack's dtype (float32 for a loaded
    pack; for flatten pooling, a view of it); mlp.forward widens each batch
    to the weights' dtype, which is exact. A row that no record names has
    label -1 and domain None; rows_for never returns it.
    """

    X: np.ndarray  # (N, D')
    labels: np.ndarray  # (N,) class indices into categories, -1 if unnamed
    row_domains: tuple[str | None, ...]
    categories: tuple[str, ...]
    row_of: dict[str, int] = field(repr=False)  # clip id -> row_index

    @classmethod
    def from_features(cls, manifest: Manifest, features: FeatureSet,
                      pool_mode: str = "flatten") -> "TrainingData":
        X = pool_temporal(features, pool_mode)
        class_index = {c: i for i, c in enumerate(manifest.categories)}
        labels = np.full(len(X), -1)
        row_domains: list[str | None] = [None] * len(X)
        for r in manifest.records:
            labels[r.row_index] = class_index[r.category]
            row_domains[r.row_index] = r.domain
        return cls(
            X=X, labels=labels, row_domains=tuple(row_domains),
            categories=manifest.categories,
            row_of={r.clip_id: r.row_index for r in manifest.records},
        )

    @property
    def n_classes(self) -> int:
        return len(self.categories)

    def rows_for(self, ids) -> np.ndarray:
        missing = [cid for cid in ids if cid not in self.row_of]
        if missing:
            raise ValueError(f"unknown clip id(s): {missing[:5]}")
        return np.array([self.row_of[cid] for cid in ids], dtype=np.intp)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_top1: float


def best_epoch(history: list[EpochStats]) -> EpochStats | None:
    """The epoch with the highest val top-1; the earliest wins ties, NaN never wins."""
    scored = [row for row in history if not np.isnan(row.val_top1)]
    return max(scored, key=lambda row: row.val_top1, default=None)


@dataclass
class EvalReport:
    split_id: str
    overall_top1: float
    per_domain: dict[str, float]
    confusion: np.ndarray  # (C, C), rows = true class, cols = predicted
    n_evaluated: int
    classes: tuple[str, ...]


class ModelMismatch(ValueError):
    """The model's input width or class count differs from the data's."""


def _eval_logits(params: MlpParams, X: np.ndarray) -> np.ndarray:
    parts = [mlp.forward(params, X[i:i + EVAL_BATCH], mode="eval")
             for i in range(0, X.shape[0], EVAL_BATCH)]
    return np.concatenate(parts, axis=0)


def _top1(params: MlpParams, X: np.ndarray, labels: np.ndarray) -> float:
    preds = mlp.predict(_eval_logits(params, X))
    return float((preds == labels).mean() * 100.0)


def train(data: TrainingData, split: SplitSpec, config: TrainConfig,
          hidden1: int = mlp.DEFAULT_HIDDEN1, hidden2: int = mlp.DEFAULT_HIDDEN2):
    """Train on split.train_ids, select by best val top-1.

    Returns (best_params, history) where history holds one EpochStats per
    epoch. With an empty val set the final-epoch weights are returned.
    Memory: five parameter-sized vectors (params, the best-epoch copy,
    Adam's m and v, one gradient buffer) plus one step's activations, or
    one EVAL_BATCH chunk of val rows while val top-1 is measured. Large
    GEMMs and the Adam pass run on parallel.WORKERS threads; they write
    into those same buffers, so the working set does not grow with the
    thread count, and neither do the bits.
    """
    train_set, val_set, test_set = set(split.train_ids), set(split.val_ids), set(split.test_ids)
    if train_set & val_set or train_set & test_set or val_set & test_set:
        raise ValueError("split id lists overlap; refusing to train")
    if not split.train_ids:
        raise ValueError("empty train split")

    train_rows = data.rows_for(split.train_ids)
    val_rows = data.rows_for(split.val_ids)
    y_train = data.labels[train_rows]
    X_val, y_val = data.X[val_rows], data.labels[val_rows]  # one float32 copy

    params = mlp.init_params(data.X.shape[1], data.n_classes, seed=config.seed,
                             hidden1=hidden1, hidden2=hidden2)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng([config.seed, 0])
    dropout_rng = np.random.default_rng([config.seed, 1])

    grads = MlpParams(params.dims, np.empty_like(params.flat))  # reused by every step

    def step(rows: np.ndarray, epoch: int, batch: int) -> float:
        # One forward, loss, backward and Adam update. The trace and the other
        # activations die on return, so no two steps' activations coexist.
        logits, trace = mlp.forward(
            params, data.X[train_rows[rows]], mode="train",
            drop_prob=config.drop_prob, rng=dropout_rng)
        targets = mlp.one_hot(y_train[rows], data.n_classes)
        loss, grad_logits = mlp.ova_bce_loss(logits, targets)
        if not np.isfinite(loss):
            raise ValueError(f"non-finite loss at epoch {epoch}, batch {batch}")
        mlp.backward(params, trace, grad_logits, out=grads)
        adam_step(params, grads, state, config)
        return loss

    n = len(train_rows)
    best_params = params.copy()
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            loss_sum += step(rows, epoch, start // config.batch_size) * len(rows)
        val_top1 = _top1(params, X_val, y_val) if len(val_rows) else float("nan")
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / n, val_top1=val_top1))
        if best_epoch(history) is history[-1]:
            best_params.flat[:] = params.flat

    if not len(val_rows) and config.epochs > 0:
        best_params = params
    return best_params, history


def evaluate(params: MlpParams, data: TrainingData, ids) -> EvalReport:
    """Eval-mode top-1 over the given clip ids, broken down by domain."""
    if (params.input_dim, params.n_classes) != (data.X.shape[1], data.n_classes):
        raise ModelMismatch(
            f"model takes {params.input_dim} features and {params.n_classes} classes, "
            f"data has {data.X.shape[1]} features and {data.n_classes} classes")
    ids = list(ids)
    if not ids:
        raise ValueError("empty id list")
    rows = data.rows_for(ids)
    labels = data.labels[rows]
    preds = mlp.predict(_eval_logits(params, data.X[rows]))

    n_classes = data.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    overall = float(np.trace(confusion) / len(ids) * 100.0)
    direct = float((preds == labels).mean() * 100.0)
    if not abs(overall - direct) < 1e-9:
        raise RuntimeError(f"confusion top-1 {overall} disagrees with direct top-1 {direct}")

    per_domain: dict[str, float] = {}
    row_domains = np.array([data.row_domains[i] for i in rows])
    for domain in sorted(set(row_domains)):
        sel = row_domains == domain
        per_domain[domain] = float((preds[sel] == labels[sel]).mean() * 100.0)
    return EvalReport(
        split_id="", overall_top1=overall, per_domain=per_domain,
        confusion=confusion, n_evaluated=len(ids), classes=data.categories,
    )


def write_history_csv(history: list[EpochStats], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_top1"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_top1)])


def eval_report_to_dict(report: EvalReport) -> dict:
    return {
        "split_id": report.split_id,
        "overall_top1": report.overall_top1,
        "per_domain": report.per_domain,
        "n_evaluated": report.n_evaluated,
        "classes": list(report.classes),
        "confusion": report.confusion.tolist(),
    }


def write_eval_report(report: EvalReport, path: str | Path) -> None:
    write_json(eval_report_to_dict(report), path)


"""Adam training loop over a leave-one-domain-out split, plus evaluation.

Training consumes flattened clip features, optimizes the one-vs-all BCE
objective with Adam, measures val top-1 after every epoch in eval mode,
and returns the checkpoint with the best val top-1 (earliest epoch wins
ties). Gradient updates only ever see train ids; the id sets are checked
for disjointness up front.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp
from .dataset import FeatureSet, Manifest, pool_temporal
from .mlp import MlpParams
from .splits import SplitSpec

EVAL_BATCH = 512
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 15  # elements per slice of the Adam pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 100
    drop_prob: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning_rate, batch_size must be positive; epochs >= 0")
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


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              config: TrainConfig) -> tuple[MlpParams, AdamState]:
    """Bias-corrected Adam update of params.flat, in place, in one blockwise pass.

    Per element, in this operation order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps). Consumes grads as its scratch.
    """
    state.step += 1
    t = state.step
    if grads.dims != params.dims:
        raise ValueError(f"gradient shape {grads.dims} != params {params.dims}")
    if not np.isfinite(grads.flat).all():
        name = next(k for k, g in grads.tensors().items() if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient in {name} at Adam step {t}")
    for lo in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v = grads.flat[block], state.m[block], state.v[block]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        np.divide(m, 1 - ADAM_BETA1 ** t, out=g)
        g *= config.learning_rate
        g /= np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS
        params.flat[block] -= g
    return params, state


@dataclass
class TrainingData:
    """Feature matrix and labels indexed by clip id, in manifest order."""

    X: np.ndarray  # (N, D')
    labels: np.ndarray  # (N,) class indices into categories
    ids: tuple[str, ...]
    row_domains: tuple[str, ...]
    categories: tuple[str, ...]
    domains: tuple[str, ...]
    row_of: dict[str, int] = field(repr=False, default_factory=dict)

    @classmethod
    def from_features(cls, manifest: Manifest, features: FeatureSet,
                      pool_mode: str = "flatten") -> "TrainingData":
        pooled = pool_temporal(features, pool_mode).astype(np.float64)
        class_index = {c: i for i, c in enumerate(manifest.categories)}
        rows = [r.row_index for r in manifest.records]
        data = cls(
            X=pooled[rows],
            labels=np.array([class_index[r.category] for r in manifest.records]),
            ids=tuple(r.clip_id for r in manifest.records),
            row_domains=tuple(r.domain for r in manifest.records),
            categories=manifest.categories,
            domains=manifest.domains,
        )
        data.row_of = {cid: i for i, cid in enumerate(data.ids)}
        return data

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
    """
    train_set, val_set, test_set = set(split.train_ids), set(split.val_ids), set(split.test_ids)
    if train_set & val_set or train_set & test_set or val_set & test_set:
        raise ValueError("split id lists overlap; refusing to train")
    if not split.train_ids:
        raise ValueError("empty train split")

    train_rows = data.rows_for(split.train_ids)
    val_rows = data.rows_for(split.val_ids)
    X_train, y_train = data.X[train_rows], data.labels[train_rows]
    X_val, y_val = data.X[val_rows], data.labels[val_rows]

    params = mlp.init_params(data.X.shape[1], data.n_classes, seed=config.seed,
                             hidden1=hidden1, hidden2=hidden2)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng([config.seed, 0])
    dropout_rng = np.random.default_rng([config.seed, 1])

    n = X_train.shape[0]
    best_params = params.copy()
    best_top1 = -np.inf
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            logits, trace = mlp.forward(
                params, X_train[rows], mode="train",
                drop_prob=config.drop_prob, rng=dropout_rng)
            targets = mlp.one_hot(y_train[rows], data.n_classes)
            loss, grad_logits = mlp.ova_bce_loss(logits, targets)
            if not np.isfinite(loss):
                raise ValueError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            grads = mlp.backward(params, trace, grad_logits)
            params, state = adam_step(params, grads, state, config)
            loss_sum += loss * len(rows)
        val_top1 = _top1(params, X_val, y_val) if len(val_rows) else float("nan")
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / n, val_top1=val_top1))
        if val_top1 > best_top1:  # strict: ties keep the earlier epoch
            best_top1 = val_top1
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
    Path(path).write_text(
        json.dumps(eval_report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_eval_report(path: str | Path) -> EvalReport:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return EvalReport(
        split_id=obj["split_id"],
        overall_top1=obj["overall_top1"],
        per_domain=obj["per_domain"],
        confusion=np.array(obj["confusion"], dtype=np.int64),
        n_evaluated=obj["n_evaluated"],
        classes=tuple(obj["classes"]),
    )

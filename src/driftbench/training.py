"""Adam training loop over a leave-one-domain-out split, plus evaluation.

Training consumes flattened clip features, optimizes the one-vs-all BCE
objective with Adam, measures val top-1 after every epoch in eval mode,
and hands the caller the weights of each new best val top-1 (earliest
epoch wins ties). Gradient updates only ever see train ids; the id sets
are checked for disjointness up front.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp, parallel
from .dataset import FeatureSet, Manifest, pool_temporal, row_blocks, write_json
from .mlp import MlpParams
from .splits import SplitSpec

# float64 elements of the widest layer in one eval chunk (4 MiB): 128 rows at the paper
# widths, 2,048 at lodo-desk's, whose val set is then one chunk.
EVAL_BLOCK = 1 << 19
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of the Adam pass, and at most in its scratch: not dataset.BLOCK,
# as at paper widths (2 CPUs, BLAS on one thread) a step took 33.0 ms on fixed 2^13-element
# update blocks, against 18.3 ms here.
ADAM_BLOCK = 1 << 15
ADAM_PART = 1 << 19  # fewest elements worth a thread of the Adam pass
# Elements of a row block of a weight gradient (1 MiB), which adam_step computes into a
# scratch block of its part: 32 rows of w1 and 256 of w2 at the paper widths. Smaller
# blocks repack the GEMM's right operand more often: x.T @ dz1 (B=128) took 3.7 ms whole,
# 5.4 ms in 32-row blocks and 7.8 ms in 16-row ones.
GRADIENT_BLOCK = 1 << 17


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


def _adam_range(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, lr: float,
                scratch: np.ndarray) -> None:
    """Update p, m and v from their gradients g, aligned 1-D arrays, in blocks; consumes g.

    The first block's intermediates go into scratch, each later block's
    into the spent gradients of the blocks before it, ADAM_BLOCK at most.
    """
    m_scale, v_scale = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    lo = 0
    while lo < g.size:
        b = slice(lo, min(lo + scratch.size, g.size))
        gb, mb, vb = g[b], m[b], v[b]
        s = scratch[:gb.size]
        mb *= ADAM_BETA1
        mb += np.multiply(1 - ADAM_BETA1, gb, out=s)
        vb *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, gb, out=s)
        vb += np.multiply(s, gb, out=s)
        np.divide(mb, m_scale, out=gb)
        gb *= lr
        np.divide(vb, v_scale, out=s)
        np.sqrt(s, out=s)
        gb /= np.add(s, ADAM_EPS, out=s)
        p[b] -= gb
        lo = b.stop
        scratch = g[max(0, lo - ADAM_BLOCK):lo]


def _bounded(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a @ b is finite for sure: |a|*|b| (Frobenius norms) is at most half the float max.

    No element of the exact product exceeds |a|*|b| (Cauchy-Schwarz). The
    roundings of its k products, summed in any order, with or without FMA,
    and those of the two norms grow that by a factor far below 2. A norm
    that overflows is inf and one of a NaN operand is NaN, and neither
    passes.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such a norm fails the test below
        norms = [math.sqrt(np.dot(r, r)) for r in (a.ravel("K"), b.ravel("K"))]
    return norms[0] * norms[1] <= np.finfo(np.result_type(a, b)).max / 2


def _product(operands, out: np.ndarray) -> np.ndarray:
    """a @ b into the first elements of the 1-D out, as one flat array."""
    a, b = operands
    shape = (a.shape[0], b.shape[1])
    return np.matmul(a, b, out=out[:math.prod(shape)].reshape(shape)).reshape(-1)


def _weight_blocks(elements: slice, a: np.ndarray, b: np.ndarray) -> list[tuple]:
    """(elements, (a[rows], b)) per row block of the weight gradient a @ b laid out over elements.

    GRADIENT_BLOCK elements a block, as parallel.gemm_blocks allows at
    GEMM_BLOCK_FLOPS, so that each block has the bits of the whole product.
    """
    m, (k, n) = a.shape[0], b.shape
    blocks = min(max(1, m * n // GRADIENT_BLOCK),
                 parallel.gemm_blocks(m, k, n, parallel.GEMM_BLOCK_FLOPS))
    return [(slice(elements.start + r.start * n, elements.start + r.stop * n), (a[r], b))
            for r in parallel.cuts(m, blocks)]


def _parts(runs, size: int, n: int) -> list[list]:
    """The walk of runs, (name, elements, gradient), cut into at most n parts of about size / n.

    A piece is a block of a weight's _weight_blocks, or a run of small
    gradients, and goes whole to part (start + stop) * n // (2 * size),
    the part its midpoint falls in: a cut moves to the nearer edge of the
    piece it falls in. Empty parts are dropped.
    """
    parts: list[list] = [[] for _ in range(n)]
    for name, elements, g in runs:
        for e, piece in _weight_blocks(elements, *g) if name in mlp.WEIGHTS else [(elements, g)]:
            parts[(e.start + e.stop) * n // (2 * size)].append((name, e, piece))
    return [part for part in parts if part]


def adam_step(params: MlpParams, grads: mlp.Gradients, state: AdamState,
              config: TrainConfig) -> tuple[MlpParams, AdamState]:
    """Bias-corrected Adam update of params.flat, in place, in one blockwise walk.

    Per element, in this operation order: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps). grads is what
    mlp.backward filled, and is consumed. The walk reads the small
    gradients as views, and computes w1 and w2 one _weight_blocks block at
    a time, into one scratch block a part, then updates from the block
    while it is still in cache.

    A non-finite gradient is refused, naming the first such tensor in
    FIELDS order, before params, m, v or state.step change. One serial
    walk checks each small tensor whole, and a weight only where its
    operands fail _bounded: its blocks are then computed into one scratch
    allocated for them and checked, and the update computes them again,
    with the same bits. The update runs in blocks of at most ADAM_BLOCK
    elements; each block's intermediates go into the spent gradients of
    the blocks before it, the first block's into a scratch of at most
    ADAM_BLOCK elements a part. From 2 * ADAM_PART elements up, the update
    is cut into contiguous _parts that run on parallel.WORKERS threads,
    into scratch allocated here. Each element is computed on its own, and
    the blocks do not depend on the cut, so neither do the bits.
    """
    if grads.dims != params.dims:
        raise ValueError(f"gradient shape {grads.dims} != params {params.dims}")
    for name, g in grads.tensors().items():
        if isinstance(g, tuple) and not _bounded(*g):  # compute the weight's blocks to check
            blocks = _weight_blocks(slice(0, g[0].shape[0] * g[1].shape[1]), *g)
            block = np.empty(max(e.stop - e.start for e, _ in blocks))
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
                finite = all(np.isfinite(_product(ops, block)).all() for _, ops in blocks)
        else:  # a small tensor whole, or a weight whose product is finite for sure
            finite = isinstance(g, tuple) or np.isfinite(g).all()
        if not finite:
            raise ValueError(f"non-finite gradient in {name} at Adam step {state.step + 1}")
    state.step += 1
    size = params.flat.size
    parts = _parts(grads.runs(), size, parallel.parts_for(size, ADAM_PART, size))
    first = max(1, min(ADAM_BLOCK, size) // len(parts))
    # per part: its largest weight block, then the first Adam block's intermediates
    scratch = [np.empty(max((e.stop - e.start for name, e, _ in part if name in mlp.WEIGHTS),
                            default=0) + first, dtype=params.flat.dtype) for part in parts]

    def update(p: int, pieces) -> None:
        for name, e, g in pieces:
            if name in mlp.WEIGHTS:
                g = _product(g, scratch[p])
            _adam_range(params.flat[e], state.m[e], state.v[e], g, state.step,
                        config.learning_rate, scratch[p][-first:])

    parallel.run_parts(update, parts)
    return params, state


@dataclass
class TrainingData:
    """The pooled feature pack with labels, indexed by pack row (row_index).

    X is the pooled pack itself, in the pack's dtype (float32 for a loaded
    pack; for flatten pooling, a view of it); mlp.forward widens each batch
    to the weights' dtype, which is exact. A row that no record names has
    label -1 and domain None; rows_for never returns it. from_features
    refuses fewer than two categories, before any training: mlp.predict
    needs two.
    """

    X: np.ndarray  # (N, D')
    labels: np.ndarray  # (N,) class indices into categories, -1 if unnamed
    row_domains: tuple[str | None, ...]
    categories: tuple[str, ...]
    row_of: dict[str, int] = field(repr=False)  # clip id -> row_index

    @classmethod
    def from_features(cls, manifest: Manifest, features: FeatureSet,
                      pool_mode: str = "flatten") -> "TrainingData":
        if len(manifest.categories) < 2:
            raise ValueError(f"one-vs-all top-1 needs at least 2 categories, the manifest has "
                             f"{len(manifest.categories)}: {list(manifest.categories)}")
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


def _eval_logits(params: MlpParams, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Eval-mode logits of X[rows], in chunks of EVAL_BLOCK elements of the widest layer.

    Each chunk's rows are gathered from X as the chunk runs, so no copy of
    all the rows is made.
    """
    parts = [mlp.forward(params, X[rows[chunk]], mode="eval")
             for chunk in row_blocks(len(rows), max(params.dims[:3]), EVAL_BLOCK)]
    return np.concatenate(parts, axis=0)


def _top1(params: MlpParams, X: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> float:
    preds = mlp.predict(_eval_logits(params, X, rows))
    return float((preds == labels).mean() * 100.0)


def train(data: TrainingData, split: SplitSpec, config: TrainConfig, keep,
          hidden1: int = mlp.DEFAULT_HIDDEN1, hidden2: int = mlp.DEFAULT_HIDDEN2):
    """Train on split.train_ids, select by best val top-1; returns the EpochStats per epoch.

    keep(params) gets the live weights at each epoch that becomes
    best_epoch(history); if none does (no val rows, or no epoch), it gets
    the final weights once, after the loop. keep copies what it retains,
    as the next step changes them in place. Memory: three parameter-sized
    vectors (params, Adam's m and v) plus one step's activations, each
    freed at its last reader: the trace, one layer's gradient and a block
    of layer-norm scratch, as backward consumes the trace; then x, d1
    (rebuilt in xhat1's buffer), both layers' dz and the small gradients
    while Adam computes the weight gradients, one GRADIENT_BLOCK a part;
    or, while val top-1 is measured, one chunk of val rows of at most
    EVAL_BLOCK elements a layer, gathered as it runs, so no copy of the
    val rows is kept. Large GEMMs and the Adam walk run on
    parallel.WORKERS threads; only the Adam blocks grow with the thread
    count, and the bits do not.
    """
    train_set, val_set, test_set = set(split.train_ids), set(split.val_ids), set(split.test_ids)
    if train_set & val_set or train_set & test_set or val_set & test_set:
        raise ValueError("split id lists overlap; refusing to train")
    if not split.train_ids:
        raise ValueError("empty train split")

    train_rows = data.rows_for(split.train_ids)
    val_rows = data.rows_for(split.val_ids)
    y_train, y_val = data.labels[train_rows], data.labels[val_rows]

    params = mlp.init_params(data.X.shape[1], data.n_classes, seed=config.seed,
                             hidden1=hidden1, hidden2=hidden2)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng([config.seed, 0])
    dropout_rng = np.random.default_rng([config.seed, 1])

    grads = mlp.Gradients(params.dims)  # the small gradients, reused by every step

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
        mlp.backward(params, trace, grad_logits, out=grads)  # consumes the trace
        adam_step(params, grads, state, config)
        grads.w1 = grads.w2 = None  # they hold this step's x, d1 and both dz
        return loss

    n = len(train_rows)
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            loss_sum += step(rows, epoch, start // config.batch_size) * len(rows)
        val_top1 = _top1(params, data.X, val_rows, y_val) if len(val_rows) else float("nan")
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / n, val_top1=val_top1))
        if best_epoch(history) is history[-1]:
            keep(params)
    if best_epoch(history) is None:
        keep(params)
    return history


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
    preds = mlp.predict(_eval_logits(params, data.X, rows))

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


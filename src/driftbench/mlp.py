"""Two-layer perceptron with one-vs-all heads, differentiated by hand.

Forward path: linear -> layer norm -> ReLU -> dropout, twice, then one
independent linear head per class over the shared H2-wide trunk. No
autograd framework: the backward pass below is the exact derivative of
this composition, including the path through the layer-norm statistics.

Shapes use B = batch, I = input width, H1/H2 = hidden widths, C = classes.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset, parallel

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"EMLP"

DEFAULT_HIDDEN1 = 4096
DEFAULT_HIDDEN2 = 512


FIELDS = ("w1", "b1", "ln1_gain", "ln1_bias", "w2", "b2", "ln2_gain", "ln2_bias",
          "head_w", "head_b")


def tensor_shapes(dims) -> tuple[tuple[int, ...], ...]:
    """Shape of each tensor in FIELDS order for dims (I, H1, H2, C); each must be >= 1."""
    if len(dims) != 4 or min(dims) < 1:
        raise ValueError(f"all dimensions must be positive, got {tuple(dims)}")
    i, h1, h2, c = dims
    return ((i, h1), (h1,), (h1,), (h1,), (h1, h2), (h2,), (h2,), (h2,), (c, h2), (c,))


class MlpParams:
    """The ten network tensors, each a reshaped view of one contiguous vector.

    `flat` holds them back to back in FIELDS order, the body of an EMLP
    file too; `dims` is (I, H1, H2, C). Each name in FIELDS is an attribute.
    """

    def __init__(self, dims, flat: np.ndarray):
        shapes = tensor_shapes(dims)
        sizes = [math.prod(s) for s in shapes]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"size mismatch for dims {tuple(dims)}")
        self.dims = tuple(dims)
        self.input_dim, self.hidden1, self.hidden2, self.n_classes = self.dims
        self.flat = flat
        for name, shape, part in zip(FIELDS, shapes, np.split(flat, np.cumsum(sizes[:-1]))):
            setattr(self, name, part.reshape(shape))

    @classmethod
    def zeros(cls, dims, dtype=np.float64) -> "MlpParams":
        return cls(dims, np.zeros(sum(math.prod(s) for s in tensor_shapes(dims)), dtype=dtype))

    def tensors(self) -> dict[str, np.ndarray]:
        """Field name -> view, in FIELDS order."""
        return {name: getattr(self, name) for name in FIELDS}

    def copy(self) -> "MlpParams":
        return MlpParams(self.dims, self.flat.copy())


@dataclass
class ForwardTrace:
    """What backward reads of one train-mode forward pass; the ReLU and dropout gate is d > 0."""

    x: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    d1: np.ndarray  # layer-2 input
    xhat2: np.ndarray
    inv_std2: np.ndarray
    d2: np.ndarray  # head input
    keep: float  # 1 - drop_prob


def init_params(input_dim: int, n_classes: int, seed: int = 0,
                hidden1: int = DEFAULT_HIDDEN1, hidden2: int = DEFAULT_HIDDEN2,
                dtype=np.float64) -> MlpParams:
    """Uniform(-s, s) weights with s = sqrt(6 / fan_in); zero biases, unit gains."""
    params = MlpParams.zeros((input_dim, hidden1, hidden2, n_classes), dtype)
    rng = np.random.default_rng(seed)

    def draw(weights, fan_in):
        s = np.sqrt(6.0 / fan_in)
        weights[...] = rng.uniform(-s, s, size=weights.shape)

    draw(params.w1, input_dim)
    draw(params.w2, hidden1)
    draw(params.head_w, hidden2)
    params.ln1_gain[...] = 1.0
    params.ln2_gain[...] = 1.0
    return params


def _layer_norm(z: np.ndarray, gain: np.ndarray, bias: np.ndarray, out: np.ndarray,
                inv_std: np.ndarray, scratch: np.ndarray) -> None:
    """Write gain * xhat + bias over the rows of z (B, H) into out, 1/std into inv_std (B, 1).

    Consumes z: it is centred and scaled in place and becomes xhat. out
    may be z itself (eval mode, where xhat is not kept). The squares for
    the variance go through scratch, one block of dataset.row_blocks(B, H)
    at a time. Every step works on each row alone, so any cut of the rows
    keeps the roundings of z.mean, z.var and the expression form.
    """
    b, h = z.shape
    mean = z.sum(axis=1, keepdims=True, out=inv_std)  # what ndarray.mean does, then /= h
    mean /= h
    z -= mean
    var = inv_std
    for rows in dataset.row_blocks(b, h):
        sq = np.square(z[rows], out=scratch[:rows.stop - rows.start])
        sq.sum(axis=1, keepdims=True, out=var[rows])
    var /= h
    var += LN_EPS
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=inv_std)
    z *= inv_std
    np.multiply(z, gain, out=out)  # gain * xhat: the product rounds the same either way round
    out += bias


def _hidden_layer(x, w, b, gain, bias, drop_prob, rng):
    """linear -> layer norm -> ReLU -> dropout over the rows of x.

    Returns d (B, H) and, when rng is given (train mode), the trace
    fields (xhat, inv_std, d); backward takes the ReLU and dropout gate
    from d > 0. The whole layer's dropout doubles are one rng.random call
    here, on the calling thread, freed on return. The rows are then cut
    into the parts of the layer's GEMM; each part runs the whole chain on
    its rows, into arrays allocated here, and turns its rows of the
    doubles into the mask. The parts allocate nothing large themselves: a
    helper thread's allocations would stay in its own malloc arena and add
    to peak RSS.
    """
    n, h = x.shape[0], w.shape[1]
    parts = parallel.cuts(n, parallel.gemm_parts(n, x.shape[1], h))
    z = np.empty((n, h), dtype=np.result_type(x, w))
    inv_std = np.empty((n, 1), dtype=z.dtype)
    squares = np.empty((len(parts), min(dataset.block_rows(h), n), h), dtype=z.dtype)
    if rng is None:
        d = z
    else:
        d = np.empty_like(z)
        mask = rng.random(out=np.empty((n, h)))
        keep = 1.0 - float(drop_prob)

    def part(p: int, rows: slice) -> None:
        zp, dp = np.matmul(x[rows], w, out=z[rows]), d[rows]
        zp += b
        _layer_norm(zp, gain, bias, dp, inv_std[rows], squares[p])
        np.maximum(dp, 0.0, out=dp)
        if rng is None:
            return
        mp = mask[rows]
        np.less(mp, keep, out=mp)  # 1.0 or 0.0, then 1/keep or 0 as (r < keep) * (1/keep)
        mp *= 1.0 / keep
        dp *= mp

    parallel.run_parts(part, parts)
    return d, (None if rng is None else (z, inv_std, d))


def forward(params: MlpParams, batch: np.ndarray, mode: str = "eval",
            drop_prob: float = 0.9, rng: np.random.Generator | None = None):
    """Compute logits (B, C); train mode also returns the ForwardTrace.

    Train mode drops each hidden unit with probability drop_prob, with
    masks drawn from rng, any np.random.Generator: one rng.random((B, H))
    call per layer, layer 1 first. Eval mode applies no dropout and is a
    pure function of (params, batch).
    """
    batch = np.asarray(batch, dtype=params.w1.dtype)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {params.input_dim}"
        )
    if not np.isfinite(batch).all():
        raise ValueError("batch contains non-finite values")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if train and rng is None:
        raise ValueError("train mode requires an rng for the dropout masks")
    if train and not isinstance(rng, np.random.Generator):
        raise ValueError(f"train mode needs an np.random.Generator, got {rng!r}")
    if not 0.0 <= drop_prob < 1.0:
        raise ValueError(f"drop probability must be in [0, 1), got {drop_prob}")
    rng = rng if train else None

    d1, cache1 = _hidden_layer(batch, params.w1, params.b1, params.ln1_gain,
                               params.ln1_bias, drop_prob, rng)
    d2, cache2 = _hidden_layer(d1, params.w2, params.b2, params.ln2_gain,
                               params.ln2_bias, drop_prob, rng)
    logits = d2 @ params.head_w.T
    logits += params.head_b
    if not train:
        return logits
    return logits, ForwardTrace(batch, *cache1, *cache2, 1.0 - float(drop_prob))


def _layer_norm_backward(d_out: np.ndarray, d: np.ndarray, keep: float,
                         xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray,
                         g_gain: np.ndarray, g_bias: np.ndarray, n_parts: int):
    """dz through dropout, ReLU, y = gain * xhat + bias and the norm statistics.

    d_out is the gradient w.r.t. the layer's output d; fills g_gain and
    g_bias. Consumes d_out: dz is computed in place and d_out is returned.
    A unit passed ReLU and dropout exactly where d > 0, as 1/keep >= 1. With
    d_xhat = d_out * (d > 0) * (1/keep) * gain, the roundings are those of
    inv_std * (d_xhat - d_xhat.mean(1) - (xhat * (d_xhat * xhat).sum(1)) / H).

    Three passes of n_parts parts. The first and last cut the rows, as
    their work is elementwise or per row: the gate and xhat products,
    then the rest. The middle one cuts the columns for the g_gain and
    g_bias sums over axis 0, which add each column's rows in row order
    whatever the cut; two columns a part at least, as NumPy sums a
    one-column slice pairwise. The elementwise work stays on row slices:
    on a column slice it runs slower, and NumPy buffers it on the heap of
    the helper thread, which raised peak RSS.
    """
    b, h = d_out.shape
    rows, cols = parallel.cuts(b, n_parts), parallel.cuts(h, n_parts)
    scratch = np.empty_like(d_out)

    def products(p: int, r: slice) -> None:
        dp = d_out[r]
        dp *= np.greater(d[r], 0.0, out=scratch[r])
        dp *= 1.0 / keep
        np.multiply(dp, xhat[r], out=scratch[r])

    def column_sums(p: int, c: slice) -> None:
        scratch[:, c].sum(axis=0, out=g_gain[c])
        d_out[:, c].sum(axis=0, out=g_bias[c])

    def rest(p: int, r: slice) -> None:
        dp, xp, sp = d_out[r], xhat[r], scratch[r]
        dp *= gain
        mean = dp.sum(axis=1, keepdims=True)
        mean /= h
        proj = np.multiply(dp, xp, out=sp).sum(axis=1, keepdims=True)
        dp -= mean
        np.multiply(xp, proj, out=sp)
        sp /= h  # (xhat * S) / H: xhat * (S / H) rounds differently unless H is 2^k
        dp -= sp
        dp *= inv_std[r]

    for task, cut in ((products, rows), (column_sums, cols), (rest, rows)):
        parallel.run_parts(task, cut)
    return d_out


def backward(params: MlpParams, trace: ForwardTrace, grad_logits: np.ndarray,
             out: MlpParams | None = None) -> MlpParams:
    """Exact parameter gradients for the forward composition above.

    Returns them as an MlpParams laid out like params: out if given (every
    element is overwritten), else a fresh one. grad_logits is the loss
    gradient w.r.t. the logits from the matching forward call.
    """
    if trace.d2.shape[1] != params.hidden2 or trace.x.shape[1] != params.input_dim:
        raise ValueError("trace does not match params shapes")
    grad_logits = np.asarray(grad_logits, dtype=params.flat.dtype)
    if grad_logits.shape != (trace.x.shape[0], params.n_classes):
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} != "
            f"({trace.x.shape[0]}, {params.n_classes})"
        )
    g = MlpParams(params.dims, np.empty_like(params.flat)) if out is None else out
    if g.dims != params.dims or g.flat.dtype != params.flat.dtype:
        raise ValueError(f"out buffer {g.dims} {g.flat.dtype} does not match "
                         f"params {params.dims} {params.flat.dtype}")

    np.matmul(grad_logits.T, trace.d2, out=g.head_w)
    grad_logits.sum(axis=0, out=g.head_b)
    dd2 = grad_logits @ params.head_w

    b = trace.x.shape[0]
    dz2 = _layer_norm_backward(dd2, trace.d2, trace.keep, trace.xhat2, trace.inv_std2,
                               params.ln2_gain, g.ln2_gain, g.ln2_bias,
                               parallel.gemm_parts(b, params.hidden1, params.hidden2))
    parallel.matmul(trace.d1.T, dz2, out=g.w2)
    dz2.sum(axis=0, out=g.b2)
    dd1 = parallel.matmul(dz2, params.w2.T)

    dz1 = _layer_norm_backward(dd1, trace.d1, trace.keep, trace.xhat1, trace.inv_std1,
                               params.ln1_gain, g.ln1_gain, g.ln1_bias,
                               parallel.gemm_parts(b, params.input_dim, params.hidden1))
    parallel.matmul(trace.x.T, dz1, out=g.w1)
    dz1.sum(axis=0, out=g.b1)
    return g


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Binary target matrix (B, C) with exactly one 1 per row."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels out of range [0, {n_classes})")
    targets = np.zeros((labels.shape[0], n_classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return targets


def ova_bce_loss(logits: np.ndarray, targets: np.ndarray):
    """Mean one-vs-all binary cross-entropy from logits, plus its gradient.

    Per element: -y log sigma(z) - (1-y) log(1 - sigma(z)), evaluated in
    the overflow-safe form max(z,0) - z*y + log(1 + exp(-|z|)). Returns
    (loss, grad) with grad = (sigma(z) - y) / (B * C).
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    elementwise = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    loss = float(elementwise.mean())
    with np.errstate(over="ignore"):  # exp(-z) -> inf for z < ~-709; 1/(1+inf) is exactly 0
        probs = 1.0 / (1.0 + np.exp(-logits))
    grad = (probs - targets) / logits.size
    return loss, grad


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax class index per row; ties go to the lowest index."""
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"logits must be (B, C) with C >= 2, got {logits.shape}")
    return logits.argmax(axis=1)


def save_checkpoint(params: MlpParams, path: str | Path) -> None:
    """EMLP header, u32 dims (I, H1, H2, C), then `flat` as float32 LE."""
    header = CHECKPOINT_MAGIC + struct.pack("<IIII", *params.dims)
    Path(path).write_bytes(header + params.flat.astype("<f4").tobytes())


def load_checkpoint(path: str | Path, dtype=np.float64) -> MlpParams:
    """Read an EMLP file; bad magic, dims, size or a non-finite weight raise one line."""
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    dims = struct.unpack("<IIII", raw[4:20])
    try:
        params = MlpParams(dims, np.frombuffer(raw, dtype="<f4", offset=20).astype(dtype))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.isfinite(params.flat).all():
        raise ValueError(f"{path}: non-finite weight")
    return params

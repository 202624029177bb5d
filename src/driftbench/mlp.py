"""Two-layer perceptron with one-vs-all heads, differentiated by hand.

Forward path: linear -> layer norm -> ReLU -> dropout, twice, then one
independent linear head per class over the shared 512-dim trunk. No
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

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"EMLP"

DEFAULT_HIDDEN1 = 4096
DEFAULT_HIDDEN2 = 512


FIELDS = ("w1", "b1", "ln1_gain", "ln1_bias", "w2", "b2", "ln2_gain", "ln2_bias",
          "head_w", "head_b")


def _shapes(dims) -> tuple[tuple[int, ...], ...]:
    """Shape of each tensor in FIELDS order for dims (I, H1, H2, C)."""
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
        shapes = _shapes(dims)
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
        return cls(dims, np.zeros(sum(math.prod(s) for s in _shapes(dims)), dtype=dtype))

    def tensors(self) -> dict[str, np.ndarray]:
        """Field name -> view, in FIELDS order."""
        return {name: getattr(self, name) for name in FIELDS}

    def copy(self) -> "MlpParams":
        return MlpParams(self.dims, self.flat.copy())


@dataclass
class ForwardTrace:
    """Cached activations from one train-mode forward pass."""

    x: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    relu1: np.ndarray  # bool mask, pre-dropout activation > 0
    mask1: np.ndarray  # dropout mask already scaled by 1/(1-p)
    d1: np.ndarray  # layer-2 input
    xhat2: np.ndarray
    inv_std2: np.ndarray
    relu2: np.ndarray
    mask2: np.ndarray
    d2: np.ndarray  # head input


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


def _layer_norm(z: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mean = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (z - mean) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _dropout_mask(shape, drop_prob: float, rng: np.random.Generator) -> np.ndarray:
    keep = 1.0 - drop_prob
    return (rng.random(shape) < keep).astype(np.float64) / keep


def _as_prob_pair(drop_prob) -> tuple[float, float]:
    p1, p2 = (drop_prob, drop_prob) if np.isscalar(drop_prob) else drop_prob
    for p in (p1, p2):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {p}")
    return float(p1), float(p2)


def forward(params: MlpParams, batch: np.ndarray, mode: str = "eval",
            drop_prob: float | tuple[float, float] = 0.9,
            rng: np.random.Generator | None = None):
    """Compute logits (B, C); train mode also returns the ForwardTrace.

    Train mode draws seeded dropout masks from rng (layer 1 first); eval
    mode applies no dropout and is a pure function of (params, batch).
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
    p1, p2 = _as_prob_pair(drop_prob)

    z1 = batch @ params.w1 + params.b1
    a1, xhat1, inv_std1 = _layer_norm(z1, params.ln1_gain, params.ln1_bias)
    r1 = np.maximum(a1, 0.0)
    mask1 = _dropout_mask(r1.shape, p1, rng) if train else None
    d1 = r1 * mask1 if train else r1

    z2 = d1 @ params.w2 + params.b2
    a2, xhat2, inv_std2 = _layer_norm(z2, params.ln2_gain, params.ln2_bias)
    r2 = np.maximum(a2, 0.0)
    mask2 = _dropout_mask(r2.shape, p2, rng) if train else None
    d2 = r2 * mask2 if train else r2

    logits = d2 @ params.head_w.T + params.head_b
    if not train:
        return logits
    trace = ForwardTrace(
        x=batch, xhat1=xhat1, inv_std1=inv_std1, relu1=a1 > 0, mask1=mask1, d1=d1,
        xhat2=xhat2, inv_std2=inv_std2, relu2=a2 > 0, mask2=mask2, d2=d2,
    )
    return logits, trace


def _layer_norm_backward(d_out: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                         gain: np.ndarray, g_gain: np.ndarray, g_bias: np.ndarray):
    """dz through y = gain * xhat + bias and the norm statistics; fills g_gain, g_bias."""
    (d_out * xhat).sum(axis=0, out=g_gain)
    d_out.sum(axis=0, out=g_bias)
    d_xhat = d_out * gain
    h = xhat.shape[1]
    return inv_std * (
        d_xhat
        - d_xhat.mean(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True) / h
    )


def backward(params: MlpParams, trace: ForwardTrace, grad_logits: np.ndarray) -> MlpParams:
    """Exact parameter gradients for the forward composition above.

    Returns them as an MlpParams laid out like params. grad_logits is the
    loss gradient w.r.t. the logits from the matching forward call.
    """
    if trace.d2.shape[1] != params.hidden2 or trace.x.shape[1] != params.input_dim:
        raise ValueError("trace does not match params shapes")
    grad_logits = np.asarray(grad_logits, dtype=params.flat.dtype)
    if grad_logits.shape != (trace.x.shape[0], params.n_classes):
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} != "
            f"({trace.x.shape[0]}, {params.n_classes})"
        )
    g = MlpParams(params.dims, np.empty_like(params.flat))

    np.matmul(grad_logits.T, trace.d2, out=g.head_w)
    grad_logits.sum(axis=0, out=g.head_b)
    dd2 = grad_logits @ params.head_w

    da2 = dd2 * trace.mask2 * trace.relu2
    dz2 = _layer_norm_backward(da2, trace.xhat2, trace.inv_std2, params.ln2_gain,
                               g.ln2_gain, g.ln2_bias)
    np.matmul(trace.d1.T, dz2, out=g.w2)
    dz2.sum(axis=0, out=g.b2)
    dd1 = dz2 @ params.w2.T

    da1 = dd1 * trace.mask1 * trace.relu1
    dz1 = _layer_norm_backward(da1, trace.xhat1, trace.inv_std1, params.ln1_gain,
                               g.ln1_gain, g.ln1_bias)
    np.matmul(trace.x.T, dz1, out=g.w1)
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

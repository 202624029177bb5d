"""Two-layer perceptron with one-vs-all heads, differentiated by hand.

Forward path: linear -> layer norm -> ReLU -> dropout, twice, then one
independent linear head per class over the shared 512-dim trunk. No
autograd framework: the backward pass below is the exact derivative of
this composition, including the path through the layer-norm statistics.

Shapes use B = batch, I = input width, H1/H2 = hidden widths, C = classes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"EMLP"

DEFAULT_HIDDEN1 = 4096
DEFAULT_HIDDEN2 = 512


@dataclass
class MlpParams:
    w1: np.ndarray  # (I, H1)
    b1: np.ndarray  # (H1,)
    ln1_gain: np.ndarray  # (H1,)
    ln1_bias: np.ndarray  # (H1,)
    w2: np.ndarray  # (H1, H2)
    b2: np.ndarray  # (H2,)
    ln2_gain: np.ndarray  # (H2,)
    ln2_bias: np.ndarray  # (H2,)
    head_w: np.ndarray  # (C, H2)
    head_b: np.ndarray  # (C,)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden1(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden2(self) -> int:
        return self.w2.shape[1]

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        """Field name -> array, in declared field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "MlpParams":
        return MlpParams(**{k: v.copy() for k, v in self.tensors().items()})


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
    if min(input_dim, n_classes, hidden1, hidden2) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        s = np.sqrt(6.0 / fan_in)
        return rng.uniform(-s, s, size=shape).astype(dtype)

    return MlpParams(
        w1=uniform(input_dim, (input_dim, hidden1)),
        b1=np.zeros(hidden1, dtype=dtype),
        ln1_gain=np.ones(hidden1, dtype=dtype),
        ln1_bias=np.zeros(hidden1, dtype=dtype),
        w2=uniform(hidden1, (hidden1, hidden2)),
        b2=np.zeros(hidden2, dtype=dtype),
        ln2_gain=np.ones(hidden2, dtype=dtype),
        ln2_bias=np.zeros(hidden2, dtype=dtype),
        head_w=uniform(hidden2, (n_classes, hidden2)),
        head_b=np.zeros(n_classes, dtype=dtype),
    )


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
    mask1 = _dropout_mask(r1.shape, p1, rng) if train else np.ones_like(r1)
    d1 = r1 * mask1

    z2 = d1 @ params.w2 + params.b2
    a2, xhat2, inv_std2 = _layer_norm(z2, params.ln2_gain, params.ln2_bias)
    r2 = np.maximum(a2, 0.0)
    mask2 = _dropout_mask(r2.shape, p2, rng) if train else np.ones_like(r2)
    d2 = r2 * mask2

    logits = d2 @ params.head_w.T + params.head_b
    if not train:
        return logits
    trace = ForwardTrace(
        x=batch, xhat1=xhat1, inv_std1=inv_std1, relu1=a1 > 0, mask1=mask1, d1=d1,
        xhat2=xhat2, inv_std2=inv_std2, relu2=a2 > 0, mask2=mask2, d2=d2,
    )
    return logits, trace


def _layer_norm_backward(d_out: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                         gain: np.ndarray):
    """Gradient through y = gain * xhat + bias, including the norm statistics."""
    d_gain = (d_out * xhat).sum(axis=0)
    d_bias = d_out.sum(axis=0)
    d_xhat = d_out * gain
    h = xhat.shape[1]
    dz = inv_std * (
        d_xhat
        - d_xhat.mean(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True) / h
    )
    return dz, d_gain, d_bias


def backward(params: MlpParams, trace: ForwardTrace,
             grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact parameter gradients for the forward composition above.

    Returns a dict keyed like MlpParams.tensors(). grad_logits is the
    loss gradient w.r.t. the logits from the matching forward call.
    """
    if trace.d2.shape[1] != params.hidden2 or trace.x.shape[1] != params.input_dim:
        raise ValueError("trace does not match params shapes")
    grad_logits = np.asarray(grad_logits, dtype=params.w1.dtype)
    if grad_logits.shape != (trace.x.shape[0], params.n_classes):
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} != "
            f"({trace.x.shape[0]}, {params.n_classes})"
        )

    g_head_w = grad_logits.T @ trace.d2
    g_head_b = grad_logits.sum(axis=0)
    dd2 = grad_logits @ params.head_w

    dr2 = dd2 * trace.mask2
    da2 = dr2 * trace.relu2
    dz2, g_ln2_gain, g_ln2_bias = _layer_norm_backward(
        da2, trace.xhat2, trace.inv_std2, params.ln2_gain)
    g_w2 = trace.d1.T @ dz2
    g_b2 = dz2.sum(axis=0)
    dd1 = dz2 @ params.w2.T

    dr1 = dd1 * trace.mask1
    da1 = dr1 * trace.relu1
    dz1, g_ln1_gain, g_ln1_bias = _layer_norm_backward(
        da1, trace.xhat1, trace.inv_std1, params.ln1_gain)
    g_w1 = trace.x.T @ dz1
    g_b1 = dz1.sum(axis=0)

    return {
        "w1": g_w1, "b1": g_b1, "ln1_gain": g_ln1_gain, "ln1_bias": g_ln1_bias,
        "w2": g_w2, "b2": g_b2, "ln2_gain": g_ln2_gain, "ln2_bias": g_ln2_bias,
        "head_w": g_head_w, "head_b": g_head_b,
    }


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
    """EMLP header, u32 dims (I, H1, H2, C), tensors as float32 LE in field order."""
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIII", params.input_dim, params.hidden1, params.hidden2, params.n_classes
    )
    blobs = [np.ascontiguousarray(t, dtype="<f4").tobytes()
             for t in params.tensors().values()]
    Path(path).write_bytes(header + b"".join(blobs))


def load_checkpoint(path: str | Path, dtype=np.float64) -> MlpParams:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    i, h1, h2, c = struct.unpack("<IIII", raw[4:20])
    shapes = [(i, h1), (h1,), (h1,), (h1,), (h1, h2), (h2,), (h2,), (h2,),
              (c, h2), (c,)]
    total = sum(int(np.prod(s)) for s in shapes)
    if len(raw) != 20 + total * 4:
        raise ValueError(f"{path}: size mismatch for dims ({i}, {h1}, {h2}, {c})")
    flat = np.frombuffer(raw[20:], dtype="<f4").astype(dtype)
    arrays, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return MlpParams(*arrays)

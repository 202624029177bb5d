"""Two-layer perceptron with one-vs-all heads, differentiated by hand.

Forward path: linear -> layer norm -> ReLU -> dropout, twice, then one
independent linear head per class over the shared H2-wide trunk. No
autograd framework: the backward pass below is the exact derivative of
this composition, including the path through the layer-norm statistics.

Shapes use B = batch, I = input width, H1/H2 = hidden widths, C = classes.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset, parallel

LN_EPS = 1e-5
# Elements per scratch block of the layer-norm backward, per part: a lodo-desk-wide
# layer (128 x 256) is one block, and a paper-wide one (128 x 4096) is 8 blocks a pass.
BACKWARD_BLOCK = 1 << 16
CHECKPOINT_MAGIC = b"EMLP"

DEFAULT_HIDDEN1 = 4096
DEFAULT_HIDDEN2 = 512


FIELDS = ("w1", "b1", "ln1_gain", "ln1_bias", "w2", "b2", "ln2_gain", "ln2_bias",
          "head_w", "head_b")
WEIGHTS = ("w1", "w2")  # the hidden layers' weights: gradients that Gradients streams


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


class Gradients:
    """A step's gradients with the two weight gradients left as their GEMMs' operands.

    Like MlpParams, each name in FIELDS is an attribute, in its tensor's
    shape. The small tensors (biases, layer-norm gains and biases, the
    head) are views of one float64 vector `small`, in FIELDS order; w1
    and w2 are each an (a, b) pair whose product a @ b is that gradient,
    or None.
    """

    def __init__(self, dims):
        shapes = tensor_shapes(dims)
        sizes = [0 if name in WEIGHTS else math.prod(s) for name, s in zip(FIELDS, shapes)]
        self.dims = tuple(dims)
        self.small = np.empty(sum(sizes))
        for name, shape, part in zip(FIELDS, shapes, np.split(self.small, np.cumsum(sizes[:-1]))):
            setattr(self, name, None if name in WEIGHTS else part.reshape(shape))

    def tensors(self) -> dict[str, np.ndarray | tuple[np.ndarray, np.ndarray] | None]:
        """Field name -> view or weight operands, in FIELDS order."""
        return {name: getattr(self, name) for name in FIELDS}

    def runs(self) -> list[tuple[str, slice, np.ndarray | tuple[np.ndarray, np.ndarray]]]:
        """(name, elements of MlpParams.flat, gradient) in order: each weight's
        operands, then the small tensors up to the next weight as one view of `small`."""
        i, h1, h2, _ = self.dims
        w1, w2, mid = i * h1, h1 * h2, 3 * h1  # b1, ln1_gain and ln1_bias lie between
        return [("w1", slice(0, w1), self.w1), ("b1", slice(w1, w1 + mid), self.small[:mid]),
                ("w2", slice(w1 + mid, w1 + mid + w2), self.w2),
                ("b2", slice(w1 + mid + w2, w1 + w2 + self.small.size), self.small[mid:])]


@dataclass
class ForwardTrace:
    """What backward reads of one train-mode forward pass; backward consumes it.

    Layer 1 keeps xhat1, its 1/std and the bool gate1 = d1 > 0, where a
    unit passed both ReLU and dropout, but not its output d1: backward
    rebuilds d1 from these in xhat1's buffer. Layer 2 keeps d2, the head's
    input, whose gate is d2 > 0. backward sets each array to None once it
    has read it for the last time.
    """

    x: np.ndarray | None
    xhat1: np.ndarray | None
    inv_std1: np.ndarray | None
    gate1: np.ndarray | None  # bool d1 > 0
    xhat2: np.ndarray | None
    inv_std2: np.ndarray | None
    d2: np.ndarray | None  # head input
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


def _layer_norm(z: np.ndarray, inv_std: np.ndarray, scratch: np.ndarray) -> None:
    """Turn the rows of z (B, H) into xhat in place, and write their 1/std into inv_std (B, 1).

    The squares for the variance go through scratch, one block of
    dataset.row_blocks(B, H) at a time. Every step works on each row
    alone, so any cut of the rows keeps the roundings of z.mean, z.var and
    the expression form.
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


def _output(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, out: np.ndarray,
            gate: np.ndarray | None, keep: float) -> None:
    """A hidden layer's output from its xhat, into out (which may be xhat itself).

    gain * xhat + bias, then ReLU; given the bool gate (train mode), times
    the gate and then 1/keep. backward rebuilds layer 1's output through
    this same function, so the rebuild has the forward's bits.
    """
    np.multiply(xhat, gain, out=out)  # gain * xhat: the product rounds the same either way round
    out += bias
    np.maximum(out, 0.0, out=out)
    if gate is not None:
        out *= gate  # times 1.0 or 0.0, then 1/keep: the bits of out * ((r < keep) * (1/keep))
        out *= 1.0 / keep


def _hidden_layer(x, w, b, gain, bias, drop_prob, rng):
    """linear -> layer norm -> ReLU -> dropout over the rows of x.

    Returns d (B, H) and, when rng is given (train mode), the trace
    fields (xhat, inv_std, gate), gate being the bool d > 0: where a unit
    passed both ReLU and dropout, as 1/keep >= 1. The whole layer's
    dropout doubles are one rng.random call here, on the calling thread,
    drawn into d itself. The rows are then cut into the parts of the
    layer's GEMM; each part runs the whole chain on its rows, into arrays
    allocated here: it first turns its rows of the doubles into the bool
    dropout gate, then writes the layer's output over them, and then d > 0
    over the dropout gate. The parts allocate nothing large themselves: a
    helper thread's allocations would stay in its own malloc arena and add
    to peak RSS.
    """
    n, h = x.shape[0], w.shape[1]
    parts = parallel.cuts(n, parallel.gemm_parts(n, x.shape[1], h))
    z = np.empty((n, h), dtype=np.result_type(x, w))
    inv_std = np.empty((n, 1), dtype=z.dtype)
    squares = np.empty((len(parts), min(dataset.block_rows(h), n), h), dtype=z.dtype)
    gate = keep = None
    if rng is None:
        d = z
    else:
        d = rng.random(out=np.empty_like(z))
        gate = np.empty((n, h), dtype=bool)
        keep = 1.0 - float(drop_prob)

    def part(p: int, rows: slice) -> None:
        zp, dp = np.matmul(x[rows], w, out=z[rows]), d[rows]
        if gate is not None:
            np.less(dp, keep, out=gate[rows])
        zp += b
        _layer_norm(zp, inv_std[rows], squares[p])
        _output(zp, gain, bias, dp, None if gate is None else gate[rows], keep)
        if gate is not None:
            np.greater(dp, 0.0, out=gate[rows])

    parallel.run_parts(part, parts)
    return d, (None if rng is None else (z, inv_std, gate))


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
    (xhat1, inv_std1, gate1), (xhat2, inv_std2, _) = cache1, cache2
    return logits, ForwardTrace(batch, xhat1, inv_std1, gate1, xhat2, inv_std2, d2,
                                1.0 - float(drop_prob))


def _layer_norm_backward(d_out: np.ndarray, gate: np.ndarray, keep: float,
                         xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray,
                         g_gain: np.ndarray, g_bias: np.ndarray, n_parts: int,
                         bias: np.ndarray | None = None):
    """dz through dropout, ReLU, y = gain * xhat + bias and the norm statistics.

    d_out is the gradient w.r.t. the layer's output d; fills g_gain and
    g_bias. Consumes d_out: dz is computed in place and d_out is returned.
    A unit passed ReLU and dropout exactly where gate > 0: gate is the
    layer's output d (1/keep >= 1) or the bool d > 0. With
    d_xhat = d_out * (gate > 0) * (1/keep) * gain, the roundings are those of
    inv_std * (d_xhat - d_xhat.mean(1) - (xhat * (d_xhat * xhat).sum(1)) / H).
    Given bias (with the bool gate), xhat is consumed too: each block of
    the last pass, once it has read its rows of xhat, rebuilds the layer's
    output d over them through _output, so xhat returns holding d.

    Three passes of n_parts parts, each through one scratch block a part,
    never larger than the part. The first and last cut the rows, as their
    work is elementwise or per row: the gate, then the rest with its
    projection, in blocks of BACKWARD_BLOCK elements or one row. The middle
    one cuts the columns for the g_gain and g_bias sums over axis 0, which
    add each column's rows in row order whatever the cut. Its d_out * xhat
    products go through blocks of all B rows and BACKWARD_BLOCK elements of
    the part's columns, two columns at least, as NumPy sums a one-column
    slice pairwise; for the same reason a part has two columns at least.
    Elementwise work on a column slice runs slower and makes NumPy buffer
    np.getbufsize() elements of each operand on the heap of the thread that
    runs the part, so the row passes keep theirs on row slices.
    """
    b, h = d_out.shape
    rows, cols = parallel.cuts(b, n_parts), parallel.cuts(h, n_parts)
    row_block = min(dataset.block_rows(h, BACKWARD_BLOCK), max(r.stop - r.start for r in rows))
    col_block = min(max(2, dataset.block_rows(b, BACKWARD_BLOCK)),
                    max(c.stop - c.start for c in cols))
    scratch = np.empty((n_parts, max(row_block * h, b * col_block)), dtype=d_out.dtype)

    def blocks(p: int, r: slice):
        """(rows, scratch view) per block of the part's rows r."""
        for q in dataset.row_blocks(r.stop - r.start, h, BACKWARD_BLOCK):
            n = q.stop - q.start
            yield slice(r.start + q.start, r.start + q.stop), scratch[p, :n * h].reshape(n, h)

    def gates(p: int, r: slice) -> None:
        for rb, sp in blocks(p, r):
            dp = d_out[rb]
            dp *= np.greater(gate[rb], 0.0, out=sp)
            dp *= 1.0 / keep

    def column_sums(p: int, c: slice) -> None:
        w = c.stop - c.start
        for q in dataset.row_blocks(w, b, b * col_block):
            # a lone last column is summed with the one before it, which gets the same bits again
            cb = slice(c.start + max(0, min(q.start, q.stop - 2)), c.start + q.stop)
            n = cb.stop - cb.start
            sp = np.multiply(d_out[:, cb], xhat[:, cb], out=scratch[p, :b * n].reshape(b, n))
            sp.sum(axis=0, out=g_gain[cb])
        d_out[:, c].sum(axis=0, out=g_bias[c])

    def rest(p: int, r: slice) -> None:
        for rb, sp in blocks(p, r):
            dp, xp = d_out[rb], xhat[rb]
            dp *= gain
            mean = dp.sum(axis=1, keepdims=True)
            mean /= h
            proj = np.multiply(dp, xp, out=sp).sum(axis=1, keepdims=True)
            dp -= mean
            np.multiply(xp, proj, out=sp)
            sp /= h  # (xhat * S) / H: xhat * (S / H) rounds differently unless H is 2^k
            dp -= sp
            dp *= inv_std[rb]
            if bias is not None:  # the block's last read of xhat is done
                _output(xp, gain, bias, xp, gate[rb], keep)

    for task, cut in ((gates, rows), (column_sums, cols), (rest, rows)):
        parallel.run_parts(task, cut)
    return d_out


def backward(params: MlpParams, trace: ForwardTrace, grad_logits: np.ndarray,
             out: MlpParams | Gradients | None = None) -> MlpParams | Gradients:
    """Exact parameter gradients for the forward composition above; consumes trace.

    Fills out and returns it: an MlpParams laid out like params (every
    element is overwritten; a fresh one if out is None), or a Gradients.
    A Gradients gets the small gradients and, for the weights, the
    operands of their GEMMs: w1 = (x.T, dz1) and w2 = (d1.T, dz2), so that
    training.adam_step computes them a row block at a time. grad_logits is
    the loss gradient w.r.t. the logits from the matching forward call.

    Each of the trace's arrays is set to None after its last read here:
    xhat2, inv_std2 and d2 once layer 2's backward is done. Layer 1's
    layer-norm backward rebuilds d1, bit for bit, in xhat1's buffer, on
    the forward's row parts, so no step holds xhat1 and d1 at once; then
    the trace holds nothing, and a second backward on it raises ValueError.
    """
    if trace.xhat1 is None:
        raise ValueError("trace already consumed: backward takes each forward's trace once")
    if trace.d2.shape[1] != params.hidden2 or trace.x.shape[1] != params.input_dim:
        raise ValueError("trace does not match params shapes")
    grad_logits = np.asarray(grad_logits, dtype=params.flat.dtype)
    if grad_logits.shape != (trace.x.shape[0], params.n_classes):
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} != "
            f"({trace.x.shape[0]}, {params.n_classes})"
        )
    g = MlpParams(params.dims, np.empty_like(params.flat)) if out is None else out
    if g.dims != params.dims or g.head_b.dtype != params.flat.dtype:
        raise ValueError(f"out buffer {g.dims} {g.head_b.dtype} does not match "
                         f"params {params.dims} {params.flat.dtype}")

    np.matmul(grad_logits.T, trace.d2, out=g.head_w)
    grad_logits.sum(axis=0, out=g.head_b)
    dd2 = grad_logits @ params.head_w

    b = trace.x.shape[0]
    dz2 = _layer_norm_backward(dd2, trace.d2, trace.keep, trace.xhat2, trace.inv_std2,
                               params.ln2_gain, g.ln2_gain, g.ln2_bias,
                               parallel.gemm_parts(b, params.hidden1, params.hidden2))
    trace.xhat2 = trace.inv_std2 = trace.d2 = None
    dz2.sum(axis=0, out=g.b2)
    dd1 = parallel.matmul(dz2, params.w2.T)

    dz1 = _layer_norm_backward(dd1, trace.gate1, trace.keep, trace.xhat1, trace.inv_std1,
                               params.ln1_gain, g.ln1_gain, g.ln1_bias,
                               parallel.gemm_parts(b, params.input_dim, params.hidden1),
                               bias=params.ln1_bias)
    x, d1 = trace.x, trace.xhat1
    trace.x = trace.xhat1 = trace.inv_std1 = trace.gate1 = None
    dz1.sum(axis=0, out=g.b1)
    if isinstance(g, Gradients):
        g.w1, g.w2 = (x.T, dz1), (d1.T, dz2)
    else:
        parallel.matmul(d1.T, dz2, out=g.w2)
        parallel.matmul(x.T, dz1, out=g.w1)
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


def _write_float32(params: MlpParams, write) -> None:
    """Call write with `flat` as float32 LE, one dataset.BLOCK of elements at a time.

    Each block is cast into one buffer, so no float32 copy of `flat` is
    made. A weight not finite in float32 (one past its range too), which
    load_checkpoint would refuse, raises one ValueError naming its tensor.
    """
    buf = np.empty(min(dataset.BLOCK, params.flat.size), dtype="<f4")
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
        for b in dataset.row_blocks(params.flat.size, 1):
            chunk = buf[:b.stop - b.start]
            np.copyto(chunk, params.flat[b], casting="same_kind")  # astype's rounding
            if not np.isfinite(chunk).all():
                name = next(k for k, t in params.tensors().items()
                            if not np.isfinite(t.astype("<f4")).all())
                raise ValueError(f"cannot save {name}: a weight is not finite in float32")
            write(chunk.data)


def save_checkpoint(params: MlpParams, out) -> None:
    """EMLP header, u32 dims (I, H1, H2, C), then `flat` as float32 LE.

    out is a path, or a binary file open for writing, which stays open.
    Weights that _write_float32 refuses raise its ValueError. A path is
    checked before it is opened, so it keeps what it held; an open file
    may then hold part of the checkpoint.
    """
    if isinstance(out, (str, os.PathLike)):
        _write_float32(params, lambda data: None)
        with open(out, "wb") as fh:
            return save_checkpoint(params, fh)
    out.write(CHECKPOINT_MAGIC + struct.pack("<IIII", *params.dims))
    _write_float32(params, out.write)


def load_checkpoint(path: str | Path, dtype=np.float64) -> MlpParams:
    """Read an EMLP file; bad magic, dims, size or a non-finite weight raise one line.

    The float32 body streams into the weights one dataset.BLOCK of
    elements at a time through one buffer, so no copy of the file is held.
    """
    with open(path, "rb") as fh:
        head = fh.read(20)
        if len(head) < 20 or head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic")
        dims = struct.unpack("<IIII", head[4:])
        try:
            size = sum(math.prod(s) for s in tensor_shapes(dims))
            if os.fstat(fh.fileno()).st_size != 20 + 4 * size:
                raise ValueError(f"size mismatch for dims {dims}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        params = MlpParams(dims, np.empty(size, dtype=dtype))
        buf = np.empty(min(dataset.BLOCK, size), dtype="<f4")
        for b in dataset.row_blocks(size, 1):
            chunk = buf[:b.stop - b.start]
            if fh.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path}: size mismatch for dims {dims}")
            if not np.isfinite(chunk).all():
                raise ValueError(f"{path}: non-finite weight")
            params.flat[b] = chunk
    return params

"""Network forward/backward math, loss, and checkpoint format."""
import dataclasses
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import record_parts
from driftbench import dataset, mlp, parallel
from driftbench.mlp import (
    CHECKPOINT_MAGIC,
    FIELDS,
    LN_EPS,
    ForwardTrace,
    MlpParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    one_hot,
    ova_bce_loss,
    predict,
    save_checkpoint,
)


def tiny_params(seed=0, dtype=np.float64):
    return init_params(4, 2, seed=seed, hidden1=3, hidden2=2, dtype=dtype)


def reference_forward(p, x):
    """Independent recompute of the eval path, written long-hand."""
    def ln(z, gain, bias):
        m = z.mean(axis=1, keepdims=True)
        v = z.var(axis=1, keepdims=True)
        return gain * (z - m) / np.sqrt(v + LN_EPS) + bias

    r1 = np.maximum(ln(x @ p.w1 + p.b1, p.ln1_gain, p.ln1_bias), 0.0)
    r2 = np.maximum(ln(r1 @ p.w2 + p.b2, p.ln2_gain, p.ln2_bias), 0.0)
    return r2 @ p.head_w.T + p.head_b


def loss_at(p, x, targets):
    logits = forward(p, x, mode="eval")
    return ova_bce_loss(logits, targets)[0]


def layer_outputs(p, x, drop_prob, rng):
    """Each hidden layer's output d, through the layers a train-mode forward
    runs, from the same draws: the trace keeps only d1's gate and d2."""
    d1, _ = mlp._hidden_layer(x, p.w1, p.b1, p.ln1_gain, p.ln1_bias, drop_prob, rng)
    d2, _ = mlp._hidden_layer(d1, p.w2, p.b2, p.ln2_gain, p.ln2_bias, drop_prob, rng)
    return d1, d2


def test_init_is_seed_deterministic():
    a, b = tiny_params(seed=5), tiny_params(seed=5)
    for name, t in a.tensors().items():
        assert np.array_equal(t, b.tensors()[name]), name
    c = tiny_params(seed=6)
    assert not np.array_equal(a.w1, c.w1)


def test_init_ranges_and_fill():
    p = init_params(10, 3, seed=1, hidden1=7, hidden2=5)
    assert np.all(p.b1 == 0) and np.all(p.b2 == 0) and np.all(p.head_b == 0)
    assert np.all(p.ln1_gain == 1) and np.all(p.ln2_gain == 1)
    assert np.all(p.ln1_bias == 0) and np.all(p.ln2_bias == 0)
    for w, fan_in in ((p.w1, 10), (p.w2, 7), (p.head_w, 5)):
        bound = np.sqrt(6.0 / fan_in)
        assert np.abs(w).max() <= bound
        assert w.std() > 0


def test_init_rejects_nonpositive_dims():
    with pytest.raises(ValueError, match="positive"):
        init_params(0, 2, hidden1=3, hidden2=2)
    with pytest.raises(ValueError, match="positive"):
        init_params(4, 2, hidden1=3, hidden2=0)


def test_zero_weights_give_zero_logits():
    p = tiny_params()
    for name, t in p.tensors().items():
        t[...] = 0.0
    logits = forward(p, np.ones((5, 4)), mode="eval")
    assert np.all(logits == 0.0)


def test_eval_forward_is_pure():
    p = tiny_params()
    x = np.random.default_rng(2).standard_normal((6, 4))
    a = forward(p, x, mode="eval")
    b = forward(p, x, mode="eval")
    assert np.array_equal(a, b)
    assert a.shape == (6, 2)


def test_forward_matches_straight_line_recompute():
    p = tiny_params(seed=3)
    x = np.random.default_rng(4).standard_normal((8, 4))
    got = forward(p, x, mode="eval")
    want = reference_forward(p, x)
    assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_train_mode_with_no_dropout_matches_eval():
    p = tiny_params(seed=3)
    x = np.random.default_rng(4).standard_normal((8, 4))
    rng = np.random.default_rng(0)
    logits, trace = forward(p, x, mode="train", drop_prob=0.0, rng=rng)
    assert np.allclose(logits, forward(p, x, mode="eval"), atol=1e-12)
    # no unit dropped or scaled: each layer's d is its ReLU output
    assert trace.keep == 1.0
    d1, d2 = layer_outputs(p, x, 0.0, np.random.default_rng(0))
    assert np.array_equal(trace.gate1, d1 > 0) and np.array_equal(trace.d2, d2)
    for d, x_in, w, b, gain, bias in ((d1, x, p.w1, p.b1, p.ln1_gain, p.ln1_bias),
                                      (d2, d1, p.w2, p.b2, p.ln2_gain, p.ln2_bias)):
        a = expression_layer_norm(x_in @ w + b, gain, bias)[0]
        assert np.array_equal(d, np.maximum(a, 0.0))


def test_forward_error_paths():
    p = tiny_params()
    x = np.zeros((3, 4))
    with pytest.raises(ValueError, match="incompatible with input_dim"):
        forward(p, np.zeros((3, 5)))
    with pytest.raises(ValueError, match="incompatible with input_dim"):
        forward(p, np.zeros(4))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        forward(p, bad)
    with pytest.raises(ValueError, match="mode must be"):
        forward(p, x, mode="test")
    with pytest.raises(ValueError, match="requires an rng"):
        forward(p, x, mode="train")
    with pytest.raises(ValueError, match="drop probability"):
        forward(p, x, mode="train", drop_prob=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="drop probability"):
        forward(p, x, mode="train", drop_prob=-0.1, rng=np.random.default_rng(0))


def test_layer_norm_statistics():
    p = tiny_params(seed=1)
    x = np.random.default_rng(9).standard_normal((16, 4)) * 3.0
    _, trace = forward(p, x, mode="train", drop_prob=0.0,
                       rng=np.random.default_rng(0))
    for xhat in (trace.xhat1, trace.xhat2):
        assert np.abs(xhat.mean(axis=1)).max() < 1e-6
        # variance of xhat is var/(var+eps): always <= 1, just shy of it
        v = xhat.var(axis=1)
        assert np.all(v <= 1.0 + 1e-12)
        assert np.all(v > 1.0 - 1e-3)


def test_dropout_mask_values():
    """At drop 0.5 each unit of d is its ReLU output times 0.0 or 2.0, and both occur."""
    p = tiny_params()
    x = np.random.default_rng(1).standard_normal((32, 4))
    _, trace = forward(p, x, mode="train", drop_prob=0.5,
                       rng=np.random.default_rng(7))
    assert trace.keep == 0.5
    d1, d2 = layer_outputs(p, x, 0.5, np.random.default_rng(7))
    assert np.array_equal(trace.gate1, d1 > 0) and np.array_equal(trace.d2, d2)
    for d, x_in, w, b, gain, bias in ((d1, x, p.w1, p.b1, p.ln1_gain, p.ln1_bias),
                                      (d2, d1, p.w2, p.b2, p.ln2_gain, p.ln2_bias)):
        r = np.maximum(expression_layer_norm(x_in @ w + b, gain, bias)[0], 0.0)
        assert np.all((d == 0.0) | (d == 2.0 * r))
        assert ((d == 0.0) & (r > 0.0)).any() and ((d == 2.0 * r) & (r > 0.0)).any()


def test_dropout_scaling_preserves_expectation():
    p = tiny_params(seed=2)
    x = np.random.default_rng(3).standard_normal((4, 4))
    # layer 1's output: the clean activation is its dropout's target
    target = layer_outputs(p, x, 0.0, np.random.default_rng(0))[0]
    drop = 0.5
    rng = np.random.default_rng(42)
    n = 10000
    acc = np.zeros_like(target)
    for _ in range(n):
        acc += layer_outputs(p, x, drop, rng)[0]
    mean = acc / n
    # per-element SE of the inverted-dropout estimator is |target| / sqrt(n)
    tol = 3.0 * np.abs(target) / np.sqrt(n) + 1e-12
    assert np.all(np.abs(mean - target) <= tol)


def test_bce_loss_reference_values():
    loss, _ = ova_bce_loss(np.array([[50.0]]), np.array([[1.0]]))
    assert loss < 1e-6
    loss, _ = ova_bce_loss(np.array([[-50.0]]), np.array([[0.0]]))
    assert loss < 1e-6
    loss, _ = ova_bce_loss(np.zeros((3, 4)), one_hot(np.array([0, 1, 2]), 4))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_bce_loss_matches_clamped_probability_form():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((3, 4)) * 4.0
    targets = (rng.random((3, 4)) < 0.5).astype(float)
    loss, grad = ova_bce_loss(logits, targets)
    probs = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-12, 1 - 1e-12)
    want = float(np.mean(-targets * np.log(probs) - (1 - targets) * np.log(1 - probs)))
    assert abs(loss - want) < 1e-9
    want_grad = (1.0 / (1.0 + np.exp(-logits)) - targets) / logits.size
    assert np.allclose(grad, want_grad, atol=1e-12)
    assert loss >= 0.0


def test_bce_loss_extreme_logits_are_exact_and_warning_free():
    logits = np.array([[800.0, -800.0], [-800.0, 800.0]])
    targets = np.array([[1.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, grad = ova_bce_loss(logits, targets)
    # row 0 is right at full confidence, row 1 wrong by 800 on both classes
    assert loss == 400.0
    assert grad.tolist() == [[0.0, 0.0], [-0.25, 0.25]]


def test_bce_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        ova_bce_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_backward_zero_grad_logits():
    p = tiny_params(seed=1)
    x = np.random.default_rng(2).standard_normal((5, 4))
    _, trace = forward(p, x, mode="train", drop_prob=0.0,
                       rng=np.random.default_rng(0))
    grads = backward(p, trace, np.zeros((5, 2)))
    assert isinstance(grads, MlpParams) and grads.dims == p.dims
    assert set(grads.tensors()) == set(p.tensors())
    for name, g in grads.tensors().items():
        assert np.all(g == 0.0), name
        assert g.shape == p.tensors()[name].shape


def reference_backward(params, trace, grad_logits, gates):
    """Backward written per tensor, returning a dict: the reference for backward.

    trace is expression_forward's, and gates is (relu1, mask1, relu2,
    mask2, d1) as it returns them.
    """
    relu1, mask1, relu2, mask2, d1 = gates

    def ln_backward(d_out, xhat, inv_std, gain):
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

    g_head_w = grad_logits.T @ trace.d2
    g_head_b = grad_logits.sum(axis=0)
    dd2 = grad_logits @ params.head_w
    dr2 = dd2 * mask2
    da2 = dr2 * relu2
    dz2, g_ln2_gain, g_ln2_bias = ln_backward(da2, trace.xhat2, trace.inv_std2,
                                              params.ln2_gain)
    g_w2 = d1.T @ dz2
    g_b2 = dz2.sum(axis=0)
    dd1 = dz2 @ params.w2.T
    dr1 = dd1 * mask1
    da1 = dr1 * relu1
    dz1, g_ln1_gain, g_ln1_bias = ln_backward(da1, trace.xhat1, trace.inv_std1,
                                              params.ln1_gain)
    g_w1 = trace.x.T @ dz1
    g_b1 = dz1.sum(axis=0)
    return {
        "w1": g_w1, "b1": g_b1, "ln1_gain": g_ln1_gain, "ln1_bias": g_ln1_bias,
        "w2": g_w2, "b2": g_b2, "ln2_gain": g_ln2_gain, "ln2_bias": g_ln2_bias,
        "head_w": g_head_w, "head_b": g_head_b,
    }


@pytest.mark.parametrize("case", range(6))
def test_backward_matches_dict_reference_bitwise(case):
    rng = np.random.default_rng(100 + case)
    i, h1, h2, c = (int(d) for d in rng.integers(1, 48, size=4))
    c = max(c, 2)
    p = init_params(i, c, seed=case, hidden1=h1, hidden2=h2)
    x = rng.standard_normal((int(rng.integers(1, 40)), i)) * 3.0
    logits, trace = forward(p, x, mode="train", drop_prob=0.5,
                            rng=np.random.default_rng(case))
    _, want_trace, gates = expression_forward(p, x, mode="train", drop_prob=0.5,
                                              rng=np.random.default_rng(case), gates=True)
    _, grad_logits = ova_bce_loss(logits, one_hot(rng.integers(0, c, len(x)), c))
    got = backward(p, trace, grad_logits)
    want = reference_backward(p, want_trace, grad_logits, gates)
    assert list(got.tensors()) == list(want)
    for name, g in got.tensors().items():
        assert g.shape == want[name].shape, name
        assert np.array_equal(g, want[name]), name


def expression_layer_norm(z, gain, bias):
    mean = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (z - mean) * inv_std
    return gain * xhat + bias, xhat, inv_std


def expression_dropout_mask(shape, drop_prob, rng):
    keep = 1.0 - drop_prob
    return (rng.random(shape) < keep).astype(np.float64) / keep


def expression_forward(params, batch, mode="eval", drop_prob=0.9, rng=None, gates=False):
    """forward with one fresh array per expression: the bitwise reference.

    In train mode, gates=True also returns its own (relu1, mask1, relu2,
    mask2, d1): the bool ReLU masks, the scaled dropout masks and layer 1's
    output, which the trace does not keep.
    """
    train = mode == "train"
    z1 = batch @ params.w1 + params.b1
    a1, xhat1, inv_std1 = expression_layer_norm(z1, params.ln1_gain, params.ln1_bias)
    r1 = np.maximum(a1, 0.0)
    mask1 = expression_dropout_mask(r1.shape, drop_prob, rng) if train else None
    d1 = r1 * mask1 if train else r1

    z2 = d1 @ params.w2 + params.b2
    a2, xhat2, inv_std2 = expression_layer_norm(z2, params.ln2_gain, params.ln2_bias)
    r2 = np.maximum(a2, 0.0)
    mask2 = expression_dropout_mask(r2.shape, drop_prob, rng) if train else None
    d2 = r2 * mask2 if train else r2

    logits = d2 @ params.head_w.T + params.head_b
    if not train:
        return logits
    trace = ForwardTrace(x=batch, xhat1=xhat1, inv_std1=inv_std1, gate1=d1 > 0,
                         xhat2=xhat2, inv_std2=inv_std2, d2=d2, keep=1.0 - drop_prob)
    if gates:
        return logits, trace, (a1 > 0, mask1, a2 > 0, mask2, d1)
    return logits, trace


def random_problem(case):
    """Params with trained-looking gains and biases, and a batch; widths are
    drawn, so most are not powers of two."""
    rng = np.random.default_rng(300 + case)
    i, h1, h2 = (int(d) for d in rng.integers(1, 150, size=3))
    c = int(rng.integers(2, 12))
    p = init_params(i, c, seed=case, hidden1=h1, hidden2=h2)
    p.flat[:] += 0.3 * rng.standard_normal(p.flat.size)
    x = rng.standard_normal((int(rng.integers(1, 70)), i)) * 3.0
    return p, x


def assert_traces_equal(got, want):
    for f in dataclasses.fields(ForwardTrace):
        a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("drop_prob", ["eval", 0.0, 0.5, 0.9])
def test_forward_matches_expression_form_bitwise(case, drop_prob):
    p, x = random_problem(case)
    flat_before, x_before = p.flat.copy(), x.copy()
    if drop_prob == "eval":
        got = forward(p, x, mode="eval")
        want = expression_forward(p, x, mode="eval")
    else:
        got, trace = forward(p, x, mode="train", drop_prob=drop_prob,
                             rng=np.random.default_rng(case))
        want, want_trace = expression_forward(p, x, mode="train", drop_prob=drop_prob,
                                              rng=np.random.default_rng(case))
        assert_traces_equal(trace, want_trace)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(p.flat, flat_before) and np.array_equal(x, x_before)


def traced_problem(case):
    """random_problem's params, a train-mode trace of its batch and the trace's
    logits gradient; the same arrays at every call, as backward consumes a trace."""
    p, x = random_problem(case)
    logits, trace = forward(p, x, mode="train", drop_prob=0.5,
                            rng=np.random.default_rng(case))
    _, grad_logits = ova_bce_loss(logits, one_hot(np.arange(len(x)) % p.n_classes,
                                                  p.n_classes))
    return p, trace, grad_logits


def trace_arrays(trace):
    return {f.name: getattr(trace, f.name) for f in dataclasses.fields(ForwardTrace)
            if f.name != "keep"}


def copy_trace(trace):
    return dataclasses.replace(trace, **{k: a.copy() for k, a in trace_arrays(trace).items()})


@pytest.mark.parametrize("case", range(4))
def test_backward_consumes_the_trace_and_leaves_params_unchanged(case):
    """backward drops every array of the trace and changes no parameter. A
    second backward on the spent trace is refused in one line, before it
    writes any gradient."""
    p, trace, grad_logits = traced_problem(case)
    flat_before = p.flat.copy()
    backward(p, trace, grad_logits)
    assert all(a is None for a in trace_arrays(trace).values())
    assert np.array_equal(p.flat, flat_before)
    buf = MlpParams(p.dims, np.full_like(p.flat, np.nan))
    with pytest.raises(ValueError, match="^trace already consumed") as err:
        backward(p, trace, grad_logits, out=buf)
    assert "\n" not in str(err.value) and np.isnan(buf.flat).all()


def test_train_trace_holds_layer_1s_gate_in_place_of_its_output():
    """x, layer 1's xhat, 1/std and bool gate d1 > 0, and layer 2's xhat,
    1/std and d: no ReLU or dropout mask, and no d1."""
    i, h1, h2, b = 7, 13, 5, 11
    p = init_params(i, 3, hidden1=h1, hidden2=h2)
    x = np.random.default_rng(0).standard_normal((b, i))
    _, trace = forward(p, x, mode="train", drop_prob=0.5, rng=np.random.default_rng(0))
    arrays = list(trace_arrays(trace).values())
    assert [a.dtype == bool for a in arrays] == [False, False, False, True, False, False, False]
    assert sum(a.nbytes for a in arrays) == 8 * b * (i + h1 + 2 * h2 + 2) + b * h1


@pytest.mark.parametrize("dims,rows", [((256, 4096, 512, 10), 128), ((256, 4096, 512, 10), 20),
                                       ((256, 4096, 300, 10), 128)],
                         ids=["paper", "paper-tail", "hidden2-300"])
def test_backward_hands_adam_the_forwards_d1_rebuilt_in_xhat1(monkeypatch, fast_switching,
                                                               dims, rows):
    """The d1 in w2's operands is the forward's d1 bit for bit, in xhat1's
    buffer, with 1, 2 and 3 workers. The rebuild runs in the last pass of
    layer 1's layer-norm backward, on the forward's row parts (one for the
    20-row tail), so backward makes no run_parts call beyond its 3 + 1 + 3.
    Units with a zero gain and a -0.0 bias put signed zeros before the
    ReLU."""
    i, h1, h2, c = dims
    hidden_layer, outputs = mlp._hidden_layer, []

    def noting(*args):
        d, fields = hidden_layer(*args)
        outputs.append(d.copy())
        return d, fields
    monkeypatch.setattr(mlp, "_hidden_layer", noting)
    rng = np.random.default_rng(0)
    p = init_params(i, c, seed=0, hidden1=h1, hidden2=h2)
    p.flat[:] += 0.3 * rng.standard_normal(p.flat.size)
    p.ln1_gain[:64], p.ln1_bias[:64] = 0.0, -0.0
    x = rng.standard_normal((rows, i))
    targets = one_hot(np.arange(rows) % c, c)
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        outputs.clear()
        logits, trace = forward(p, x, mode="train", drop_prob=0.5, rng=np.random.default_rng(1))
        xhat1 = trace.xhat1
        _, grad_logits = ova_bce_loss(logits, targets)
        parts = record_parts(monkeypatch)
        grads = backward(p, trace, grad_logits, out=mlp.Gradients(p.dims))
        d1 = grads.w2[0].T
        assert d1.tobytes() == outputs[0].tobytes(), workers
        assert np.shares_memory(d1, xhat1) and grads.w1[0].base is x
        layer1, layer2 = parallel.gemm_parts(rows, i, h1), parallel.gemm_parts(rows, h1, h2)
        assert parts == [layer2] * 3 + [parallel.gemm_parts(rows, h2, h1)] + [layer1] * 3
        assert layer1 == (workers if rows == 128 else 1), workers


@pytest.mark.parametrize("case", range(4))
def test_backward_fills_a_given_buffer(case):
    p, trace, grad_logits = traced_problem(case)
    buf = MlpParams(p.dims, np.full_like(p.flat, np.nan))
    got = backward(p, trace, grad_logits, out=buf)
    assert got is buf
    assert np.isfinite(buf.flat).all()
    p, trace, grad_logits = traced_problem(case)  # backward consumed the first trace
    assert np.array_equal(buf.flat, backward(p, trace, grad_logits).flat)


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("drop_prob", ["eval", 0.5])
@pytest.mark.parametrize("ln_block", [1, 1000])
def test_layer_norm_row_blocks_keep_the_bits(case, drop_prob, ln_block, monkeypatch):
    """Squaring one row, or a few, at a time rounds as the one-shot expression form."""
    monkeypatch.setattr(dataset, "BLOCK", ln_block)  # widths < 150: 1 or 6+ rows a block
    p, x = random_problem(case)
    x = np.concatenate([x] * 4)  # several blocks whatever the drawn batch size
    if drop_prob == "eval":
        assert np.array_equal(forward(p, x), expression_forward(p, x))
        return
    got, trace = forward(p, x, mode="train", drop_prob=drop_prob,
                         rng=np.random.default_rng(case))
    want, want_trace = expression_forward(p, x, mode="train", drop_prob=drop_prob,
                                          rng=np.random.default_rng(case))
    assert np.array_equal(got, want)
    assert_traces_equal(trace, want_trace)


def forward_backward_eval(p, x, targets):
    """Logits, a copy of the trace as forward made it, the gradients and eval logits."""
    logits, trace = forward(p, x, mode="train", drop_prob=0.5,
                            rng=np.random.default_rng(5))
    made = copy_trace(trace)
    _, grad_logits = ova_bce_loss(logits, targets)
    return logits, made, backward(p, trace, grad_logits), forward(p, x)


@pytest.mark.parametrize("rows,hidden2,split_calls",
                         [(21, 136, 13), (128, 136, 13), (21, 300, 7), (128, 300, 7)],
                         ids=["21", "128", "21-width300", "128-width300"])
def test_layer_parts_keep_every_bit_whatever_the_worker_count(monkeypatch, fast_switching,
                                                              rows, hidden2, split_calls):
    """Layers cut in 2 and 3 row parts (and column parts in the layer-norm
    backward) give the bits of one part. 296 and 136 are multiples of 8 but
    not of 3, and 21 rows make the 2-part row cut uneven. BLAS rounds the
    last width % 8 columns of a row-cut product differently on some CPUs,
    so the layer 300 wide, its backward and d1.T@dz2 must run in one part."""
    monkeypatch.setattr(parallel, "GEMM_PART_FLOPS", 1)
    p = init_params(40, 5, seed=2, hidden1=296, hidden2=hidden2)
    p.flat[:] += 0.3 * np.random.default_rng(3).standard_normal(p.flat.size)
    x = np.random.default_rng(4).standard_normal((rows, 40)) * 3.0
    targets = one_hot(np.arange(rows) % 5, 5)
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        parts = record_parts(monkeypatch)
        runs[workers] = forward_backward_eval(p, x, targets)
        # 2 layers in train and 2 in eval, 3 passes in each of 2 layer-norm
        # backwards, and the 3 backward GEMMs of parallel.matmul
        assert len(parts) == 13 and parts.count(workers) == (13 if workers == 1 else split_calls)
    want_logits, want_trace, want_grads, want_eval = runs[1]
    for workers in (2, 3):
        logits, trace, grads, eval_logits = runs[workers]
        assert np.array_equal(logits, want_logits), workers
        assert_traces_equal(trace, want_trace)
        for name, g in grads.tensors().items():
            assert np.array_equal(g, want_grads.tensors()[name]), (workers, name)
        assert np.array_equal(eval_logits, want_eval), workers


def layer_norm_backward_problem(rows, h, seed):
    """d_out, d, xhat, inv_std and gain as a train step hands them to the
    layer-norm backward: d is zero where ReLU or dropout gated a unit."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, h)) * 3.0
    xhat = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
    d = np.maximum(rng.standard_normal((rows, h)), 0.0) * (rng.random((rows, h)) < 0.5) * 2.0
    inv_std = rng.uniform(0.5, 2.0, (rows, 1))
    gain = 1.0 + 0.3 * rng.standard_normal(h)
    return rng.standard_normal((rows, h)) / (5 * rows), d, xhat, inv_std, gain


@pytest.mark.parametrize("rows,h", [(21, 136), (21, 45), (6, 7), (128, 296)])
def test_layer_norm_backward_blocks_keep_the_bits(monkeypatch, rows, h):
    """One-row blocks in the row passes and two-column blocks in the column
    sums (BACKWARD_BLOCK = 1) give the bits of whole-part blocks, in 1, 2
    and 3 parts. 45 and 7 columns leave parts of an odd width, whose last
    two-column block would be a lone column. With the bool gate d > 0 and
    the bias, as for layer 1, dz is the same, and xhat becomes the layer's
    output, which the forward's operations give, in each block."""
    d_out, d, xhat, inv_std, gain = layer_norm_backward_problem(rows, h, rows * h)
    bias = 0.3 * np.random.default_rng(h).standard_normal(h)
    output = np.maximum(xhat * gain + bias, 0.0) * (d > 0) * (1 / 0.5)
    inputs = (d, xhat, inv_std, gain)
    before = [a.copy() for a in inputs]
    runs = {}
    for block in (1, 1 << 40):
        monkeypatch.setattr(mlp, "BACKWARD_BLOCK", block)
        for parts in (1, 2, 3):
            for gate, rebuild in ((d, None), (d > 0, bias)):
                calls = record_parts(monkeypatch)
                g_gain, g_bias = np.full(h, np.nan), np.full(h, np.nan)
                x = xhat if rebuild is None else xhat.copy()
                dz = mlp._layer_norm_backward(d_out.copy(), gate, 0.5, x, inv_std, gain,
                                              g_gain, g_bias, parts, rebuild)
                assert calls == [parts] * 3
                assert rebuild is None or x.tobytes() == output.tobytes()
                runs[block, parts, rebuild is None] = dz, g_gain, g_bias
    want = runs[1 << 40, 1, True]
    for key, got in runs.items():
        for name, a, b in zip(("dz", "g_gain", "g_bias"), got, want):
            assert np.array_equal(a, b), (key, name)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


@pytest.mark.parametrize("rows,h,parts", [(128, 4096, 1), (128, 4096, 2), (128, 256, 1)])
def test_layer_norm_backward_scratch_is_one_block_a_part(rows, h, parts):
    """The scratch is one BACKWARD_BLOCK a part, never more than the layer:
    a paper-wide layer (128 x 4096) takes 512 KiB a part, not 4 MiB, and a
    lodo-desk-wide one (128 x 256) is one block."""
    d_out, d, xhat, inv_std, gain = layer_norm_backward_problem(rows, h, 0)
    g_gain, g_bias = np.empty(h), np.empty(h)
    tracemalloc.start()
    try:
        mlp._layer_norm_backward(d_out, d, 0.5, xhat, inv_std, gain, g_gain, g_bias, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = parts * min(mlp.BACKWARD_BLOCK, rows * h // parts) * 8
    # and, a part, the buffers of NumPy's iterator for the two operands of a
    # product on a column slice, plus the per-row sums
    extra = parts * 2 * np.getbufsize() * 8 + 32 * 1024
    assert peak < scratch + extra, (peak, scratch)


def test_train_forward_takes_any_generator_whatever_the_worker_count(monkeypatch):
    """Each layer's mask is one draw on the caller, so any bit generator
    gives the masks of the expression form, in one part or in several."""
    monkeypatch.setattr(parallel, "GEMM_PART_FLOPS", 1)
    p = init_params(40, 5, seed=2, hidden1=296, hidden2=136)
    x = np.random.default_rng(4).standard_normal((21, 40))
    for bit_generator in (np.random.MT19937, np.random.PCG64DXSM):
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "WORKERS", workers)
            parts = record_parts(monkeypatch)
            rng, want_rng = (np.random.Generator(bit_generator(7)) for _ in range(2))
            got, trace = forward(p, x, mode="train", drop_prob=0.5, rng=rng)
            want, want_trace = expression_forward(p, x, mode="train", drop_prob=0.5,
                                                  rng=want_rng)
            assert parts == [workers] * 2, (bit_generator, workers)
            assert np.array_equal(got, want), (bit_generator, workers)
            assert_traces_equal(trace, want_trace)
            assert np.array_equal(rng.random(9), want_rng.random(9))  # rng left where it would
    rng = np.random.RandomState(0)  # no random(out=)
    with pytest.raises(ValueError, match="np.random.Generator") as err:
        forward(p, x, mode="train", drop_prob=0.5, rng=rng)
    assert "\n" not in str(err.value)
    assert rng.random() == np.random.RandomState(0).random()  # nothing was drawn
    forward(p, x, mode="eval", rng=rng)  # eval mode draws nothing


def test_a_layer_splits_into_two_columns_a_part_at_least(monkeypatch):
    # a one-column slice would be summed pairwise in the layer-norm backward
    monkeypatch.setattr(parallel, "WORKERS", 12)
    monkeypatch.setattr(parallel, "GEMM_PART_FLOPS", 1)
    assert [parallel.gemm_parts(64, 8, h) for h in (8, 16, 24)] == [4, 8, 12]
    assert [parallel.gemm_parts(b, 8, 64) for b in (2, 3, 4, 5, 6)] == [1, 1, 2, 2, 3]


@pytest.mark.parametrize("rows", [128, 20, 512])
def test_lodo_desk_widths_split_no_layer(monkeypatch, rows):
    monkeypatch.setattr(parallel, "WORKERS", 8)
    parts = record_parts(monkeypatch)
    p = init_params(64, 6, hidden1=256, hidden2=128)
    x = np.random.default_rng(0).standard_normal((rows, 64))
    forward_backward_eval(p, x, one_hot(np.arange(rows) % 6, 6))
    # 2 layers in train, 2 in eval, 3 passes in each layer-norm backward, 3 backward GEMMs
    assert parts == [1] * 13


def test_backward_error_paths():
    p = tiny_params()
    x = np.zeros((3, 4))
    _, trace = forward(p, x, mode="train", drop_prob=0.0,
                       rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="grad_logits shape"):
        backward(p, trace, np.zeros((3, 5)))
    other = init_params(6, 2, seed=0, hidden1=3, hidden2=4)
    with pytest.raises(ValueError, match="trace does not match"):
        backward(other, trace, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="out buffer"):
        backward(p, trace, np.zeros((3, 2)), out=MlpParams.zeros(other.dims))
    with pytest.raises(ValueError, match="out buffer"):
        backward(p, trace, np.zeros((3, 2)), out=MlpParams.zeros(p.dims, np.float32))


def test_backward_matches_finite_differences_spot_check():
    p = tiny_params(seed=7)
    x = np.random.default_rng(8).standard_normal((4, 4))
    targets = one_hot(np.array([0, 1, 0, 1]), 2)
    logits, trace = forward(p, x, mode="train", drop_prob=0.0,
                            rng=np.random.default_rng(0))
    _, grad_logits = ova_bce_loss(logits, targets)
    grads = backward(p, trace, grad_logits)

    h = 1e-6
    rng = np.random.default_rng(9)
    for name, tensor in p.tensors().items():
        flat = tensor.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at(p, x, targets)
            flat[idx] = orig - h
            down = loss_at(p, x, targets)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads.tensors()[name].reshape(-1)[idx]
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd), abs(an)), (name, idx)


def test_fully_dropped_second_layer_blocks_upstream_gradient():
    p = tiny_params(seed=0)
    x = np.random.default_rng(1).standard_normal((2, 4))
    # unbalanced targets: a balanced pair would zero the head bias grad too
    targets = one_hot(np.array([0, 0]), 2)
    seed = None
    for s in range(200):  # replay the draws: layer 1's (B, H1), then layer 2's (B, H2)
        rng = np.random.default_rng(s)
        rng.random((2, 3))
        if np.all(rng.random((2, 2)) >= 1.0 - 0.9):
            seed = s
            break
    assert seed is not None, "no seed produced an all-dropped second layer"
    logits, trace = forward(p, x, mode="train", drop_prob=0.9, rng=np.random.default_rng(seed))
    assert np.all(trace.d2 == 0.0)
    _, grad_logits = ova_bce_loss(logits, targets)
    grads = backward(p, trace, grad_logits)
    for name in ("w1", "b1", "ln1_gain", "ln1_bias", "w2", "b2",
                 "ln2_gain", "ln2_bias", "head_w"):
        assert np.all(getattr(grads, name) == 0.0), name
    # bias on the heads still sees the loss directly
    assert np.any(grads.head_b != 0.0)


def test_predict_argmax_and_ties():
    logits = np.array([[0.1, 0.9, 0.3], [2.0, 2.0, -1.0], [-5.0, -4.0, -4.5]])
    assert predict(logits).tolist() == [1, 0, 1]
    assert predict(3.0 * logits + 7.0).tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="logits must be"):
        predict(np.zeros(3))
    with pytest.raises(ValueError, match="logits must be"):
        predict(np.zeros((3, 1)))


def test_one_hot_layout_and_bounds():
    t = one_hot(np.array([2, 0]), 3)
    assert t.tolist() == [[0, 0, 1], [1, 0, 0]]
    with pytest.raises(ValueError, match="labels out of range"):
        one_hot(np.array([3]), 3)
    with pytest.raises(ValueError, match="labels out of range"):
        one_hot(np.array([-1]), 3)


def test_checkpoint_round_trip(tmp_path):
    p = init_params(6, 3, seed=4, hidden1=5, hidden2=4)
    path = tmp_path / "model.emlp"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.input_dim == 6 and q.hidden1 == 5 and q.hidden2 == 4
    assert q.n_classes == 3
    for name, t in p.tensors().items():
        got = q.tensors()[name]
        assert got.dtype == np.float64
        # storage is float32, so round tripping costs single precision
        assert np.allclose(got, t, atol=1e-6, rtol=1e-6), name
    x = np.random.default_rng(0).standard_normal((4, 6))
    assert np.allclose(forward(q, x), forward(p, x), atol=1e-4)


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    p = init_params(3, 2, seed=1, hidden1=2, hidden2=2)
    a, b = tmp_path / "a.emlp", tmp_path / "b.emlp"
    save_checkpoint(p, a)
    save_checkpoint(p, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("sink", ["path", "open file"])
def test_checkpoint_streams_the_float32_image_through_one_small_buffer(tmp_path, sink):
    # a vector of several dataset.BLOCKs that ends in part of one
    p = init_params(40, 3, seed=0, hidden1=1000, hidden2=37)
    assert p.flat.size > 8 * dataset.BLOCK and p.flat.size % dataset.BLOCK
    rng = np.random.default_rng(7)
    p.flat[:] = rng.standard_normal(p.flat.size) * 10.0 ** rng.uniform(-40, 37, p.flat.size)
    # -0.0, float32 subnormals, values that round to (-)0 in float32, the float32 extremes
    edge = [-0.0, 1e-40, -3e-42, 1.4e-45, 7e-46, -1e-50, 5e-324,
            np.finfo(np.float32).max, np.finfo(np.float32).min]
    p.flat[:len(edge)] = edge
    p.flat[-len(edge):] = edge
    want = CHECKPOINT_MAGIC + struct.pack("<IIII", *p.dims) + p.flat.astype("<f4").tobytes()
    path = tmp_path / "m.emlp"
    tracemalloc.start()
    try:
        if sink == "path":
            save_checkpoint(p, path)
        else:
            with path.open("wb") as fh:
                save_checkpoint(p, fh)
                assert not fh.closed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == want
    assert peak < p.flat.nbytes / 8, peak


def test_checkpoint_load_streams_the_body_through_one_small_buffer(tmp_path):
    p = init_params(40, 3, seed=0, hidden1=1000, hidden2=37)
    p.flat[:] = np.random.default_rng(7).standard_normal(p.flat.size)
    path = tmp_path / "m.emlp"
    save_checkpoint(p, path)
    tracemalloc.start()
    try:
        q = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.flat, p.flat.astype("<f4").astype(np.float64))
    assert np.array_equal(load_checkpoint(path, dtype=np.float32).flat, p.flat.astype("<f4"))
    assert peak < q.flat.nbytes + 8 * dataset.BLOCK, peak  # the weights and one buffer


@pytest.mark.parametrize("before", [None, b"an earlier checkpoint"])
def test_refused_checkpoint_save_leaves_the_path_as_it_was(tmp_path, before):
    p = init_params(40, 3, seed=0, hidden1=1000, hidden2=37)
    p.head_b[-1] = 1e39  # the last weight: the header and every block before it would be written
    path = tmp_path / "m.emlp"
    if before is not None:
        path.write_bytes(before)
    with pytest.raises(ValueError, match="cannot save head_b"):
        save_checkpoint(p, path)
    assert list(tmp_path.iterdir()) == ([] if before is None else [path])
    assert before is None or path.read_bytes() == before


def test_checkpoint_corruption_detected(tmp_path):
    p = init_params(3, 2, seed=1, hidden1=2, hidden2=2)
    path = tmp_path / "m.emlp"
    save_checkpoint(p, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.emlp"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="bad checkpoint magic"):
        load_checkpoint(bad)
    short = tmp_path / "short.emlp"
    short.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="size mismatch"):
        load_checkpoint(short)


def test_checkpoint_rejects_zero_width(tmp_path):
    # the size matches the header: H1 = 0 leaves 3*H2 + C*H2 + C floats
    i, h1, h2, c = 16, 0, 4, 3
    path = tmp_path / "zero.emlp"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIII", i, h1, h2, c)
                     + np.zeros(3 * h2 + c * h2 + c, dtype="<f4").tobytes())
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == (f"{path}: all dimensions must be positive, "
                              "got (16, 0, 4, 3)")


def test_checkpoint_rejects_non_finite_weight(tmp_path):
    # save_checkpoint refuses such weights, so the file is written by hand
    for bad in (np.nan, np.inf):
        p = tiny_params()
        p.ln2_bias[1] = bad
        path = tmp_path / "bad.emlp"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIII", *p.dims)
                         + p.flat.astype("<f4").tobytes())
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: non-finite weight"


F32_MAX = float(np.finfo(np.float32).max)
F32_INF_FROM = 2.0 ** 128 - 2.0 ** 103  # the least float64 that rounds to float32 inf


@pytest.mark.parametrize("value, saved", [
    (F32_MAX, F32_MAX), (-F32_MAX, -F32_MAX), (np.nextafter(F32_INF_FROM, 0), F32_MAX),
    (F32_INF_FROM, None), (1e39, None), (-1e39, None), (np.inf, None), (np.nan, None),
])
def test_checkpoint_save_refuses_only_weights_float32_cannot_hold(tmp_path, value, saved):
    p = tiny_params()
    p.w2[2, 1] = value
    path = tmp_path / "edge.emlp"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the cast
        if saved is not None:
            save_checkpoint(p, path)
            assert load_checkpoint(path).w2[2, 1] == saved
            return
        with pytest.raises(ValueError) as exc:
            save_checkpoint(p, path)
    assert str(exc.value) == "cannot save w2: a weight is not finite in float32"


def test_params_layout_is_one_vector():
    p = init_params(5, 3, seed=2, hidden1=4, hidden2=6)
    assert p.dims == (5, 4, 6, 3)
    assert (p.input_dim, p.hidden1, p.hidden2, p.n_classes) == p.dims
    assert list(p.tensors()) == list(FIELDS)
    want = [(5, 4), (4,), (4,), (4,), (4, 6), (6,), (6,), (6,), (3, 6), (3,)]
    assert [t.shape for t in p.tensors().values()] == want
    assert p.flat.size == sum(t.size for t in p.tensors().values())
    assert np.array_equal(p.flat, np.concatenate([t.ravel() for t in p.tensors().values()]))
    p.flat[:] = np.arange(p.flat.size)
    assert p.w1[0, 1] == 1.0 and p.b1[0] == 20.0 and p.head_b[-1] == p.flat.size - 1
    with pytest.raises(ValueError, match="positive"):
        MlpParams((5, 4, 0, 3), np.zeros(0))
    with pytest.raises(ValueError, match="size mismatch"):
        MlpParams(p.dims, np.zeros(p.flat.size + 1))


def test_params_copy_is_independent():
    p = tiny_params()
    q = p.copy()
    q.w1[0, 0] += 1.0
    assert p.w1[0, 0] != q.w1[0, 0]
    assert isinstance(q, MlpParams)

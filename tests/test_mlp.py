"""Network forward/backward math, loss, and checkpoint format."""
import warnings

import numpy as np
import pytest

from driftbench.mlp import (
    LN_EPS,
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
    assert np.all(trace.mask1 == 1.0) and np.all(trace.mask2 == 1.0)


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
        forward(p, x, mode="train", drop_prob=(0.2, -0.1),
                rng=np.random.default_rng(0))


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
    p = tiny_params()
    x = np.random.default_rng(1).standard_normal((32, 4))
    _, trace = forward(p, x, mode="train", drop_prob=0.5,
                       rng=np.random.default_rng(7))
    for mask in (trace.mask1, trace.mask2):
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert (mask == 0).any() and (mask == 2.0).any()


def test_dropout_scaling_preserves_expectation():
    p = tiny_params(seed=2)
    x = np.random.default_rng(3).standard_normal((4, 4))
    # drop only at layer 2 so the clean layer-2 activation is the target
    _, clean = forward(p, x, mode="train", drop_prob=0.0,
                       rng=np.random.default_rng(0))
    target = clean.d2
    drop = 0.5
    rng = np.random.default_rng(42)
    n = 10000
    acc = np.zeros_like(target)
    for _ in range(n):
        _, trace = forward(p, x, mode="train", drop_prob=(0.0, drop), rng=rng)
        acc += trace.d2
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
    assert set(grads) == set(p.tensors())
    for name, g in grads.items():
        assert np.all(g == 0.0), name
        assert g.shape == p.tensors()[name].shape


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
            an = grads[name].reshape(-1)[idx]
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd), abs(an)), (name, idx)


def test_fully_dropped_second_layer_blocks_upstream_gradient():
    p = tiny_params(seed=0)
    x = np.random.default_rng(1).standard_normal((2, 4))
    # unbalanced targets: a balanced pair would zero the head bias grad too
    targets = one_hot(np.array([0, 0]), 2)
    trace = None
    for seed in range(200):
        logits, tr = forward(p, x, mode="train", drop_prob=(0.0, 0.9),
                             rng=np.random.default_rng(seed))
        if np.all(tr.mask2 == 0.0):
            trace = tr
            break
    assert trace is not None, "no seed produced an all-dropped second layer"
    _, grad_logits = ova_bce_loss(logits, targets)
    grads = backward(p, trace, grad_logits)
    for name in ("w1", "b1", "ln1_gain", "ln1_bias", "w2", "b2",
                 "ln2_gain", "ln2_bias", "head_w"):
        assert np.all(grads[name] == 0.0), name
    # bias on the heads still sees the loss directly
    assert np.any(grads["head_b"] != 0.0)


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


def test_params_copy_is_independent():
    p = tiny_params()
    q = p.copy()
    q.w1[0, 0] += 1.0
    assert p.w1[0, 0] != q.w1[0, 0]
    assert isinstance(q, MlpParams)

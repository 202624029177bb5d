"""Adam optimizer, training loop, and evaluation reports."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_features, make_manifest, record_parts, train_best
import driftbench.mlp as mlp
from driftbench import dataset, parallel, training
from driftbench.mlp import MlpParams, init_params, save_checkpoint
from driftbench.splits import SplitSpec, build_lodo_split
from driftbench.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    EVAL_BLOCK,
    AdamState,
    EpochStats,
    EvalReport,
    ModelMismatch,
    TrainConfig,
    TrainingData,
    adam_step,
    best_epoch,
    eval_report_to_dict,
    evaluate,
    train,
    write_eval_report,
    write_history_csv,
)


def blob_dataset(per_cell=6, noise=0.3, seed=0, n_domains=2):
    """Two linearly separable classes, several domains, feature dim 4."""
    rng = np.random.default_rng(seed)
    rows, feats = [], []
    idx = 0
    centers = {"catA": np.array([3.0, 0, 0, 0]), "catB": np.array([-3.0, 0, 0, 0])}
    for d in range(n_domains):
        dom = f"dom{d}"
        for cat, center in centers.items():
            for j in range(per_cell):
                rows.append((f"{dom}-{cat}-{j}", dom, cat, idx))
                feats.append(center + noise * rng.standard_normal(4))
                idx += 1
    return make_manifest(rows), make_features(np.array(feats))


def make_data(**kw):
    man, feats = blob_dataset(**kw)
    return man, TrainingData.from_features(man, feats)


def test_train_config_validation():
    TrainConfig()  # defaults are valid
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="drop_prob must be in"):
        TrainConfig(drop_prob=1.0)
    for lr in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be positive"):
            TrainConfig(learning_rate=lr)


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.01
    assert cfg.batch_size == 128
    assert cfg.epochs == 100
    assert cfg.drop_prob == 0.9


def test_adam_zero_gradient_is_noop():
    params = init_params(3, 2, seed=0, hidden1=2, hidden2=2)
    before = {k: v.copy() for k, v in params.tensors().items()}
    state = AdamState.zeros_like(params)
    grads = MlpParams.zeros(params.dims)
    params, state = adam_step(params, grads, state, TrainConfig())
    for name, t in params.tensors().items():
        assert np.array_equal(t, before[name]), name
    assert state.step == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step moves each coordinate by ~lr * sign(g)
    params = init_params(1, 2, seed=0, hidden1=1, hidden2=1)
    before = params.w1.copy()
    state = AdamState.zeros_like(params)
    grads = MlpParams.zeros(params.dims)
    grads.w1[...] = np.array([[2.5]])
    cfg = TrainConfig(learning_rate=0.01)
    adam_step(params, grads, state, cfg)
    delta = float(params.w1[0, 0] - before[0, 0])
    assert delta < 0
    assert abs(abs(delta) - cfg.learning_rate) < 1e-6


def test_adam_descends_quadratic():
    # minimizing w^2 with grad 2w should shrink |w| monotonically
    params = init_params(1, 2, seed=1, hidden1=1, hidden2=1)
    params.w1[...] = 3.0
    state = AdamState.zeros_like(params)
    cfg = TrainConfig(learning_rate=0.1)
    prev = abs(float(params.w1[0, 0]))
    for _ in range(10):
        grads = MlpParams.zeros(params.dims)
        grads.w1[...] = 2.0 * params.w1
        adam_step(params, grads, state, cfg)
        cur = abs(float(params.w1[0, 0]))
        assert cur < prev
        prev = cur


def test_adam_rejects_bad_gradients():
    params = init_params(2, 2, seed=0, hidden1=2, hidden2=2)
    state = AdamState.zeros_like(params)
    grads = MlpParams.zeros((2, 2, 3, 2))  # b2 of width 3, not 2
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(params, grads, state, TrainConfig())
    assert state.step == 0
    grads = MlpParams.zeros(params.dims)
    grads.w2[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite gradient in w2 at Adam step 1"):
        adam_step(params, grads, state, TrainConfig())
    assert state.step == 0


def test_adam_refuses_a_late_non_finite_block_before_any_update(monkeypatch):
    monkeypatch.setattr("driftbench.training.ADAM_BLOCK", 4)
    params = init_params(3, 2, seed=0, hidden1=4, hidden2=3)
    state = AdamState.zeros_like(params)
    state.m[:], state.v[:] = 0.5, 0.25
    grads = MlpParams(params.dims, np.ones_like(params.flat))
    grads.head_b[-1] = np.nan  # the last element, in the last block
    before = params.flat.copy()
    with pytest.raises(ValueError, match="non-finite gradient in head_b at Adam step 1"):
        adam_step(params, grads, state, TrainConfig())
    assert state.step == 0
    assert np.array_equal(params.flat, before)
    assert (state.m == 0.5).all() and (state.v == 0.25).all()


def test_adam_step_checks_finiteness_one_block_at_a_time():
    # 2.1 M elements: a whole-vector finite mask alone would be 2.0 MiB
    params = init_params(1024, 2, seed=0, hidden1=2048, hidden2=4)
    grads = MlpParams(params.dims, np.random.default_rng(0).standard_normal(params.flat.size))
    state = AdamState.zeros_like(params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adam_step(params, grads, state, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


def reference_adam_step(tensors, grads, m, v, t, lr):
    """Adam per tensor in its textbook expression form: the reference for adam_step."""
    for name, tensor in tensors.items():
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = m[name] / (1 - ADAM_BETA1 ** t)
        v_hat = v[name] / (1 - ADAM_BETA2 ** t)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("case", range(6))
def test_adam_step_matches_per_tensor_reference_bitwise(case):
    rng = np.random.default_rng(case)
    # case 0 spans two ADAM_BLOCK slices, the rest are small random widths
    dims = (300, 130, 9, 3) if case == 0 else tuple(int(d) for d in rng.integers(1, 40, 4))
    params = init_params(dims[0], dims[3], seed=case, hidden1=dims[1], hidden2=dims[2])
    assert (params.flat.size > ADAM_BLOCK) == (case == 0)
    ref = {k: t.copy() for k, t in params.tensors().items()}
    ref_m = {k: np.zeros_like(t) for k, t in ref.items()}
    ref_v = {k: np.zeros_like(t) for k, t in ref.items()}
    state = AdamState.zeros_like(params)
    cfg = TrainConfig(learning_rate=float(rng.choice([1e-3, 0.01, 0.3])))
    for t in range(1, 6):
        # magnitudes from 1e-12 to 1e3, some exact zeros
        grads = MlpParams(params.dims, rng.standard_normal(params.flat.size)
                          * 10.0 ** rng.uniform(-12, 3, params.flat.size))
        grads.flat[rng.random(params.flat.size) < 0.1] = 0.0
        ref_grads = {k: g.copy() for k, g in grads.tensors().items()}
        reference_adam_step(ref, ref_grads, ref_m, ref_v, t, cfg.learning_rate)
        adam_step(params, grads, state, cfg)
        assert state.step == t
        for got, want in ((params.flat, ref), (state.m, ref_m), (state.v, ref_v)):
            assert np.array_equal(got, np.concatenate([w.ravel() for w in want.values()]))


@pytest.mark.parametrize("workers", [2, 3])
def test_adam_step_in_parts_matches_the_reference_and_refuses_late(monkeypatch, workers,
                                                                   fast_switching):
    # gates and blocks shrunk so that each part runs several blocks
    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr("driftbench.training.ADAM_PART", 1000)
    monkeypatch.setattr("driftbench.training.ADAM_BLOCK", 96)
    parts = record_parts(monkeypatch)
    rng = np.random.default_rng(workers)
    params = init_params(40, 3, seed=0, hidden1=50, hidden2=20)  # 3,273 elements
    ref = {k: t.copy() for k, t in params.tensors().items()}
    ref_m = {k: np.zeros_like(t) for k, t in ref.items()}
    ref_v = {k: np.zeros_like(t) for k, t in ref.items()}
    state = AdamState.zeros_like(params)
    for t in range(1, 4):
        grads = MlpParams(params.dims, rng.standard_normal(params.flat.size))
        reference_adam_step(ref, {k: g.copy() for k, g in grads.tensors().items()},
                            ref_m, ref_v, t, 0.01)
        adam_step(params, grads, state, TrainConfig())
        for got, want in ((params.flat, ref), (state.m, ref_m), (state.v, ref_v)):
            assert np.array_equal(got, np.concatenate([w.ravel() for w in want.values()]))
    assert parts == [workers] * 6
    grads = MlpParams(params.dims, np.ones_like(params.flat))
    grads.head_b[-1] = np.inf  # the last element, in the last part
    before = [params.flat.copy(), state.m.copy(), state.v.copy()]
    with pytest.raises(ValueError, match="non-finite gradient in head_b at Adam step 4"):
        adam_step(params, grads, state, TrainConfig())
    assert state.step == 3
    for got, want in zip((params.flat, state.m, state.v), before):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [2, 3])
def test_adam_parts_at_the_paper_widths_are_even_within_half_a_gradient_block(workers):
    # a cut inside a weight's gradient block moves to the block's nearer edge
    # (x.T @ dz1 and d1.T @ dz2 for a 128-row batch)
    grads = mlp.Gradients((256, 4096, 512, 10))
    grads.w1 = (np.empty((256, 128)), np.empty((128, 4096)))
    grads.w2 = (np.empty((4096, 128)), np.empty((128, 512)))
    size = sum(e.stop - e.start for _, e, _ in grads.runs())
    parts = training._parts(grads.runs(), size, workers)
    pieces = [e for part in parts for _, e, _ in part]
    assert [e.start for e in pieces] == [0] + [e.stop for e in pieces[:-1]]
    assert pieces[-1].stop == size and len(parts) == workers
    for part in parts:
        elements = sum(e.stop - e.start for _, e, _ in part)
        assert abs(elements - size / workers) <= training.GRADIENT_BLOCK / 2


def step_problem(dims, rows, seed=0):
    """Params, a train-mode trace and its logits gradient at dims (I, H1, H2, C),
    and Adam moments as they might stand after four steps."""
    i, h1, h2, c = dims
    rng = np.random.default_rng(seed)
    params = init_params(i, c, seed=seed, hidden1=h1, hidden2=h2)
    x = rng.standard_normal((rows, i))
    logits, trace = mlp.forward(params, x, mode="train", drop_prob=0.5, rng=rng)
    _, grad_logits = mlp.ova_bce_loss(logits, mlp.one_hot(np.arange(rows) % c, c))
    state = AdamState(m=1e-3 * rng.standard_normal(params.flat.size),
                      v=1e-6 * rng.random(params.flat.size), step=4)
    return params, trace, grad_logits, state


def streamed(params, trace, grad_logits):
    return mlp.backward(params, trace, grad_logits, out=mlp.Gradients(params.dims))


def copies(params, state):
    return params.copy(), AdamState(state.m.copy(), state.v.copy(), state.step)


def assert_same_step(got, want):
    (params, state), (want_params, want_state) = got, want
    assert state.step == want_state.step
    for a, b in ((params.flat, want_params.flat), (state.m, want_state.m), (state.v, want_state.v)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dims,rows", [((256, 4096, 512, 10), 128), ((256, 4096, 512, 10), 20),
                                       ((256, 4096, 300, 10), 128), ((64, 256, 128, 6), 128)],
                         ids=["paper", "paper-tail", "hidden2-300", "lodo-desk"])
def test_a_streamed_step_matches_adam_on_the_materialised_gradient(monkeypatch, fast_switching,
                                                                   dims, rows):
    """Weight gradients computed a row block at a time inside adam_step give
    the bits of backward's whole products, in 1, 2 and 3 parts. The
    lodo-desk vector is cut into parts by a smaller ADAM_PART; 300 is not a
    multiple of 8, so that w2 is one block. backward consumes its trace, so
    each backward gets a fresh one from the same seed."""
    params, trace, grad_logits, state = step_problem(dims, rows)
    monkeypatch.setattr(training, "ADAM_PART", min(training.ADAM_PART, params.flat.size // 6))
    monkeypatch.setattr(parallel, "WORKERS", 1)
    want = copies(params, state)
    adam_step(want[0], mlp.backward(params, trace, grad_logits), want[1], TrainConfig())
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        params, trace, grad_logits, state = step_problem(dims, rows)
        grads, got = streamed(params, trace, grad_logits), copies(params, state)
        calls = record_parts(monkeypatch)
        adam_step(got[0], grads, got[1], TrainConfig())
        assert_same_step(got, want)
        assert calls == [workers] * 2, workers  # the check walk, then the update


def materialised(grads):
    """The MlpParams of an mlp.Gradients: each weight gradient as its whole product."""
    out = MlpParams.zeros(grads.dims)
    for name, g in grads.tensors().items():
        getattr(out, name)[...] = np.matmul(*g) if isinstance(g, tuple) else g
    return out


def counting_products(monkeypatch):
    """Make training._product log each weight block it computes; returns the log."""
    products, product = [], training._product
    monkeypatch.setattr(training, "_product",
                        lambda operands, out: products.append(1) or product(operands, out))
    return products


def n_blocks(a, b):
    return len(training._weight_blocks(slice(0, a.shape[0] * b.shape[1]), a, b))


def test_a_weight_gradient_whose_bound_fails_is_checked_in_the_same_blocks(monkeypatch):
    """Operands whose norms overflow, so that the bound cannot clear them, but
    whose product is finite (each huge entry meets only zeros), are not
    refused: the check walk computes their blocks, the update computes
    them again, and the step has the bits of Adam on the whole product.
    Bounded operands are computed once."""
    params, trace, grad_logits, state = step_problem((256, 1024, 512, 4), 64)
    products = counting_products(monkeypatch)
    grads = streamed(params, trace, grad_logits)
    w1, w2 = n_blocks(*grads.w1), n_blocks(*grads.w2)
    got = copies(params, state)
    adam_step(got[0], grads, got[1], TrainConfig())
    assert (w1, w2) == (2, 4) and len(products) == w1 + w2

    params, trace, grad_logits, state = step_problem((256, 1024, 512, 4), 64)  # a fresh trace
    grads = streamed(params, trace, grad_logits)
    a, b = (t.copy() for t in grads.w2)  # d1.T (H1, B) and dz2 (B, H2)
    a[0, 0], a[:, 1], b[0, :], b[1, 0] = 1e300, 0.0, 0.0, 1e300
    grads.w2 = (a, b)
    assert not training._bounded(a, b)
    reference = materialised(grads)
    assert np.isfinite(reference.flat).all()
    want = copies(params, state)
    adam_step(want[0], reference, want[1], TrainConfig())
    products.clear()
    got = copies(params, state)
    adam_step(got[0], grads, got[1], TrainConfig())
    assert len(products) == w1 + 2 * w2
    assert_same_step(got, want)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
@pytest.mark.parametrize("name", ["w1", "w2"])
def test_a_non_finite_weight_gradient_is_refused_before_any_change(monkeypatch, workers, bad,
                                                                   name):
    """A NaN or an inf operand, or finite operands whose product overflows in
    the weight's last element, in one part or three: refused with the
    weight's name, and params, m, v and the step count stay as they were.
    A product that overflows raises no RuntimeWarning (pytest makes one an
    error)."""
    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(training, "ADAM_PART", 1000)
    params, trace, grad_logits, state = step_problem((256, 1024, 512, 4), 64)
    grads = streamed(params, trace, grad_logits)
    a, b = (t.copy() for t in getattr(grads, name))
    if bad == "overflow":
        a[-1, 0], b[0, -1] = 1e200, 1e200
    else:
        b[-1, -1] = float(bad)
    setattr(grads, name, (a, b))
    before = copies(params, state)
    calls = record_parts(monkeypatch)
    with pytest.raises(ValueError, match=f"^non-finite gradient in {name} at Adam step 5$"):
        adam_step(params, grads, state, TrainConfig())
    assert calls == [workers]  # the check walk only
    assert_same_step((params, state), before)


@pytest.mark.parametrize("bad,named", [(("w2", "b1"), "b1"), (("w1", "head_b"), "w1"),
                                       (("w2", "head_w"), "w2")])
def test_a_refusal_names_the_first_non_finite_tensor_in_fields_order(bad, named):
    params, trace, grad_logits, state = step_problem((64, 256, 128, 6), 32)
    grads = streamed(params, trace, grad_logits)
    weight, small = bad
    a, b = (t.copy() for t in getattr(grads, weight))
    b[0, 0] = np.nan
    setattr(grads, weight, (a, b))
    getattr(grads, small).flat[-1] = np.inf
    with pytest.raises(ValueError, match=f"non-finite gradient in {named} at Adam step 5"):
        adam_step(params, grads, state, TrainConfig())
    assert state.step == 4


def test_training_data_follows_manifest_order():
    # row_index deliberately permuted relative to record order
    man = make_manifest([
        ("c0", "d0", "catB", 2),
        ("c1", "d0", "catA", 0),
        ("c2", "d1", "catB", 1),
    ])
    feats = make_features(np.array([[0.0, 0], [1.0, 0], [2.0, 0]]))
    data = TrainingData.from_features(man, feats, pool_mode="mean")
    # X is the pooled pack in pack order; each clip id maps to its row_index
    assert data.row_of == {"c0": 2, "c1": 0, "c2": 1}
    assert data.X[:, 0].tolist() == [0.0, 1.0, 2.0]
    # labels index into the sorted category tuple, by pack row
    assert data.categories == ("catA", "catB")
    assert data.labels.tolist() == [0, 1, 1]
    assert data.row_domains == ("d0", "d1", "d0")
    assert data.rows_for(["c2", "c0"]).tolist() == [1, 2]
    with pytest.raises(ValueError, match="unknown clip id"):
        data.rows_for(["ghost"])


def test_training_data_holds_the_pack_and_marks_unnamed_rows():
    man = make_manifest([("a", "d0", "catA", 2), ("b", "d1", "catB", 0)])
    feats = make_features(np.arange(6.0).reshape(3, 2))
    data = TrainingData.from_features(man, feats, pool_mode="flatten")
    assert np.shares_memory(data.X, feats.values)  # no copy of the pack
    assert data.labels.tolist() == [1, -1, 0]
    assert data.row_domains == ("d1", None, "d0")
    assert data.rows_for(["a", "b"]).tolist() == [2, 0]


def test_train_zero_epochs_returns_init():
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)
    cfg = TrainConfig(epochs=0, seed=5)
    params, history = train_best(data, split, cfg, hidden1=4, hidden2=3)
    assert history == []
    want = mlp.init_params(4, 2, seed=5, hidden1=4, hidden2=3)
    for name, t in params.tensors().items():
        assert np.array_equal(t, want.tensors()[name]), name


def test_train_is_deterministic(tmp_path):
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)
    cfg = TrainConfig(epochs=5, batch_size=4, drop_prob=0.5, seed=2)
    p1, h1 = train_best(data, split, cfg, hidden1=8, hidden2=4)
    p2, h2 = train_best(data, split, cfg, hidden1=8, hidden2=4)
    assert h1 == h2
    a, b = tmp_path / "a.emlp", tmp_path / "b.emlp"
    save_checkpoint(p1, a)
    save_checkpoint(p2, b)
    assert a.read_bytes() == b.read_bytes()


def test_train_learns_separable_blobs():
    man, data = make_data(per_cell=8, n_domains=3)
    split = build_lodo_split(man, "dom2", seed=0)
    cfg = TrainConfig(epochs=30, batch_size=8, drop_prob=0.0, seed=0)
    params, history = train_best(data, split, cfg, hidden1=16, hidden2=8)
    assert len(history) == 30
    report = evaluate(params, data, split.test_ids)
    assert report.overall_top1 == 100.0


def test_train_returns_best_val_epoch():
    man, data = make_data(per_cell=10)
    split = build_lodo_split(man, "dom1", val_fraction=0.4, seed=1)
    cfg = TrainConfig(epochs=8, batch_size=4, drop_prob=0.5, seed=3)
    params, history = train_best(data, split, cfg, hidden1=8, hidden2=4)
    vals = [h.val_top1 for h in history]
    report = evaluate(params, data, split.val_ids)
    assert report.overall_top1 == max(vals)


def test_best_epoch_takes_the_earliest_highest_and_never_nan():
    def history(*vals):
        return [EpochStats(epoch=i, train_loss=0.0, val_top1=v) for i, v in enumerate(vals, 1)]
    assert best_epoch(history(50.0, 75.0, np.nan, 75.0, 60.0)).epoch == 2
    assert best_epoch(history(np.nan, 0.0)).epoch == 2
    assert best_epoch(history(np.nan, np.nan)) is None
    assert best_epoch([]) is None


def test_train_empty_val_returns_final_params():
    man, data = make_data()
    split = build_lodo_split(man, "dom1", val_fraction=0.0, seed=0)
    assert split.val_ids == ()
    cfg = TrainConfig(epochs=3, batch_size=4, drop_prob=0.0, seed=0)
    params, history = train_best(data, split, cfg, hidden1=4, hidden2=3)
    assert all(np.isnan(h.val_top1) for h in history)
    # rerun an identical loop to confirm the final epoch weights came back
    p2, _ = train_best(data, split, cfg, hidden1=4, hidden2=3)
    for name, t in params.tensors().items():
        assert np.array_equal(t, p2.tensors()[name])


def test_train_holds_three_parameter_vectors_and_one_step(tmp_path, monkeypatch):
    """Traced peaks of train stay under its working set: three parameter-sized
    vectors (params, Adam m and v), plus, while the steps run, x, two B x H1
    arrays (xhat1, in which backward rebuilds d1, and layer 1's d_out, which
    becomes dz1), dz2 and the small gradients, and, a part, one block of
    layer-norm scratch, one weight-gradient block and the first Adam
    block's scratch; or, while val top-1 is measured and keep writes each
    new best epoch's checkpoint into an open file, the small gradients, one
    eval chunk (its input and both layers, EVAL_BLOCK elements of the
    widest), a block of squares a part of each layer, the val logits (each chunk's and
    their concatenation) and 512 KiB of row indices, labels, predictions
    and a chunk's float32 rows. A fourth vector, such as a gradient buffer,
    would overrun it, and so would a step that keeps d1 beside xhat1, a
    float32 copy of the val rows (1 MiB here) or a fixed 512-row eval chunk:
    H1 = 2048 makes a chunk 256 rows."""
    i, h1, h2, c, batch = 64, 2048, 256, 4, 32
    n_train, n_val = 512, 4096
    n = n_train + n_val
    rows = [(f"c{r}", f"dom{r % 3}", f"cat{r % c}", r) for r in range(n)]
    X = np.random.default_rng(0).standard_normal((n, i)).astype(np.float32)
    data = TrainingData.from_features(make_manifest(rows), make_features(X))
    ids = tuple(r[0] for r in rows)
    split = SplitSpec("dom9", ids[:n_train], ids[n_train:], ())

    params = mlp.init_params(i, c, hidden1=h1, hidden2=h2)
    small = params.flat.size - i * h1 - h1 * h2
    adam_parts = parallel.parts_for(params.flat.size, training.ADAM_PART, params.flat.size)
    blocks = adam_parts * (training.GRADIENT_BLOCK + ADAM_BLOCK)
    norm_parts = parallel.gemm_parts(batch, i, h1)
    step = (batch * (i + 2 * h1 + h2) + small + norm_parts * mlp.BACKWARD_BLOCK + blocks) * 8
    chunk_rows = EVAL_BLOCK // h1
    squares = (parallel.gemm_parts(chunk_rows, i, h1)
               + parallel.gemm_parts(chunk_rows, h1, h2)) * dataset.BLOCK
    evaluating = (chunk_rows * (i + h1 + h2) + 2 * n_val * c + small + squares) * 8 + (1 << 19)
    vectors = 3 * params.flat.nbytes
    size = 20 + params.flat.size * 4
    del params

    peaks = {}  # phase -> its traced peak above the base
    top1 = training._top1

    def phase(name):
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.reset_peak()

    def top1_between_phases(*args):
        phase("step")
        try:
            return top1(*args)
        finally:
            phase("evaluate")
    monkeypatch.setattr(training, "_top1", top1_between_phases)

    path = tmp_path / "ckpt.emlp"
    with path.open("wb") as fh:
        def keep(params):
            fh.seek(0)
            save_checkpoint(params, fh)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(data, split, TrainConfig(epochs=2, batch_size=batch, drop_prob=0.5), keep,
                  hidden1=h1, hidden2=h2)
            phase("evaluate")  # keep's last checkpoint
        finally:
            tracemalloc.stop()
    assert path.stat().st_size == size
    assert peaks["step"] < vectors + step, (peaks, vectors + step)
    assert peaks["evaluate"] < vectors + evaluating, (peaks, vectors + evaluating)


@pytest.mark.parametrize("hidden2", [136, 300])
def test_eval_logits_come_in_chunks_of_the_element_budget(monkeypatch, hidden2):
    """Chunks of a few rows, of all rows, and of the default budget (one
    chunk here) give the same predictions. The logits agree to the last
    bits only up to the BLAS kernel: for small products OpenBLAS takes
    kernels whose roundings depend on the row count, so only the one-chunk
    cases are bitwise one forward call. 300 is not a multiple of 8. Each
    chunk gathers its own rows of X, here in a shuffled order."""
    i, h1, c, n = 40, 296, 5, 50
    p = init_params(i, c, seed=2, hidden1=h1, hidden2=hidden2)
    p.flat[:] += 0.3 * np.random.default_rng(3).standard_normal(p.flat.size)
    X = np.random.default_rng(4).standard_normal((n + 7, i)).astype(np.float32)
    picked = np.random.default_rng(5).permutation(n + 7)[:n]
    whole = mlp.forward(p, X[picked])
    widest = max(i, h1, hidden2)
    forward, seen = mlp.forward, []

    def noting(params, batch, **kwargs):
        seen.append(len(batch))
        return forward(params, batch, **kwargs)
    monkeypatch.setattr(mlp, "forward", noting)
    for rows, chunks in ((3, [3] * 16 + [2]), (n, [n]), (EVAL_BLOCK // widest, [n])):
        monkeypatch.setattr(training, "EVAL_BLOCK", rows * widest + widest - 1)
        seen.clear()
        logits = training._eval_logits(p, X, picked)
        assert seen == chunks
        assert np.array_equal(mlp.predict(logits), mlp.predict(whole))
        np.testing.assert_allclose(logits, whole, rtol=1e-12, atol=1e-12)
        assert len(chunks) > 1 or np.array_equal(logits, whole)


def test_train_hands_keep_each_new_best_epoch_in_order(monkeypatch):
    man, data = make_data(per_cell=20, noise=3.0, n_domains=3)  # val top-1 climbs slowly
    widths = {"hidden1": 8, "hidden2": 4}
    ends = []  # the weights at each epoch's end, as val top-1 is measured
    real_top1 = training._top1

    def top1_noting_the_weights(params, X, rows, y):
        ends.append(params.copy())
        return real_top1(params, X, rows, y)
    monkeypatch.setattr(training, "_top1", top1_noting_the_weights)

    def run(val_fraction, epochs):
        split = build_lodo_split(man, "dom2", val_fraction=val_fraction, seed=1)
        kept, live = [], []

        def keep(params):
            kept.append(params.copy())
            live.append(params)
        ends.clear()
        config = TrainConfig(epochs=epochs, batch_size=8, drop_prob=0.5, seed=3)
        history = train(data, split, config, keep, **widths)
        return kept, live, history

    kept, live, history = run(0.5, 0)
    assert history == [] and len(kept) == 1
    assert np.array_equal(kept[0].flat, mlp.init_params(4, 2, seed=3, **widths).flat)

    kept, live, history = run(0.0, 4)
    assert len(history) == 4 and ends == [] and len(kept) == 1
    assert np.array_equal(kept[0].flat, live[0].flat)  # the weights train ended on
    assert not np.array_equal(kept[0].flat, mlp.init_params(4, 2, seed=3, **widths).flat)

    kept, live, history = run(0.5, 8)
    tops = [row.val_top1 for row in history]
    improving = [e for e in range(8) if tops[e] > max(tops[:e], default=-1.0)]
    # several calls, so their order is put to the test, and a tie that must not call
    assert len(improving) > 2 and len(set(tops)) < len(tops)
    assert len(ends) == 8 and len(kept) == len(improving)
    for params, e in zip(kept, improving):
        assert np.array_equal(params.flat, ends[e].flat)
    assert best_epoch(history).epoch == improving[-1] + 1


def test_train_and_evaluate_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    # 1,056,516 parameters and B=128 GEMMs of 2**27 flops: both size gates pass
    i, h1, h2, c = 256, 2048, 256, 4
    rows = [(f"c{r}", f"dom{r % 3}", f"cat{r % c}", r) for r in range(300)]
    rng = np.random.default_rng(0)
    X = (rng.standard_normal((300, i)) + np.eye(c, i)[[r % c for r in range(300)]])
    manifest = make_manifest(rows)
    data = TrainingData.from_features(manifest, make_features(X))
    split = build_lodo_split(manifest, "dom2", seed=0)
    config = TrainConfig(epochs=2, batch_size=128, drop_prob=0.5, seed=1)
    written = {}
    for workers in (1, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        parts = record_parts(monkeypatch)
        params, history = train_best(data, split, config, hidden1=h1, hidden2=h2)
        report = evaluate(params, data, split.test_ids)
        assert max(parts) == workers
        out = tmp_path / str(workers)
        out.mkdir()
        save_checkpoint(params, out / "ckpt.emlp")
        write_history_csv(history, out / "history.csv")
        write_eval_report(report, out / "eval.json")
        written[workers] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert written[1] == written[3]


def test_train_rejects_overlapping_split():
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)
    bad = SplitSpec(
        held_out_domain=split.held_out_domain,
        train_ids=split.train_ids,
        val_ids=split.train_ids[:1],
        test_ids=split.test_ids,
    )
    with pytest.raises(ValueError, match="overlap"):
        train_best(data, bad, TrainConfig(epochs=1))


def test_train_rejects_empty_train():
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)
    bad = SplitSpec(
        held_out_domain=split.held_out_domain,
        train_ids=(),
        val_ids=(),
        test_ids=split.test_ids,
    )
    with pytest.raises(ValueError, match="empty train split"):
        train_best(data, bad, TrainConfig(epochs=1))


def test_train_reports_divergence(monkeypatch):
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)

    def exploding_loss(logits, targets):
        return float("nan"), np.zeros_like(np.asarray(logits, dtype=np.float64))

    monkeypatch.setattr(mlp, "ova_bce_loss", exploding_loss)
    with pytest.raises(ValueError, match="non-finite loss at epoch 1"):
        train_best(data, split, TrainConfig(epochs=1), hidden1=4, hidden2=3)


def test_evaluate_constant_predictor():
    man, data = make_data(per_cell=5)
    params = init_params(4, 2, seed=0, hidden1=3, hidden2=2)
    for name, t in params.tensors().items():
        t[...] = 0.0
    params.head_b[0] = 1.0  # always predicts class 0 = catA
    ids = [r.clip_id for r in man.records if r.domain == "dom0"]
    report = evaluate(params, data, ids)
    assert report.overall_top1 == 50.0
    assert report.per_domain == {"dom0": 50.0}
    assert report.n_evaluated == len(ids)
    assert report.confusion.sum() == len(ids)
    assert report.confusion[:, 1].sum() == 0  # class 1 never predicted


def test_evaluate_perfect_predictor_confusion():
    man, data = make_data(per_cell=8, n_domains=3)
    split = build_lodo_split(man, "dom2", seed=0)
    cfg = TrainConfig(epochs=30, batch_size=8, drop_prob=0.0, seed=0)
    params, _ = train_best(data, split, cfg, hidden1=16, hidden2=8)
    report = evaluate(params, data, split.test_ids)
    assert report.overall_top1 == 100.0
    off_diagonal = report.confusion.sum() - np.trace(report.confusion)
    assert off_diagonal == 0
    assert np.trace(report.confusion) == len(split.test_ids)
    assert report.classes == ("catA", "catB")


def test_evaluate_rejects_empty_ids():
    _, data = make_data()
    params = init_params(4, 2, seed=0, hidden1=3, hidden2=2)
    with pytest.raises(ValueError, match="empty id list"):
        evaluate(params, data, [])


@pytest.mark.parametrize("dims", [(4, 3), (4, 1), (5, 2)])
def test_evaluate_rejects_model_that_does_not_fit_the_data(dims):
    man, data = make_data()  # 4 features, 2 classes
    params = init_params(dims[0], dims[1], seed=0, hidden1=3, hidden2=2)
    ids = [r.clip_id for r in man.records]
    with pytest.raises(ModelMismatch, match=f"model takes {dims[0]} features and "
                       f"{dims[1]} classes, data has 4 features and 2 classes"):
        evaluate(params, data, ids)
    assert issubclass(ModelMismatch, ValueError)


def test_history_csv_layout(tmp_path):
    history = [
        EpochStats(epoch=1, train_loss=0.6931471805599453, val_top1=50.0),
        EpochStats(epoch=2, train_loss=0.25, val_top1=87.5),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_top1"
    assert lines[1] == "1,0.6931471805599453,50.0"
    assert lines[2] == "2,0.25,87.5"


def test_eval_report_json_round_trip(tmp_path):
    report = EvalReport(
        split_id="dom1",
        overall_top1=75.0,
        per_domain={"dom1": 75.0},
        confusion=np.array([[3, 1], [1, 3]], dtype=np.int64),
        n_evaluated=8,
        classes=("catA", "catB"),
    )
    path = tmp_path / "eval.json"
    write_eval_report(report, path)
    back = json.loads(path.read_text(encoding="utf-8"))
    assert back["split_id"] == report.split_id
    assert back["overall_top1"] == report.overall_top1
    assert back["per_domain"] == report.per_domain
    assert np.array_equal(back["confusion"], report.confusion)
    assert back["n_evaluated"] == report.n_evaluated
    assert tuple(back["classes"]) == report.classes
    d = eval_report_to_dict(report)
    assert d["confusion"] == [[3, 1], [1, 3]]

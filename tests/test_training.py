"""Adam optimizer, training loop, and evaluation reports."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_features, make_manifest, record_parts
import driftbench.mlp as mlp
from driftbench import parallel
from driftbench.mlp import MlpParams, init_params, save_checkpoint
from driftbench.splits import SplitSpec, build_lodo_split
from driftbench.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    EVAL_BATCH,
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
    params, history = train(data, split, cfg, hidden1=4, hidden2=3)
    assert history == []
    want = mlp.init_params(4, 2, seed=5, hidden1=4, hidden2=3)
    for name, t in params.tensors().items():
        assert np.array_equal(t, want.tensors()[name]), name


def test_train_is_deterministic(tmp_path):
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)
    cfg = TrainConfig(epochs=5, batch_size=4, drop_prob=0.5, seed=2)
    p1, h1 = train(data, split, cfg, hidden1=8, hidden2=4)
    p2, h2 = train(data, split, cfg, hidden1=8, hidden2=4)
    assert h1 == h2
    a, b = tmp_path / "a.emlp", tmp_path / "b.emlp"
    save_checkpoint(p1, a)
    save_checkpoint(p2, b)
    assert a.read_bytes() == b.read_bytes()


def test_train_learns_separable_blobs():
    man, data = make_data(per_cell=8, n_domains=3)
    split = build_lodo_split(man, "dom2", seed=0)
    cfg = TrainConfig(epochs=30, batch_size=8, drop_prob=0.0, seed=0)
    params, history = train(data, split, cfg, hidden1=16, hidden2=8)
    assert len(history) == 30
    report = evaluate(params, data, split.test_ids)
    assert report.overall_top1 == 100.0


def test_train_returns_best_val_epoch():
    man, data = make_data(per_cell=10)
    split = build_lodo_split(man, "dom1", val_fraction=0.4, seed=1)
    cfg = TrainConfig(epochs=8, batch_size=4, drop_prob=0.5, seed=3)
    params, history = train(data, split, cfg, hidden1=8, hidden2=4)
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
    params, history = train(data, split, cfg, hidden1=4, hidden2=3)
    assert all(np.isnan(h.val_top1) for h in history)
    # rerun an identical loop to confirm the final epoch weights came back
    p2, _ = train(data, split, cfg, hidden1=4, hidden2=3)
    for name, t in params.tensors().items():
        assert np.array_equal(t, p2.tensors()[name])


def test_train_holds_five_parameter_vectors_and_one_step():
    """Traced peak of train stays under its working set: five parameter-sized
    vectors (params, the best-epoch copy, Adam m and v, the gradients), one
    step's activations (twice a ForwardTrace: the trace plus the forward and
    backward temporaries) and one eval chunk (its input and both layers)."""
    i, h1, h2, c, batch = 64, 512, 256, 4, 32
    n_train, n_val = 512, EVAL_BATCH
    n = n_train + n_val
    rows = [(f"c{r}", f"dom{r % 3}", f"cat{r % c}", r) for r in range(n)]
    X = np.random.default_rng(0).standard_normal((n, i)).astype(np.float32)
    data = TrainingData.from_features(make_manifest(rows), make_features(X))
    ids = tuple(r[0] for r in rows)
    split = SplitSpec("dom9", ids[:n_train], ids[n_train:], ())

    params = mlp.init_params(i, c, hidden1=h1, hidden2=h2)
    _, trace = mlp.forward(params, X[:batch], mode="train", drop_prob=0.5,
                           rng=np.random.default_rng(0))
    step = 2 * sum(np.asarray(getattr(trace, f.name)).nbytes for f in dataclasses.fields(trace))
    budget = 5 * params.flat.nbytes + step + EVAL_BATCH * (i + h1 + h2) * 8
    del params, trace

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(data, split, TrainConfig(epochs=1, batch_size=batch, drop_prob=0.5),
              hidden1=h1, hidden2=h2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)


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
        params, history = train(data, split, config, hidden1=h1, hidden2=h2)
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
        train(data, bad, TrainConfig(epochs=1))


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
        train(data, bad, TrainConfig(epochs=1))


def test_train_reports_divergence(monkeypatch):
    man, data = make_data()
    split = build_lodo_split(man, "dom1", seed=0)

    def exploding_loss(logits, targets):
        return float("nan"), np.zeros_like(np.asarray(logits, dtype=np.float64))

    monkeypatch.setattr(mlp, "ova_bce_loss", exploding_loss)
    with pytest.raises(ValueError, match="non-finite loss at epoch 1"):
        train(data, split, TrainConfig(epochs=1), hidden1=4, hidden2=3)


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
    params, _ = train(data, split, cfg, hidden1=16, hidden2=8)
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

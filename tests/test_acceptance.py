"""Acceptance gate: one test per shipping criterion, budgets included.

Each test is self-contained and pins its own parameters; pytest -v gives
one pass/fail line per criterion.
"""
import itertools
import os
import time

import numpy as np
import pytest

from conftest import check_split_integrity, log_parts, materialised, train_best
from driftbench import cli, mlp, parallel
from driftbench.analysis import (
    TABLE3_SHIFT_SCORES,
    TABLE5_MLP_LITE_ACCURACY,
    check_table3_consistency,
    fixture_spearman,
)
from driftbench.clustering import kmeans_fit
from driftbench.dataset import load_manifest, pool_temporal
from driftbench.shift_metric import (
    score_dataset,
    shift_scores,
)
from driftbench.splits import build_all_lodo_splits, build_lodo_split
from driftbench.synth import SyntheticSpec, generate, offset_sweep
from driftbench.training import TrainConfig, TrainingData, evaluate

OFFICIAL_MANIFEST_ENV = "DRIFTBENCH_EGO4OOD_MANIFEST"

# held-out test-set sizes for the official benchmark, by display name
OFFICIAL_TEST_COUNTS = {
    "India": 1920,
    "FRL": 5248,
    "UK": 768,
    "US-Minnesota": 1152,
    "US-CMU": 2304,
    "Saudi Arabia": 2560,
    "Italy": 768,
    "Japan": 256,
}


def test_criterion_01_published_scores_decompose():
    start = time.monotonic()
    checks = check_table3_consistency(tolerance=0.01)
    assert len(checks) == 8
    for c in checks:
        assert abs(c.computed - c.published) <= 0.01, c.domain
    assert time.monotonic() - start < 1.0


def test_criterion_02_published_rank_correlation():
    start = time.monotonic()
    domains = sorted(TABLE3_SHIFT_SCORES)
    scores = np.array([TABLE3_SHIFT_SCORES[d][2] for d in domains])
    accs = np.array([TABLE5_MLP_LITE_ACCURACY[d] for d in domains])
    # explicit rank arithmetic; both columns are tie-free
    rank = lambda v: np.argsort(np.argsort(v)) + 1
    d2 = float(((rank(scores) - rank(accs)) ** 2).sum())
    assert d2 == 146.0
    n = len(domains)
    rho_manual = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    rho = fixture_spearman()
    assert abs(rho - rho_manual) < 1e-12
    assert abs(rho - (-0.738)) <= 0.005
    assert time.monotonic() - start < 1.0


def brute_force_inertia(X, k):
    """Exact optimum by enumerating all surjective labelings."""
    n = X.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        labels = np.array(labels)
        total = 0.0
        for c in range(k):
            pts = X[labels == c]
            total += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_criterion_03_kmeans_matches_brute_force():
    start = time.monotonic()
    for i in range(25):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 3) + 1))
        X = rng.standard_normal((n, d))
        best20 = min(kmeans_fit(X, k, seed=r).inertia for r in range(20))
        optimal = brute_force_inertia(X, k)
        assert abs(best20 - optimal) <= 1e-9, (i, n, d, k)
    assert time.monotonic() - start < 10.0


def score_of(groups, label):
    return {g.label: g.score for g in groups}[label]


def test_criterion_04_shift_score_hand_cases():
    # two singleton domains at (0,0) and (3,4): prototype distance 5
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    records = [
        type("R", (), {"domain": "a", "category": "c", "clip_id": "a0"})(),
        type("R", (), {"domain": "b", "category": "c", "clip_id": "b0"})(),
    ]
    model = kmeans_fit(X, k_clusters=2, seed=0)
    report = score_dataset(X, records, k_clusters=2, seed=0)
    assert model.inertia == 0.0
    assert score_of(report.groups, "a") == 5.0
    assert score_of(report.groups, "b") == 5.0

    # prototypes at 0, 1 and 3 give g the deltas [1, 3]; at tau 2: mu 2,
    # population sigma 1, score exactly 4
    groups = shift_scores(["g", "h", "i"], [1, 1, 1], np.array([[0.0], [1.0], [3.0]]),
                          tau=2.0)
    assert score_of(groups, "g") == 4.0


def test_criterion_05_offset_sweep_monotonicity():
    start = time.monotonic()
    spec = SyntheticSpec(n_domains=4, n_classes=5, samples_per_cell=200,
                         feature_dim=32, class_separation=4.0, noise_scale=1.0)
    magnitudes = [0.0, 1.0, 2.0, 4.0]
    datasets = offset_sweep(spec, "dom01", magnitudes, seed=0)

    # common random numbers: rows outside the swept domain never change
    base_man, base_feats = datasets[0]
    moved = np.array([r.domain == "dom01" for r in base_man.records])
    for man, feats in datasets[1:]:
        assert feats.values[~moved].tobytes() == \
            base_feats.values[~moved].tobytes()

    omegas = []
    for man, feats in datasets:
        X = pool_temporal(feats, "mean")
        report = score_dataset(X, man.records, k_clusters=16, seed=0)
        omegas.append(score_of(report.groups, "dom01"))
    for lo, hi in zip(omegas, omegas[1:]):
        assert hi >= lo, omegas
    assert omegas[-1] > max(omegas[:-1]), omegas
    assert time.monotonic() - start < 30.0


def test_criterion_06_gradients_match_finite_differences():
    start = time.monotonic()
    params = mlp.init_params(16, 3, seed=11, hidden1=8, hidden2=4,
                             dtype=np.float64)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((12, 16))
    targets = mlp.one_hot(rng.integers(0, 3, size=12), 3)

    logits, trace = mlp.forward(params, x, mode="train", drop_prob=0.0,
                                rng=np.random.default_rng(0))
    _, grad_logits = mlp.ova_bce_loss(logits, targets)
    grads = materialised(mlp.backward(params, trace, grad_logits))

    def loss_now():
        return mlp.ova_bce_loss(mlp.forward(params, x, mode="eval"), targets)[0]

    h = 1e-5
    checked = 0
    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_now()
            flat[idx] = orig - h
            down = loss_now()
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            an = grads.tensors()[name].reshape(-1)[idx]
            worst = max(worst, abs(an - fd) / max(1e-8, abs(an), abs(fd)))
            checked += 1
    assert checked >= 200
    assert worst < 1e-4
    assert time.monotonic() - start < 5.0


def test_criterion_07_trainer_learns_separable_classes():
    start = time.monotonic()
    spec = SyntheticSpec(n_domains=3, n_classes=9, samples_per_cell=30,
                         feature_dim=16, class_separation=4.0,
                         noise_scale=0.25)
    man, feats = generate(spec, seed=3)
    data = TrainingData.from_features(man, feats, pool_mode="mean")
    split = build_lodo_split(man, "dom02", val_fraction=0.24, seed=3)

    # separability witness: one-hot least squares with a bias column
    tr = data.rows_for(split.train_ids)
    te = data.rows_for(split.test_ids)
    A = np.hstack([data.X[tr], np.ones((len(tr), 1))])
    W, *_ = np.linalg.lstsq(A, np.eye(9)[data.labels[tr]], rcond=None)
    At = np.hstack([data.X[te], np.ones((len(te), 1))])
    probe = float((np.argmax(At @ W, axis=1) == data.labels[te]).mean() * 100)
    assert probe == 100.0

    cfg = TrainConfig(epochs=50, drop_prob=0.5, seed=3)
    params, history = train_best(data, split, cfg, hidden1=256, hidden2=128)
    assert len(history) <= 50
    report = evaluate(params, data, split.test_ids)
    assert report.overall_top1 >= 95.0
    assert time.monotonic() - start < 120.0


def test_criterion_08_loss_reference_points():
    # zero logits: per-element value is ln 2 to double precision
    loss, _ = mlp.ova_bce_loss(np.zeros((5, 7)), np.zeros((5, 7)))
    assert abs(loss - np.log(2.0)) <= 1e-12
    loss, _ = mlp.ova_bce_loss(np.zeros((1, 1)), np.ones((1, 1)))
    assert abs(loss - np.log(2.0)) <= 1e-12

    # saturated and correct: loss collapses toward zero
    logits = np.full((4, 6), -40.0)
    targets = np.zeros((4, 6))
    logits[np.arange(4), np.arange(4)] = 40.0
    targets[np.arange(4), np.arange(4)] = 1.0
    loss, _ = mlp.ova_bce_loss(logits, targets)
    assert loss < 1e-6


def run_pipeline(root):
    data = root / "data"
    score = root / "score"
    split = root / "split_dom01.tsv"
    ckpt = root / "model.emlp"
    history = root / "history.csv"
    eval_out = root / "eval.json"
    steps = [
        ["synth", "--domains", "3", "--classes", "3", "--per-cell", "10",
         "--dim", "8", "--noise", "0.5", "--seed", "4",
         "--out-dir", str(data)],
        ["score", "--manifest", str(data / "manifest.jsonl"),
         "--features", str(data / "features.egf"), "--k-clusters", "4",
         "--seed", "4", "--out-dir", str(score)],
        ["splits", "--manifest", str(data / "manifest.jsonl"),
         "--hold-out", "dom01", "--seed", "4", "--out", str(split)],
        ["train", "--manifest", str(data / "manifest.jsonl"),
         "--features", str(data / "features.egf"), "--split", str(split),
         "--seed", "4", "--epochs", "2", "--batch", "16",
         "--drop-prob", "0.5", "--hidden1", "8", "--hidden2", "4",
         "--out", str(ckpt), "--history", str(history)],
        ["eval", "--manifest", str(data / "manifest.jsonl"),
         "--features", str(data / "features.egf"),
         "--checkpoint", str(ckpt), "--split", str(split),
         "--role", "test", "--out", str(eval_out)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return [data / "manifest.jsonl", data / "features.egf",
            score / "shift_report.csv", score / "shift_report.json",
            split, ckpt, history, eval_out]


def test_criterion_09_pipeline_is_byte_deterministic(tmp_path, capsys):
    # same paths both times, so every output including the eval report
    # (which embeds the split path) must come back byte for byte
    files = run_pipeline(tmp_path)
    first = {f: f.read_bytes() for f in files}
    run_pipeline(tmp_path)
    capsys.readouterr()
    for f, before in first.items():
        assert f.read_bytes() == before, f.name


def test_criterion_09_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, capsys):
    # widths above both size gates, so at three workers `train` splits its
    # GEMMs and Adam across threads; the reference runs on one thread.
    # `train-all` trains its hold-outs in worker processes, one at a time or
    # three side by side, each step in one part. run_parts logs its calls'
    # part counts to a file, which the workers write too.
    data = tmp_path / "data"
    assert cli.main(["synth", "--domains", "3", "--classes", "4", "--per-cell", "30",
                     "--dim", "256", "--seed", "9", "--out-dir", str(data)]) == 0
    inputs = ["--manifest", str(data / "manifest.jsonl"),
              "--features", str(data / "features.egf")]
    widths = ["--epochs", "2", "--hidden1", "2048", "--hidden2", "256", "--drop-prob", "0.5",
              "--seed", "9"]
    split = tmp_path / "split_dom01.tsv"
    assert cli.main(["splits", "--manifest", str(data / "manifest.jsonl"),
                     "--hold-out", "dom01", "--seed", "9", "--out", str(split)]) == 0
    outputs = {}
    for workers in (1, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        parts = tmp_path / f"parts{workers}.log"
        log_parts(monkeypatch, parts)
        assert cli.main(["train", *inputs, "--split", str(split), *widths,
                         "--out", str(out / "model.emlp")]) == 0
        assert cli.main(["eval", *inputs, "--checkpoint", str(out / "model.emlp"),
                         "--split", str(split), "--role", "test",
                         "--out", str(out / "eval.json")]) == 0
        assert max(map(int, parts.read_text().split())) == workers
        all_parts = tmp_path / f"parts{workers}_all.log"
        log_parts(monkeypatch, all_parts)
        assert cli.main(["train-all", *inputs, *widths,
                         "--out-dir", str(out / "lodo")]) == 0
        assert set(all_parts.read_text().split()) == {"1"}
        outputs[workers] = {f.relative_to(out): f.read_bytes()
                            for f in out.rglob("*") if f.is_file()}
    capsys.readouterr()
    assert len(outputs[1]) == 3 + 3 * 4 + 1  # model, history, eval; then train-all's
    assert outputs[1] == outputs[3]


def test_criterion_10_split_integrity_synthetic():
    spec = SyntheticSpec(n_domains=4, n_classes=3, samples_per_cell=25,
                         feature_dim=4, noise_scale=1.0)
    man, _ = generate(spec, seed=0)
    vf = 0.24
    all_splits = build_all_lodo_splits(man, val_fraction=vf, seed=0)
    assert set(all_splits) == set(man.domains)
    for split in all_splits.values():
        check_split_integrity(man, split, vf)


def normalize_domain(name):
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def test_criterion_10_official_test_counts():
    path = os.environ.get(OFFICIAL_MANIFEST_ENV)
    if not path:
        pytest.skip(f"set {OFFICIAL_MANIFEST_ENV} to the official manifest "
                    "to check held-out test counts")
    man = load_manifest(path)
    splits = build_all_lodo_splits(man, val_fraction=0.24, seed=0)
    got = {normalize_domain(d): len(s.test_ids) for d, s in splits.items()}
    want = {normalize_domain(d): n for d, n in OFFICIAL_TEST_COUNTS.items()}
    assert got == want

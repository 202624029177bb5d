"""Rank correlation, published-table fixtures, and shift-score ordering."""
import hashlib
import json

import numpy as np
import pytest

from driftbench.analysis import (
    TABLE3_SHIFT_SCORES,
    TABLE5_MLP_LITE_ACCURACY,
    check_table3_consistency,
    correlate_shift_accuracy,
    fixture_spearman,
    pearson,
    spearman,
)
from driftbench.dataset import pool_temporal
from driftbench.shift_metric import score_dataset, shift_scores
from driftbench.splits import build_lodo_split
from driftbench.synth import SyntheticSpec, offset_sweep
from driftbench.training import TrainConfig, TrainingData, evaluate, train

FIXTURE_SHA256 = "cf81417a6e11e1d77a264dda3d754d7cf07b75adde3318898e5e8ea3bd81ee48"


def test_spearman_perfect_monotone():
    x = np.array([1.0, 2.0, 5.0, 9.0])
    assert abs(spearman(x, x**3) - 1.0) < 1e-12
    assert abs(spearman(x, -x) + 1.0) < 1e-12


def test_spearman_tie_handling():
    # average ranks (1.5, 1.5, 3) vs (1, 2, 3): rho = sqrt(3)/2
    rho = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert abs(rho - np.sqrt(3.0) / 2.0) < 1e-12


def test_spearman_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least 3 points"):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="constant input"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_invariances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        rho = spearman(x, y)
        assert abs(spearman(y, x) - rho) < 1e-12
        # strictly monotone transforms leave ranks unchanged
        assert abs(spearman(np.exp(x), y) - rho) < 1e-12
        assert abs(spearman(x, 3.0 * y + 7.0) - rho) < 1e-12
        assert -1.0 <= rho <= 1.0


def test_pearson_affine_exact():
    x = np.array([0.5, 1.0, 4.0, -2.0])
    assert abs(pearson(x, 2.0 * x + 1.0) - 1.0) < 1e-12
    assert abs(pearson(x, -0.5 * x) + 1.0) < 1e-12
    with pytest.raises(ValueError, match="length mismatch"):
        pearson(x, x[:2])
    with pytest.raises(ValueError, match="constant input"):
        pearson(np.ones(4), x)


def test_pearson_stays_finite_near_the_float_maximum():
    # corrcoef's sums of products overflow on these unless the scores are scaled
    r = pearson([1e308, -1e308, 1e307], [90.0, 70.0, 10.0])
    assert r == pytest.approx(0.18384122973665648, rel=1e-12)
    assert pearson([1e308, -1e308, 1e307], [1e308, -1e308, 1e307]) == pytest.approx(1.0)


def test_published_tables_are_frozen():
    canonical = json.dumps({"table3": TABLE3_SHIFT_SCORES,
                            "table5_mlp_lite": TABLE5_MLP_LITE_ACCURACY}, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert digest == FIXTURE_SHA256
    assert set(TABLE3_SHIFT_SCORES) == set(TABLE5_MLP_LITE_ACCURACY)
    assert len(TABLE3_SHIFT_SCORES) == 8
    assert TABLE3_SHIFT_SCORES["India"] == (6.30, 0.24, 6.78)
    assert TABLE5_MLP_LITE_ACCURACY["Japan"] == 77.73


def test_fixture_spearman_value():
    rho = fixture_spearman()
    assert abs(rho - (-0.738)) <= 0.005
    assert rho == -0.7380952380952381


def test_fixture_spearman_matches_classical_formula():
    # no ties in either table, so rho = 1 - 6*sum(d^2)/(n(n^2-1))
    domains = sorted(TABLE3_SHIFT_SCORES)
    scores = np.array([TABLE3_SHIFT_SCORES[d][2] for d in domains])
    accs = np.array([TABLE5_MLP_LITE_ACCURACY[d] for d in domains])
    rank = lambda v: np.argsort(np.argsort(v)) + 1
    d2 = float(((rank(scores) - rank(accs)) ** 2).sum())
    assert d2 == 146.0
    n = len(domains)
    want = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    assert abs(fixture_spearman() - want) < 1e-12


def test_consistency_check_passes_published_rows():
    checks = check_table3_consistency()
    assert len(checks) == 8
    assert all(c.passed for c in checks)
    for c in checks:
        assert abs(c.computed - c.published) <= 0.01


def test_consistency_check_flags_bad_row_without_raising():
    table3 = dict(TABLE3_SHIFT_SCORES)
    table3["India"] = (6.30, 0.24, 9.99)  # no longer mu + 2 sigma
    checks = check_table3_consistency(table3)
    by_domain = {c.domain: c for c in checks}
    assert not by_domain["India"].passed
    assert by_domain["UK"].passed
    assert sum(not c.passed for c in checks) == 1


def test_correlate_requires_matching_domains():
    shift = {"a": 1.0, "b": 2.0, "c": 3.0}
    acc = {"b": 50.0, "c": 60.0, "d": 70.0}
    with pytest.raises(ValueError) as err:
        correlate_shift_accuracy(shift, acc)
    msg = str(err.value)
    assert "domain mismatch" in msg and "'a'" in msg and "'d'" in msg


def test_correlate_returns_both_methods():
    shift = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    acc = {"a": 80.0, "b": 70.0, "c": 60.0, "d": 10.0}
    result = correlate_shift_accuracy(shift, acc)
    assert result.spearman == -1.0
    assert -1.0 <= result.pearson < result.spearman + 1.0
    assert len(result.pairs) == 4
    assert result.pairs[0] == ("a", 1.0, 80.0)


def test_growing_shift_drives_accuracy_down():
    # push one domain along the first class axis: its score rises while
    # its held-out accuracy falls, so rank correlation is exactly -1
    dim = 8
    e0 = np.zeros(dim)
    e0[0] = 1.0
    spec = SyntheticSpec(n_domains=3, n_classes=3, samples_per_cell=40,
                         feature_dim=dim, class_separation=3.0,
                         noise_scale=0.5, domain_offsets={"dom02": e0})
    mags = [0.0, 2.5, 5.0]
    shift, acc = {}, {}
    for mag, (man, feats) in zip(mags, offset_sweep(spec, "dom02", mags, seed=1)):
        X = pool_temporal(feats, "mean")
        report = score_dataset(X, man.records, k_clusters=9, seed=1)
        data = TrainingData.from_features(man, feats, pool_mode="mean")
        split = build_lodo_split(man, "dom02", seed=1)
        cfg = TrainConfig(epochs=15, batch_size=32, drop_prob=0.0, seed=1)
        params, _ = train(data, split, cfg, hidden1=32, hidden2=16)
        key = f"mag{mag:g}"
        shift[key] = {g.label: g.score for g in report.groups}["dom02"]
        acc[key] = evaluate(params, data, split.test_ids).overall_top1

    omegas = [shift[f"mag{m:g}"] for m in mags]
    accs = [acc[f"mag{m:g}"] for m in mags]
    assert omegas == sorted(omegas) and len(set(omegas)) == 3
    assert accs == sorted(accs, reverse=True) and len(set(accs)) == 3
    assert correlate_shift_accuracy(shift, acc).spearman == -1.0


def tiny_groups():
    # 1-D prototypes at 0, 1 and 3: deltas near [1, 3], mid [1, 2], far [3, 2]
    return shift_scores(["near", "mid", "far"], [10, 20, 30],
                        np.array([[0.0], [1.0], [3.0]]), tau=2.0)


def test_report_groups_sorted_by_score():
    groups = tiny_groups()
    scores = [g.score for g in groups]
    assert scores == sorted(scores, reverse=True)
    # deltas [1, 3]: mu 2, population sigma 1, score 4 beats far's 3.5
    top = groups[0]
    assert top.label == "near"
    assert top.score == pytest.approx(4.0, abs=1e-12)

import json

import numpy as np
import pytest

from driftbench import shift_metric, synth
from driftbench.clustering import ClusterModel, kmeans_fit
from driftbench.dataset import ClipRecord, pool_temporal
from driftbench.shift_metric import (
    ShiftReport,
    score_dataset,
    shift_scores,
    write_shift_report_csv,
    write_shift_report_json,
    shift_report_to_dict,
)


def records_for(pairs):
    return [ClipRecord(f"c{i}", d, c, i) for i, (d, c) in enumerate(pairs)]


def model_with(centroids, assignments):
    centroids = np.asarray(centroids, dtype=np.float64)
    assignments = np.asarray(assignments)
    return ClusterModel(
        centroids=centroids, assignments=assignments,
        inertia=0.0, iterations_run=0,
    )


@pytest.fixture
def fixed_model(monkeypatch):
    """Make score_dataset use the given cluster model instead of fitting one."""
    def use(model):
        monkeypatch.setattr(shift_metric, "kmeans_fit",
                            lambda X, k_clusters, seed: model)
    return use


def group(report, label):
    return next(g for g in report.groups if g.label == label)


class TestGroupPrototypes:
    def test_all_members_on_one_centroid(self, fixed_model):
        recs = records_for([("a", "c")] * 3 + [("b", "c")])
        fixed_model(model_with([[0.0, 0.0], [4.0, 0.0]], [1, 1, 1, 0]))
        report = score_dataset(np.zeros((4, 2)), recs, k_clusters=2)
        # prototype a = (4, 0), prototype b = (0, 0)
        g = group(report, "a")
        assert g.deltas.tolist() == [4.0]
        assert g.member_count == 3

    def test_mean_of_assigned_centroids(self, fixed_model):
        recs = records_for([("a", "c")] * 3 + [("b", "c")])
        fixed_model(model_with([[0.0, 0.0], [3.0, 0.0]], [0, 0, 1, 0]))
        report = score_dataset(np.zeros((4, 2)), recs, k_clusters=2)
        # prototype a = mean of (0,0), (0,0), (3,0) = (1, 0); b = (0, 0)
        assert group(report, "a").score == 1.0

    def test_domain_class_matches_regrouping_oracle(self):
        rng = np.random.default_rng(6)
        pairs = [(d, c) for d in "pqr" for c in "xy" for _ in range(5)]
        recs = records_for(pairs)
        X = rng.standard_normal((len(recs), 3))
        model = kmeans_fit(X, 4, seed=0)
        report = score_dataset(X, recs, k_clusters=4, seed=0, mode="domain-class")
        assert len(report.groups) == 6
        labels = sorted(g.label for g in report.groups)
        expected = {}
        for label in labels:
            rows = [i for i, r in enumerate(recs) if f"{r.domain}/{r.category}" == label]
            expected[label] = model.centroids[model.assignments[rows]].mean(axis=0)
            assert group(report, label).member_count == len(rows)
        for g in report.groups:
            want = [np.linalg.norm(expected[g.label] - expected[k])
                    for k in labels if k != g.label]
            assert np.allclose(g.deltas, want)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            score_dataset(np.zeros((0, 1)), [], k_clusters=1)

    def test_alignment_mismatch(self):
        recs = records_for([("a", "c"), ("b", "c")])
        with pytest.raises(ValueError, match="alignment"):
            score_dataset(np.zeros((3, 1)), recs, k_clusters=1)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected_before_fitting(self, tau, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("kmeans_fit ran before tau was checked")
        monkeypatch.setattr(shift_metric, "kmeans_fit", no_fit)
        recs = records_for([("a", "c"), ("b", "c")])
        with pytest.raises(ValueError, match="tau must be finite"):
            score_dataset(np.zeros((2, 1)), recs, k_clusters=1, tau=tau)

    @pytest.mark.parametrize("mode, labels", [
        ("domain", ["a", "b"]), ("class", ["x", "y"]),
        ("domain-class", ["a/x", "a/y", "b/x", "b/y"]),
    ])
    def test_each_grouping_labels_its_groups(self, mode, labels, fixed_model):
        recs = records_for([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        fixed_model(model_with([[0.0], [1.0], [3.0], [7.0]], [0, 1, 2, 3]))
        report = score_dataset(np.zeros((4, 1)), recs, k_clusters=4, mode=mode)
        assert report.mode == mode
        assert sorted(g.label for g in report.groups) == labels

    def test_unknown_grouping_rejected_before_fitting(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("kmeans_fit ran before the grouping was checked")
        monkeypatch.setattr(shift_metric, "kmeans_fit", no_fit)
        recs = records_for([("a", "c"), ("b", "c")])
        with pytest.raises(ValueError, match="^unknown grouping 'bogus', choose from "
                                             "domain, class, domain-class$"):
            score_dataset(np.zeros((2, 1)), recs, k_clusters=1, mode="bogus")


def scores_for(points, tau=2.0, counts=None):
    """shift_scores over named prototypes, in the given order, as a report."""
    P = np.array([np.atleast_1d(v) for v in points.values()], dtype=np.float64)
    groups = shift_scores(list(points), counts or [1] * len(points), P, tau)
    return ShiftReport(tau=tau, k_clusters=0, mode="domain", groups=groups)


def deltas_of(report):
    return {g.label: g.deltas.tolist() for g in report.groups}


class TestPrototypeDistances:
    def test_two_groups_symmetric(self):
        report = scores_for({"a": [0, 0], "b": [3, 4]})
        assert deltas_of(report) == {"a": [5.0], "b": [5.0]}

    def test_three_collinear(self):
        report = scores_for({"a": 0.0, "b": 1.0, "c": 3.0})
        assert deltas_of(report) == {"a": [1.0, 3.0], "b": [1.0, 2.0],
                                     "c": [3.0, 2.0]}

    def test_identical_prototypes(self):
        report = scores_for({label: [2.0, 2.0] for label in "abc"})
        for g in report.groups:
            assert g.deltas.tolist() == [0.0, 0.0]

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            scores_for({"a": 0.0})


class TestShiftScores:
    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError, match="prototypes"):
            shift_scores(list("ab"), [1, 1], np.zeros((3, 1)))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            shift_scores(list("abc"), [1, 1, 1], np.eye(3), tau=tau)

    def test_empty_delta_set(self):
        # zero or one group leaves every group with no distances to average
        with pytest.raises(ValueError, match=">= 2"):
            shift_scores([], [], np.zeros((0, 1)))
        with pytest.raises(ValueError, match=">= 2"):
            shift_scores(["a"], [1], np.zeros((1, 1)))

    def test_published_style_row(self):
        # a's deltas are 6.06 and 6.54, so mu=6.30 and population sigma=0.24
        report = scores_for({"a": 0.0, "b": 6.06, "c": -6.54})
        g = group(report, "a")
        assert g.mu == pytest.approx(6.30)
        assert g.sigma == pytest.approx(0.24)
        assert g.score == pytest.approx(6.78)

    def test_two_groups_score_is_distance(self):
        report = scores_for({"a": [0, 0], "b": [3, 4]})
        for g in report.groups:
            assert g.sigma == 0.0
            assert g.score == 5.0

    def test_two_point_population_stats_exact(self):
        report = scores_for({"a": 0.0, "b": 1.0, "c": 3.0})
        assert group(report, "a").score == 4.0  # deltas [1, 3]: mu 2, sigma 1, tau 2

    @pytest.mark.parametrize("n_groups, others, outlier_rank", [
        (4, 3.8284271247461903, 3),  # 1 + 2*sqrt(2): the outlier ranks last
        (6, 5.0, None),              # every group ties
        (8, 5.898979485566356, 0),   # 1 + 2*sqrt(6): the outlier ranks first
    ])
    def test_lone_outlier_closed_form(self, n_groups, others, outlier_rank):
        # one group at d from G-1 coincident groups: it scores d (sigma 0); each
        # other group scores d*(1 + tau*sqrt(G-2))/(G-1), tau = 2, d = G-1
        d = n_groups - 1
        points = {"out": float(d), **{f"g{i}": 0.0 for i in range(1, n_groups)}}
        report = scores_for(points, tau=2.0)
        closed_form = d * (1 + 2.0 * np.sqrt(n_groups - 2)) / (n_groups - 1)
        assert others == pytest.approx(closed_form, rel=1e-12)
        assert group(report, "out").score == float(d)
        assert {g.score for g in report.groups if g.label != "out"} == {others}
        labels = [g.label for g in report.groups]
        if outlier_rank is None:
            assert {g.score for g in report.groups} == {float(d)}
        else:
            assert labels.index("out") == outlier_rank

    def test_sorted_by_descending_score(self):
        # high: [1, 10] -> 14.5, mid: [1, 9] -> 13, low: [10, 9] -> 10.5
        report = scores_for({"high": 0.0, "mid": 1.0, "low": 10.0})
        assert [g.label for g in report.groups] == ["high", "mid", "low"]

    def test_member_counts_follow_keys(self):
        report = scores_for({"a": 0.0, "b": 1.0, "c": 3.0}, counts=[10, 20, 30])
        assert {g.label: g.member_count for g in report.groups} == \
            {"a": 10, "b": 20, "c": 30}

    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n_groups, dim = int(rng.integers(2, 40)), int(rng.integers(1, 60))
            P = rng.standard_normal((n_groups, dim)) * rng.uniform(0.01, 100.0)
            report = scores_for({f"g{i:02d}": P[i] for i in range(n_groups)})
            full = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
            for i in range(n_groups):
                deltas = np.delete(full[i], i)
                mu = float(deltas.mean())
                sigma = float(np.sqrt(((deltas - mu) ** 2).mean()))
                g = group(report, f"g{i:02d}")
                assert g.deltas.tolist() == deltas.tolist()
                assert (g.mu, g.sigma) == (mu, sigma)

    def test_score_identity_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n_groups = int(rng.integers(2, 7))
            points = {f"g{i}": rng.uniform(-9.0, 9.0, size=3) for i in range(n_groups)}
            report = scores_for(points, tau=float(rng.uniform(0.0, 3.0)))
            for g in report.groups:
                assert g.score == g.mu + report.tau * g.sigma  # same arithmetic path
                assert g.mu >= 0 and g.sigma >= 0 and g.score >= 0


def synth_domain_data(spec, seed):
    manifest, features = synth.generate(spec, seed=seed)
    return list(manifest.records), pool_temporal(features, "mean")


class TestScoreDataset:
    def test_single_domain_rejected(self):
        spec = synth.SyntheticSpec(n_domains=1, n_classes=2, samples_per_cell=10,
                                   feature_dim=4)
        records, X = synth_domain_data(spec, seed=0)
        with pytest.raises(ValueError, match=">= 2"):
            score_dataset(X, records, k_clusters=3, seed=0)

    def test_far_offset_domain_ranks_first(self):
        # The three base domains are spread along a line; the fourth starts on
        # top of the farthest one and is pushed 4 noise units beyond it. The
        # spread keeps the observers' sigma from outranking the mover.
        dim, noise = 16, 0.25
        u = np.zeros(dim)
        u[10] = 1.0
        offsets = {"dom01": 2.2 * u, "dom02": 4.4 * u,
                   "dom03": (4.4 + 4 * noise) * u}
        spec = synth.SyntheticSpec(n_domains=4, n_classes=3, samples_per_cell=150,
                                   feature_dim=dim, class_separation=2.0,
                                   noise_scale=noise, domain_offsets=offsets)
        records, X = synth_domain_data(spec, seed=0)
        report = score_dataset(X, records, k_clusters=24, seed=0)
        top = report.groups[0]
        assert top.label == "dom03"
        assert all(top.score > g.score for g in report.groups[1:])

    def test_global_translation_invariance(self):
        spec = synth.SyntheticSpec(n_domains=3, n_classes=2, samples_per_cell=40,
                                   feature_dim=8, noise_scale=0.5)
        records, X = synth_domain_data(spec, seed=2)
        a = score_dataset(X, records, k_clusters=6, seed=2)
        b = score_dataset(X + 37.5, records, k_clusters=6, seed=2)
        for ga, gb in zip(a.groups, b.groups):
            assert ga.label == gb.label
            assert gb.score == pytest.approx(ga.score, rel=1e-6)

    def test_sample_order_invariance_fixed_model(self, fixed_model):
        spec = synth.SyntheticSpec(n_domains=3, n_classes=2, samples_per_cell=30,
                                   feature_dim=6, noise_scale=0.5)
        records, X = synth_domain_data(spec, seed=4)
        model = kmeans_fit(X, 5, seed=4)
        perm = np.random.default_rng(0).permutation(len(records))
        permuted_model = ClusterModel(
            centroids=model.centroids,
            assignments=model.assignments[perm], inertia=model.inertia,
            iterations_run=model.iterations_run,
        )
        fixed_model(model)
        base = score_dataset(X, records, k_clusters=5)
        fixed_model(permuted_model)
        shuffled = score_dataset(X[perm], [records[i] for i in perm], k_clusters=5)
        for ga, gb in zip(base.groups, shuffled.groups):
            assert ga.label == gb.label
            assert gb.score == pytest.approx(ga.score, rel=1e-6)

    def test_label_priors_alone_raise_every_score(self):
        # No offsets; only dom01's class mix changes. Its prototype moves by
        # about 4 * |p - 1/5| = 1.79 along the class axes, so each score rises
        # from the noise floor, dom01's least (G = 4 < 6, see shift_scores).
        scores = []
        for priors in (None, {"dom01": (0.6, 0.1, 0.1, 0.1, 0.1)}):
            spec = synth.SyntheticSpec(n_domains=4, n_classes=5, samples_per_cell=100,
                                       feature_dim=32, label_priors=priors)
            records, X = synth_domain_data(spec, seed=0)
            report = score_dataset(X, records, k_clusters=20, seed=0)
            scores.append({g.label: g.score for g in report.groups})
        base, shifted = scores
        assert max(base.values()) < 0.2
        assert min(shifted.values()) > 1.5
        assert min(shifted, key=shifted.get) == "dom01"

    def test_offset_sweep_monotone(self):
        base = synth.SyntheticSpec(n_domains=4, n_classes=3, samples_per_cell=100,
                                   feature_dim=16, noise_scale=1.0)
        omegas = []
        for manifest, features in synth.offset_sweep(base, "dom02", [0, 1, 2, 4],
                                                     seed=0):
            X = pool_temporal(features, "mean")
            report = score_dataset(X, list(manifest.records), k_clusters=12, seed=0)
            omegas.append(group(report, "dom02").score)
        assert all(b >= a for a, b in zip(omegas, omegas[1:]))


class TestReportOutput:
    def make_report(self):
        # deltas: east [1, 3], west [1, 2], north [3, 2]
        return scores_for({"east": 0.0, "west": 1.0, "north": 3.0})

    def test_csv_layout(self, tmp_path):
        p = tmp_path / "report.csv"
        write_shift_report_csv(self.make_report(), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "group,mu,sigma,score,member_count"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "east"
        assert float(first[3]) == 4.0

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        p = tmp_path / "report.json"
        write_shift_report_json(report, p)
        obj = json.loads(p.read_text())
        assert obj == shift_report_to_dict(report)
        assert [g["group"] for g in obj["groups"]] == ["east", "north", "west"]
        assert obj["groups"][0]["score"] == 4.0

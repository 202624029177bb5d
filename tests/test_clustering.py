import itertools

import numpy as np
import pytest

from driftbench import clustering, dataset
from driftbench.clustering import assign_nearest, kmeans_fit


def brute_force_inertia(X, k):
    """Minimum inertia over every full k-way labeling (tiny instances only)."""
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        if len(set(labels.tolist())) < k:
            continue
        inertia = 0.0
        for j in range(k):
            members = X[labels == j]
            inertia += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


class TestKmeansFit:
    def test_k_equals_n_zero_inertia(self):
        X = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        model = kmeans_fit(X, 3, seed=0)
        assert model.inertia == 0.0
        assert sorted(model.assignments.tolist()) == [0, 1, 2]
        # each point sits on its own centroid
        assert np.allclose(np.sort(model.centroids, axis=0), np.sort(X, axis=0))

    def test_k_one_analytic_optimum(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 3))
        model = kmeans_fit(X, 1, seed=0)
        assert np.allclose(model.centroids[0], X.mean(axis=0))
        assert model.inertia == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())

    def test_two_blobs_match_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        X = np.vstack([
            rng.standard_normal((4, 2)) * 0.1 + [0, 0],
            rng.standard_normal((4, 2)) * 0.1 + [10, 10],
        ])
        best = min(kmeans_fit(X, 2, seed=s).inertia for s in range(20))
        assert best == pytest.approx(brute_force_inertia(X, 2), abs=1e-9)

    def test_errors(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="exceeds"):
            kmeans_fit(X, 4)
        with pytest.raises(ValueError, match=">= 1"):
            kmeans_fit(X, 0)
        with pytest.raises(ValueError, match="non-finite"):
            kmeans_fit(np.array([[np.nan, 0.0]]), 1)
        for bad in (np.nan, np.inf, -np.inf):  # min and max of X must see each
            with pytest.raises(ValueError, match="non-finite"):
                kmeans_fit(np.array([[1.0, 2.0], [3.0, bad]]), 1)

    def test_rising_inertia_raises(self, monkeypatch):
        # a poor start, one true Lloyd E-step, then every point sent to the
        # other blob's centroid: iteration 2 raises the inertia of iteration 1
        real = clustering.assign_nearest
        calls = []

        def rigged(X, centroids, x_sq=None):
            calls.append(1)
            if len(calls) == 1:
                return np.array([0, 0, 0, 1])
            labels = real(X, centroids, x_sq)
            return labels if len(calls) == 2 else 1 - labels

        monkeypatch.setattr(clustering, "assign_nearest", rigged)
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        with pytest.raises(RuntimeError, match="inertia rose"):
            kmeans_fit(X, 2, seed=0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        a = kmeans_fit(X, 5, seed=9)
        b = kmeans_fit(X, 5, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia
        assert a.iterations_run == b.iterations_run

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        v = np.array([100.0, -7.0, 3.5])
        a = kmeans_fit(X, 4, seed=1)
        b = kmeans_fit(X + v, 4, seed=1)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(b.centroids, a.centroids + v, atol=1e-6)

    def test_model_invariants_over_seeds(self):
        rng = np.random.default_rng(8)
        for seed in range(6):
            X = rng.standard_normal((25, 2))
            model = kmeans_fit(X, 4, seed=seed)
            assert model.inertia >= 0.0
            assert ((model.assignments >= 0) & (model.assignments < 4)).all()
            assert len(set(model.assignments.tolist())) == 4  # no empty cluster
            # returned labels are consistent with returned centroids
            recomputed = ((X - model.centroids[model.assignments]) ** 2).sum()
            assert model.inertia == pytest.approx(recomputed)

    def test_duplicate_points_still_fill_all_clusters(self):
        # only two distinct locations but k=3: repair must kick in
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        model = kmeans_fit(X, 3, seed=0)
        assert len(set(model.assignments.tolist())) == 3
        assert model.inertia <= 0.5 + 1e-12


class TestAssignNearest:
    def test_point_on_centroid(self):
        centroids = np.array([[0.0, 0], [5, 0], [9, 9]])
        assert assign_nearest(np.array([[9.0, 9.0]]), centroids).tolist() == [2]

    def test_tie_goes_to_lowest_index(self):
        centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert assign_nearest(np.array([[1.0, 0.0]]), centroids).tolist() == [0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 3))
        centroids = rng.standard_normal((4, 3))
        got = assign_nearest(X, centroids)
        for i, row in enumerate(X):
            dists = [np.sqrt(((row - c) ** 2).sum()) for c in centroids]
            assert got[i] == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            assign_nearest(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_unsettled_rows_go_through_explicit_recheck(self, monkeypatch):
        # rows 0-29: points within ~1 of each other at an offset of 1e8,
        # where the expansion's rounding (~10) swamps the true gaps; row 30:
        # an exact tie between centroids 1 and 2
        rng = np.random.default_rng(21)
        X = np.vstack([rng.standard_normal((30, 4)) + 1e8, [[0.0, 0, 0, 2]]])
        centroids = np.vstack([rng.standard_normal((5, 4)) + 1e8,
                               [[0.0, 0, 0, 1]], [[0.0, 0, 0, 3]]])
        want = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        expansion = ((X ** 2).sum(axis=1)[:, None] - 2 * X @ centroids.T
                     + (centroids ** 2).sum(axis=1)).argmin(axis=1)
        assert (expansion != want).any()  # the expansion alone gets rows wrong

        real = clustering._pairwise_sq_dists
        rechecked = []

        def spy(rows, c):
            rechecked.extend(map(tuple, rows))
            return real(rows, c)

        monkeypatch.setattr(clustering, "_pairwise_sq_dists", spy)
        got = assign_nearest(X, centroids)
        assert np.array_equal(got, want)
        assert got[30] == 5
        assert set(map(tuple, X[expansion != want])) <= set(rechecked)
        assert tuple(X[30]) in rechecked

    def test_well_separated_rows_skip_recheck(self, monkeypatch):
        rng = np.random.default_rng(22)
        centroids = np.arange(8.0)[:, None] * np.ones(3) * 10
        X = centroids[rng.integers(0, 8, 50)] + rng.uniform(-1, 1, (50, 3))
        calls = []
        monkeypatch.setattr(clustering, "_pairwise_sq_dists",
                            lambda *a: calls.append(a) or None)
        assert np.array_equal(assign_nearest(X, centroids),
                              np.rint(X[:, 0] / 10).astype(np.intp))
        assert calls == []


def _repair_empty_per_cluster_loop(X, labels, centroids, k):
    """Reference: recompute every distance once per empty cluster."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        dists = ((X - centroids[labels]) ** 2).sum(axis=1)
        donors = counts[labels] >= 2
        dists[~donors] = -1.0
        mover = int(dists.argmax())
        counts[labels[mover]] -= 1
        labels[mover] = empty
        counts[empty] = 1
        centroids[empty] = X[mover]
    return labels


class TestRepairEmpty:
    def test_several_empty_clusters_match_per_cluster_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n, k, d = int(rng.integers(8, 40)), int(rng.integers(3, 8)), 3
            X = rng.standard_normal((n, d))
            # only the first 1 or 2 centroids lie near the data
            used = int(rng.integers(1, 3))
            centroids = np.vstack([rng.standard_normal((used, d)),
                                   rng.standard_normal((k - used, d)) + 1e3])
            labels = assign_nearest(X, centroids)
            assert np.bincount(labels, minlength=k).tolist().count(0) >= k - used
            ref_centroids = centroids.copy()
            want = _repair_empty_per_cluster_loop(X, labels, ref_centroids, k)
            monkeypatch.setattr(dataset, "BLOCK", (1 + trial % 4) * d)  # blocks of 1 to 4 rows
            got = clustering._repair_empty(X, labels, centroids, k, clustering._scratch(n, d))
            assert np.array_equal(got, want), trial
            assert centroids.tobytes() == ref_centroids.tobytes(), trial
            assert (np.bincount(got, minlength=k) > 0).all()

    @pytest.mark.parametrize("X, centroids", [
        # equal distances among donors: argmax must take the lowest index
        ([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3,
         [[0.5, 0.5], [9.0, 9.0], [9.0, 9.5], [-9.0, 0.0]]),
        # cluster 0 holds the two farthest points; after giving one up it
        # has a single member and must not be drained for the next empty
        ([[-10.0], [10.0], [49.0], [50.5], [51.0], [52.0]],
         [[0.0], [50.0], [1000.0], [2000.0]]),
    ])
    def test_hand_cases_match_per_cluster_loop(self, X, centroids):
        X, centroids = np.array(X), np.array(centroids)
        labels = assign_nearest(X, centroids)
        ref_centroids = centroids.copy()
        want = _repair_empty_per_cluster_loop(X, labels, ref_centroids, 4)
        got = clustering._repair_empty(X, labels, centroids, 4,
                                       clustering._scratch(*X.shape))
        assert np.array_equal(got, want)
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert (np.bincount(got, minlength=4) > 0).all()

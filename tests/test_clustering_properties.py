"""Property tests: `assign_nearest` equals the explicit-difference argmin.

The reference is `_pairwise_sq_dists(X, C).argmin(axis=1)`, the form the
assignment is defined by. Inputs cover the cases where the expansion
||x||^2 - 2x.c + ||c||^2 alone would mislead: exact ties (integer grids),
duplicated centroids, large offsets (cancellation), tiny scales, K=1 and
rows holding +-inf.

`kmeans_fit` is checked for its invariants on inputs whose distinct rows
stay distinguishable (grid values, so no squared distance underflows) and
with k at most the number of distinct rows: no empty cluster, labels equal
`assign_nearest` of the returned centroids, the stored inertia equals the
recomputed sum, and ties go to the lowest index.
"""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from driftbench import clustering
from driftbench.clustering import assign_nearest, kmeans_fit


def reference(X, centroids):
    return clustering._pairwise_sq_dists(X, centroids).argmin(axis=1)


@st.composite
def problems(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # small integers: many exact ties, also across duplicated centroids
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    X = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    centroids = draw(hnp.arrays(np.float64, (k, d), elements=elements))
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        centroids = centroids[picks]
    if n and draw(st.booleans()):
        # some centroids sit exactly on data points
        centroids[: min(k, n)] = X[: min(k, n)]
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    X = X * scale + offset
    centroids = centroids * scale + offset
    if n and draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        cols = draw(st.lists(st.integers(0, d - 1), min_size=len(rows), max_size=len(rows)))
        signs = draw(st.lists(st.sampled_from([np.inf, -np.inf]),
                              min_size=len(rows), max_size=len(rows)))
        X[rows, cols] = signs
    return X, centroids


@settings(max_examples=400, deadline=None)
@given(problems())
def test_assign_nearest_equals_explicit_argmin(problem):
    X, centroids = problem
    got = assign_nearest(X, centroids)
    want = reference(X, centroids)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def fits(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 1 / 8, 1 / 1024]))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-20, 20).map(float)))
    if draw(st.booleans()):
        # duplicated rows: exact ties between points and, after a fit,
        # often between centroids
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=2 * n))]
    X = X * scale
    k = draw(st.integers(1, len(np.unique(X, axis=0))))
    return X, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(fits())
def test_kmeans_fit_invariants(fit):
    X, k, seed = fit
    model = kmeans_fit(X, k, seed=seed)
    labels, centroids = model.assignments, model.centroids
    assert centroids.shape == (k, X.shape[1])
    assert np.bincount(labels, minlength=k).min() >= 1
    assert np.array_equal(labels, assign_nearest(X, centroids))
    assert model.inertia == float(((X - centroids[labels]) ** 2).sum())
    # ties, between duplicated centroids or equidistant ones, go to the lowest index
    dists = clustering._pairwise_sq_dists(X, centroids)
    assert labels.tolist() == [np.flatnonzero(row == row.min())[0] for row in dists]
    for row in np.unique(X, axis=0):
        same = (X == row).all(axis=1)
        assert len(set(labels[same])) == 1, "duplicated rows split across clusters"

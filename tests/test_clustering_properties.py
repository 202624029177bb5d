"""Property tests: `assign_nearest` equals the explicit-difference argmin.

The reference is `_pairwise_sq_dists(X, C).argmin(axis=1)`, the form the
assignment is defined by. Inputs cover the cases where the expansion
||x||^2 - 2x.c + ||c||^2 alone would mislead: exact ties (integer grids),
duplicated centroids, large offsets (cancellation), tiny scales, K=1 and
rows holding +-inf.
"""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from driftbench import clustering
from driftbench.clustering import assign_nearest


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


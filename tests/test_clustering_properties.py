"""Property tests: `assign_nearest` equals the explicit-difference argmin.

The reference is the argmin of the explicit (N, K, D) difference form,
the form the assignment is defined by; `_pairwise_sq_dists` builds it a row
block at a time and is checked against it bit for bit. Inputs cover the cases where the expansion
||x||^2 - 2x.c + ||c||^2 alone would mislead: exact ties (integer grids),
duplicated centroids, large offsets (cancellation), tiny scales, K=1 and
rows holding +-inf.

`kmeans_fit` is checked for its invariants on inputs whose distinct rows
stay distinguishable (grid values, so no squared distance underflows) and
with k at most the number of distinct rows: no empty cluster, labels equal
`assign_nearest` of the returned centroids, the stored inertia equals the
recomputed sum, and ties go to the lowest index.

The k-means++ seeding, the inertia walk and the M-step are checked bit for
bit against the one-expression forms they replace. The inertia walk
follows NumPy's pairwise summation, an internal; these tests are what
make a change of it fail loudly.

float32 input (the feature pack's type) is read in place and widened a
block at a time: assignment, seeding and whole fits on float32 rows are
checked bit for bit against the same rows widened to float64 first.
"""
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from driftbench import clustering, dataset
from driftbench.clustering import assign_nearest, kmeans_fit


def explicit_sq_dists(X, centroids):
    return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def reference(X, centroids):
    return explicit_sq_dists(X, centroids).argmin(axis=1)


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


# BLOCK as shipped, and patched down to 8 and 24: below NumPy's unrolled
# leaf of 128, so the walk then reaches every node NumPy sums in one loop.
BLOCKS = [dataset.BLOCK, 8, 24]


@settings(max_examples=400, deadline=None)
@given(problems(), st.sampled_from(BLOCKS), st.sampled_from([np.float64, np.float32]))
def test_assign_nearest_equals_explicit_argmin(problem, block, dtype):
    # at BLOCK 8 the products take 32 // D rows at a time and the rows to
    # recheck go through in blocks of 8 // D rows; float32 rows count as
    # their float64 widening (with the offsets many round to ties)
    X, centroids = problem
    X = X.astype(dtype)
    with mock.patch.object(dataset, "BLOCK", block):
        got = assign_nearest(X, centroids)
    want = reference(X.astype(np.float64), centroids)
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
    dists = explicit_sq_dists(X, centroids)
    assert labels.tolist() == [np.flatnonzero(row == row.min())[0] for row in dists]
    for row in np.unique(X, axis=0):
        same = (X == row).all(axis=1)
        assert len(set(labels[same])) == 1, "duplicated rows split across clusters"


class RecordingRng:
    """A Generator that records every draw's arguments, the weights' bytes included.

    A change of a low bit of the D^2 weights seldom changes the index drawn,
    so the seeding tests compare the weights themselves.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, n):
        self.draws.append(("integers", n))
        return self.rng.integers(n)

    def choice(self, n, p):
        self.draws.append(("choice", n, p.tobytes()))
        return self.rng.choice(n, p=p)

    def state(self):
        return self.rng.bit_generator.state


# The forms kmeans_fit used before it reused one scratch per fit: one fresh
# array per expression. The scratch forms must match them bit for bit.

def expression_kmeanspp_init(X, k, rng):
    n = X.shape[0]
    indices = [int(rng.integers(n))]
    sq_d = ((X - X[indices[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = sq_d.sum()
        if total > 0:
            idx = int(rng.choice(n, p=sq_d / total))
        else:
            idx = int(rng.integers(n))
        indices.append(idx)
        sq_d = np.minimum(sq_d, ((X - X[idx]) ** 2).sum(axis=1))
    return X[indices].copy()


def expression_inertia(X, centroids, labels):
    return float(((X - centroids[labels]) ** 2).sum())


def expression_cluster_means(X, labels, k):
    means = np.empty((k, X.shape[1]))
    for j in range(k):
        means[j] = X[labels == j].mean(axis=0)
    return means


def spread_values(seed, shape):
    """Values over six decades, so that a sum in another order rounds differently."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


@st.composite
def flat_sizes(draw, block):
    """(n, d) with n*d below 8, not a multiple of 8, at block and 128 or one
    either side, or anywhere up to a few leaves."""
    total = draw(st.one_of(
        st.integers(1, 7),
        st.integers(1, 3 * max(block, 128)).filter(lambda t: t % 8),
        st.sampled_from([t + e for t in (block, 128) for e in (-1, 0, 1)]),
        st.integers(1, 3 * max(block, 128))))
    d = draw(st.sampled_from([d for d in range(1, 65) if total % d == 0]))
    return total // d, d


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BLOCKS).flatmap(lambda b: st.tuples(st.just(b), flat_sizes(b))),
       st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_inertia_walk_matches_the_full_sum_bitwise(block_shape, k, seed):
    block, (n, d) = block_shape
    X = spread_values(seed, (n, d))
    centroids = spread_values(seed + 1, (k, d))
    labels = np.random.default_rng(seed).integers(0, k, n)
    with mock.patch.object(dataset, "BLOCK", block):
        got = clustering._inertia(X, centroids, labels, clustering._scratch(n, d))
    assert got == expression_inertia(X, centroids, labels)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BLOCKS), st.integers(1, 200), st.integers(1, 40),
       st.integers(1, 12), st.booleans(), st.sampled_from([np.float64, np.float32]),
       st.sampled_from([(1.0, 0.0), (1.0, 1e6), (1e-6, 0.0), (1e-6, 1.0)]),
       st.integers(0, 2**32 - 1))
def test_kmeanspp_seeding_matches_the_expression_form_bitwise(block, n, d, k, repeats,
                                                              dtype, scale_offset, seed):
    # the screen must keep every sq_d bit: with a 1e6 offset the expansion
    # cancels, and 1e-6 scales bring the distances near the tolerance's floor
    scale, offset = scale_offset
    X = (spread_values(seed, (n, d)) * scale + offset).astype(dtype)
    if repeats:  # a few distinct rows: the draws run out of mass and fall back
        X = X[np.random.default_rng(seed).integers(0, min(n, 3), n)]
    k = min(k, n)
    with mock.patch.object(dataset, "BLOCK", block):
        rng = RecordingRng(seed)
        got = clustering._kmeanspp_init(X, k, rng, clustering._scratch(n, d))
    want_rng = RecordingRng(seed)
    want = expression_kmeanspp_init(X.astype(np.float64), k, want_rng)
    assert got.tobytes() == want.tobytes()
    assert rng.draws == want_rng.draws
    assert rng.state() == want_rng.state()


def test_kmeanspp_screen_recomputes_few_rows():
    # eight well-apart blobs: a new centroid is nearer than the old ones only
    # to the rows of its own blob, so most rows skip the explicit distance
    n, d, k = 4000, 32, 8
    noise = np.random.default_rng(5).standard_normal((n, d))
    X = (noise + 50.0 * np.eye(k, d)[np.arange(n) % k]).astype(np.float32)
    recomputed = []
    explicit = clustering._sq_dists_to

    def counting(rows, *args):
        recomputed.append(len(rows))
        return explicit(rows, *args)

    rng, want_rng = RecordingRng(0), RecordingRng(0)
    with mock.patch.object(clustering, "_sq_dists_to", counting):
        got = clustering._kmeanspp_init(X, k, rng, clustering._scratch(n, d))
    want = expression_kmeanspp_init(X.astype(np.float64), k, want_rng)
    assert got.tobytes() == want.tobytes() and rng.draws == want_rng.draws
    assert recomputed[0] == n  # the first centroid's pass is all explicit
    assert sum(recomputed[1:]) < n * (k - 1) / 2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BLOCKS), st.integers(1, 300), st.integers(1, 40),
       st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_pairwise_sq_dists_match_the_explicit_form_bitwise(block, n, d, k, inf_rows,
                                                          seed):
    X = spread_values(seed, (n, d))
    centroids = spread_values(seed + 1, (k, d))
    if inf_rows:
        X[np.random.default_rng(seed).integers(0, n, 3), 0] = [np.inf, -np.inf, np.inf]
    with mock.patch.object(dataset, "BLOCK", block):
        got = clustering._pairwise_sq_dists(X, centroids)
    assert got.tobytes() == explicit_sq_dists(X, centroids).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.integers(1, 40), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_cluster_means_match_the_mask_loop_bitwise(n, d, k, seed):
    # above 16 rows NumPy's default sort is not stable; the means would notice
    k = min(k, n)
    rng = np.random.default_rng(seed)
    X = spread_values(seed, (n, d))
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    got = clustering._cluster_means(X, labels, k)
    assert got.tobytes() == expression_cluster_means(X, labels, k).tobytes()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cluster_means_gather_one_cluster_at_a_time():
    n, d, k = 4096, 32, 8
    X = spread_values(0, (n, d))
    labels = np.arange(n) % k
    assert traced_peak(clustering._cluster_means, X, labels, k) < X.nbytes / 4


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BLOCKS), fits(), st.sampled_from([(1.0, 0.0), (1e-3, 1e3)]))
def test_float32_fit_equals_the_fit_of_its_float64_widening(block, fit, scale_offset):
    X, k, seed = fit
    scale, offset = scale_offset
    X32 = (X * scale + offset).astype(np.float32)
    with mock.patch.object(dataset, "BLOCK", block):
        got = kmeans_fit(X32, k, seed)
        want = kmeans_fit(X32.astype(np.float64), k, seed)
    assert got.centroids.dtype == np.float64
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.iterations_run == want.iterations_run


def test_float32_kmeans_fit_builds_no_float64_copy():
    # the blobs below in float32: X is read in place, so the fit stays under
    # X32's bytes, half those of the float64 copy it used to build
    n, d, k = 4000, 64, 4
    rng = np.random.default_rng(1)
    X32 = (rng.standard_normal((n, d))
           + 100.0 * np.eye(k, d)[np.arange(n) % k]).astype(np.float32)
    assert traced_peak(kmeans_fit, X32, k, 0) < X32.nbytes


def test_kmeans_fit_builds_no_n_by_d_temporary():
    # four equal, well-apart blobs: each cluster's gather is N/4 x D, and the
    # E-step's arrays are N x K with K << D; a float64 X is used in place
    n, d, k = 4000, 64, 4
    rng = np.random.default_rng(1)
    X = rng.standard_normal((n, d)) + 100.0 * np.eye(k, d)[np.arange(n) % k]
    assert traced_peak(kmeans_fit, X, k, 0) < X.nbytes / 2


def test_kmeans_fit_that_repairs_builds_no_n_by_d_temporary():
    # four distinct rows and k = 5, so every E-step leaves a cluster empty and
    # the repair measures its distances. Seed 34 doubles its start, and so
    # puts two equal centroids, in the small group, where the repair's mover
    # (the first row, as all distances are 0) also sits.
    n, d, k, seed = 4000, 64, 5, 34
    X = 100.0 * np.eye(4, d)[np.concatenate([np.zeros(40, int), 1 + np.arange(3960) // 1320])]
    starts = clustering._kmeanspp_init(X, k, np.random.default_rng(seed),
                                       clustering._scratch(n, d))
    assert (starts == X[0]).all(axis=1).sum() == 2
    empties = []
    repair = clustering._repair_empty

    def counting_repair(X, labels, centroids, k, scratch):
        empties.append(int((np.bincount(labels, minlength=k) == 0).sum()))
        return repair(X, labels, centroids, k, scratch)

    with mock.patch.object(clustering, "_repair_empty", counting_repair):
        kmeans_fit(X, k, seed)
    assert empties and min(empties) > 0
    assert traced_peak(kmeans_fit, X, k, seed) < X.nbytes / 2


def test_kmeans_fit_with_tied_centroids_builds_no_n_by_d_temporary():
    # as above, but seed 0 doubles its start in a group of 1,320 rows: each
    # of them ties between two equal centroids, so assign_nearest rechecks
    # them all by the explicit form, which walks them a row block at a time
    n, d, k, seed = 4000, 64, 5, 0
    X = 100.0 * np.eye(4, d)[np.concatenate([np.zeros(40, int), 1 + np.arange(3960) // 1320])]
    starts = clustering._kmeanspp_init(X, k, np.random.default_rng(seed),
                                       clustering._scratch(n, d))
    assert (starts == X[0]).all(axis=1).sum() == 1
    rechecked = []
    explicit = clustering._pairwise_sq_dists

    def counting_explicit(rows, centroids):
        rechecked.append(len(rows))
        return explicit(rows, centroids)

    with mock.patch.object(clustering, "_pairwise_sq_dists", counting_explicit):
        kmeans_fit(X, k, seed)
    assert sum(rechecked) >= 1320
    assert traced_peak(kmeans_fit, X, k, seed) < X.nbytes / 2

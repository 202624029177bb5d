import sys

import numpy as np
import pytest

from driftbench import parallel, training
from driftbench.dataset import ClipRecord, FeatureSet, Manifest
from driftbench.mlp import MlpParams


def make_manifest(rows):
    """rows: (clip_id, domain, category, row_index) tuples."""
    return Manifest(tuple(ClipRecord(*r) for r in rows))


def make_features(values):
    values = np.asarray(values, dtype=np.float32)
    if values.ndim == 2:
        values = values[:, None, :]
    return FeatureSet(values)


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, to shake out races."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def train_best(data, split, config, **widths):
    """(weights, history) from training.train: a float64 copy of the last weights
    its keep got, which are the weights it selected, and the epoch history."""
    kept = []

    def keep(params):
        kept[:] = [params.copy()]

    history = training.train(data, split, config, keep, **widths)
    return kept[0], history


def materialised(grads):
    """The MlpParams of an mlp.Gradients: each weight gradient as its whole product."""
    out = MlpParams.zeros(grads.dims)
    for name, g in grads.tensors().items():
        getattr(out, name)[...] = np.matmul(*g) if isinstance(g, tuple) else g
    return out


def record_parts(monkeypatch):
    """Make parallel.run_parts log the part count of every call; returns the log."""
    calls = []
    run_parts = parallel.run_parts

    def logged(task, parts):
        calls.append(len(parts))
        run_parts(task, parts)

    monkeypatch.setattr(parallel, "run_parts", logged)
    return calls


def log_parts(monkeypatch, log):
    """Make parallel.run_parts append the part count of every call to the file log.

    A forked worker inherits the patch, and its calls reach the caller
    through the file, a line each.
    """
    run_parts = parallel.run_parts

    def logged(task, parts):
        with open(log, "a") as fh:
            fh.write(f"{len(parts)}\n")
        run_parts(task, parts)

    monkeypatch.setattr(parallel, "run_parts", logged)


def note_stops(monkeypatch, stopped):
    """Make run_forked's workers set `stopped` (a fork-context Event) when told to stop.

    A worker is told to stop (sent None) only once the caller has recorded
    the reply it sent before: a task that waits on `stopped` therefore ends
    after the caller has taken in another worker's failure, however the
    replies are scheduled.
    """
    serve_on = parallel._serve_on

    class Noting:
        def __init__(self, conn):
            self.conn, self.send = conn, conn.send

        def recv(self):
            index = self.conn.recv()
            if index is None:
                stopped.set()
            return index

    # the workers are forked later, so they inherit the patch
    monkeypatch.setattr(parallel, "_serve_on", lambda task, conn: serve_on(task, Noting(conn)))


def check_split_integrity(manifest, split, val_fraction):
    train_ids = set(split.train_ids)
    val_ids = set(split.val_ids)
    test_ids = set(split.test_ids)
    # disjointness
    assert not (train_ids & val_ids)
    assert not (train_ids & test_ids)
    assert not (val_ids & test_ids)
    # coverage
    assert train_ids | val_ids | test_ids == {r.clip_id for r in manifest.records}
    # test purity
    by_id = manifest.by_id()
    held = split.held_out_domain
    assert all(by_id[c].domain == held for c in test_ids)
    assert all(by_id[c].domain != held for c in train_ids | val_ids)
    # stratified val within 1 clip of the exact proportion, per stratum
    strata = {}
    for r in manifest.records:
        if r.domain != held:
            strata.setdefault((r.domain, r.category), []).append(r.clip_id)
    for (dom, cat), ids in strata.items():
        got = sum(1 for c in ids if c in val_ids)
        assert abs(got - val_fraction * len(ids)) <= 1.0, (dom, cat)


@pytest.fixture
def tiny_manifest():
    return make_manifest([
        ("a0", "east", "pour", 0),
        ("a1", "east", "stir", 1),
        ("b0", "west", "pour", 2),
        ("b1", "west", "stir", 3),
    ])


@pytest.fixture
def tiny_features():
    rng = np.random.default_rng(0)
    return make_features(rng.standard_normal((4, 3)))

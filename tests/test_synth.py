"""Synthetic dataset generator: determinism, geometry, and sweep coupling."""
import tracemalloc

import numpy as np
import pytest

from driftbench.dataset import load_feature_pack, pool_temporal, write_feature_pack
from driftbench.shift_metric import score_dataset
from driftbench.synth import (
    SyntheticSpec,
    _cell_counts,
    category_name,
    domain_name,
    generate,
    offset_sweep,
    unit_direction,
)


def base_spec(**overrides):
    kw = dict(n_domains=2, n_classes=3, samples_per_cell=4, feature_dim=8,
              class_separation=4.0, noise_scale=1.0)
    kw.update(overrides)
    return SyntheticSpec(**kw)


def test_name_helpers():
    assert domain_name(0) == "dom00"
    assert domain_name(12) == "dom12"
    assert category_name(3) == "cat03"


def test_unit_direction_is_normalized_and_stable():
    u = unit_direction(16, "dom01")
    v = unit_direction(16, "dom01")
    assert np.array_equal(u, v)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    w = unit_direction(16, "dom02")
    assert not np.array_equal(u, w)


def test_noiseless_rows_sit_on_class_means():
    spec = base_spec(noise_scale=0.0)
    man, feats = generate(spec, seed=0)
    X = pool_temporal(feats, "mean")
    for r in man.records:
        y = int(r.category[3:])
        want = np.zeros(8, dtype=np.float32)
        want[y] = 4.0
        assert np.array_equal(X[r.row_index], want), r.clip_id


def test_same_seed_is_bitwise_identical():
    spec = base_spec()
    man1, feats1 = generate(spec, seed=3)
    man2, feats2 = generate(spec, seed=3)
    assert man1.records == man2.records
    assert feats1.values.tobytes() == feats2.values.tobytes()
    _, feats3 = generate(spec, seed=4)
    assert feats1.values.tobytes() != feats3.values.tobytes()


def test_record_layout_and_counts():
    spec = base_spec(n_domains=3, n_classes=2, samples_per_cell=5)
    man, feats = generate(spec, seed=1)
    assert len(man.records) == 3 * 2 * 5
    assert feats.n_clips == len(man.records)
    assert feats.values.shape == (30, 1, 8)
    ids = [r.clip_id for r in man.records]
    assert len(set(ids)) == len(ids)
    assert [r.row_index for r in man.records] == list(range(30))
    assert man.domains == ("dom00", "dom01", "dom02")
    assert man.categories == ("cat00", "cat01")
    # domain-major, then class-major ordering
    assert [r.domain for r in man.records[:10]] == ["dom00"] * 10
    assert [r.category for r in man.records[:5]] == ["cat00"] * 5


def test_domain_means_converge_to_truth():
    dim = 16
    u = unit_direction(dim, "dom03")
    spec = SyntheticSpec(n_domains=4, n_classes=3, samples_per_cell=100,
                         feature_dim=dim, noise_scale=0.5,
                         domain_offsets={"dom03": 4.0 * u})
    man, feats = generate(spec, seed=7)
    X = pool_temporal(feats, "mean")
    doms = np.array([r.domain for r in man.records])
    for dom in ("dom00", "dom01", "dom02", "dom03"):
        rows = X[doms == dom]
        expect = np.zeros(dim)
        expect[:3] = spec.class_separation / 3.0
        if dom == "dom03":
            expect = expect + 4.0 * u
        se = spec.noise_scale / np.sqrt(rows.shape[0])
        assert np.abs(rows.mean(axis=0) - expect).max() < 4.0 * se, dom


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="counts must be positive"):
        base_spec(n_domains=0)
    with pytest.raises(ValueError, match="offset for unknown domain"):
        base_spec(domain_offsets={"dom09": np.zeros(8)})
    with pytest.raises(ValueError, match="has shape"):
        base_spec(domain_offsets={"dom01": np.zeros(7)})
    with pytest.raises(ValueError, match="prior for unknown domain"):
        base_spec(label_priors={"nope": (0.5, 0.3, 0.2)})
    with pytest.raises(ValueError, match="invalid prior"):
        base_spec(label_priors={"dom00": (0.5, 0.5)})
    with pytest.raises(ValueError, match="invalid prior"):
        base_spec(label_priors={"dom00": (0.7, 0.4, -0.1)})
    with pytest.raises(ValueError, match="invalid prior"):
        base_spec(label_priors={"dom00": (0.5, 0.3, 0.1)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="class_separation must be finite"):
        base_spec(class_separation=bad)
    with pytest.raises(ValueError, match="noise_scale must be finite"):
        base_spec(noise_scale=bad)
    offset = np.zeros(8)
    offset[3] = bad
    with pytest.raises(ValueError, match="offset for 'dom01' is not finite"):
        base_spec(domain_offsets={"dom01": offset})


def test_feature_dim_must_cover_classes():
    with pytest.raises(ValueError, match="feature_dim 2 < n_classes 3"):
        generate(base_spec(feature_dim=2))


def test_label_priors_largest_remainder():
    # total 30 over priors (.45, .35, .20): raw (13.5, 10.5, 6.0) -> (14, 10, 6)
    spec = base_spec(n_domains=1, samples_per_cell=10,
                     label_priors={"dom00": (0.45, 0.35, 0.2)})
    man, _ = generate(spec, seed=0)
    counts = {c: 0 for c in man.categories}
    for r in man.records:
        counts[r.category] += 1
    assert counts == {"cat00": 14, "cat01": 10, "cat02": 6}
    assert len(man.records) == 30


def test_uniform_priors_match_default_counts():
    third = 1.0 / 3.0
    spec = base_spec(label_priors={"dom00": (third, third, third)})
    man, _ = generate(spec, seed=0)
    counts = {}
    for r in man.records:
        counts.setdefault((r.domain, r.category), 0)
        counts[(r.domain, r.category)] += 1
    assert set(counts.values()) == {4}


def test_sweep_magnitude_zero_reproduces_base():
    spec = base_spec()
    man0, feats0 = generate(spec, seed=2)
    (man1, feats1), = offset_sweep(spec, "dom01", [0.0], seed=2)
    assert man0.records == man1.records
    assert feats0.values.tobytes() == feats1.values.tobytes()


def test_sweep_touches_only_target_domain():
    spec = base_spec(n_domains=3)
    datasets = offset_sweep(spec, "dom01", [0.0, 1.0, 2.0, 4.0], seed=5)
    base_man, base_feats = datasets[0]
    target_rows = np.array([r.domain == "dom01" for r in base_man.records])
    for man, feats in datasets[1:]:
        assert man.records == base_man.records
        same = feats.values[~target_rows].tobytes() == \
            base_feats.values[~target_rows].tobytes()
        assert same, "non-target rows must be bitwise identical"
        assert feats.values[target_rows].tobytes() != \
            base_feats.values[target_rows].tobytes()


def test_sweep_preserves_existing_offset_direction():
    dim = 8
    direction = np.zeros(dim)
    direction[5] = 1.0
    spec = base_spec(noise_scale=0.0,
                     domain_offsets={"dom01": 3.0 * direction})
    (man, feats), = offset_sweep(spec, "dom01", [6.0], seed=0)
    X = pool_temporal(feats, "mean")
    for r in man.records:
        if r.domain != "dom01":
            continue
        y = int(r.category[3:])
        want = 6.0 * direction
        want[y] += 4.0
        assert np.allclose(X[r.row_index], want, atol=1e-6), r.clip_id
        want[y] -= 4.0


def test_sweep_unknown_domain_rejected():
    with pytest.raises(ValueError, match="unknown domain 'dom07'"):
        offset_sweep(base_spec(), "dom07", [0.0, 1.0])


def test_no_offset_control_has_no_spurious_domain():
    # with zero offsets and equal priors, no domain should stand out:
    # per-domain scores stay small and tightly grouped across seeds
    for seed in range(5):
        spec = SyntheticSpec(n_domains=4, n_classes=3, samples_per_cell=100,
                             feature_dim=16, noise_scale=1.0)
        man, feats = generate(spec, seed=seed)
        X = pool_temporal(feats, "mean")
        report = score_dataset(X, man.records, k_clusters=12, seed=seed)
        scores = [g.score for g in report.groups]
        assert max(scores) < 0.5, seed
        assert max(scores) - min(scores) < 0.15, seed


def concatenated_pack(spec, seed):
    """Every cell's noise + mean + offset, concatenated in float64 and then cast:
    the bitwise reference for generate's pack."""
    rng = np.random.default_rng(seed)
    blocks = []
    for d in range(spec.n_domains):
        dom = domain_name(d)
        offset = np.asarray(spec.domain_offsets.get(dom, np.zeros(spec.feature_dim)), dtype=float)
        for y, count in enumerate(_cell_counts(spec, dom)):
            mean = np.zeros(spec.feature_dim)
            mean[y] = spec.class_separation
            noise = rng.standard_normal((count, spec.feature_dim)) * spec.noise_scale
            blocks.append(noise + mean + offset)
    return np.concatenate(blocks, axis=0).astype(np.float32)[:, None, :]


@pytest.mark.parametrize("spec", [
    base_spec(),
    base_spec(label_priors={"dom01": (0.5, 0.3, 0.2)}, domain_offsets={"dom00": np.ones(8)}),
    # -0.0 noise plus a -0.0 offset: the sign of each zero depends on the order of the adds
    base_spec(noise_scale=0.0, domain_offsets={"dom01": np.full(8, -0.0)}),
], ids=["plain", "priors-offset", "signed-zeros"])
def test_pack_bytes_match_the_concatenated_form(spec, tmp_path):
    _, feats = generate(spec, seed=3)
    want = concatenated_pack(spec, seed=3)
    assert feats.values.dtype == np.float32 and feats.values.shape == want.shape
    assert feats.values.tobytes() == want.tobytes()
    write_feature_pack(feats, tmp_path / "f.egf")
    assert load_feature_pack(tmp_path / "f.egf").values.tobytes() == want.tobytes()


def test_generate_and_write_peak_below_one_and_a_half_packs(tmp_path):
    """The pack is allocated once, as float32, and written from its own buffer."""
    spec = SyntheticSpec(n_domains=8, n_classes=10, samples_per_cell=20, feature_dim=1024)
    pack = 8 * 10 * 20 * 1024 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, feats = generate(spec, seed=0)
        write_feature_pack(feats, tmp_path / "f.egf")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pack, peak / pack

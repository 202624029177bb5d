"""Property tests: every LODO split of a random manifest passes check_split_integrity.

Manifests vary the number of domains and categories, leave some
(domain, category) cells empty and others with one clip, and the
validation fraction covers its whole range [0, 1).
"""
from hypothesis import given, settings, strategies as st

from conftest import check_split_integrity, make_manifest
from driftbench.splits import build_all_lodo_splits


@st.composite
def manifests(draw):
    n_domains = draw(st.integers(2, 5))
    n_categories = draw(st.integers(1, 4))
    rows = []
    for d in range(n_domains):
        for c in range(n_categories):
            for j in range(draw(st.integers(0, 7))):
                rows.append((f"d{d}-c{c}-{j}", f"dom{d}", f"cat{c}", len(rows)))
    # every domain needs a clip, or the manifest does not name it
    for d in range(n_domains):
        if not any(r[1] == f"dom{d}" for r in rows):
            rows.append((f"d{d}-only", f"dom{d}", "cat0", len(rows)))
    order = draw(st.permutations(range(len(rows))))
    return make_manifest([rows[i] for i in order])


@settings(max_examples=200, deadline=None)
@given(manifests(),
       st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
       st.integers(0, 2**32 - 1))
def test_every_lodo_split_keeps_its_integrity(manifest, val_fraction, seed):
    splits = build_all_lodo_splits(manifest, val_fraction=val_fraction, seed=seed)
    assert set(splits) == set(manifest.domains)
    for split in splits.values():
        check_split_integrity(manifest, split, val_fraction)

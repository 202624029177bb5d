import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftbench import dataset
from driftbench.dataset import (
    FeatureSet,
    apply_category_mapping,
    load_category_mapping,
    load_feature_pack,
    load_manifest,
    pool_temporal,
    write_feature_pack,
    write_manifest,
)

from conftest import make_features, make_manifest


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadManifest:
    def test_three_valid_lines(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [
            '{"clip_id": "x", "domain": "east", "category": "pour", "row_index": 0}',
            '{"clip_id": "y", "domain": "west", "category": "stir", "row_index": 1}',
            '{"clip_id": "z", "domain": "east", "category": "stir", "row_index": 2}',
        ])
        m = load_manifest(p)
        assert len(m) == 3
        assert m.domains == ("east", "west")
        assert m.categories == ("pour", "stir")
        assert [r.clip_id for r in m.records] == ["x", "y", "z"]  # order kept

    def test_duplicate_clip_id_names_the_id(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [
            '{"clip_id": "dup", "domain": "a", "category": "c", "row_index": 0}',
            '{"clip_id": "dup", "domain": "a", "category": "c", "row_index": 1}',
        ])
        with pytest.raises(ValueError, match="dup"):
            load_manifest(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [
            '{"clip_id": "x", "domain": "a", "category": "c", "row_index": 0}',
            "not json at all",
        ])
        with pytest.raises(ValueError, match=r":2"):
            load_manifest(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, ['{"clip_id": "x", "domain": "a", "row_index": 0}'])
        with pytest.raises(ValueError, match="category"):
            load_manifest(p)

    def test_row_index_out_of_range(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [
            '{"clip_id": "x", "domain": "a", "category": "c", "row_index": 7}',
        ])
        with pytest.raises(ValueError, match="row_index"):
            load_manifest(p, n_rows=3)

    def test_shared_row_index_names_both_clips(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [
            '{"clip_id": "x", "domain": "a", "category": "c", "row_index": 0}',
            '{"clip_id": "y", "domain": "a", "category": "c", "row_index": 1}',
            '{"clip_id": "z", "domain": "b", "category": "c", "row_index": 0}',
        ])
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        msg = str(info.value)
        assert msg.startswith(f"{p}:3: ")
        assert "'z'" in msg and "'x'" in msg and "row_index 0" in msg
        assert "\n" not in msg

    def test_round_trip(self, tmp_path, tiny_manifest):
        p = tmp_path / "m.jsonl"
        write_manifest(tiny_manifest, p)
        again = load_manifest(p)
        assert again.records == tiny_manifest.records
        assert again.domains == tiny_manifest.domains
        # with identical content the file itself is reproduced byte for byte
        q = tmp_path / "m2.jsonl"
        write_manifest(again, q)
        assert p.read_bytes() == q.read_bytes()


class TestFeaturePack:
    def test_header_arithmetic(self, tmp_path):
        p = tmp_path / "f.egf"
        payload = struct.pack("<6f", *range(6))
        p.write_bytes(b"EGF1" + struct.pack("<III", 2, 1, 3) + payload)
        fs = load_feature_pack(p)
        assert fs.values.shape == (2, 1, 3)
        assert fs.values[1, 0, 2] == 5.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.egf"
        p.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0))
        with pytest.raises(ValueError, match="magic"):
            load_feature_pack(p)

    def test_short_payload(self, tmp_path):
        p = tmp_path / "f.egf"
        p.write_bytes(b"EGF1" + struct.pack("<III", 2, 1, 3) + struct.pack("<4f", 0, 0, 0, 0))
        with pytest.raises(ValueError, match="size"):
            load_feature_pack(p)

    def test_nan_reports_row(self, tmp_path):
        p = tmp_path / "f.egf"
        vals = np.zeros((8, 1, 2), dtype="<f4")
        vals[5, 0, 1] = np.nan
        p.write_bytes(b"EGF1" + struct.pack("<III", 8, 1, 2) + vals.tobytes())
        with pytest.raises(ValueError, match="row 5"):
            load_feature_pack(p)

    def test_first_bad_row_named_across_check_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK", 6)  # 3 rows of 1x2 per block
        p = tmp_path / "f.egf"
        vals = np.zeros((12, 1, 2), dtype="<f4")
        vals[4, 0, 0] = np.inf
        vals[7, 0, 1] = np.nan
        p.write_bytes(b"EGF1" + struct.pack("<III", 12, 1, 2) + vals.tobytes())
        with pytest.raises(ValueError) as exc:
            load_feature_pack(p)
        assert str(exc.value) == f"{p}: non-finite feature value at row 4"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_lone_infinity_named_across_check_blocks(self, tmp_path, monkeypatch, bad):
        # no NaN: +inf shows only in the pack's max, -inf only in its min
        monkeypatch.setattr(dataset, "BLOCK", 6)
        p = tmp_path / "f.egf"
        vals = np.zeros((12, 1, 2), dtype="<f4")
        vals[7, 0, 1] = vals[9, 0, 0] = bad
        p.write_bytes(b"EGF1" + struct.pack("<III", 12, 1, 2) + vals.tobytes())
        with pytest.raises(ValueError) as exc:
            load_feature_pack(p)
        assert str(exc.value) == f"{p}: non-finite feature value at row 7"

    def test_finite_check_builds_no_temporary(self, tmp_path):
        p = tmp_path / "f.egf"
        write_feature_pack(FeatureSet(np.ones((1000, 10, 100), dtype="<f4")), p)  # 1M values
        tracemalloc.start()
        try:
            load_feature_pack(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - p.stat().st_size < 16 * 1024

    def test_shape_properties_read_values(self):
        fs = FeatureSet(np.zeros((4, 3, 2), dtype=np.float32))
        assert (fs.n_clips, fs.temporal_count, fs.feature_dim) == (4, 3, 2)

    @pytest.mark.parametrize("shape", [(), (4,), (4, 2), (1, 4, 3, 2)])
    def test_values_must_be_3d(self, shape):
        with pytest.raises(ValueError, match="must be 3-D"):
            FeatureSet(np.zeros(shape, dtype=np.float32))

    def test_write_read_byte_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = make_features(rng.standard_normal((5, 4)).astype(np.float32))
        a, b = tmp_path / "a.egf", tmp_path / "b.egf"
        write_feature_pack(fs, a)
        write_feature_pack(load_feature_pack(a), b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3 * dataset.BLOCK),
       st.sampled_from([None, 1, 8, 100]))
def test_row_blocks_tile_the_rows_in_order(n, row_elems, block):
    slices = list(dataset.row_blocks(n, row_elems, block))
    assert [i for s in slices for i in range(n)[s]] == list(range(n))
    limit = dataset.BLOCK if block is None else block
    sizes = [s.stop - s.start for s in slices]
    assert all(s.step is None and 0 <= s.start < s.stop <= n for s in slices)
    # every block but the last is full: as many rows as fit, or one wider row
    full = max(1, limit // row_elems) if row_elems else limit
    assert sizes[:-1] == [full] * (len(sizes) - 1)
    assert all(0 < size <= full for size in sizes)
    assert full * row_elems <= limit or full == 1


class TestPoolTemporal:
    def test_mean(self):
        fs = FeatureSet(np.array([[[1.0, 1.0], [3.0, 3.0]]], dtype=np.float32))
        assert pool_temporal(fs, "mean").tolist() == [[2.0, 2.0]]

    def test_flatten(self):
        fs = FeatureSet(np.array([[[1.0, 1.0], [3.0, 3.0]]], dtype=np.float32))
        assert pool_temporal(fs, "flatten").tolist() == [[1.0, 1.0, 3.0, 3.0]]

    def test_single_slot_identity(self):
        fs = make_features(np.array([[4.0, 5.0]], dtype=np.float32))
        for mode in ("mean", "flatten"):
            assert pool_temporal(fs, mode).tolist() == [[4.0, 5.0]]

    def test_unknown_mode(self, tiny_features):
        with pytest.raises(ValueError, match="max"):
            pool_temporal(tiny_features, "max")

    def test_mean_permutation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = rng.standard_normal((3, 4, 5)).astype(np.float32)
            fs = FeatureSet(vals)
            perm = rng.permutation(4)
            fs_p = FeatureSet(vals[:, perm, :])
            a, b = pool_temporal(fs, "mean"), pool_temporal(fs_p, "mean")
            assert np.allclose(a, b, rtol=1e-6, atol=1e-6)


class TestCategoryMapping:
    def test_fine_label_remap(self):
        m = make_manifest([("x", "india", "whisk eggs in a bowl", 0)])
        out = apply_category_mapping(m, {"whisk eggs in a bowl": "Food Preparation"})
        assert out.records[0].category == "Food Preparation"
        assert out.categories == ("Food Preparation",)

    def test_identity_mapping(self, tiny_manifest):
        mapping = {c: c for c in tiny_manifest.categories}
        out = apply_category_mapping(tiny_manifest, mapping)
        assert out.records == tiny_manifest.records

    def test_unmapped_label_listed(self, tiny_manifest):
        with pytest.raises(ValueError, match="stir"):
            apply_category_mapping(tiny_manifest, {"pour": "liquids"})

    def test_load_tsv(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("whisk eggs in a bowl\tFood Preparation\nknead dough\tFood Preparation\n")
        assert load_category_mapping(p) == {
            "whisk eggs in a bowl": "Food Preparation",
            "knead dough": "Food Preparation",
        }

    def test_load_tsv_duplicate_label(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("cat00\tA\ncat00\tB\ncat01\tB\n")
        with pytest.raises(ValueError) as info:
            load_category_mapping(p)
        assert str(info.value) == f"{p}:2: duplicate label 'cat00' (first on line 1)"

    def test_load_tsv_bad_columns(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("only one column\n")
        with pytest.raises(ValueError, match=":1"):
            load_category_mapping(p)


def test_manifest_derives_sorted_vocabularies():
    m = make_manifest([("x", "west", "stir", 0), ("y", "east", "pour", 1),
                       ("z", "west", "pour", 2)])
    assert m.domains == ("east", "west")
    assert m.categories == ("pour", "stir")


def test_manifest_by_id(tiny_manifest):
    index = tiny_manifest.by_id()
    assert index["b1"].domain == "west"
    assert set(index) == {"a0", "a1", "b0", "b1"}

"""Property tests: the file formats round-trip and reject damage.

EMLP checkpoints and EGF feature packs are written, read back and compared
bit for bit, then cut short at every length: each prefix must be refused.
Values are drawn float32-exact, since both formats store float32.

Manifests, split files and category maps are written, then blank lines,
whitespace-only lines and CRLF endings are scattered through them: they
must read back as the same records. A line repeating one record's key
must be refused with its line and the line of the first.
"""
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from driftbench.dataset import (
    ClipRecord,
    FeatureSet,
    Manifest,
    load_category_mapping,
    load_feature_pack,
    load_manifest,
    write_feature_pack,
    write_manifest,
)
from driftbench.mlp import CHECKPOINT_MAGIC, MlpParams, load_checkpoint, save_checkpoint
from driftbench.splits import build_lodo_split, read_split_file, write_split_file

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def mlp_params(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=4, max_size=4)))
    size = MlpParams.zeros(dims).flat.size
    flat = draw(hnp.arrays(np.float32, size, elements=FLOAT32)).astype(np.float64)
    return MlpParams(dims, flat)


def rejects_every_prefix(raw, load, path):
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


@settings(max_examples=60, deadline=None)
@given(mlp_params())
def test_emlp_round_trip_and_truncation(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.emlp"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        assert len(raw) == 20 + 4 * sum(t.size for t in params.tensors().values())
        back = load_checkpoint(path)
        assert back.dims == params.dims
        assert back.flat.dtype == np.float64
        assert back.flat.tobytes() == params.flat.tobytes()
        rejects_every_prefix(raw, load_checkpoint, Path(tmp) / "cut.emlp")


@settings(max_examples=60, deadline=None)
@given(mlp_params(), st.binary(min_size=4, max_size=4).filter(lambda b: b != CHECKPOINT_MAGIC))
def test_emlp_wrong_magic_is_rejected(params, magic):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.emlp"
        save_checkpoint(params, path)
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="bad checkpoint magic"):
            load_checkpoint(path)


@st.composite
def feature_sets(draw):
    n, t, d = draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = draw(hnp.arrays(np.float32, (n, t, d), elements=FLOAT32))
    return FeatureSet(values)


@settings(max_examples=60, deadline=None)
@given(feature_sets())
def test_egf_round_trip_and_truncation(features):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.egf"
        write_feature_pack(features, path)
        raw = path.read_bytes()
        back = load_feature_pack(path)
        assert (back.n_clips, back.temporal_count, back.feature_dim) == \
            (features.n_clips, features.temporal_count, features.feature_dim)
        assert back.values.shape == features.values.shape
        assert back.values.tobytes() == features.values.astype("<f4").tobytes()
        rejects_every_prefix(raw, load_feature_pack, Path(tmp) / "cut.egf")


# Text a tab-separated column may hold: anything but the tab and line breaks,
# and not only whitespace, since a line of only whitespace is skipped.
CELL = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"),
               min_size=1, max_size=5).filter(lambda s: not s.isspace())
BLANK = st.sampled_from(["", " ", "\t", "  \t "])
ENDING = st.sampled_from(["\n", "\r\n"])


@st.composite
def manifests(draw, clip_ids=st.text(st.characters(exclude_characters="\t\n\r"),
                                     max_size=5)):
    """At least two clips over at least two domains, rows in any order.

    A clip_id may hold any text but a tab or line break, which split and
    --ids files could not hold.
    """
    ids = draw(st.lists(clip_ids, min_size=2, max_size=8, unique=True))
    rows = draw(st.permutations(range(len(ids))))
    domains = ["d0", "d1"] + draw(st.lists(st.sampled_from(["d0", "d1", "d2"]),
                                           min_size=len(ids) - 2, max_size=len(ids) - 2))
    categories = draw(st.lists(CELL, min_size=len(ids), max_size=len(ids)))
    return Manifest(tuple(ClipRecord(*r) for r in zip(ids, domains, categories, rows)))


def written_lines(write, obj, path):
    write(obj, path)
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def write_scattered(data, lines, path):
    """Write lines with CRLF or LF endings, the last one maybe without."""
    endings = [data.draw(ENDING) for _ in lines]
    if endings and data.draw(st.booleans()):
        endings[-1] = ""
    path.write_bytes("".join(map(str.__add__, lines, endings)).encode("utf-8"))


def reads_back_and_refuses_a_repeat(data, path, lines, read, expect, key, repeat):
    """read gives expect from lines padded with blank lines; a repeat is refused.

    repeat(i) gives the key of lines[i] and a line that repeats it, which is
    then put at a random place.
    """
    padded = []
    for line in lines:
        padded += data.draw(st.lists(BLANK, max_size=2)) + [line]
    padded += data.draw(st.lists(BLANK, max_size=2))
    write_scattered(data, padded, path)
    assert read(path) == expect

    i = data.draw(st.integers(0, len(lines) - 1))
    k, copy = repeat(i)
    at, first = data.draw(st.integers(0, len(padded))), padded.index(lines[i])
    first += at <= first
    padded.insert(at, copy)
    write_scattered(data, padded, path)
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == (f"{path}:{max(at, first) + 1}: duplicate {key} {k!r} "
                              f"(first on line {min(at, first) + 1})")


@settings(max_examples=60, deadline=None)
@given(manifests(), st.data())
def test_manifest_reads_through_blank_lines_and_crlf(manifest, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl"
        lines = written_lines(write_manifest, manifest, path)

        def repeat(i):  # the same clip_id on a row of its own
            r = manifest.records[i]
            return r.clip_id, json.dumps({"clip_id": r.clip_id, "domain": r.domain,
                                          "category": r.category, "row_index": len(lines)})

        reads_back_and_refuses_a_repeat(
            data, path, lines, lambda p: load_manifest(p).records, manifest.records,
            "clip_id", repeat)


@settings(max_examples=60, deadline=None)
@given(manifests(clip_ids=CELL), st.data())
def test_split_file_reads_through_blank_lines_and_crlf(manifest, data):
    split = build_lodo_split(manifest, data.draw(st.sampled_from(manifest.domains)),
                             val_fraction=data.draw(st.sampled_from([0.0, 0.24, 0.5])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.tsv"
        lines = written_lines(write_split_file, split, path)
        reads_back_and_refuses_a_repeat(
            data, path, lines, lambda p: read_split_file(p, manifest), split, "clip_id",
            lambda i: (lines[i].split("\t")[0], lines[i]))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(CELL, CELL, min_size=1, max_size=8), st.data())
def test_category_map_reads_through_blank_lines_and_crlf(mapping, data):
    lines = [f"{label}\t{category}" for label, category in mapping.items()]
    with tempfile.TemporaryDirectory() as tmp:
        reads_back_and_refuses_a_repeat(
            data, Path(tmp) / "map.tsv", lines, load_category_mapping, mapping, "label",
            lambda i: (lines[i].split("\t")[0], lines[i].split("\t")[0] + "\tother"))

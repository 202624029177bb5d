"""Clip manifests, packed feature tensors, and temporal pooling.

A dataset is described by two files: a line-delimited manifest (one JSON
object per line: clip_id, domain, category, row_index) and a binary
feature pack holding an N x T x D float32 tensor. The manifest addresses
rows of the pack via row_index, so the two can be validated independently
and joined late.

Every line-based text input (manifest, category map, split file, id list)
goes through read_lines: UTF-8, blank lines skipped, a repeated key refused
with the line of the first, and every error one line naming file and line.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

FEATURE_PACK_MAGIC = b"EGF1"
BLOCK = 1 << 13  # float64 elements per cache block of rows, for every row_blocks walk

MANIFEST_FIELDS = ("clip_id", "domain", "category", "row_index")


@dataclass(frozen=True)
class ClipRecord:
    """One manifest entry: a clip identity plus its feature-pack row."""

    clip_id: str
    domain: str
    category: str
    row_index: int


@dataclass(frozen=True)
class Manifest:
    """Validated clip records; their sorted domain and category names are derived."""

    records: tuple[ClipRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", tuple(sorted({r.domain for r in self.records})))
        object.__setattr__(self, "categories",
                           tuple(sorted({r.category for r in self.records})))

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> dict[str, ClipRecord]:
        return {r.clip_id: r for r in self.records}


@dataclass
class FeatureSet:
    """Packed clip features: values has shape (n_clips, temporal_count, feature_dim).

    The binary format carries no clip identities; a manifest's row_index
    addresses rows of values.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.values) != 3:
            raise ValueError(f"feature values must be 3-D (n_clips, temporal_count, "
                             f"feature_dim), got shape {np.shape(self.values)}")

    @property
    def n_clips(self) -> int:
        return self.values.shape[0]

    @property
    def temporal_count(self) -> int:
        return self.values.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[2]


def block_rows(row_elems: int, block: int | None = None) -> int:
    """Rows of row_elems elements in one block of BLOCK elements (or block): one if wider."""
    return max(1, (BLOCK if block is None else block) // max(1, row_elems))


def row_blocks(n: int, row_elems: int, block: int | None = None):
    """The slices of range(n), in order, block_rows(row_elems, block) rows each but the last."""
    step = block_rows(row_elems, block)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def write_json(obj, path: str | Path) -> None:
    """Pretty-printed, sorted-key JSON plus a trailing newline: every JSON report."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_lines(path: str | Path, parse, key: str) -> tuple[dict, dict[object, int]]:
    """({k: value}, {k: line}) in file order, where parse(line) returns (k, value).

    parse gets each line that is not blank, without its newline, and raises
    ValueError to refuse it. A repeated k is refused, named as `key`.
    """
    path = Path(path)
    # Two dicts, not a (line, value) tuple per line: freed tuples would raise peak RSS.
    values, lines = {}, {}
    # A byte that is not UTF-8 reads as a lone surrogate, which cannot be
    # encoded back; isascii() is O(1), so ASCII lines pay nothing more.
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            if line.isspace():  # every line but the last ends in "\n"; none is ""
                continue
            try:
                k, value = parse(line.rstrip("\n"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if k in values:
                raise ValueError(f"{path}:{lineno}: duplicate {key} {k!r} "
                                 f"(first on line {lines[k]})")
            values[k] = value
            lines[k] = lineno
    return values, lines


def load_manifest(path: str | Path, n_rows: int | None = None) -> Manifest:
    """Parse and validate a line-delimited JSON manifest; records keep file order.

    clip_ids are unique and hold no tab, CR or LF, and every row_index is a
    nonnegative integer (< n_rows when the pack size is known) that no other
    clip shares.
    """
    owner_of_row: dict[int, str] = {}
    limit = float("inf") if n_rows is None else n_rows

    def parse(line: str) -> tuple[str, ClipRecord]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed manifest line: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError("manifest line is not an object")
        try:
            clip_id, domain, category = obj["clip_id"], obj["domain"], obj["category"]
            row_index = obj["row_index"]
        except KeyError:
            missing = [f for f in MANIFEST_FIELDS if f not in obj]
            raise ValueError(f"missing field(s) {missing}") from None
        if not (isinstance(clip_id, str) and isinstance(domain, str)
                and isinstance(category, str)):
            raise ValueError("clip_id/domain/category must be strings")
        if any(c in clip_id for c in "\t\r\n"):
            # split files are clip_id<TAB>role lines and --ids files one id a line
            raise ValueError(f"clip_id {clip_id!r} holds a tab or line break")
        if not isinstance(row_index, int) or isinstance(row_index, bool):
            raise ValueError("row_index must be an integer")
        if not 0 <= row_index < limit:
            raise ValueError(f"row_index {row_index} out of range [0, {limit}) "
                             f"for clip {clip_id!r}")
        if row_index in owner_of_row:
            raise ValueError(f"clip {clip_id!r} shares row_index {row_index} "
                             f"with clip {owner_of_row[row_index]!r}")
        owner_of_row[row_index] = clip_id
        return clip_id, ClipRecord(clip_id, domain, category, row_index)

    return Manifest(tuple(read_lines(path, parse, "clip_id")[0].values()))


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for r in manifest.records:
            fh.write(json.dumps({
                "clip_id": r.clip_id,
                "domain": r.domain,
                "category": r.category,
                "row_index": r.row_index,
            }, sort_keys=True) + "\n")


def load_feature_pack(path: str | Path) -> FeatureSet:
    """Read an EGF1 feature pack; refuse T or D of 0, and any value that is not finite.

    Layout: magic "EGF1", then little-endian uint32 N, T, D, then
    N*T*D float32 values row-major (clip, temporal, feature).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != FEATURE_PACK_MAGIC:
        raise ValueError(f"{path}: bad feature pack magic (expected {FEATURE_PACK_MAGIC!r})")
    n, t, d = struct.unpack("<III", raw[4:16])
    if t == 0 or d == 0:
        raise ValueError(f"{path}: empty clips: header declares N={n} T={t} D={d}, "
                         "T and D must be positive")
    expected = 16 + n * t * d * 4
    if len(raw) != expected:
        raise ValueError(
            f"{path}: size mismatch: header declares N={n} T={t} D={d} "
            f"({expected} bytes) but file has {len(raw)} bytes"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=16).reshape(n, t, d)
    # NaN or inf shows in min or max, which build no temporary; search only a bad pack
    if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
        for rows in row_blocks(n, t * d):
            finite = np.isfinite(values[rows]).all(axis=(1, 2))
            if not finite.all():
                bad_row = rows.start + int(finite.argmin())
                raise ValueError(f"{path}: non-finite feature value at row {bad_row}")
    return FeatureSet(values)


def write_feature_pack(features: FeatureSet, path: str | Path) -> None:
    values = np.ascontiguousarray(features.values, dtype="<f4")
    with open(path, "wb") as f:  # the header, then the array's own buffer: no copy
        f.write(FEATURE_PACK_MAGIC + struct.pack("<III", *values.shape))
        f.write(values.data)


def pool_temporal(features: FeatureSet, mode: str = "mean") -> np.ndarray:
    """Collapse the temporal axis: mean -> (N, D); flatten -> (N, T*D)."""
    if mode == "mean":
        return features.values.mean(axis=1)
    if mode == "flatten":
        return features.values.reshape(features.n_clips, -1)
    raise ValueError(f"unknown pooling mode {mode!r} (expected 'mean' or 'flatten')")


def load_category_mapping(path: str | Path) -> dict[str, str]:
    """A two-column tab-separated fine-label -> category mapping; a repeated label is refused."""
    def parse(line: str) -> tuple[str, str]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected 2 tab-separated columns")
        return parts[0], parts[1]

    return read_lines(path, parse, "label")[0]


def apply_category_mapping(manifest: Manifest, mapping: dict[str, str]) -> Manifest:
    """Replace each record's category via the mapping; all labels must be covered."""
    missing = sorted(set(manifest.categories) - set(mapping))
    if missing:
        raise ValueError(f"unmapped category label(s): {missing}")
    remapped = [replace(r, category=mapping[r.category]) for r in manifest.records]
    return Manifest(tuple(remapped))

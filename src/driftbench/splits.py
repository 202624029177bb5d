"""Leave-one-domain-out train/val/test partitions.

The held-out domain becomes the test set in full. Validation clips are
drawn from the remaining (source) domains only, stratified per
(domain, category) cell: each stratum is shuffled with a seed derived
from the cell name and the first round(val_fraction * size) clips go to
val. Changing the seed therefore reshuffles val membership but can never
move a test clip.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Manifest, read_lines

ROLES = ("train", "val", "test")
DEFAULT_VAL_FRACTION = 0.24


@dataclass(frozen=True)
class SplitSpec:
    held_out_domain: str
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _stratum_rng(seed: int, domain: str, category: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{domain}\x1f{category}".encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def build_lodo_split(manifest: Manifest, held_out_domain: str,
                     val_fraction: float = DEFAULT_VAL_FRACTION,
                     seed: int = 0) -> SplitSpec:
    if held_out_domain not in manifest.domains:
        raise ValueError(
            f"unknown domain {held_out_domain!r}; manifest has {list(manifest.domains)}"
        )
    if len(manifest.domains) < 2:
        raise ValueError("need at least two domains to build a leave-one-out split")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")

    strata: dict[tuple[str, str], list[str]] = {}
    for r in manifest.records:
        if r.domain != held_out_domain:
            strata.setdefault((r.domain, r.category), []).append(r.clip_id)

    val_set: set[str] = set()
    for (domain, category), ids in sorted(strata.items()):
        n_val = int(np.floor(val_fraction * len(ids) + 0.5))
        order = _stratum_rng(seed, domain, category).permutation(len(ids))
        val_set.update(ids[i] for i in order[:n_val])

    train_ids, val_ids, test_ids = [], [], []
    for r in manifest.records:  # manifest order keeps output deterministic
        if r.domain == held_out_domain:
            test_ids.append(r.clip_id)
        elif r.clip_id in val_set:
            val_ids.append(r.clip_id)
        else:
            train_ids.append(r.clip_id)
    return SplitSpec(
        held_out_domain=held_out_domain,
        train_ids=tuple(train_ids),
        val_ids=tuple(val_ids),
        test_ids=tuple(test_ids),
    )


def build_all_lodo_splits(manifest: Manifest,
                          val_fraction: float = DEFAULT_VAL_FRACTION,
                          seed: int = 0) -> dict[str, SplitSpec]:
    """One split per domain, holding each out in turn, in manifest.domains order."""
    if len(manifest.domains) < 2:
        raise ValueError(f"need at least two domains to build leave-one-out splits, "
                         f"manifest has {len(manifest.domains)}")
    return {
        domain: build_lodo_split(manifest, domain, val_fraction, seed)
        for domain in manifest.domains
    }


def write_split_file(split: SplitSpec, path: str | Path) -> None:
    """Two tab-separated columns per line: clip_id, role."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for role, ids in (("train", split.train_ids), ("val", split.val_ids),
                          ("test", split.test_ids)):
            for clip_id in ids:
                fh.write(f"{clip_id}\t{role}\n")


def read_split_file(path: str | Path, manifest: Manifest) -> SplitSpec:
    """Rebuild a SplitSpec, ids in manifest order, from a split file and its manifest.

    Refused: a repeated or unknown clip_id, test rows of no domain or of two,
    and a train or val clip of the test domain.
    """
    path, by_id = Path(path), manifest.by_id()
    held_out = None  # the domain of the first test row

    def parse(line: str) -> tuple[str, str]:
        nonlocal held_out
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ROLES:
            raise ValueError("expected 'clip_id<TAB>train|val|test'")
        cid, role = parts
        if cid not in by_id:
            raise ValueError(f"clip_id {cid!r} missing from manifest")
        if role == "test" and held_out is None:
            held_out = by_id[cid].domain
        elif role == "test" and by_id[cid].domain != held_out:
            raise ValueError(f"test rows must cover exactly one domain, found "
                             f"{by_id[cid].domain!r} after {held_out!r}")
        return cid, role

    roles, lines = read_lines(path, parse, "clip_id")
    if held_out is None:
        raise ValueError(f"{path}: test rows must cover exactly one domain, found none")
    for cid, role in roles.items():
        if role != "test" and by_id[cid].domain == held_out:
            raise ValueError(f"{path}:{lines[cid]}: {role} clip {cid!r} is from "
                             f"the held-out domain {held_out!r}")
    grouped: dict[str, list[str]] = {role: [] for role in ROLES}
    for r in manifest.records:
        role = roles.get(r.clip_id)
        if role is not None:
            grouped[role].append(r.clip_id)
    return SplitSpec(held_out, *(tuple(grouped[role]) for role in ROLES))

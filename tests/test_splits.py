"""Leave-one-domain-out split construction and split-file round trips."""
import numpy as np
import pytest

from conftest import make_manifest
from driftbench.splits import (
    DEFAULT_VAL_FRACTION,
    SplitSpec,
    build_all_lodo_splits,
    build_lodo_split,
    read_split_file,
    write_split_file,
)


def grid_manifest(domains, categories, per_cell):
    rows = []
    idx = 0
    for d in domains:
        for c in categories:
            for j in range(per_cell):
                rows.append((f"{d}-{c}-{j:03d}", d, c, idx))
                idx += 1
    return make_manifest(rows)


def test_hand_sized_split():
    man = make_manifest([
        ("a0", "A", "pour", 0),
        ("a1", "A", "pour", 1),
        ("a2", "A", "pour", 2),
        ("a3", "A", "pour", 3),
        ("b0", "B", "pour", 4),
        ("b1", "B", "pour", 5),
    ])
    split = build_lodo_split(man, "B", val_fraction=0.25, seed=0)
    assert split.test_ids == ("b0", "b1")
    # stratum A/pour has 4 clips: floor(0.25*4 + 0.5) = 1 goes to val
    assert len(split.val_ids) == 1
    assert len(split.train_ids) == 3
    assert set(split.train_ids) | set(split.val_ids) == {"a0", "a1", "a2", "a3"}


def test_zero_val_fraction_gives_empty_val():
    man = grid_manifest(["A", "B"], ["x"], 5)
    split = build_lodo_split(man, "B", val_fraction=0.0, seed=0)
    assert split.val_ids == ()
    assert len(split.train_ids) == 5
    assert len(split.test_ids) == 5


def test_unknown_domain_rejected():
    man = grid_manifest(["A", "B"], ["x"], 2)
    with pytest.raises(ValueError, match="unknown domain"):
        build_lodo_split(man, "Z")
    try:
        build_lodo_split(man, "Z")
    except ValueError as exc:  # message should list what is available
        assert "A" in str(exc) and "B" in str(exc)


def test_single_domain_rejected():
    man = grid_manifest(["solo"], ["x"], 3)
    with pytest.raises(ValueError, match="at least two domains"):
        build_lodo_split(man, "solo")


@pytest.mark.parametrize("domains", [[], ["solo"]])
def test_all_splits_need_two_domains(domains):
    man = grid_manifest(domains, ["x"], 3)
    with pytest.raises(ValueError, match="need at least two domains"):
        build_all_lodo_splits(man)


def test_bad_val_fraction_rejected():
    man = grid_manifest(["A", "B"], ["x"], 4)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="val_fraction must be in"):
            build_lodo_split(man, "B", val_fraction=bad)


def test_all_splits_cover_every_domain():
    domains = [f"d{i}" for i in range(8)]
    man = grid_manifest(domains, ["x", "y"], 3)
    splits = build_all_lodo_splits(man, seed=0)
    assert set(splits) == set(domains)
    for dom, split in splits.items():
        assert split.held_out_domain == dom
        assert all(cid.startswith(dom + "-") for cid in split.test_ids)


def test_test_sets_partition_manifest():
    man = grid_manifest(["A", "B", "C"], ["x", "y"], 4)
    splits = build_all_lodo_splits(man, seed=0)
    seen = []
    for split in splits.values():
        seen.extend(split.test_ids)
    assert sorted(seen) == sorted(r.clip_id for r in man.records)


def test_same_seed_is_deterministic():
    man = grid_manifest(["A", "B", "C"], ["x", "y"], 10)
    s1 = build_lodo_split(man, "C", seed=7)
    s2 = build_lodo_split(man, "C", seed=7)
    assert s1 == s2


def test_seed_moves_val_but_never_test():
    man = grid_manifest(["A", "B", "C"], ["x", "y"], 10)
    base = build_lodo_split(man, "C", seed=0)
    changed = False
    for seed in range(1, 6):
        other = build_lodo_split(man, "C", seed=seed)
        assert other.test_ids == base.test_ids
        pool = set(base.train_ids) | set(base.val_ids)
        assert set(other.train_ids) | set(other.val_ids) == pool
        if set(other.val_ids) != set(base.val_ids):
            changed = True
    assert changed, "reshuffling across 5 seeds never changed val membership"


def test_split_integrity_properties():
    rng = np.random.default_rng(11)
    for trial in range(6):
        n_dom = int(rng.integers(2, 5))
        n_cat = int(rng.integers(1, 4))
        per_cell = int(rng.integers(2, 9))
        vf = float(rng.choice([0.0, 0.1, 0.24, 0.4]))
        domains = [f"d{i}" for i in range(n_dom)]
        categories = [f"c{i}" for i in range(n_cat)]
        man = grid_manifest(domains, categories, per_cell)
        held = domains[int(rng.integers(n_dom))]
        split = build_lodo_split(man, held, val_fraction=vf, seed=trial)

        train, val, test = set(split.train_ids), set(split.val_ids), set(split.test_ids)
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == {r.clip_id for r in man.records}

        by_id = man.by_id()
        assert all(by_id[cid].domain == held for cid in test)
        assert all(by_id[cid].domain != held for cid in train | val)

        # each source stratum contributes exactly round(vf * size) val clips
        for d in domains:
            if d == held:
                continue
            for c in categories:
                ids = [r.clip_id for r in man.records
                       if r.domain == d and r.category == c]
                expect = int(np.floor(vf * len(ids) + 0.5))
                assert sum(1 for cid in ids if cid in val) == expect


def test_output_order_follows_manifest():
    man = grid_manifest(["A", "B", "C"], ["x", "y"], 6)
    pos = {r.clip_id: i for i, r in enumerate(man.records)}
    split = build_lodo_split(man, "B", seed=3)
    for ids in (split.train_ids, split.val_ids, split.test_ids):
        idx = [pos[cid] for cid in ids]
        assert idx == sorted(idx)


def test_default_val_fraction_value():
    assert DEFAULT_VAL_FRACTION == 0.24


def test_split_file_round_trip(tmp_path):
    man = grid_manifest(["A", "B", "C"], ["x", "y"], 5)
    split = build_lodo_split(man, "B", seed=2)
    path = tmp_path / "split_B.tsv"
    write_split_file(split, path)
    back = read_split_file(path, man)
    assert back.held_out_domain == "B"
    assert back.train_ids == split.train_ids
    assert back.val_ids == split.val_ids
    assert back.test_ids == split.test_ids


def test_split_file_tolerates_blank_lines(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    split = build_lodo_split(man, "B", val_fraction=0.0, seed=0)
    path = tmp_path / "s.tsv"
    write_split_file(split, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("\n", "\n\n", 1), encoding="utf-8")
    back = read_split_file(path, man)
    assert back.test_ids == split.test_ids


def test_split_file_bad_role_rejected(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    path.write_text("A-x-000\tlearn\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'clip_id"):
        read_split_file(path, man)


def test_split_file_duplicate_id_rejected(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    path.write_text("A-x-000\ttrain\nA-x-000\tval\nB-x-000\ttest\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate clip_id"):
        read_split_file(path, man)


def test_split_file_unknown_id_rejected(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    path.write_text("ghost\ttrain\nB-x-000\ttest\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing from manifest"):
        read_split_file(path, man)


def test_split_file_needs_exactly_one_test_domain(tmp_path):
    man = grid_manifest(["A", "B", "C"], ["x"], 1)
    path = tmp_path / "s.tsv"
    path.write_text("A-x-000\ttest\nB-x-000\ttest\nC-x-000\ttrain\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="exactly one domain"):
        read_split_file(path, man)
    path.write_text("A-x-000\ttrain\nB-x-000\tval\n", encoding="utf-8")
    with pytest.raises(ValueError, match="exactly one domain"):
        read_split_file(path, man)


def split_error(path, man, text):
    """The one-line error read_split_file raises on a file holding text."""
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_split_file(path, man)
    return str(err.value)


def test_split_file_unknown_id_names_its_line(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    assert split_error(path, man, "B-x-000\ttest\nA-x-000\ttrain\nghost\ttrain\n") == \
        f"{path}:3: clip_id 'ghost' missing from manifest"


def test_split_file_without_test_rows_names_the_file(tmp_path):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    assert split_error(path, man, "A-x-000\ttrain\n\nB-x-000\tval\n") == \
        f"{path}: test rows must cover exactly one domain, found none"


def test_split_file_second_test_domain_names_its_first_row(tmp_path):
    man = grid_manifest(["A", "B", "C"], ["x"], 2)
    path = tmp_path / "s.tsv"
    text = "A-x-000\ttest\nC-x-000\ttrain\nA-x-001\ttest\nB-x-000\ttest\nB-x-001\ttest\n"
    assert split_error(path, man, text) == \
        f"{path}:4: test rows must cover exactly one domain, found 'B' after 'A'"


@pytest.mark.parametrize("role", ["train", "val"])
def test_split_file_refuses_a_held_out_clip_outside_test(tmp_path, role):
    man = grid_manifest(["A", "B"], ["x"], 2)
    path = tmp_path / "s.tsv"
    path.write_text(f"A-x-000\ttrain\nB-x-000\ttest\nB-x-001\t{role}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_split_file(path, man)
    assert str(err.value) == (f"{path}:3: {role} clip 'B-x-001' is from "
                              "the held-out domain 'B'")


def test_splitspec_is_frozen():
    man = grid_manifest(["A", "B"], ["x"], 2)
    split = build_lodo_split(man, "B")
    with pytest.raises(AttributeError):
        split.held_out_domain = "A"
    assert isinstance(split, SplitSpec)

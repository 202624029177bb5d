"""End-to-end command-line behavior: exit codes, files, and messages."""
import argparse
import errno
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import note_stops
from driftbench import cli, mlp, parallel, shift_metric, training
from driftbench.dataset import FeatureSet, load_feature_pack, load_manifest, write_feature_pack
from driftbench.mlp import init_params, load_checkpoint, save_checkpoint
from driftbench.splits import read_split_file
from driftbench.synth import SyntheticSpec, generate

SYNTH_ARGS = ["--domains", "3", "--classes", "3", "--per-cell", "6",
              "--dim", "8", "--noise", "0.5"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared synthetic dataset generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    code = cli.main(["synth", *SYNTH_ARGS, "--seed", "0",
                     "--out-dir", str(root / "data")])
    assert code == 0
    return root


def data_args(workdir):
    return ["--manifest", str(workdir / "data" / "manifest.jsonl"),
            "--features", str(workdir / "data" / "features.egf")]


@pytest.fixture
def no_fit(monkeypatch):
    """Fail the test if shift_metric's k-means fit runs: its inputs are refused first."""
    def fit(*args, **kwargs):
        raise AssertionError("kmeans_fit ran before the inputs were checked")
    monkeypatch.setattr(shift_metric, "kmeans_fit", fit)


TRAIN_OPTIONS = {"--epochs", "--lr", "--batch", "--drop-prob", "--hidden1", "--hidden2",
                 "--pool", "--seed"}
INPUT_OPTIONS = {"--manifest", "--features", "--category-map"}
# Every option string each command accepts, -h and --help aside. A knob added
# or removed anywhere shows here.
OPTIONS = {
    "validate": {*INPUT_OPTIONS, "--out"},
    "score": {*INPUT_OPTIONS, "--grouping", "--k-clusters", "--tau", "--pool", "--out-dir",
              "--seed"},
    "splits": {"--manifest", "--category-map", "--hold-out", "--val-fraction", "--out",
               "--seed"},
    "train": {*INPUT_OPTIONS, "--split", *TRAIN_OPTIONS, "--out", "--history"},
    "train-all": {*INPUT_OPTIONS, "--val-fraction", *TRAIN_OPTIONS, "--out-dir", "--threads",
                  "-v", "--verbose"},
    "eval": {"--checkpoint", *INPUT_OPTIONS, "--ids", "--split", "--role", "--out"},
    "correlate": {"--shift-report", "--eval-report", "--out"},
    "synth": {"--domains", "--classes", "--per-cell", "--dim", "--sep", "--noise", "--offset",
              "--out-dir", "--seed"},
    "check-fixtures": {"--out"},
}


def test_each_command_accepts_exactly_its_options():
    def options(command):
        sub = next(a for a in cli.build_parser(command)._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert {command: options(command) - {"-h", "--help"} for command in cli.COMMANDS} == OPTIONS


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftbench: error: unknown subcommand 'frobnicate'")
    assert "choose from" in err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_exits_zero(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert command in capsys.readouterr().out


def test_only_the_program_freezes_the_collector(monkeypatch, capsys):
    # main(None) is the process's last act; a caller passing argv keeps a live heap
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    assert cli.main(["check-fixtures"]) == 0
    assert frozen == []
    monkeypatch.setattr(sys, "argv", ["driftbench", "check-fixtures"])
    assert cli.main() == 0
    assert frozen == [True]
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(workdir, capsys):
    code = cli.main(["score", "--manifest",
                     str(workdir / "data" / "manifest.jsonl")])
    assert code == 2
    assert "--features" in capsys.readouterr().err


def test_synth_writes_dataset(workdir, capsys):
    man = load_manifest(workdir / "data" / "manifest.jsonl")
    feats = load_feature_pack(workdir / "data" / "features.egf")
    assert len(man) == 3 * 3 * 6
    assert feats.n_clips == len(man)
    assert feats.feature_dim == 8


def test_validate_happy_path(workdir, capsys):
    out = workdir / "validate.json"
    code = cli.main(["validate", *data_args(workdir), "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("validate: 54 clips, 3 domains, 3 categories")
    assert "\n" not in line
    obj = json.loads(out.read_text())
    assert obj["n_clips"] == 54
    assert obj["domains"] == ["dom00", "dom01", "dom02"]


def test_validate_missing_file_is_pipeline_error(tmp_path, capsys):
    code = cli.main(["validate", "--manifest", str(tmp_path / "nope.jsonl")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("driftbench: error: validate:")
    assert "\n" not in err


def test_score_writes_reports(workdir, capsys):
    out_dir = workdir / "score"
    code = cli.main(["score", *data_args(workdir), "--k-clusters", "6",
                     "--seed", "0", "--out-dir", str(out_dir)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("score: 3 groups, top ")
    assert "omega=" in line
    assert (out_dir / "shift_report.csv").exists()
    obj = json.loads((out_dir / "shift_report.json").read_text())
    assert len(obj["groups"]) == 3


def test_score_notes_small_g_on_stderr_only(workdir, tmp_path, monkeypatch, capsys):
    def score(out_dir):
        assert cli.main(["score", *data_args(workdir), "--k-clusters", "6", "--seed", "0",
                         "--out-dir", str(out_dir)]) == 0
        out, err = capsys.readouterr()
        files = [(out_dir / f).read_bytes() for f in ("shift_report.csv", "shift_report.json")]
        return out.replace(str(out_dir), "OUT"), err, files

    out, err, files = score(tmp_path / "noted")
    assert err == ("driftbench: note: score: 3 groups; with 6 or fewer the top score "
                   "need not mark the most shifted group (see README, shift scoring)\n")
    monkeypatch.setattr(cli, "SMALL_G", 2)
    assert score(tmp_path / "quiet") == (out, "", files)


def _score_bytes(tmp_path, name, manifest_lines, features):
    manifest = tmp_path / f"{name}.jsonl"
    manifest.write_text("\n".join(manifest_lines) + "\n")
    out_dir = tmp_path / name
    assert cli.main(["score", "--manifest", str(manifest), "--features", str(features),
                     "--k-clusters", "6", "--seed", "0", "--out-dir", str(out_dir)]) == 0
    return [(out_dir / f).read_bytes() for f in ("shift_report.csv", "shift_report.json")]


def test_score_ignores_manifest_line_order(workdir, tmp_path, capsys):
    data = workdir / "data"
    lines = (data / "manifest.jsonl").read_text().splitlines()
    features = data / "features.egf"
    forward = _score_bytes(tmp_path, "forward", lines, features)
    assert _score_bytes(tmp_path, "reversed", lines[::-1], features) == forward


def test_score_manifest_subset_scores_named_rows(workdir, tmp_path, capsys):
    # every other clip, lines shuffled, against the full pack; the same
    # clips compacted into their own pack and re-indexed must score alike
    data = workdir / "data"
    lines = (data / "manifest.jsonl").read_text().splitlines()
    kept = [json.loads(line) for line in lines[::2]]
    shuffled = [json.dumps(kept[i]) for i in np.random.default_rng(3).permutation(len(kept))]
    subset = _score_bytes(tmp_path, "subset", shuffled, data / "features.egf")

    full = load_feature_pack(data / "features.egf")
    rows = [obj["row_index"] for obj in kept]
    compact_pack = tmp_path / "compact.egf"
    write_feature_pack(FeatureSet(full.values[rows]), compact_pack)
    compact = [json.dumps({**obj, "row_index": i}) for i, obj in enumerate(kept)]
    assert subset == _score_bytes(tmp_path, "compact", compact, compact_pack)


def test_score_hands_over_the_pooled_array_when_the_manifest_names_every_row(
        workdir, tmp_path, monkeypatch, capsys):
    # every row in any line order: no copy; a manifest that skips a row gets
    # its rows gathered (the subset test above checks such a report's bytes).
    # A one-frame pack is pooled as a view of itself, a two-frame pack by its mean.
    load, pool, score = cli.dataset.load_feature_pack, cli.dataset.pool_temporal, \
        shift_metric.score_dataset
    loaded, pooled, handed = [], [], []
    monkeypatch.setattr(cli.dataset, "load_feature_pack",
                        lambda *args: loaded.append(load(*args)) or loaded[-1])
    monkeypatch.setattr(cli.dataset, "pool_temporal",
                        lambda *args: pooled.append(pool(*args)) or pooled[-1])
    monkeypatch.setattr(shift_metric, "score_dataset",
                        lambda X, *args, **kwargs: handed.append(X) or score(X, *args, **kwargs))
    data = workdir / "data"
    lines = (data / "manifest.jsonl").read_text().splitlines()
    assert [json.loads(line)["row_index"] for line in lines] == list(range(len(lines)))
    _score_bytes(tmp_path, "reversed", lines[::-1], data / "features.egf")
    _score_bytes(tmp_path, "skipped", lines[1:], data / "features.egf")
    assert handed[0] is pooled[0]
    assert handed[1].tobytes() == pooled[1][1:].tobytes()
    assert loaded[0].temporal_count == 1
    assert np.shares_memory(handed[0], loaded[0].values)

    two_frames = tmp_path / "two_frames.egf"
    values = loaded[0].values
    write_feature_pack(FeatureSet(np.concatenate([values, values + 1], axis=1)), two_frames)
    _score_bytes(tmp_path, "two_frames", lines, two_frames)
    assert handed[2] is pooled[2]
    assert handed[2].tobytes() == loaded[2].values.mean(axis=1).tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_score_of_a_pack_with_negative_zeros_matches_its_pooled_mean(workdir, tmp_path, seed,
                                                                      capsys):
    # score clusters a one-frame pack as a view of it, where pool_temporal's
    # mean would turn each -0.0 into +0.0. No report byte may tell the two apart.
    data = workdir / "data"
    values = load_feature_pack(data / "features.egf").values.copy()
    rng = np.random.default_rng(seed)
    values[rng.random(values.shape) < 0.2] = -0.0
    values[:, :, rng.integers(values.shape[2])] = -0.0
    canonical = values + np.float32(0.0)
    assert canonical[:, 0].tobytes() == values.mean(axis=1).tobytes()  # what pooling gives
    assert canonical.tobytes() != values.tobytes()
    lines = (data / "manifest.jsonl").read_text().splitlines()
    reports = []
    for name, pack in (("signed", values), ("pooled", canonical)):
        path = tmp_path / f"{name}.egf"
        write_feature_pack(FeatureSet(pack), path)
        manifest = tmp_path / f"{name}.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / name
        assert cli.main(["score", "--manifest", str(manifest), "--features", str(path),
                         "--k-clusters", "6", "--seed", str(seed),
                         "--out-dir", str(out_dir)]) == 0
        reports.append([(out_dir / f).read_bytes()
                        for f in ("shift_report.csv", "shift_report.json")])
    assert reports[0] == reports[1]


# sha256 of shift_report.csv and .json for the shared synth data; a change
# that moves any report byte under any grouping must update these on purpose
SCORE_DIGESTS = {
    "domain": ("0cc295ead8d1826a197cedf9966b887c113df16e2144d98015afbd388948fa36",
               "95dc6cbaf5ee705a8b1b9f23c66938015f27c9ef5ad23827c1e65bee2e250fb6"),
    "class": ("a546046867a27966e5956144cd8cad5900c4a6f7d9b4b227bf99e239e942c93b",
              "ba532c63b8c4588b54e756e3d2e2c53e6e3af4364a4ea6fefbdf987de8fe2a1e"),
    "domain-class": ("2efe8d81c917d4699436ba60d4a1d8bf1554dde315cb3efb515a50a315d7b507",
                     "a9a9fae7a7f7d7568d4d25fbcf211e273ee3935516e8821acb9db1ba079276fc"),
}


@pytest.mark.parametrize("grouping", sorted(SCORE_DIGESTS))
def test_score_report_bytes_are_pinned(workdir, tmp_path, grouping, capsys):
    out_dir = tmp_path / grouping
    assert cli.main(["score", *data_args(workdir), "--grouping", grouping,
                     "--k-clusters", "6", "--seed", "0", "--out-dir", str(out_dir)]) == 0
    digests = tuple(hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                    for f in ("shift_report.csv", "shift_report.json"))
    assert digests == SCORE_DIGESTS[grouping]


def test_score_refuses_two_groups_with_one_label(workdir, tmp_path, no_fit, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"clip_id": f"c{i}", "domain": d, "category": c, "row_index": i}) + "\n"
        for i, (d, c) in enumerate([("a/b", "c"), ("a", "b/c"), ("a", "c")])))
    out_dir = tmp_path / "score"
    code = cli.main(["score", "--manifest", str(manifest),
                     "--features", data_args(workdir)[3], "--grouping", "domain-class",
                     "--k-clusters", "1", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == (
        "driftbench: error: score: label 'a/b/c' names two domain-class groups, "
        "('a/b', 'c') and ('a', 'b/c')\n")
    assert not out_dir.exists()


def test_score_refuses_one_group_before_the_fit(workdir, tmp_path, no_fit, capsys):
    lines = (workdir / "data" / "manifest.jsonl").read_text().splitlines()
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in lines
                                if json.loads(line)["domain"] == "dom00"))
    out_dir = tmp_path / "score"
    code = cli.main(["score", "--manifest", str(manifest), "--features", data_args(workdir)[3],
                     "--grouping", "domain", "--k-clusters", "1", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == (
        "driftbench: error: score: need >= 2 groups to compare, got 1\n")
    assert not out_dir.exists()


def test_splits_command(workdir, capsys):
    out = workdir / "split_dom01.tsv"
    code = cli.main(["splits", *data_args(workdir)[:2], "--hold-out", "dom01",
                     "--seed", "0", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("splits: hold-out dom01, train ")
    roles = [l.split("\t")[1] for l in out.read_text().strip().splitlines()]
    assert roles.count("test") == 18


def test_splits_category_map_matches_train_all(tmp_path, capsys):
    data, runs = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--domains", "3", "--classes", "4", "--per-cell", "7",
                     "--dim", "4", "--seed", "0", "--out-dir", str(data)]) == 0
    cmap = tmp_path / "map.tsv"
    cmap.write_text("cat00\tA\ncat01\tA\ncat02\tB\ncat03\tB\n")
    manifest = ["--manifest", str(data / "manifest.jsonl"), "--category-map", str(cmap)]
    assert cli.main(["train-all", *manifest, "--features", str(data / "features.egf"),
                     "--epochs", "1", "--hidden1", "4", "--hidden2", "3", "--seed", "3",
                     "--out-dir", str(runs)]) == 0
    mapped, unmapped = tmp_path / "mapped.tsv", tmp_path / "unmapped.tsv"
    assert cli.main(["splits", *manifest, "--hold-out", "dom00", "--seed", "3",
                     "--out", str(mapped)]) == 0
    assert cli.main(["splits", *manifest[:2], "--hold-out", "dom00", "--seed", "3",
                     "--out", str(unmapped)]) == 0
    capsys.readouterr()
    assert mapped.read_bytes() == (runs / "split_dom00.tsv").read_bytes()
    assert unmapped.read_bytes() != mapped.read_bytes()  # the map changes the val set


def test_splits_unknown_domain(workdir, capsys):
    code = cli.main(["splits", *data_args(workdir)[:2], "--hold-out", "mars"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "driftbench: error: splits: unknown domain 'mars'")


@pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
def test_splits_refuses_a_clip_id_no_split_file_can_hold(workdir, tmp_path, char, capsys):
    # a split file is clip_id<TAB>role lines: such an id would not read back
    lines = (workdir / "data" / "manifest.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["clip_id"] = f"a{char}b"
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    out = tmp_path / "s.tsv"
    code = cli.main(["splits", "--manifest", str(manifest), "--hold-out", "dom01",
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", f"driftbench: error: splits: {manifest}:2: clip_id "
                                       f"{'a' + char + 'b'!r} holds a tab or line break\n")
    assert not out.exists()


def test_full_pipeline_chain(workdir, capsys):
    args = data_args(workdir)
    split = workdir / "pipe_split.tsv"
    ckpt = workdir / "pipe_model.emlp"
    assert cli.main(["splits", *args[:2], "--hold-out", "dom02",
                     "--seed", "1", "--out", str(split)]) == 0
    assert cli.main(["train", *args, "--split", str(split), "--seed", "1",
                     "--epochs", "2", "--batch", "16", "--drop-prob", "0.5",
                     "--hidden1", "8", "--hidden2", "4",
                     "--out", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "train: best val top1 " in out
    assert ckpt.exists() and (workdir / "pipe_model.emlp.history.csv").exists()

    eval_out = workdir / "pipe_eval.json"
    assert cli.main(["eval", *args, "--checkpoint", str(ckpt),
                     "--split", str(split), "--role", "test",
                     "--out", str(eval_out)]) == 0
    report = json.loads(eval_out.read_text())
    assert report["split_id"].endswith(":test")
    assert set(report["per_domain"]) == {"dom02"}
    assert "eval: top1 " in capsys.readouterr().out


def test_correlate_merges_eval_reports(workdir, capsys):
    args = data_args(workdir)
    out_dir = workdir / "trainall"
    assert cli.main(["train-all", *args, "--epochs", "2", "--batch", "16",
                     "--drop-prob", "0.5", "--hidden1", "8", "--hidden2", "4",
                     "--seed", "0", "--out-dir", str(out_dir)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("train-all: 3 hold-outs, mean top1 ")
    for dom in ("dom00", "dom01", "dom02"):
        assert (out_dir / f"split_{dom}.tsv").exists()
        assert (out_dir / f"ckpt_{dom}.emlp").exists()
        assert (out_dir / f"history_{dom}.csv").exists()
        assert (out_dir / f"eval_{dom}.json").exists()
    accs = json.loads((out_dir / "accuracies.json").read_text())
    assert set(accs) == {"dom00", "dom01", "dom02"}

    score_dir = workdir / "score"
    if not (score_dir / "shift_report.json").exists():
        assert cli.main(["score", *args, "--k-clusters", "6", "--seed", "0",
                         "--out-dir", str(score_dir)]) == 0
        capsys.readouterr()
    corr_out = workdir / "correlation.json"
    code = cli.main(["correlate",
                     "--shift-report", str(score_dir / "shift_report.json"),
                     "--eval-report", str(out_dir / "eval_dom00.json"),
                     "--eval-report", str(out_dir / "eval_dom01.json"),
                     "--eval-report", str(out_dir / "eval_dom02.json"),
                     "--out", str(corr_out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("correlate: spearman ")
    obj = json.loads(corr_out.read_text())
    assert obj["n_points"] == 3
    assert -1.0 <= obj["spearman"] <= 1.0
    assert len(obj["pairs"]) == 3


def test_train_all_output_does_not_depend_on_workers(workdir, monkeypatch, capsys):
    args = data_args(workdir)
    files = {}
    for workers in (1, 2, 3):  # hold-outs one at a time; two, then three side by side
        monkeypatch.setattr(parallel, "WORKERS", workers)
        out_dir = workdir / f"trainall_workers{workers}"
        assert cli.main(["train-all", *args, "--epochs", "2", "--batch", "16",
                         "--drop-prob", "0.5", "--hidden1", "8", "--hidden2", "4",
                         "--seed", "3", "--out-dir", str(out_dir)]) == 0
        files[workers] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(files[1]) == 3 * 4 + 1  # split, ckpt, history, eval per domain
    assert files[1] == files[2] == files[3]

    score_dir = workdir / "score_workers"
    assert cli.main(["score", *args, "--k-clusters", "6", "--seed", "0",
                     "--out-dir", str(score_dir)]) == 0
    correlations = []
    for workers in (1, 2):
        out_dir = workdir / f"trainall_workers{workers}"
        corr_out = workdir / f"correlation_workers{workers}.json"
        assert cli.main(["correlate",
                         "--shift-report", str(score_dir / "shift_report.json"),
                         *[arg for dom in ("dom00", "dom01", "dom02")
                           for arg in ("--eval-report", str(out_dir / f"eval_{dom}.json"))],
                         "--out", str(corr_out)]) == 0
        correlations.append(corr_out.read_bytes())
    capsys.readouterr()
    assert correlations[0] == correlations[1]


def test_train_all_output_does_not_depend_on_threads(workdir, tmp_path, capsys):
    # --threads is accepted, as the benchmark passes it, and read by nothing
    files = {}
    for threads in ([], ["--threads", "0"], ["--threads", "2"]):
        out_dir = tmp_path / f"runs{len(files)}"
        assert cli.main(["train-all", *data_args(workdir), "--epochs", "1", "--batch", "16",
                         "--hidden1", "8", "--hidden2", "4", "--seed", "3", *threads,
                         "--out-dir", str(out_dir)]) == 0
        files[len(files)] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(files[0]) == 3 * 4 + 1
    assert files[0] == files[1] == files[2]
    capsys.readouterr()
    assert cli.main(["train-all", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--out-dir" in usage and "--threads" not in usage


@pytest.mark.parametrize("n_lines", [0, 2])  # no clips; clips of one domain
def test_train_all_needs_two_domains(workdir, tmp_path, n_lines, capsys):
    lines = (workdir / "data" / "manifest.jsonl").read_text().splitlines()[:n_lines]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in lines))
    out_dir = tmp_path / "runs"
    code = cli.main(["train-all", "--manifest", str(manifest),
                     "--features", str(workdir / "data" / "features.egf"),
                     "--epochs", "1", "--hidden1", "8", "--hidden2", "4",
                     "--out-dir", str(out_dir)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("driftbench: error: train-all: need at least two domains to build "
                   f"leave-one-out splits, manifest has {min(n_lines, 1)}\n")
    assert not (out_dir / "accuracies.json").exists()


def test_train_all_eval_reports_equal_eval_command(tmp_path, capsys):
    # the lodo-desk benchmark configuration; each hold-out's in-memory eval
    # must match `eval` on the float32 checkpoint that train-all saved
    data, runs = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--domains", "6", "--classes", "6", "--per-cell", "100",
                     "--dim", "64", "--offset", "dom01=2", "--offset", "dom03=4",
                     "--offset", "dom05=8", "--seed", "7", "--out-dir", str(data)]) == 0
    inputs = ["--manifest", str(data / "manifest.jsonl"),
              "--features", str(data / "features.egf")]
    assert cli.main(["train-all", *inputs, "--hidden1", "256", "--hidden2", "128",
                     "--drop-prob", "0.5", "--epochs", "20",
                     "--seed", "7", "--out-dir", str(runs)]) == 0
    for domain in [f"dom{i:02d}" for i in range(6)]:
        split, out = runs / f"split_{domain}.tsv", tmp_path / f"eval_{domain}.json"
        assert cli.main(["eval", *inputs, "--checkpoint", str(runs / f"ckpt_{domain}.emlp"),
                         "--split", str(split), "--role", "test", "--out", str(out)]) == 0
        in_memory = json.loads((runs / f"eval_{domain}.json").read_text())
        from_checkpoint = json.loads(out.read_text())
        assert in_memory.pop("split_id") == f"lodo:{domain}"
        assert from_checkpoint.pop("split_id") == f"{split}:test"
        assert in_memory == from_checkpoint, domain
    capsys.readouterr()


def test_validate_refuses_a_repeated_fine_label(workdir, tmp_path, capsys):
    cmap = tmp_path / "map.tsv"
    cmap.write_text("cat00\tA\ncat00\tB\ncat01\tB\n")
    code = cli.main(["validate", "--manifest", str(workdir / "data" / "manifest.jsonl"),
                     "--category-map", str(cmap)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"driftbench: error: validate: {cmap}:2: duplicate label 'cat00' "
                   "(first on line 1)\n")


@pytest.mark.parametrize("command", ["score", "train", "train-all", "eval", "validate"])
def test_manifest_row_past_pack_is_one_line_error(workdir, tmp_path, command, capsys):
    data = workdir / "data"
    lines = (data / "manifest.jsonl").read_text().splitlines()
    n_rows = load_feature_pack(data / "features.egf").n_clips
    for row in (n_rows, n_rows + 100):
        last = json.loads(lines[-1])
        last["row_index"] = row
        manifest = tmp_path / f"manifest_{row}.jsonl"
        manifest.write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
        inputs = ["--manifest", str(manifest), "--features", str(data / "features.egf")]
        argv = {
            "score": ["score", *inputs, "--out-dir", str(tmp_path / "s")],
            "train": ["train", *inputs, "--split", "x.tsv", "--out", "x.emlp"],
            "train-all": ["train-all", *inputs, "--out-dir", str(tmp_path / "t")],
            "eval": ["eval", *inputs, "--checkpoint", "x.emlp", "--ids", "x.txt",
                     "--out", "x.json"],
            "validate": ["validate", *inputs],
        }[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"driftbench: error: {command}: {manifest}:{len(lines)}: "
                              f"row_index {row} out of range [0, {n_rows})")


@pytest.mark.parametrize("command", ["validate", "score"])
@pytest.mark.parametrize("t, d", [(0, 4), (3, 0)])
def test_pack_of_empty_clips_is_one_line_error(workdir, tmp_path, command, t, d, capsys):
    # a header with T or D of 0 declares no values: no size check catches it
    pack = tmp_path / "empty.egf"
    pack.write_bytes(b"EGF1" + struct.pack("<III", 54, t, d))
    inputs = ["--manifest", str(workdir / "data" / "manifest.jsonl"), "--features", str(pack)]
    out_dir = tmp_path / "score"
    argv = {"validate": ["validate", *inputs],
            "score": ["score", *inputs, "--out-dir", str(out_dir)]}[command]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"driftbench: error: {command}: {pack}: empty clips: header declares "
                   f"N=54 T={t} D={d}, T and D must be positive\n")
    assert not out_dir.exists()


def test_correlate_domain_mismatch(tmp_path, capsys):
    paths = write_reports(tmp_path, SHIFT_TEXT,
                          json.dumps({"per_domain": {"a": 90.0, "b": 70.0, "d": 10.0}}))
    assert cli.main(correlate_argv(paths, tmp_path / "corr.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("driftbench: error: correlate: domain mismatch: ")
    assert "'c'" in err and "'d'" in err
    assert not (tmp_path / "corr.json").exists()


def write_reports(tmp_path, shift_text, eval_text):
    shift, report = tmp_path / "shift.json", tmp_path / "eval.json"
    shift.write_text(shift_text)
    report.write_text(eval_text)
    return {"shift": shift, "eval": report}


SHIFT_TEXT = json.dumps({"groups": [{"group": d, "score": s}
                                    for d, s in (("a", 1.0), ("b", 2.0), ("c", 4.0))]})
EVAL_TEXT = json.dumps({"per_domain": {"a": 90.0, "b": 70.0, "c": 10.0}})


def correlate_argv(paths, out):
    return ["correlate", "--shift-report", str(paths["shift"]),
            "--eval-report", str(paths["eval"]), "--out", str(out)]


def test_correlate_reads_only_groups_and_per_domain(tmp_path, capsys):
    paths = write_reports(tmp_path, SHIFT_TEXT, EVAL_TEXT)
    assert cli.main(correlate_argv(paths, tmp_path / "c.json")) == 0
    assert capsys.readouterr().out.startswith("correlate: spearman -1.000 pearson ")
    obj = json.loads((tmp_path / "c.json").read_text())
    assert obj["n_points"] == 3
    assert obj["pairs"][2] == {"domain": "c", "score": 4.0, "accuracy": 10.0}


def test_correlate_writes_strict_json_for_scores_near_the_float_maximum(tmp_path, capsys):
    shift_text = json.dumps({"groups": [{"group": d, "score": s} for d, s in
                                        (("a", 1e308), ("b", -1e308), ("c", 1e307))]})
    paths = write_reports(tmp_path, shift_text, EVAL_TEXT)
    assert cli.main(correlate_argv(paths, tmp_path / "c.json")) == 0
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    obj = json.loads((tmp_path / "c.json").read_text(), parse_constant=refuse)
    assert obj["pearson"] == pytest.approx(0.18384122973665648, rel=1e-12)


@pytest.mark.parametrize("bad, text, message", [
    ("shift", "[1, 2]", "expected a JSON object with a well-formed 'groups'"),
    ("shift", '{"rows": []}', "expected a JSON object with a well-formed 'groups'"),
    ("eval", '{"split_id": "x"}', "expected a JSON object with a well-formed 'per_domain'"),
    ("eval", "not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("shift", SHIFT_TEXT.replace("2.0", "true"), "group 'b' has true, not a finite number"),
    ("shift", SHIFT_TEXT.replace("2.0", '"2.5"'), 'group \'b\' has "2.5", not a finite number'),
    ("shift", SHIFT_TEXT.replace("2.0", "NaN"), "group 'b' has NaN, not a finite number"),
    ("eval", EVAL_TEXT.replace("10.0", "Infinity"), "domain 'c' has Infinity, not a finite number"),
    ("eval", EVAL_TEXT.replace("70.0", "-Infinity"),
     "domain 'b' has -Infinity, not a finite number"),
    ("shift", SHIFT_TEXT.replace('"c"', '"a"'), "group 'a' appears twice"),
    ("eval", EVAL_TEXT.replace('"b"', '"a"'), "domain 'a' appears twice"),
])
def test_correlate_malformed_report_is_one_line_error(tmp_path, bad, text, message,
                                                      capsys):
    texts = {"shift": SHIFT_TEXT, "eval": EVAL_TEXT, bad: text}
    paths = write_reports(tmp_path, texts["shift"], texts["eval"])
    assert cli.main(correlate_argv(paths, tmp_path / "c.json")) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"driftbench: error: correlate: {paths[bad]}: {message}\n"
    assert not (tmp_path / "c.json").exists()


def test_growing_offsets_correlate_negatively(tmp_path, capsys):
    # The paper's claim end to end. With G = 8 groups a lone outlier at
    # distance d scores d and each other group d*(1 + 2*sqrt(6))/7 = 0.84*d,
    # so past G = 6 the farthest domain ranks first rather than last.
    # Measured here: pearson -0.978, spearman -0.503.
    data, runs = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--domains", "8", "--classes", "4", "--per-cell", "40",
                     "--dim", "16", "--offset", "dom05=2", "--offset", "dom06=4",
                     "--offset", "dom07=8", "--seed", "0", "--out-dir", str(data)]) == 0
    inputs = ["--manifest", str(data / "manifest.jsonl"),
              "--features", str(data / "features.egf")]
    assert cli.main(["score", *inputs, "--k-clusters", "16", "--seed", "0",
                     "--out-dir", str(tmp_path / "score")]) == 0
    assert cli.main(["train-all", *inputs, "--hidden1", "32", "--hidden2", "16",
                     "--epochs", "10", "--batch", "32", "--drop-prob", "0.5",
                     "--seed", "0", "--out-dir", str(runs)]) == 0
    shift_report = tmp_path / "score" / "shift_report.json"
    assert cli.main(["correlate", "--shift-report", str(shift_report),
                     *[arg for i in range(8)
                       for arg in ("--eval-report", str(runs / f"eval_dom{i:02d}.json"))],
                     "--out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    assert json.loads(shift_report.read_text())["groups"][0]["group"] == "dom07"
    assert json.loads((tmp_path / "c.json").read_text())["pearson"] < 0


def test_eval_with_ids_file(workdir, tmp_path, capsys):
    args = data_args(workdir)
    ckpt = tmp_path / "model.emlp"
    save_checkpoint(init_params(8, 3, hidden1=8, hidden2=4), ckpt)
    ids = tmp_path / "some_ids.txt"
    man = load_manifest(workdir / "data" / "manifest.jsonl")
    ids.write_text("\n".join(r.clip_id for r in man.records[:10]) + "\n")
    out = tmp_path / "ids_eval.json"
    assert cli.main(["eval", *args, "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["n_evaluated"] == 10

    out.unlink()
    ids.write_text(f"{man.records[0].clip_id}\n\nghost-clip\n")
    assert cli.main(["eval", *args, "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"driftbench: error: eval: {ids}:3: unknown clip id 'ghost-clip'\n"
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("damaged", ["manifest", "category-map", "split", "ids"])
def test_non_utf8_text_input_names_its_file_and_line(workdir, tmp_path, damaged, newline,
                                                     capsys):
    man = load_manifest(workdir / "data" / "manifest.jsonl")
    lines = {
        "manifest": (workdir / "data" / "manifest.jsonl").read_text().splitlines(),
        "category-map": [f"{c}\t{c}" for c in man.categories],
        "split": [f"{r.clip_id}\t{'test' if r.domain == 'dom02' else 'train'}"
                  for r in man.records],
        "ids": [r.clip_id for r in man.records[:5]],
    }
    paths = {name: tmp_path / name for name in lines}
    for name, path in paths.items():
        text = newline.join(lines[name]) + newline
        raw = text.encode("utf-8")
        if name == damaged:  # one bad byte in the middle of line 3
            at = sum(len(line) + len(newline) for line in lines[name][:2]) + 2
            raw = raw[:at] + b"\xff" + raw[at:]
        path.write_bytes(raw)
    ckpt = tmp_path / "model.emlp"
    save_checkpoint(init_params(8, 3, hidden1=8, hidden2=4), ckpt)
    out = tmp_path / "eval.json"
    role = ["--split", str(paths["split"])] if damaged == "split" else \
        ["--ids", str(paths["ids"])]
    code = cli.main(["eval", "--manifest", str(paths["manifest"]),
                     "--features", str(workdir / "data" / "features.egf"),
                     "--category-map", str(paths["category-map"]),
                     "--checkpoint", str(ckpt), *role, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        f"driftbench: error: eval: {paths[damaged]}:3: not UTF-8 text\n"
    assert not out.exists()


def test_eval_ids_file_rejects_a_repeated_id(workdir, tmp_path, capsys):
    ckpt = tmp_path / "model.emlp"
    save_checkpoint(init_params(8, 3, hidden1=8, hidden2=4), ckpt)
    clips = [r.clip_id for r in load_manifest(workdir / "data" / "manifest.jsonl").records]
    ids = tmp_path / "ids.txt"
    # one clip named 5 times among 2 others must not count as 7 clips
    ids.write_text("\n".join([clips[0], clips[1], "", clips[0], clips[0], clips[2],
                              clips[0], clips[0]]) + "\n")
    out = tmp_path / "eval.json"
    code = cli.main(["eval", *data_args(workdir), "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"driftbench: error: eval: {ids}:4: duplicate clip id "
                   f"{clips[0]!r} (first on line 1)\n")
    assert not out.exists()


def test_train_zero_epochs_says_no_epoch_ran(workdir, tmp_path, capsys):
    args = data_args(workdir)
    split = tmp_path / "split.tsv"
    assert cli.main(["splits", *args[:2], "--hold-out", "dom00",
                     "--out", str(split)]) == 0
    assert "val 0 " not in capsys.readouterr().out
    ckpt = tmp_path / "model.emlp"
    assert cli.main(["train", *args, "--split", str(split), "--epochs", "0",
                     "--hidden1", "8", "--hidden2", "4", "--out", str(ckpt)]) == 0
    assert capsys.readouterr().out == (
        f"train: no epoch ran, kept the initial weights, "
        f"wrote {ckpt} {ckpt}.history.csv\n")


def train_outputs(workdir, tmp_path, capsys):
    """The train arguments up to --out on a dom00 split, and --out and --history
    paths in tmp_path, each already holding bytes of its own."""
    args = data_args(workdir)
    split = tmp_path / "split.tsv"
    assert cli.main(["splits", *args[:2], "--hold-out", "dom00", "--out", str(split)]) == 0
    capsys.readouterr()
    paths = {"--out": tmp_path / "model.emlp", "--history": tmp_path / "history.csv"}
    for flag, path in paths.items():
        path.write_bytes(f"old {flag}".encode())
    return ["train", *args, "--split", str(split), "--hidden1", "8", "--hidden2", "4"], paths


@pytest.mark.parametrize("flag", ["--out", "--history"])
@pytest.mark.parametrize("bad", ["in a missing directory", "a directory"])
def test_train_refuses_an_output_path_it_cannot_write_before_it_trains(
        workdir, tmp_path, flag, bad, monkeypatch, capsys):
    argv, paths = train_outputs(workdir, tmp_path, capsys)
    if bad == "a directory":
        paths[flag] = tmp_path / "a directory"
        paths[flag].mkdir()
        message = f"{paths[flag]}: is a directory"
    else:
        paths[flag] = tmp_path / "nowhere" / paths[flag].name
        message = f"{paths[flag]}: no directory {paths[flag].parent}"
    real_forward, steps = mlp.forward, []

    def forward_noting_steps(*args, **kwargs):
        steps.append(kwargs.get("mode"))
        return real_forward(*args, **kwargs)
    monkeypatch.setattr(mlp, "forward", forward_noting_steps)
    before = sorted(tmp_path.iterdir())
    code = cli.main([*argv, "--epochs", "20", *(a for kv in paths.items() for a in map(str, kv))])
    assert code == 1
    assert capsys.readouterr().err == f"driftbench: error: train: {message}\n"
    assert "train" not in steps
    assert sorted(tmp_path.iterdir()) == before
    for other, path in paths.items():
        if other != flag:
            assert path.read_bytes() == f"old {other}".encode()


@pytest.mark.parametrize("existing", ["--out", "--history"])
@pytest.mark.parametrize("failure", ["diverges", "history write fails"])
def test_failed_train_leaves_its_outputs_as_they_were(workdir, tmp_path, existing, failure,
                                                      monkeypatch, capsys):
    argv, paths = train_outputs(workdir, tmp_path, capsys)
    next(path for flag, path in paths.items() if flag != existing).unlink()
    saves, steps, real_loss = [], [], mlp.ova_bce_loss
    monkeypatch.setattr(cli, "save_checkpoint",
                        lambda params, out: saves.append(mlp.save_checkpoint(params, out)))
    if failure == "diverges":  # epoch 1 is kept, then the one step of epoch 2 diverges
        def loss(logits, targets):
            steps.append(1)
            return (np.nan, None) if len(steps) == 2 else real_loss(logits, targets)
        monkeypatch.setattr(mlp, "ova_bce_loss", loss)
        message = "non-finite loss at epoch 2, batch 0"
    else:  # once training has ended
        def full_disk(history, path):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(training, "write_history_csv", full_disk)
        message = "[Errno 28] No space left on device"
    before = sorted(tmp_path.iterdir())
    code = cli.main([*argv, "--epochs", "2", "--batch", "64",
                     *(a for kv in paths.items() for a in map(str, kv))])
    assert code == 1
    assert capsys.readouterr().err == f"driftbench: error: train: {message}\n"
    assert len(saves) >= 1  # a checkpoint was written, just not to --out
    assert sorted(tmp_path.iterdir()) == before
    assert paths[existing].read_bytes() == f"old {existing}".encode()


def full_disk(monkeypatch, failing):
    """Make _fit's history write or its checkpoint copy fail with ENOSPC, part-way."""
    def fail(fh, data):
        fh.write(data[:5])
        fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    if failing == "history":
        def write_history_csv(history, path):
            with open(path, "w") as fh:
                fail(fh, "epoch,train_loss,val_top1\n")
        monkeypatch.setattr(training, "write_history_csv", write_history_csv)
    else:
        monkeypatch.setattr(shutil, "copyfileobj", lambda src, dst: fail(dst, src.read()))
    return f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("existing", [True, False], ids=["old files", "no files"])
@pytest.mark.parametrize("failing", ["history", "checkpoint"])
def test_a_full_disk_as_train_writes_its_outputs_leaves_them_as_they_were(
        workdir, tmp_path, existing, failing, monkeypatch, capsys):
    """The history and the checkpoint go to new files that replace --history
    and --out only once both are complete: a write that fails part-way
    leaves each path's bytes, or no file, and no new file beside them."""
    argv, paths = train_outputs(workdir, tmp_path, capsys)
    if not existing:
        for path in paths.values():
            path.unlink()
    message = full_disk(monkeypatch, failing)
    before = file_bytes(tmp_path)
    code = cli.main([*argv, "--epochs", "2", *(a for kv in paths.items() for a in map(str, kv))])
    assert code == 1
    assert capsys.readouterr().err == f"driftbench: error: train: {message}\n"
    assert file_bytes(tmp_path) == before


@pytest.mark.parametrize("failing", ["history", "checkpoint"])
def test_a_full_disk_as_train_all_writes_a_hold_out_leaves_its_outputs_as_they_were(
        workdir, tmp_path, failing, monkeypatch, capsys):
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    for domain in ("dom00", "dom01", "dom02"):
        (out_dir / f"ckpt_{domain}.emlp").write_bytes(b"old checkpoint")
        (out_dir / f"history_{domain}.csv").write_bytes(b"old history")
    message = full_disk(monkeypatch, failing)  # the forked workers inherit it
    code = cli.main(["train-all", *data_args(workdir), "--epochs", "1", "--hidden1", "8",
                     "--hidden2", "4", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"driftbench: error: train-all: {message}\n"
    written = file_bytes(out_dir)
    for domain in ("dom00", "dom01", "dom02"):
        assert written.pop(f"ckpt_{domain}.emlp") == b"old checkpoint"
        assert written.pop(f"history_{domain}.csv") == b"old history"
    assert {re.sub("dom0[0-2]", "dom", name) for name in written} <= {"split_dom.tsv"}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lr_and_tau_are_one_line_errors(workdir, tmp_path, value, capsys, no_fit):
    args = data_args(workdir)
    split = tmp_path / "split.tsv"
    assert cli.main(["splits", *args[:2], "--hold-out", "dom00",
                     "--out", str(split)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "model.emlp"
    code = cli.main(["train", *args, "--split", str(split), "--lr", value,
                     "--epochs", "1", "--hidden1", "8", "--hidden2", "4",
                     "--out", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("driftbench: error: train: ") and err.count("\n") == 1
    assert "must be positive" in err
    assert not ckpt.exists()

    out_dir = tmp_path / "score"
    code = cli.main(["score", *args, "--k-clusters", "4", "--tau", value,
                     "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"driftbench: error: score: tau must be finite, got {value}\n"
    assert not (out_dir / "shift_report.csv").exists()
    assert not (out_dir / "shift_report.json").exists()


@pytest.mark.parametrize("data_classes, ckpt_dims", [
    (3, (16, 5)),  # more model classes than data classes: predictions past the labels
    (5, (16, 3)),  # fewer: a report over classes the model never scores
    (3, (32, 3)),  # input width
])
def test_eval_model_data_mismatch_is_one_line_error(tmp_path, data_classes, ckpt_dims,
                                                    capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--domains", "2", "--classes", str(data_classes),
                     "--per-cell", "4", "--dim", "16", "--seed", "0",
                     "--out-dir", str(data)]) == 0
    ckpt = tmp_path / "model.emlp"
    in_dim, n_classes = ckpt_dims
    save_checkpoint(init_params(in_dim, n_classes, hidden1=8, hidden2=4), ckpt)
    ids = tmp_path / "ids.txt"
    ids.write_text("\n".join(r.clip_id for r in
                             load_manifest(data / "manifest.jsonl").records) + "\n")
    out = tmp_path / "eval.json"
    capsys.readouterr()
    code = cli.main(["eval", "--manifest", str(data / "manifest.jsonl"),
                     "--features", str(data / "features.egf"), "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        f"driftbench: error: eval: {ckpt}: model takes {in_dim} features and "
        f"{n_classes} classes, data has 16 features and {data_classes} classes")
    assert not out.exists()


def test_eval_ids_and_split_conflict(workdir, capsys):
    args = data_args(workdir)
    code = cli.main(["eval", *args, "--checkpoint", "x.emlp",
                     "--ids", "a.txt", "--split", "b.tsv", "--out", "o.json"])
    assert code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_eval_takes_no_pool_flag(workdir, capsys):
    code = cli.main(["eval", *data_args(workdir), "--checkpoint", "x.emlp", "--ids", "a.txt",
                     "--pool", "mean", "--out", "o.json"])
    assert code == 2
    assert "unrecognized arguments: --pool mean" in capsys.readouterr().err


def write_clips(workdir, path, t, d, seed):
    """A pack of t frames of d features for each clip of the shared manifest."""
    n = load_feature_pack(workdir / "data" / "features.egf").n_clips
    values = np.random.default_rng(seed).standard_normal((n, t, d)).astype(np.float32)
    write_feature_pack(FeatureSet(values), path)
    return ["--manifest", str(workdir / "data" / "manifest.jsonl"), "--features", str(path)]


def test_eval_pools_as_the_checkpoint_was_trained(workdir, tmp_path, capsys):
    # T = 3 frames of D = 8: a model of mean-pooled clips takes 8 features, one
    # of flattened clips 24, and eval tells them apart by the checkpoint alone
    inputs = write_clips(workdir, tmp_path / "clips.egf", 3, 8, seed=0)
    split = tmp_path / "split.tsv"
    assert cli.main(["splits", *inputs[:2], "--hold-out", "dom01", "--out", str(split)]) == 0
    manifest = load_manifest(workdir / "data" / "manifest.jsonl")
    features = load_feature_pack(tmp_path / "clips.egf")
    neither = write_clips(workdir, tmp_path / "other.egf", 2, 5, seed=1)  # 5 or 10 features
    for pool, width in (("mean", 8), ("flatten", 24)):
        ckpt, out = tmp_path / f"{pool}.emlp", tmp_path / f"{pool}.json"
        assert cli.main(["train", *inputs, "--split", str(split), "--pool", pool,
                         "--epochs", "3", "--hidden1", "8", "--hidden2", "4",
                         "--out", str(ckpt)]) == 0
        assert cli.main(["eval", *inputs, "--checkpoint", str(ckpt), "--split", str(split),
                         "--out", str(out)]) == 0
        params = load_checkpoint(ckpt)
        assert params.input_dim == width
        data = training.TrainingData.from_features(manifest, features, pool_mode=pool)
        want = training.evaluate(params, data, read_split_file(split, manifest).test_ids)
        want.split_id = f"{split}:test"
        assert json.loads(out.read_text()) == training.eval_report_to_dict(want)

        capsys.readouterr()
        out.unlink()
        assert cli.main(["eval", *neither, "--checkpoint", str(ckpt), "--split", str(split),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"driftbench: error: eval: {ckpt}: model takes {width} features and 3 classes, "
            "data has 10 features and 3 classes\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train-all"])
@pytest.mark.parametrize("lr", ["1e39", "1e60"])
def test_weights_past_float32_fail_before_any_checkpoint_is_written(tmp_path, command, lr,
                                                                     capsys):
    # the weights overflow float32 in the first save: one line, no RuntimeWarning
    # (pytest makes one an error), and no checkpoint
    data = tmp_path / "data"
    assert cli.main(["synth", "--domains", "3", "--classes", "3", "--per-cell", "10",
                     "--dim", "8", "--seed", "1", "--out-dir", str(data)]) == 0
    inputs = ["--manifest", str(data / "manifest.jsonl"),
              "--features", str(data / "features.egf")]
    split, runs = tmp_path / "split.tsv", tmp_path / "runs"
    assert cli.main(["splits", *inputs[:2], "--hold-out", "dom01", "--out", str(split)]) == 0
    runs.mkdir()
    outputs = (["--split", str(split), "--out", str(runs / "model.emlp")]
               if command == "train" else ["--out-dir", str(runs)])
    capsys.readouterr()
    code = cli.main([command, *inputs, "--hidden1", "8", "--hidden2", "4", "--epochs", "2",
                     "--lr", lr, *outputs])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"driftbench: error: {command}: cannot save \w+: "
                        r"a weight is not finite in float32\n", err), err
    assert not [p for p in runs.iterdir() if p.suffix in (".emlp", ".csv", ".json")]


def test_check_fixtures(capsys, tmp_path):
    out = tmp_path / "fixtures.json"
    code = cli.main(["check-fixtures", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row_lines = [l for l in lines if " published " in l]
    assert len(row_lines) == 8
    assert all(l.endswith("pass") for l in row_lines)
    assert lines[-1].startswith("check-fixtures: 8 rows pass")
    obj = json.loads(out.read_text())
    assert abs(obj["spearman"] - (-0.738)) < 0.005
    assert len(obj["rows"]) == 8


def test_seed_defaults_to_zero_whatever_the_environment(tmp_path, monkeypatch, capsys):
    # flags are the only configuration: these variables are not read
    monkeypatch.setenv("DRIFTBENCH_SEED", "abc")
    monkeypatch.setenv("DRIFTBENCH_THREADS", "0")
    out_dir = tmp_path / "env_synth"
    assert cli.main(["synth", *SYNTH_ARGS, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    got = load_feature_pack(out_dir / "features.egf")
    spec = SyntheticSpec(n_domains=3, n_classes=3, samples_per_cell=6,
                         feature_dim=8, noise_scale=0.5)
    _, want = generate(spec, seed=0)
    assert got.values.tobytes() == want.values.tobytes()


BATCH_EPOCHS_LR = "learning_rate (finite), batch_size must be positive; epochs >= 0"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("flag, value, message", [
    ("--batch", "0", BATCH_EPOCHS_LR), ("--lr", "nan", BATCH_EPOCHS_LR),
    ("--epochs", "-1", BATCH_EPOCHS_LR),
    ("--drop-prob", "1", "drop_prob must be in [0, 1), got 1.0"),
    ("--hidden1", "0", "all dimensions must be positive, got (8, 0, 4, 3)"),
])
def test_train_all_refuses_a_bad_training_flag_before_it_forks_or_writes(
        workdir, tmp_path, flag, value, message, workers, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "WORKERS", workers)

    def refuse(*args):
        raise AssertionError("train-all forked")
    monkeypatch.setattr(parallel, "run_forked", refuse)
    out_dir = tmp_path / "runs"
    code = cli.main(["train-all", *data_args(workdir), "--epochs", "1", "--hidden1", "8",
                     "--hidden2", "4", flag, value, "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"driftbench: error: train-all: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("domain", ["US/CMU", "dom\0x"], ids=["slash", "nul"])
def test_train_all_refuses_a_domain_that_cannot_name_a_file_before_it_forks_or_writes(
        workdir, tmp_path, domain, monkeypatch, capsys):
    # score takes such a domain, but train-all names each hold-out's files by it
    def refuse(*args):
        raise AssertionError("train-all forked")
    monkeypatch.setattr(parallel, "run_forked", refuse)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text((workdir / "data" / "manifest.jsonl").read_text().replace(
        '"domain": "dom01"', f'"domain": {json.dumps(domain)}'))
    assert domain in load_manifest(manifest).domains
    out_dir = tmp_path / "runs"
    code = cli.main(["train-all", "--manifest", str(manifest),
                     "--features", str(workdir / "data" / "features.egf"), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == (f"driftbench: error: train-all: domain {domain!r} "
                                       "holds '/' or NUL, so it cannot name its files\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "train-all", "eval"])
def test_one_category_data_is_refused_before_any_training(tmp_path, command, monkeypatch,
                                                          capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(["synth", "--domains", "2", "--classes", "1", "--per-cell", "4",
                     "--dim", "8", "--seed", "0", "--out-dir", str(data)]) == 0
    split = tmp_path / "split.tsv"
    assert cli.main(["splits", "--manifest", str(data / "manifest.jsonl"),
                     "--hold-out", "dom01", "--out", str(split)]) == 0
    checkpoint = tmp_path / "model.emlp"
    save_checkpoint(init_params(8, 2, hidden1=8, hidden2=4), checkpoint)
    out.mkdir()

    def refuse(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(training, "train", refuse)
    monkeypatch.setattr(parallel, "run_forked", refuse)
    inputs = ["--manifest", str(data / "manifest.jsonl"), "--features", str(data / "features.egf")]
    argv = {"train": ["--split", str(split), "--epochs", "1", "--hidden1", "8", "--hidden2", "4",
                      "--out", str(out / "model.emlp")],
            "train-all": ["--val-fraction", "0", "--epochs", "1", "--hidden1", "8",
                          "--hidden2", "4", "--out-dir", str(out / "runs")],
            "eval": ["--checkpoint", str(checkpoint), "--split", str(split), "--role", "test",
                     "--out", str(out / "eval.json")]}[command]
    capsys.readouterr()
    assert cli.main([command, *inputs, *argv]) == 1
    assert capsys.readouterr().err == (
        f"driftbench: error: {command}: one-vs-all top-1 needs at least 2 categories, "
        "the manifest has 1: ['cat00']\n")
    assert not any(out.iterdir())


# Every command but train-all, with its required flags (paths are not opened).
REQUIRED_ARGS = {
    "validate": ["--manifest", "m.jsonl"],
    "score": ["--manifest", "m.jsonl", "--features", "f.egf"],
    "splits": ["--manifest", "m.jsonl", "--hold-out", "dom00"],
    "train": ["--manifest", "m.jsonl", "--features", "f.egf", "--split", "s.tsv",
              "--out", "c.emlp"],
    "eval": ["--manifest", "m.jsonl", "--features", "f.egf", "--checkpoint", "c.emlp",
             "--split", "s.tsv", "--out", "e.json"],
    "correlate": ["--shift-report", "r.json", "--eval-report", "e.json"],
    "synth": ["--domains", "1", "--classes", "1", "--per-cell", "1", "--dim", "1",
              "--out-dir", "d"],
    "check-fixtures": [],
}


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "train-all"])
def test_verbose_flag_belongs_to_train_all_only(command, capsys):
    assert cli.main([command, *REQUIRED_ARGS[command], "-v"]) == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_train_all_verbose_prints_one_line_per_hold_out(workdir, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(parallel, "WORKERS", 1)  # one worker: the lines in hold-out order
    argv = ["train-all", *data_args(workdir), "--epochs", "1", "--batch", "16",
            "--hidden1", "8", "--hidden2", "4", "--out-dir", str(tmp_path / "runs")]
    assert cli.main(argv) == 0
    quiet_out, quiet_err = capsys.readouterr()
    quiet_files = {p.name: p.read_bytes() for p in (tmp_path / "runs").iterdir()}
    assert quiet_err == ""
    assert cli.main([*argv, "-v"]) == 0
    out, err = capsys.readouterr()
    assert out == quiet_out
    lines = err.splitlines()
    assert [line.split()[1] for line in lines] == ["dom00", "dom01", "dom02"]
    for line in lines:
        assert re.fullmatch(r"train-all: dom0\d top1 \d+\.\d\d%", line), line
    assert {p.name: p.read_bytes() for p in (tmp_path / "runs").iterdir()} == quiet_files


@pytest.mark.parametrize("workers", [1, 2])
def test_train_all_hold_out_failure_is_one_line_error(workdir, tmp_path, workers,
                                                      monkeypatch, capsys):
    monkeypatch.setattr(parallel, "WORKERS", workers)
    real_train = training.train

    def train_failing_dom01(data, split, *args, **kwargs):
        if split.held_out_domain == "dom01":
            raise ValueError("training dom01 failed")
        return real_train(data, split, *args, **kwargs)
    monkeypatch.setattr(training, "train", train_failing_dom01)
    out_dir = tmp_path / "runs"
    code = cli.main(["train-all", *data_args(workdir), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(out_dir)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "driftbench: error: train-all: training dom01 failed\n"
    assert not (out_dir / "accuracies.json").exists()


def test_train_all_starts_no_hold_out_after_a_failure(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--domains", "4", "--classes", "3", "--per-cell", "6",
                     "--dim", "8", "--seed", "0", "--out-dir", str(data)]) == 0
    monkeypatch.setattr(parallel, "WORKERS", 1)  # one worker trains the hold-outs in order
    real_train = training.train

    def train_failing_dom01(data, split, *args, **kwargs):
        if split.held_out_domain == "dom01":
            raise ValueError("training dom01 failed")
        return real_train(data, split, *args, **kwargs)
    monkeypatch.setattr(training, "train", train_failing_dom01)
    out_dir = tmp_path / "runs"
    capsys.readouterr()
    code = cli.main(["train-all", "--manifest", str(data / "manifest.jsonl"),
                     "--features", str(data / "features.egf"), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(out_dir)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "driftbench: error: train-all: training dom01 failed\n"
    assert (out_dir / "ckpt_dom00.emlp").exists()
    assert sorted(p.name for p in out_dir.iterdir() if "dom02" in p.name
                  or "dom03" in p.name) == []


def test_train_all_starts_no_hold_out_after_a_failure_in_a_worker(tmp_path, monkeypatch,
                                                                  capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--domains", "4", "--classes", "3", "--per-cell", "6",
                     "--dim", "8", "--seed", "0", "--out-dir", str(data)]) == 0
    # two worker processes: dom01 fails in one while dom00 runs in the other,
    # and dom00 ends only once the parent has taken in the failure and told
    # dom01's worker to stop
    monkeypatch.setattr(parallel, "WORKERS", 2)
    context = multiprocessing.get_context("fork")
    real_train, dom00_started, stopped = training.train, context.Event(), context.Event()
    note_stops(monkeypatch, stopped)

    def train_failing_dom01(data, split, *args, **kwargs):
        if split.held_out_domain == "dom01":
            assert dom00_started.wait(30)
            raise ValueError("training dom01 failed")
        dom00_started.set()
        assert stopped.wait(30)
        return real_train(data, split, *args, **kwargs)
    monkeypatch.setattr(training, "train", train_failing_dom01)
    out_dir = tmp_path / "runs"
    capsys.readouterr()
    code = cli.main(["train-all", "--manifest", str(data / "manifest.jsonl"),
                     "--features", str(data / "features.egf"), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(out_dir)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "driftbench: error: train-all: training dom01 failed\n"
    assert (out_dir / "ckpt_dom00.emlp").exists()
    assert sorted(p.name for p in out_dir.iterdir() if "dom02" in p.name
                  or "dom03" in p.name) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_train_all_trains_no_hold_out_on_the_main_thread(workdir, tmp_path, workers,
                                                         monkeypatch, capsys):
    # training on the main thread ran slower: glibc's main arena faults its
    # freed pages back in, where other threads' arenas keep them. Hold-outs
    # train in worker processes, so each notes its pid and thread in a file
    # the parent can read.
    monkeypatch.setattr(parallel, "WORKERS", workers)
    real_train, notes = training.train, tmp_path / "notes"
    notes.mkdir()

    def train_noting_the_thread(data, split, *args, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        (notes / split.held_out_domain).write_text(f"{os.getpid()} {on_main}")
        return real_train(data, split, *args, **kwargs)
    monkeypatch.setattr(training, "train", train_noting_the_thread)
    assert cli.main(["train-all", *data_args(workdir), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    pids, on_main = zip(*(notes.joinpath(dom).read_text().split()
                          for dom in ("dom00", "dom01", "dom02")))
    assert [flag == "True" for flag in on_main] == [False] * 3
    assert str(os.getpid()) not in pids
    assert len(set(pids)) == workers  # each worker is handed a hold-out first


def test_train_all_side_by_side_in_a_fresh_process_under_warnings_as_errors(workdir,
                                                                            tmp_path):
    # Python 3.12 warns when a process with a second thread alive forks, and a
    # worker that wrote to the streams itself would add to or reorder them.
    # One run is pinned to one CPU, so one worker trains the hold-outs in
    # turn; the other runs side by side where the affinity mask has two CPUs.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    one_cpu = ("import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "runpy.run_module('driftbench.cli', run_name='__main__', alter_sys=True)")
    runs = {}
    for cpus, entry in (("one", ["-c", one_cpu]), ("all", ["-m", "driftbench.cli"])):
        cwd = tmp_path / cpus  # --out-dir is relative: stdout names it
        cwd.mkdir()
        result = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", *entry,
             "train-all", *data_args(workdir), "--epochs", "2", "--batch", "16",
             "--hidden1", "8", "--hidden2", "4", "--seed", "3", "-v", "--out-dir", "runs"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
        assert result.returncode == 0, result.stderr
        files = {p.name: p.read_bytes() for p in (cwd / "runs").iterdir()}
        runs[cpus] = (result.stdout, result.stderr.splitlines(), files)
    (out1, err1, files1), (out2, err2, files2) = runs["one"], runs["all"]
    assert out2 == out1
    assert sorted(err2) == err1  # completion order side by side, hold-out order alone
    assert [line.split()[1] for line in err1] == ["dom00", "dom01", "dom02"]
    for line in err1:
        assert re.fullmatch(r"train-all: dom0\d top1 \d+\.\d\d%", line), line
    assert files2 == files1


def test_interrupt_stops_a_one_at_a_time_train_all_at_once(workdir, tmp_path):
    # ^C while dom00 trains: the parent kills its worker and exits, and no
    # later hold-out starts. dom00 waits for a file that is written only
    # once the process has ended, so no timing decides the outcome.
    started, go, out_dir = tmp_path / "started", tmp_path / "go", tmp_path / "runs"
    script = "\n".join([
        "import os, sys, time",
        "from pathlib import Path",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # one CPU: one worker",
        "from driftbench import cli, training",
        "real_train = training.train",
        "def train(data, split, *args, **kwargs):",
        "    if split.held_out_domain == 'dom00':",
        "        Path(sys.argv[1] + '.tmp').write_text(str(os.getpid()))",
        "        os.replace(sys.argv[1] + '.tmp', sys.argv[1])  # whole, once it exists",
        "        while not Path(sys.argv[2]).exists():",
        "            time.sleep(0.01)",
        "    return real_train(data, split, *args, **kwargs)",
        "training.train = train",
        "sys.exit(cli.main(sys.argv[3:]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(started), str(go), "train-all",
         *data_args(workdir), "--epochs", "1", "--hidden1", "8", "--hidden2", "4",
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists(), proc.poll()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)  # raises unless the run ends by then
    finally:
        go.touch()
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert out == "" and "KeyboardInterrupt" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["split_dom00.tsv"]
    with pytest.raises(ProcessLookupError):  # the worker was killed and reaped
        os.kill(int(started.read_text()), 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_train_all_scores_each_hold_out_once_on_its_checkpoint(workdir, tmp_path, workers,
                                                               monkeypatch, capsys):
    # each hold-out's report is eval of the checkpoint it wrote: one evaluate
    # call, once training has ended and the checkpoint exists, none from keep.
    # The workers are forked, so the calls are logged to a file.
    monkeypatch.setattr(parallel, "WORKERS", workers)
    real_train, real_evaluate = training.train, training.evaluate
    log, runs, keeping = tmp_path / "calls.log", tmp_path / "runs", []

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def train(data, split, config, keep, **kwargs):
        def noted_keep(params):
            keeping.append(True)
            keep(params)
            keeping.pop()
        history = real_train(data, split, config, noted_keep, **kwargs)
        note(f"{split.held_out_domain} trained")
        return history

    def evaluate(params, data, ids):
        domain = data.row_domains[data.row_of[ids[0]]]
        written = (runs / f"ckpt_{domain}.emlp").exists()
        note(f"{domain} evaluated in_keep={bool(keeping)} checkpoint={written}")
        return real_evaluate(params, data, ids)
    monkeypatch.setattr(training, "train", train)
    monkeypatch.setattr(training, "evaluate", evaluate)
    assert cli.main(["train-all", *data_args(workdir), "--epochs", "3", "--hidden1", "8",
                     "--hidden2", "4", "--out-dir", str(runs)]) == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    for domain in ("dom00", "dom01", "dom02"):
        assert [line for line in lines if line.startswith(domain)] == [
            f"{domain} trained", f"{domain} evaluated in_keep=False checkpoint=True"]


def test_train_all_frees_each_hold_outs_weights_before_the_next(workdir, tmp_path,
                                                                monkeypatch, capsys):
    # at the paper widths one set of weights is 25 MB: a serial run that kept
    # the last hold-out's while training the next would peak that much higher.
    # One worker process trains the hold-outs in turn; it logs its pid and
    # the weights alive as each starts.
    monkeypatch.setattr(parallel, "WORKERS", 1)
    real_train, trained, log = training.train, [], tmp_path / "alive.log"

    def train_counting_live_weights(data, split, config, keep, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {sum(ref() is not None for ref in trained)}\n")

        def keep_noting_the_weights(params):
            trained.append(weakref.ref(params))
            keep(params)
        return real_train(data, split, config, keep_noting_the_weights, **kwargs)
    monkeypatch.setattr(training, "train", train_counting_live_weights)
    assert cli.main(["train-all", *data_args(workdir), "--epochs", "1",
                     "--hidden1", "8", "--hidden2", "4", "--out-dir", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    pids, alive = zip(*(line.split() for line in log.read_text().splitlines()))
    assert len(set(pids)) == 1 and str(os.getpid()) not in pids
    assert alive == ("0", "0", "0")


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    for sub in ("one", "two"):
        d = tmp_path / sub
        assert cli.main(["synth", *SYNTH_ARGS, "--seed", "5",
                         "--out-dir", str(d / "data")]) == 0
        assert cli.main(["score", "--manifest", str(d / "data" / "manifest.jsonl"),
                         "--features", str(d / "data" / "features.egf"),
                         "--k-clusters", "6", "--seed", "5",
                         "--out-dir", str(d / "score")]) == 0
    capsys.readouterr()
    for rel in ("data/manifest.jsonl", "data/features.egf",
                "score/shift_report.csv", "score/shift_report.json"):
        a = (tmp_path / "one" / rel).read_bytes()
        b = (tmp_path / "two" / rel).read_bytes()
        assert a == b, rel


def test_synth_offset_flag(tmp_path, capsys):
    out_dir = tmp_path / "off"
    code = cli.main(["synth", *SYNTH_ARGS, "--seed", "0",
                     "--offset", "dom01=2.5", "--out-dir", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    man = load_manifest(out_dir / "manifest.jsonl")
    feats = load_feature_pack(out_dir / "features.egf")
    base_man, base_feats = generate(
        SyntheticSpec(n_domains=3, n_classes=3, samples_per_cell=6,
                      feature_dim=8, noise_scale=0.5), seed=0)
    assert man.records == base_man.records
    moved = np.array([r.domain == "dom01" for r in man.records])
    assert feats.values[~moved].tobytes() == base_feats.values[~moved].tobytes()
    assert feats.values[moved].tobytes() != base_feats.values[moved].tobytes()

    code = cli.main(["synth", *SYNTH_ARGS, "--offset", "dom01",
                     "--out-dir", str(tmp_path / "bad")])
    assert code == 1
    assert "bad --offset" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--offset", "dom01=nan"], "offset for 'dom01' is not finite"),
    (["--offset", "dom01=inf"], "offset for 'dom01' is not finite"),
    (["--sep", "nan"], "class_separation must be finite, got nan"),
    (["--noise", "inf"], "noise_scale must be finite, got inf"),
    (["--offset", "dom01=1", "--offset", "dom01=5"], "--offset given twice for 'dom01'"),
])
def test_synth_refuses_bad_values_before_writing(tmp_path, flags, message, capsys):
    out_dir = tmp_path / "bad"
    code = cli.main(["synth", *SYNTH_ARGS, *flags, "--out-dir", str(out_dir)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"driftbench: error: synth: {message}\n"
    assert not (out_dir / "manifest.jsonl").exists()

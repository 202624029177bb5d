"""End-to-end command-line behavior: exit codes, files, and messages."""
import json

import numpy as np
import pytest

from driftbench import cli
from driftbench.dataset import FeatureSet, load_feature_pack, load_manifest, write_feature_pack
from driftbench.mlp import init_params, save_checkpoint
from driftbench.synth import SyntheticSpec, generate

SYNTH_ARGS = ["--domains", "3", "--classes", "3", "--per-cell", "6",
              "--dim", "8", "--noise", "0.5"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("DRIFTBENCH_SEED", raising=False)
    monkeypatch.delenv("DRIFTBENCH_THREADS", raising=False)


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
    write_feature_pack(FeatureSet(len(rows), full.temporal_count, full.feature_dim,
                                  full.values[rows]), compact_pack)
    compact = [json.dumps({**obj, "row_index": i}) for i, obj in enumerate(kept)]
    assert subset == _score_bytes(tmp_path, "compact", compact, compact_pack)


def test_splits_command(workdir, capsys):
    out = workdir / "split_dom01.tsv"
    code = cli.main(["splits", *data_args(workdir)[:2], "--hold-out", "dom01",
                     "--seed", "0", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("splits: hold-out dom01, train ")
    roles = [l.split("\t")[1] for l in out.read_text().strip().splitlines()]
    assert roles.count("test") == 18


def test_splits_unknown_domain(workdir, capsys):
    code = cli.main(["splits", *data_args(workdir)[:2], "--hold-out", "mars"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "driftbench: error: splits: unknown domain 'mars'")


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


def test_train_all_output_does_not_depend_on_threads(workdir, capsys):
    args = data_args(workdir)
    files = {}
    for threads in ("1", "2", "3"):
        out_dir = workdir / f"trainall_threads{threads}"
        assert cli.main(["train-all", *args, "--epochs", "2", "--batch", "16",
                         "--drop-prob", "0.5", "--hidden1", "8", "--hidden2", "4",
                         "--seed", "3", "--threads", threads,
                         "--out-dir", str(out_dir)]) == 0
        files[threads] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(files["1"]) == 3 * 4 + 1  # split, ckpt, history, eval per domain
    assert files["1"] == files["2"] == files["3"]

    score_dir = workdir / "score_threads"
    assert cli.main(["score", *args, "--k-clusters", "6", "--seed", "0",
                     "--out-dir", str(score_dir)]) == 0
    correlations = []
    for threads in ("1", "2"):
        out_dir = workdir / f"trainall_threads{threads}"
        corr_out = workdir / f"correlation_threads{threads}.json"
        assert cli.main(["correlate",
                         "--shift-report", str(score_dir / "shift_report.json"),
                         *[arg for dom in ("dom00", "dom01", "dom02")
                           for arg in ("--eval-report", str(out_dir / f"eval_{dom}.json"))],
                         "--out", str(corr_out)]) == 0
        correlations.append(corr_out.read_bytes())
    capsys.readouterr()
    assert correlations[0] == correlations[1]


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


def test_correlate_domain_mismatch(workdir, capsys):
    args = data_args(workdir)
    score_dir = workdir / "score"
    out_dir = workdir / "trainall"
    if not (score_dir / "shift_report.json").exists() \
            or not (out_dir / "eval_dom00.json").exists():
        pytest.skip("needs artifacts from earlier CLI runs")
    code = cli.main(["correlate",
                     "--shift-report", str(score_dir / "shift_report.json"),
                     "--eval-report", str(out_dir / "eval_dom00.json"),
                     "--out", str(workdir / "bad_corr.json")])
    assert code == 1
    assert "domain mismatch" in capsys.readouterr().err


def test_eval_with_ids_file(workdir, capsys):
    args = data_args(workdir)
    ckpt = workdir / "pipe_model.emlp"
    if not ckpt.exists():
        pytest.skip("needs the checkpoint from the pipeline test")
    ids = workdir / "some_ids.txt"
    man = load_manifest(workdir / "data" / "manifest.jsonl")
    ids.write_text("\n".join(r.clip_id for r in man.records[:10]) + "\n")
    out = workdir / "ids_eval.json"
    assert cli.main(["eval", *args, "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["n_evaluated"] == 10

    ids.write_text("ghost-clip\n")
    assert cli.main(["eval", *args, "--checkpoint", str(ckpt),
                     "--ids", str(ids), "--out", str(out)]) == 1
    assert "unknown clip id" in capsys.readouterr().err


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


def test_seed_flag_beats_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTBENCH_SEED", "7")
    out_dir = tmp_path / "env_synth"
    assert cli.main(["synth", *SYNTH_ARGS, "--seed", "3",
                     "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    got = load_feature_pack(out_dir / "features.egf")
    spec = SyntheticSpec(n_domains=3, n_classes=3, samples_per_cell=6,
                         feature_dim=8, noise_scale=0.5)
    _, want_flag = generate(spec, seed=3)
    assert got.values.tobytes() == want_flag.values.tobytes()


def test_seed_env_used_without_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTBENCH_SEED", "7")
    out_dir = tmp_path / "env_synth"
    assert cli.main(["synth", *SYNTH_ARGS, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    got = load_feature_pack(out_dir / "features.egf")
    spec = SyntheticSpec(n_domains=3, n_classes=3, samples_per_cell=6,
                         feature_dim=8, noise_scale=0.5)
    _, want_env = generate(spec, seed=7)
    assert got.values.tobytes() == want_env.values.tobytes()


def test_bad_environment_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DRIFTBENCH_SEED", "abc")
    code = cli.main(["synth", *SYNTH_ARGS, "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "DRIFTBENCH_SEED must be an integer" in capsys.readouterr().err

    monkeypatch.delenv("DRIFTBENCH_SEED")
    monkeypatch.setenv("DRIFTBENCH_THREADS", "0")
    code = cli.main(["synth", *SYNTH_ARGS, "--out-dir", str(tmp_path / "y")])
    assert code == 1
    assert "threads must be >= 1" in capsys.readouterr().err


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

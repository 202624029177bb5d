"""Command-line entry point.

Subcommands wire the library modules into file-in, file-out pipelines.
Every command writes its results to files and prints a single summary
line to stdout; errors come out as one line on stderr. Exit codes:
0 success, 1 pipeline error, 2 usage error.

A command loads only the modules it runs: the module level imports the
standard library, NumPy and `dataset`, each handler imports the rest, and
`main` builds the arguments of the one command it runs (`build_parser()`
with no argument builds them all). So `score` never loads the training
modules, and `synth` neither those nor the clustering ones.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset

PROG = "driftbench"

# At tau = 2 a lone outlier among coincident groups ranks first only when
# there are more groups than this (the closed form is in the README).
SMALL_G = 6


def __getattr__(name: str):
    """`save_checkpoint` and `load_checkpoint` of mlp, imported on first use.

    Handlers call them through this module's attribute (`_this()`), so a
    wrapper set on `cli.save_checkpoint` is what they run.
    """
    if name in ("save_checkpoint", "load_checkpoint"):
        from . import mlp
        return getattr(mlp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _this():
    """This module as callers see it: `__main__` under `python -m`."""
    return sys.modules[__name__]


def _load_manifest(args: argparse.Namespace, n_rows: int | None = None):
    """The manifest, remapped by --category-map if given; rows checked < n_rows."""
    manifest = dataset.load_manifest(args.manifest, n_rows=n_rows)
    if args.category_map:
        mapping = dataset.load_category_mapping(args.category_map)
        manifest = dataset.apply_category_mapping(manifest, mapping)
    return manifest


def _load_inputs(args: argparse.Namespace):
    features = dataset.load_feature_pack(args.features)
    return _load_manifest(args, n_rows=features.n_clips), features


# ---------------------------------------------------------------- handlers

def _cmd_validate(args) -> str:
    if args.features:
        manifest, features = _load_inputs(args)
    else:
        manifest, features = _load_manifest(args), None
    parts = [f"{len(manifest)} clips", f"{len(manifest.domains)} domains",
             f"{len(manifest.categories)} categories"]
    summary: dict = {
        "n_clips": len(manifest),
        "domains": list(manifest.domains),
        "categories": list(manifest.categories),
    }
    if features is not None:
        parts.append(f"features {features.n_clips}x{features.temporal_count}"
                     f"x{features.feature_dim} ok")
        summary["feature_shape"] = [features.n_clips, features.temporal_count,
                                    features.feature_dim]
    if args.out:
        dataset.write_json(summary, args.out)
        parts.append(f"wrote {args.out}")
    return "validate: " + ", ".join(parts)


def _cmd_score(args) -> str:
    from . import shift_metric
    manifest, features = _load_inputs(args)
    # Rows in pack order, so the report depends on which rows the manifest
    # names, not on the order of its lines.
    records = sorted(manifest.records, key=lambda r: r.row_index)
    rows = [r.row_index for r in records]
    X = dataset.pool_temporal(features, args.pool)
    if rows != list(range(len(X))):  # a manifest naming every row in order needs no copy
        X = X[rows]
    report = shift_metric.score_dataset(
        X, records, k_clusters=args.k_clusters,
        seed=args.seed, mode=args.grouping, tau=args.tau)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "shift_report.csv"
    json_path = out_dir / "shift_report.json"
    shift_metric.write_shift_report_csv(report, csv_path)
    shift_metric.write_shift_report_json(report, json_path)
    if len(report.groups) <= SMALL_G:
        print(f"{PROG}: note: score: {len(report.groups)} groups; with {SMALL_G} or "
              "fewer the top score need not mark the most shifted group "
              "(see README, shift scoring)", file=sys.stderr)
    top = report.groups[0]
    return (f"score: {len(report.groups)} groups, top {top.label} "
            f"omega={top.score:.6f}, wrote {csv_path} {json_path}")


def _cmd_splits(args) -> str:
    from . import splits
    manifest = _load_manifest(args)
    split = splits.build_lodo_split(
        manifest, args.hold_out, val_fraction=args.val_fraction, seed=args.seed)
    out = Path(args.out) if args.out else Path(f"split_{args.hold_out}.tsv")
    splits.write_split_file(split, out)
    return (f"splits: hold-out {args.hold_out}, train {len(split.train_ids)} "
            f"val {len(split.val_ids)} test {len(split.test_ids)}, wrote {out}")


def _best_epoch_line(history) -> str:
    from . import training
    if not history:
        return "no epoch ran, kept the initial weights"
    best = training.best_epoch(history)
    if best is None:
        return f"no val set, kept epoch {len(history)}"
    return f"best val top1 {best.val_top1:.2f}% at epoch {best.epoch}/{len(history)}"


def _train_config(args):
    """The training flags at --seed; a bad one raises here."""
    from . import training
    return training.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
        drop_prob=args.drop_prob, seed=args.seed)


def _fit(args, data, split, config, checkpoint, history_path):
    """Train on split with config and the width flags, save the checkpoint and history."""
    from . import training
    params, history = training.train(
        data, split, config, hidden1=args.hidden1, hidden2=args.hidden2)
    _this().save_checkpoint(params, checkpoint)
    training.write_history_csv(history, history_path)
    return params, history


def _evaluate(params, data, ids, split_id: str, out):
    """Evaluate params on ids and write the report, labelled split_id."""
    from . import training
    report = training.evaluate(params, data, ids)
    report.split_id = split_id
    training.write_eval_report(report, out)
    return report


def _cmd_train(args) -> str:
    from . import splits, training
    manifest, features = _load_inputs(args)
    data = training.TrainingData.from_features(manifest, features, pool_mode=args.pool)
    split = splits.read_split_file(args.split, manifest)
    history_path = args.history or f"{args.out}.history.csv"
    _, history = _fit(args, data, split, _train_config(args), args.out, history_path)
    return (f"train: {_best_epoch_line(history)}, "
            f"wrote {args.out} {history_path}")


def _read_id_file(path: str | Path, known) -> list[str]:
    """Clip ids, one per line, each in known; a repeated id is refused."""
    def parse(line: str) -> tuple[str, None]:
        cid = line.strip()
        if cid not in known:
            raise ValueError(f"unknown clip id {cid!r}")
        return cid, None

    ids = dataset.read_lines(path, parse, "clip id")[0]
    if not ids:
        raise ValueError(f"{Path(path)}: no clip ids found")
    return list(ids)


def _cmd_eval(args) -> str:
    from . import splits, training
    manifest, features = _load_inputs(args)
    data = training.TrainingData.from_features(manifest, features, pool_mode=args.pool)
    params = _this().load_checkpoint(args.checkpoint)
    if args.ids:
        ids = _read_id_file(args.ids, data.row_of)
        split_id = str(args.ids)
    else:
        split = splits.read_split_file(args.split, manifest)
        ids = list(getattr(split, f"{args.role}_ids"))
        split_id = f"{args.split}:{args.role}"
    try:
        report = _evaluate(params, data, ids, split_id, args.out)
    except training.ModelMismatch as exc:
        raise ValueError(f"{args.checkpoint}: {exc}") from None
    return (f"eval: top1 {report.overall_top1:.2f}% over {report.n_evaluated} "
            f"clips, wrote {args.out}")


class _JsonObject(dict):
    """A parsed JSON object that keeps its pairs too, a repeated key included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _read_values(path: str, field: str, noun: str, items) -> dict[str, float]:
    """{name: number} from one field of a JSON report; items(field) yields the pairs.

    A file that is not JSON, or whose field is missing or malformed, is one
    error naming the file. A name given twice, or whose value is not a
    finite number (a bool, a string, NaN, +-Infinity), is one error naming
    the file and the name.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_JsonObject)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not JSON: {exc}") from None
    values: dict[str, float] = {}
    try:
        for name, value in items(obj[field]):
            if name in values:
                raise ValueError(f"{path}: {noun} {name!r} appears twice")
            if type(value) not in (int, float) or not math.isfinite(value):  # bool is no int
                raise ValueError(f"{path}: {noun} {name!r} has {json.dumps(value)}, "
                                 "not a finite number")
            values[name] = float(value)
    except (TypeError, KeyError, AttributeError, OverflowError):
        raise ValueError(f"{path}: expected a JSON object with a well-formed "
                         f"{field!r}") from None
    return values


def _cmd_correlate(args) -> str:
    from . import analysis
    scores = _read_values(args.shift_report, "groups", "group",
                          lambda groups: ((g["group"], g["score"]) for g in groups))
    accuracies: dict[str, float] = {}
    for path in args.eval_report:
        for domain, acc in _read_values(path, "per_domain", "domain",
                                        lambda per_domain: per_domain.pairs).items():
            if domain in accuracies and accuracies[domain] != acc:
                raise ValueError(
                    f"conflicting accuracies for domain {domain!r} across eval reports")
            accuracies[domain] = acc
    result = analysis.correlate_shift_accuracy(scores, accuracies)
    payload = {
        "n_points": len(result.pairs),
        "pairs": [{"domain": d, "score": s, "accuracy": a} for d, s, a in result.pairs],
        "pearson": result.pearson,
        "spearman": result.spearman,
    }
    dataset.write_json(payload, args.out)
    return (f"correlate: spearman {result.spearman:+.3f} pearson "
            f"{result.pearson:+.3f} over {len(result.pairs)} domains, wrote {args.out}")


def _parse_offsets(pairs: list[str], dim: int) -> dict[str, np.ndarray]:
    from . import synth
    offsets: dict[str, np.ndarray] = {}
    for item in pairs:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --offset {item!r}, expected <domain>=<norm>")
        try:
            norm = float(raw)
        except ValueError:
            raise ValueError(f"bad --offset norm {raw!r} for {name!r}") from None
        if norm < 0:
            raise ValueError(f"offset norm must be >= 0, got {norm}")
        if name in offsets:
            raise ValueError(f"--offset given twice for {name!r}")
        offsets[name] = synth.unit_direction(dim, name) * norm
    return offsets


def _cmd_synth(args) -> str:
    from . import synth
    spec = synth.SyntheticSpec(
        n_domains=args.domains, n_classes=args.classes,
        samples_per_cell=args.per_cell, feature_dim=args.dim,
        class_separation=args.sep, noise_scale=args.noise,
        domain_offsets=_parse_offsets(args.offset, args.dim))
    manifest, features = synth.generate(spec, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    pack_path = out_dir / "features.egf"
    dataset.write_manifest(manifest, manifest_path)
    dataset.write_feature_pack(features, pack_path)
    return (f"synth: {len(manifest)} clips over {args.domains} domains x "
            f"{args.classes} classes, wrote {manifest_path} {pack_path}")


def _cmd_check_fixtures(args) -> str:
    from . import analysis
    rows = analysis.check_table3_consistency()
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"check-fixtures: {row.domain}: computed {row.computed:.2f} "
              f"published {row.published:.2f} {status}")
    rho = analysis.fixture_spearman()
    n_fail = sum(not r.passed for r in rows)
    if args.out:
        payload = {
            "rows": [{"domain": r.domain, "computed": r.computed,
                      "published": r.published, "passed": r.passed}
                     for r in rows],
            "spearman": rho,
        }
        dataset.write_json(payload, args.out)
    if n_fail:
        raise ValueError(f"{n_fail} fixture row(s) failed the mu + 2*sigma check")
    return (f"check-fixtures: {len(rows)} rows pass, "
            f"score-accuracy spearman {rho:+.3f}")


def _cmd_train_all(args) -> str:
    from . import mlp, parallel, splits, training
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    manifest, features = _load_inputs(args)
    data = training.TrainingData.from_features(manifest, features, pool_mode=args.pool)
    lodo = splits.build_all_lodo_splits(
        manifest, val_fraction=args.val_fraction, seed=args.seed)
    # refuse a bad flag here, not in a worker once hold-outs have written files
    config = _train_config(args)
    mlp.tensor_shapes((data.X.shape[1], args.hidden1, args.hidden2, data.n_classes))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    domains = list(lodo)
    accuracies = dict.fromkeys(domains, 0.0)  # in hold-out order, whatever order they end in

    def train_hold_out(index: int) -> float:
        domain = domains[index]
        split = lodo[domain]
        splits.write_split_file(split, out_dir / f"split_{domain}.tsv")
        params, _ = _fit(args, data, split, replace(config, seed=args.seed + index),
                         out_dir / f"ckpt_{domain}.emlp", out_dir / f"history_{domain}.csv")
        report = _evaluate(params, data, split.test_ids, f"lodo:{domain}",
                           out_dir / f"eval_{domain}.json")
        return report.overall_top1

    def hold_out_done(index: int, top1: float) -> None:
        if args.verbose:
            print(f"train-all: {domains[index]} top1 {top1:.2f}%", file=sys.stderr)
        accuracies[domains[index]] = top1

    # Side by side only where no step splits, one worker process per CPU:
    # small steps hold the GIL, so hold-outs on threads barely overlap.
    # Else one worker trains them one at a time, its steps on every CPU.
    step_parts = max(parallel.gemm_parts(args.batch, data.X.shape[1], args.hidden1),
                     parallel.gemm_parts(args.batch, args.hidden1, args.hidden2))
    workers = min(parallel.WORKERS, len(domains)) if args.threads > 1 and step_parts == 1 else 1
    parallel.run_forked(train_hold_out, len(domains), workers, hold_out_done)
    acc_path = out_dir / "accuracies.json"
    dataset.write_json(accuracies, acc_path)
    mean_acc = float(np.mean(list(accuracies.values())))
    return (f"train-all: {len(accuracies)} hold-outs, mean top1 {mean_acc:.2f}%, "
            f"wrote {acc_path}")


# ------------------------------------------------------------------ parser
# One argument function per command; each imports the defaults it shows
# from the module that owns them.

def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _add_category_map(p: argparse.ArgumentParser) -> None:
    p.add_argument("--category-map", default=None,
                   help="two-column TSV remapping fine labels to categories")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    _add_category_map(p)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    from .mlp import DEFAULT_HIDDEN1, DEFAULT_HIDDEN2
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--drop-prob", type=float, default=0.9)
    p.add_argument("--hidden1", type=int, default=DEFAULT_HIDDEN1)
    p.add_argument("--hidden2", type=int, default=DEFAULT_HIDDEN2)
    p.add_argument("--pool", choices=["mean", "flatten"], default="flatten")


def _args_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", default=None)
    _add_category_map(p)
    p.add_argument("--out", default=None, help="optional JSON summary path")


def _args_score(p: argparse.ArgumentParser) -> None:
    from .shift_metric import DEFAULT_K_CLUSTERS, DEFAULT_TAU, GROUPINGS
    _add_inputs(p)
    p.add_argument("--grouping", choices=list(GROUPINGS), default="domain")
    p.add_argument("--k-clusters", type=int, default=DEFAULT_K_CLUSTERS)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--pool", choices=["mean", "flatten"], default="mean")
    p.add_argument("--out-dir", default=".")
    _add_seed(p)


def _args_splits(p: argparse.ArgumentParser) -> None:
    from .splits import DEFAULT_VAL_FRACTION
    p.add_argument("--manifest", required=True)
    _add_category_map(p)
    p.add_argument("--hold-out", required=True, metavar="DOMAIN")
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
    p.add_argument("--out", default=None,
                   help="split file path (default split_<domain>.tsv)")
    _add_seed(p)


def _args_train(p: argparse.ArgumentParser) -> None:
    _add_inputs(p)
    p.add_argument("--split", required=True)
    _add_train_flags(p)
    p.add_argument("--out", required=True, metavar="CHECKPOINT")
    p.add_argument("--history", default=None,
                   help="epoch-stats CSV (default <checkpoint>.history.csv)")
    _add_seed(p)


def _args_train_all(p: argparse.ArgumentParser) -> None:
    from .splits import DEFAULT_VAL_FRACTION
    _add_inputs(p)
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
    _add_train_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="above 1, hold-outs whose steps do not split train side by side, "
                   "one worker process per CPU (default 1: one at a time, in one worker "
                   "process); outputs do not depend on it")
    _add_seed(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="one line per hold-out on stderr")


def _args_eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    _add_inputs(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ids", help="file with one clip id per line")
    group.add_argument("--split", help="split file; evaluates --role ids")
    p.add_argument("--role", choices=["train", "val", "test"], default="test")
    p.add_argument("--pool", choices=["mean", "flatten"], default="flatten")
    p.add_argument("--out", required=True, metavar="REPORT_JSON")


def _args_correlate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shift-report", required=True, metavar="JSON")
    p.add_argument("--eval-report", required=True, action="append",
                   metavar="JSON", help="repeatable; per-domain accuracies "
                   "are merged across reports")
    p.add_argument("--out", default="correlation.json")


def _args_synth(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domains", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-cell", type=int, required=True,
                   help="samples per (domain, class) cell")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sep", type=float, default=4.0,
                   help="class mean separation")
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--offset", action="append", default=[],
                   metavar="DOMAIN=NORM",
                   help="repeatable; inject a covariate offset of the given "
                   "norm for one domain")
    p.add_argument("--out-dir", required=True)
    _add_seed(p)


def _args_check_fixtures(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="optional JSON results path")


# command -> (help line, argument function, handler), in --help order
_PARSERS = {
    "validate": ("check a manifest and feature pack", _args_validate, _cmd_validate),
    "score": ("cluster features and report shift scores", _args_score, _cmd_score),
    "splits": ("build one leave-one-domain-out split", _args_splits, _cmd_splits),
    "train": ("train the two-layer model on one split", _args_train, _cmd_train),
    "train-all": ("train and evaluate every hold-out domain", _args_train_all,
                  _cmd_train_all),
    "eval": ("evaluate a checkpoint on chosen clips", _args_eval, _cmd_eval),
    "correlate": ("rank-correlate shift scores with accuracies", _args_correlate,
                  _cmd_correlate),
    "synth": ("generate a synthetic benchmark dataset", _args_synth, _cmd_synth),
    "check-fixtures": ("verify the published-table fixtures", _args_check_fixtures,
                       _cmd_check_fixtures),
}
COMMANDS = tuple(_PARSERS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command alone (as `main` builds it)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Covariate-shift scoring and leave-one-domain-out "
                    "benchmarking on packed clip features.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_line, add_arguments, handler) in _PARSERS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argv None reads sys.argv.

    With argv None, main runs as the program (`driftbench`, `python -m
    driftbench.cli`) and the process exits next. It then freezes the
    garbage collector's objects first, so that the collections of
    interpreter exit skip every object already alive: with NumPy's random
    module loaded they took about 40 ms of a 300 ms `score`. Every file a
    command writes is closed by the time it returns.
    """
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    gc.freeze()
    return code


def _run(argv: list[str]) -> int:
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"{PROG}: error: unknown subcommand {argv[0]!r} "
              f"(choose from {', '.join(COMMANDS)})", file=sys.stderr)
        return 2
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        summary = args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        msg = " ".join(str(exc).split())
        print(f"{PROG}: error: {args.command}: {msg}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

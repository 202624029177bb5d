"""Command-line entry point.

Subcommands wire the library modules into file-in, file-out pipelines.
Every command writes its results to files and prints a single summary
line to stdout; errors come out as one line on stderr. Exit codes:
0 success, 1 pipeline error, 2 usage error.

Config precedence: flags > DRIFTBENCH_* environment variables > defaults.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, dataset, shift_metric, splits, synth, training
from .mlp import DEFAULT_HIDDEN1, DEFAULT_HIDDEN2, load_checkpoint, save_checkpoint
from .shift_metric import DEFAULT_K_CLUSTERS, DEFAULT_TAU, GroupingMode
from .splits import DEFAULT_VAL_FRACTION
from .training import TrainConfig, TrainingData

PROG = "driftbench"

COMMANDS = ("validate", "score", "splits", "train", "train-all", "eval",
            "correlate", "synth", "check-fixtures")


@dataclass(frozen=True)
class GlobalOptions:
    seed: int
    threads: int
    verbosity: int

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _resolve_options(args: argparse.Namespace) -> GlobalOptions:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _env_int("DRIFTBENCH_SEED")
    if seed is None:
        seed = 0
    threads = getattr(args, "threads", None)
    if threads is None:
        threads = _env_int("DRIFTBENCH_THREADS")
    if threads is None:
        threads = 1
    return GlobalOptions(seed=seed, threads=threads, verbosity=getattr(args, "verbose", 0))


def _note(opts: GlobalOptions, msg: str) -> None:
    if opts.verbosity > 0:
        print(msg, file=sys.stderr)


def _load_manifest(args: argparse.Namespace, n_rows: int | None = None):
    """The manifest, remapped by --category-map if given; rows checked < n_rows."""
    manifest = dataset.load_manifest(args.manifest, n_rows=n_rows)
    if getattr(args, "category_map", None):
        mapping = dataset.load_category_mapping(args.category_map)
        manifest = dataset.apply_category_mapping(manifest, mapping)
    return manifest


def _load_inputs(args: argparse.Namespace):
    features = dataset.load_feature_pack(args.features)
    return _load_manifest(args, n_rows=features.n_clips), features


# ---------------------------------------------------------------- handlers

def _cmd_validate(args, opts: GlobalOptions) -> str:
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
        Path(args.out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        parts.append(f"wrote {args.out}")
    return "validate: " + ", ".join(parts)


def _cmd_score(args, opts: GlobalOptions) -> str:
    manifest, features = _load_inputs(args)
    # Rows in pack order, so the report depends on which rows the manifest
    # names, not on the order of its lines.
    records = sorted(manifest.records, key=lambda r: r.row_index)
    X = dataset.pool_temporal(features, args.pool)[[r.row_index for r in records]]
    report = shift_metric.score_dataset(
        X, records, k_clusters=args.k_clusters,
        seed=opts.seed, mode=GroupingMode(args.grouping), tau=args.tau)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "shift_report.csv"
    json_path = out_dir / "shift_report.json"
    shift_metric.write_shift_report_csv(report, csv_path)
    shift_metric.write_shift_report_json(report, json_path)
    top = report.groups[0]
    return (f"score: {len(report.groups)} groups, top {top.key.label} "
            f"omega={top.score:.6f}, wrote {csv_path} {json_path}")


def _cmd_splits(args, opts: GlobalOptions) -> str:
    manifest = dataset.load_manifest(args.manifest)
    split = splits.build_lodo_split(
        manifest, args.hold_out, val_fraction=args.val_fraction, seed=opts.seed)
    out = Path(args.out) if args.out else Path(f"split_{args.hold_out}.tsv")
    splits.write_split_file(split, out)
    return (f"splits: hold-out {args.hold_out}, train {len(split.train_ids)} "
            f"val {len(split.val_ids)} test {len(split.test_ids)}, wrote {out}")


def _best_epoch_line(history) -> str:
    best = None
    for row in history:
        if np.isnan(row.val_top1):
            continue
        if best is None or row.val_top1 > best.val_top1:
            best = row
    if best is None:
        return f"no val set, kept epoch {len(history)}"
    return f"best val top1 {best.val_top1:.2f}% at epoch {best.epoch}/{len(history)}"


def _cmd_train(args, opts: GlobalOptions) -> str:
    manifest, features = _load_inputs(args)
    data = TrainingData.from_features(manifest, features, pool_mode=args.pool)
    split = splits.read_split_file(args.split, manifest)
    config = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
        drop_prob=args.drop_prob, seed=opts.seed)
    params, history = training.train(
        data, split, config, hidden1=args.hidden1, hidden2=args.hidden2)
    save_checkpoint(params, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    training.write_history_csv(history, history_path)
    return (f"train: {_best_epoch_line(history)}, "
            f"wrote {args.out} {history_path}")


def _read_id_file(path: str | Path) -> list[str]:
    ids = [line.strip() for line in
           Path(path).read_text(encoding="utf-8").splitlines()]
    ids = [i for i in ids if i]
    if not ids:
        raise ValueError(f"{path}: no clip ids found")
    return ids


def _cmd_eval(args, opts: GlobalOptions) -> str:
    manifest, features = _load_inputs(args)
    data = TrainingData.from_features(manifest, features, pool_mode=args.pool)
    params = load_checkpoint(args.checkpoint)
    if args.ids:
        ids = _read_id_file(args.ids)
        split_id = str(args.ids)
    else:
        split = splits.read_split_file(args.split, manifest)
        ids = list(getattr(split, f"{args.role}_ids"))
        split_id = f"{args.split}:{args.role}"
    try:
        report = training.evaluate(params, data, ids)
    except training.ModelMismatch as exc:
        raise ValueError(f"{args.checkpoint}: {exc}") from None
    report.split_id = split_id
    training.write_eval_report(report, args.out)
    return (f"eval: top1 {report.overall_top1:.2f}% over {report.n_evaluated} "
            f"clips, wrote {args.out}")


def _cmd_correlate(args, opts: GlobalOptions) -> str:
    shift_obj = json.loads(Path(args.shift_report).read_text(encoding="utf-8"))
    scores = {g["group"]: float(g["score"]) for g in shift_obj["groups"]}
    accuracies: dict[str, float] = {}
    for path in args.eval_report:
        report = training.read_eval_report(path)
        for domain, acc in report.per_domain.items():
            if domain in accuracies and accuracies[domain] != acc:
                raise ValueError(
                    f"conflicting accuracies for domain {domain!r} across eval reports")
            accuracies[domain] = acc
    spearman_r, pearson_r = analysis.correlate_shift_accuracy(scores, accuracies)
    payload = {
        "n_points": spearman_r.n_points,
        "pairs": [{"domain": d, "score": s, "accuracy": a}
                  for d, s, a in spearman_r.pairs],
        "pearson": pearson_r.coefficient,
        "spearman": spearman_r.coefficient,
    }
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return (f"correlate: spearman {spearman_r.coefficient:+.3f} pearson "
            f"{pearson_r.coefficient:+.3f} over {spearman_r.n_points} domains, "
            f"wrote {args.out}")


def _parse_offsets(pairs: list[str], dim: int) -> dict[str, np.ndarray]:
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
        offsets[name] = synth.unit_direction(dim, name) * norm
    return offsets


def _cmd_synth(args, opts: GlobalOptions) -> str:
    spec = synth.SyntheticSpec(
        n_domains=args.domains, n_classes=args.classes,
        samples_per_cell=args.per_cell, feature_dim=args.dim,
        class_separation=args.sep, noise_scale=args.noise,
        domain_offsets=_parse_offsets(args.offset, args.dim))
    manifest, features = synth.generate(spec, seed=opts.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    pack_path = out_dir / "features.egf"
    dataset.write_manifest(manifest, manifest_path)
    dataset.write_feature_pack(features, pack_path)
    return (f"synth: {len(manifest)} clips over {args.domains} domains x "
            f"{args.classes} classes, wrote {manifest_path} {pack_path}")


def _cmd_check_fixtures(args, opts: GlobalOptions) -> str:
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
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if n_fail:
        raise ValueError(f"{n_fail} fixture row(s) failed the mu + 2*sigma check")
    return (f"check-fixtures: {len(rows)} rows pass, "
            f"score-accuracy spearman {rho:+.3f}")


def _cmd_train_all(args, opts: GlobalOptions) -> str:
    manifest, features = _load_inputs(args)
    data = TrainingData.from_features(manifest, features, pool_mode=args.pool)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_one(item: tuple[int, str]) -> tuple[str, float]:
        index, domain = item
        split = splits.build_lodo_split(
            manifest, domain, val_fraction=args.val_fraction, seed=opts.seed)
        splits.write_split_file(split, out_dir / f"split_{domain}.tsv")
        config = TrainConfig(
            learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
            drop_prob=args.drop_prob, seed=opts.seed + index)
        params, history = training.train(
            data, split, config, hidden1=args.hidden1, hidden2=args.hidden2)
        save_checkpoint(params, out_dir / f"ckpt_{domain}.emlp")
        training.write_history_csv(history, out_dir / f"history_{domain}.csv")
        report = training.evaluate(params, data, split.test_ids)
        report.split_id = f"lodo:{domain}"
        training.write_eval_report(report, out_dir / f"eval_{domain}.json")
        _note(opts, f"train-all: {domain} top1 {report.overall_top1:.2f}%")
        return domain, report.overall_top1

    jobs = list(enumerate(manifest.domains))
    if opts.threads == 1:
        results = [run_one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=opts.threads) as pool:
            results = list(pool.map(run_one, jobs))
    accuracies = dict(results)
    acc_path = out_dir / "accuracies.json"
    acc_path.write_text(
        json.dumps(accuracies, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    mean_acc = float(np.mean(list(accuracies.values())))
    return (f"train-all: {len(jobs)} hold-outs, mean top1 {mean_acc:.2f}%, "
            f"wrote {acc_path}")


# ------------------------------------------------------------------ parser

def _add_common(p: argparse.ArgumentParser, *, seed: bool = True) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: DRIFTBENCH_SEED or 0)")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="progress notes on stderr")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--category-map", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Covariate-shift scoring and leave-one-domain-out "
                    "benchmarking on packed clip features.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a manifest and feature pack")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--category-map", default=None,
                   help="two-column TSV remapping fine labels to categories")
    p.add_argument("--out", default=None, help="optional JSON summary path")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("score", help="cluster features and report shift scores")
    _add_inputs(p)
    p.add_argument("--grouping", choices=[m.value for m in GroupingMode],
                   default=GroupingMode.DOMAIN.value)
    p.add_argument("--k-clusters", type=int, default=DEFAULT_K_CLUSTERS)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--pool", choices=["mean", "flatten"], default="mean")
    p.add_argument("--out-dir", default=".")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("splits", help="build one leave-one-domain-out split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--hold-out", required=True, metavar="DOMAIN")
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
    p.add_argument("--out", default=None,
                   help="split file path (default split_<domain>.tsv)")
    _add_common(p)
    p.set_defaults(func=_cmd_splits)

    def add_train_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epochs", type=int, default=100)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--batch", type=int, default=128)
        p.add_argument("--drop-prob", type=float, default=0.9)
        p.add_argument("--hidden1", type=int, default=DEFAULT_HIDDEN1)
        p.add_argument("--hidden2", type=int, default=DEFAULT_HIDDEN2)
        p.add_argument("--pool", choices=["mean", "flatten"], default="flatten")

    p = sub.add_parser("train", help="train the two-layer model on one split")
    _add_inputs(p)
    p.add_argument("--split", required=True)
    add_train_flags(p)
    p.add_argument("--out", required=True, metavar="CHECKPOINT")
    p.add_argument("--history", default=None,
                   help="epoch-stats CSV (default <checkpoint>.history.csv)")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-all",
                       help="train and evaluate every hold-out domain")
    _add_inputs(p)
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
    add_train_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="hold-outs trained concurrently (default: "
                   "DRIFTBENCH_THREADS or 1); outputs do not depend on it")
    _add_common(p)
    p.set_defaults(func=_cmd_train_all)

    p = sub.add_parser("eval", help="evaluate a checkpoint on chosen clips")
    p.add_argument("--checkpoint", required=True)
    _add_inputs(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ids", help="file with one clip id per line")
    group.add_argument("--split", help="split file; evaluates --role ids")
    p.add_argument("--role", choices=["train", "val", "test"], default="test")
    p.add_argument("--pool", choices=["mean", "flatten"], default="flatten")
    p.add_argument("--out", required=True, metavar="REPORT_JSON")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("correlate",
                       help="rank-correlate shift scores with accuracies")
    p.add_argument("--shift-report", required=True, metavar="JSON")
    p.add_argument("--eval-report", required=True, action="append",
                   metavar="JSON", help="repeatable; per-domain accuracies "
                   "are merged across reports")
    p.add_argument("--out", default="correlation.json")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
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
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("check-fixtures",
                       help="verify the published-table fixtures")
    p.add_argument("--out", default=None, help="optional JSON results path")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_check_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"{PROG}: error: unknown subcommand {argv[0]!r} "
              f"(choose from {', '.join(COMMANDS)})", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        opts = _resolve_options(args)
        summary = args.func(args, opts)
    except (ValueError, OSError, KeyError) as exc:
        msg = " ".join(str(exc).split())
        print(f"{PROG}: error: {args.command}: {msg}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

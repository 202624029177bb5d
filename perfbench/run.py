"""Benchmark of the driftbench pipeline, run through the public CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload score-k64 --seed 1 --seconds 30 --trace 0

Each CLI command runs as its own `python3 -m driftbench.cli` process on
src/ of the checkout, one at a time, with the BLAS pools pinned to one
thread. Set-up is `driftbench synth` of the inputs of --seed; it runs a
few times before each repeat, and the median of all these runs is setup_s.
The workload's commands (see workloads.py) repeat on those inputs for
about --seconds, and each number is the median over repeats. With
--trace 1, untraced and traced repeats alternate (see tracing.py); the
per-layer numbers come from the traced repeats, and the tracing overhead
is the difference of the two medians. Every repeat must reproduce the
outputs of the first byte for byte.

Every command exit, output check and byte comparison is one operation.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. Lines before it give
every number by name and unit, the environment and the workload's
rationale. The exit code is 0 only when every operation passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import HOLD_OUT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Synth runs this many times before each repeat, so that the set-up samples
# spread over the run: on a shared host the speed drifts over seconds, and
# back-to-back samples would all catch the same phase of that drift.
SETUP_PER_REPEAT = 3
MAX_REPEATS = 50
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every end-to-end number a run prints. BENCHMARK.json gates those that
# every workload has; the others print as n/a where a stage is missing.
REPORTED = (("setup_s", "s"), ("wall_s", "s"), ("score_s", "s"), ("train_s", "s"),
            ("train_samples_per_s", "samples/s"), ("peak_rss_mb", "MiB"),
            ("heldout_top1", "%"), ("failed_ops_ratio", "fraction"))
VERSIONS = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


@dataclass
class Ledger:
    """Operations attempted and failed: commands, output checks, comparisons."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRIFTBENCH_")}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def run_command(args: list[str], log_path: Path,
                spans_path: Path | None = None) -> tuple[float, float, float, int]:
    """Run one CLI command.

    Returns (launch time on the perf_counter clock, wall seconds, its own
    peak RSS in MiB, exit code).
    """
    if spans_path is None:
        argv = [sys.executable, "-m", "driftbench.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *args]
    env = child_env()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss / 1024, proc.returncode


def hash_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def shift_report_ok(path: Path) -> bool:
    """Each group's mu, population sigma and score agree with its distances."""
    report = json.loads(path.read_text(encoding="utf-8"))
    groups = report["groups"]
    for g in groups:
        d = g["distances"]
        if len(d) != len(groups) - 1:
            return False
        mu, sigma = statistics.fmean(d), statistics.pstdev(d)
        if not (_close(g["mu"], mu) and _close(g["sigma"], sigma)
                and _close(g["score"], mu + report["tau"] * sigma)):
            return False
    return len(groups) >= 2


def train_rows(split_path: Path) -> int:
    with open(split_path, encoding="utf-8") as fh:
        return sum(line.rstrip("\n").endswith("\ttrain") for line in fh)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.ledger = Ledger()
        self.setup_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.layers: list[dict[str, float]] = []
        self.inputs: dict[str, str] | None = None  # hashes of the first synth copy
        self.reference: dict[str, str] | None = None  # output hashes of repeat 0
        self.lines: list[str] = []
        (work / "logs").mkdir(parents=True)

    def _exec(self, what: str, args: list[str], spans: Path | None = None):
        log = self.work / "logs" / f"{what.replace(' ', '_')}.log"
        launch, wall, rss, code = run_command(args, log, spans)
        ok = self.ledger.check(f"{what}: exit 0", code == 0)
        if not ok:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print(f"{what} exited {code}:", *tail, sep="\n  ", file=sys.stderr)
        return launch, wall, rss, ok

    def _same_bytes(self, what: str, want: dict[str, str], got: dict[str, str]) -> None:
        for name in sorted(set(want) | set(got)):
            self.ledger.check(f"{what}: {name} byte-identical", want.get(name) == got.get(name))

    @property
    def data(self) -> Path:
        return self.work / "data"

    def setup(self, copies: int) -> bool:
        """Synth the inputs `copies` more times; each must match the first byte for byte."""
        for _ in range(copies):
            i = len(self.setup_s)
            copy = self.work / "setup-copy" if self.inputs else self.data
            _, wall, _, ok = self._exec(f"synth copy {i}", self.w.synth_args(self.seed, copy))
            if not ok:
                return False
            self.setup_s.append(wall)
            if self.inputs is None:
                self.inputs = hash_tree(copy)
            else:
                self._same_bytes(f"synth copy {i}", self.inputs, hash_tree(copy))
                shutil.rmtree(copy, ignore_errors=True)
        return self.ledger.failed == 0

    def repeat(self, index: int, traced: bool) -> bool:
        w, data = self.w, self.data
        # One output path for every repeat: eval reports record their split's path.
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans_of = (lambda tag: self.work / f"spans-{index}-{tag}.json") if traced else (
            lambda tag: None)
        traced_commands = []
        if traced:  # the synth layer, traced; not part of wall_s
            copy = self.work / f"synth-traced-{index}"
            launch, _, _, ok = self._exec(f"repeat {index} synth", w.synth_args(self.seed, copy),
                                          spans_of("synth"))
            if ok:
                traced_commands.append((launch, spans_of("synth")))
                self._same_bytes(f"repeat {index} traced synth", self.inputs, hash_tree(copy))
        stage_s, rss = {}, []
        commands = w.commands(self.seed, data, out)
        for n, (stage, args) in enumerate(commands):
            launch, wall, peak, ok = self._exec(f"repeat {index} {stage}", args, spans_of(stage))
            if not ok:
                for later, _ in commands[n + 1:]:
                    self.ledger.check(f"repeat {index} {later}: skipped", False)
                return False
            stage_s[stage] = wall
            rss.append(peak)
            if traced:
                traced_commands.append((launch, spans_of(stage)))
        score_s = [t for stage, t in stage_s.items() if stage.startswith("score")]
        row = {"wall_s": sum(stage_s.values()), "peak_rss_mb": max(rss),
               "score_s": sum(score_s) if score_s else None, "train_s": None,
               "train_samples_per_s": None, "heldout_top1": None}
        self._check_outputs(index, out, stage_s, row)
        got = hash_tree(out)
        if self.reference is None:
            self.reference = got
        else:
            self._same_bytes(f"repeat {index} vs repeat 0", self.reference, got)
        if traced:
            spans = [(launch, json.loads(path.read_text(encoding="utf-8")))
                     for launch, path in traced_commands]
            self.layers.append(tracing.layer_metrics(spans))
        (self.traced if traced else self.untraced).append(row)
        self.lines.append(
            f"repeat {index}{' traced' if traced else ''}: "
            + ", ".join(f"{s} {t:.3f} s" for s, t in stage_s.items())
            + f"; wall {row['wall_s']:.3f} s, peak {row['peak_rss_mb']:.1f} MiB")
        return True

    def _check_outputs(self, index: int, out: Path, stage_s: dict, row: dict) -> None:
        w = self.w
        for stage in stage_s:
            if not stage.startswith("score"):
                continue
            try:
                ok = shift_report_ok(out / stage / "shift_report.json")
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            self.ledger.check(f"repeat {index} {stage}/shift_report.json: "
                              "score = mu + tau*sigma", ok)
        stage = "train" if "train" in stage_s else "train-all" if "train-all" in stage_s else None
        if stage is None:
            return
        try:
            if stage == "train":
                rows = train_rows(out / f"split_{HOLD_OUT}.tsv")
                top1 = json.loads((out / f"eval_{HOLD_OUT}.json").read_text(
                    encoding="utf-8"))["overall_top1"]
            else:
                rows = sum(train_rows(out / "lodo" / f"split_{d}.tsv") for d in w.domain_names)
                top1 = statistics.fmean(json.loads(
                    (out / "lodo" / "accuracies.json").read_text(encoding="utf-8")).values())
        except (OSError, ValueError, KeyError, TypeError):
            self.ledger.check(f"repeat {index} training outputs readable", False)
            return
        row["train_s"] = stage_s[stage]
        row["heldout_top1"] = top1
        row["train_samples_per_s"] = rows * w.epochs / row["train_s"]
        chance = 100.0 / w.classes
        self.ledger.check(f"repeat {index} heldout_top1 {row['heldout_top1']:.2f}% "
                          f">= 2 x chance {chance:.2f}%", row["heldout_top1"] >= 2 * chance)

    def _keep_going(self, start: float, done: int, minimum: int) -> bool:
        """Start another repeat while it is due to end within --seconds plus half a repeat."""
        if self.ledger.failed or done >= MAX_REPEATS:
            return False
        elapsed = time.perf_counter() - start
        return done < minimum or elapsed + elapsed / done / 2 <= self.seconds

    def run(self, trace: bool) -> None:
        """Set up and repeat, in turn; with tracing, odd repeats are traced."""
        start, done = time.perf_counter(), 0
        while self._keep_going(start, done, minimum=2):
            if not self.setup(SETUP_PER_REPEAT):
                return
            self.repeat(done, traced=trace and done % 2 == 1)
            done += 1
        self.lines.append("synth set-up: " + ", ".join(f"{t:.3f}" for t in self.setup_s) + " s")

    def end_to_end(self) -> dict[str, float | None]:
        rows = self.untraced
        values = {name: median(r[name] for r in rows) for name, _ in REPORTED
                  if name not in ("setup_s", "failed_ops_ratio")}
        values["setup_s"] = median(self.setup_s)
        values["failed_ops_ratio"] = self.ledger.failed / max(1, self.ledger.attempted)
        return values

    def per_layer(self) -> dict[str, float | None]:
        names = set().union(*self.layers) if self.layers else set()
        values = {name: median(layer.get(name, 0.0) for layer in self.layers) for name in names}
        traced_wall = median(r["wall_s"] for r in self.traced)
        untraced_wall = median(r["wall_s"] for r in self.untraced)
        if traced_wall is not None and untraced_wall is not None:
            values["trace.overhead_s"] = traced_wall - untraced_wall
        return values


def environment(seed: int) -> dict:
    env = child_env()
    try:
        proc = subprocess.run([sys.executable, "-c", VERSIONS], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        versions = json.loads(proc.stdout)
    except (subprocess.SubprocessError, ValueError):
        versions = {"versions": "unknown"}
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            **{k: env[k] for k in THREAD_ENV}, **versions}


def report(bench: Bench, trace: bool, spec: dict) -> dict:
    metrics = {}
    if trace:
        values = bench.per_layer()
        declared = spec["per_layer"]
        for m in declared:
            bench.lines.append(f"  {m['name']:<38} {values.get(m['name'], 0.0)!r} {m['unit']}")
    else:
        values = bench.end_to_end()
        declared = spec["end_to_end"]
        for name, unit in REPORTED:
            v = values.get(name)
            shown = f"{v!r} {unit}" if v is not None else f"n/a ({bench.w.name} has no such stage)"
            bench.lines.append(f"  {name:<20} {shown}")
    for m in declared:
        # A layer the workload never calls has no spans: it did no work.
        value = values.get(m["name"], 0.0 if trace else None)
        if value is not None:  # None only when commands failed
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bench.ledger.failed == 0, "attempted": bench.ledger.attempted,
            "failed": bench.ledger.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "driftbench" / "cli.py").is_file():
        print(f"error: no driftbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)


def run(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        print(f"# workload {workload.name}, trace {int(trace)}: {workload.stresses}")
        print(f"# predicted unchanged by: {workload.unchanged_by}")
        print(f"# environment {json.dumps(environment(seed), sort_keys=True)}", flush=True)
        bench = Bench(workload, seed, seconds, work)
        bench.run(trace)
        result = report(bench, trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    for line in bench.lines + [f"failed: {f}" for f in bench.ledger.failures]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

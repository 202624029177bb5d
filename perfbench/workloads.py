"""The benchmark's workloads: sizes, the commands they run, and why.

Each workload is one `driftbench synth` set-up plus a fixed chain of CLI
commands. Sizes live in the dataclass so that the smoke test can shrink
them with `dataclasses.replace`; nothing else about a workload changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HOLD_OUT = "dom01"  # the domain `splits`, `train` and `eval` hold out
LR = 0.01
BATCH = 128
TRAIN_ALL_THREADS = 2  # one per core of a 2-core host; today train-all runs them serially


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]  # timed CLI commands, in order
    domains: int
    classes: int
    per_cell: int
    dim: int
    offsets: tuple[str, ...]  # DOMAIN=NORM pairs for `synth --offset`
    k_clusters: int = 64
    # `score` runs once per k-means start, each start seeded differently, all
    # on the same inputs. Lloyd's iteration count depends on the start, so
    # several starts keep a run's time from resting on one draw.
    starts: int = 1
    hidden1: int = 4096
    hidden2: int = 512
    drop_prob: float = 0.9
    epochs: int = 3
    # Rationale, printed with every run: what the workload stresses and
    # which changes it predicts to leave its numbers unchanged.
    stresses: str = ""
    unchanged_by: str = ""

    @property
    def domain_names(self) -> list[str]:
        return [f"dom{i:02d}" for i in range(self.domains)]

    def synth_args(self, seed: int, data_dir: Path) -> list[str]:
        args = ["synth", "--domains", str(self.domains), "--classes", str(self.classes),
                "--per-cell", str(self.per_cell), "--dim", str(self.dim)]
        for offset in self.offsets:
            args += ["--offset", offset]
        return args + ["--seed", str(seed), "--out-dir", str(data_dir)]

    def commands(self, seed: int, data_dir: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(label, CLI arguments) for every timed command, in run order.

        The label is the stage name; `score` commands are labelled
        `score0`, `score1`, ... by start and write to `out/<label>/`.
        """
        inputs = ["--manifest", str(data_dir / "manifest.jsonl"),
                  "--features", str(data_dir / "features.egf")]
        train_flags = ["--hidden1", str(self.hidden1), "--hidden2", str(self.hidden2),
                       "--drop-prob", str(self.drop_prob), "--lr", str(LR),
                       "--batch", str(BATCH), "--epochs", str(self.epochs)]
        split = out / f"split_{HOLD_OUT}.tsv"
        ckpt = out / f"ckpt_{HOLD_OUT}.emlp"
        argv = {
            "splits": ["splits", "--manifest", str(data_dir / "manifest.jsonl"),
                       "--hold-out", HOLD_OUT, "--seed", str(seed), "--out", str(split)],
            "train": ["train", *inputs, "--split", str(split), *train_flags,
                      "--seed", str(seed), "--out", str(ckpt)],
            "eval": ["eval", "--checkpoint", str(ckpt), *inputs, "--split", str(split),
                     "--role", "test", "--out", str(out / f"eval_{HOLD_OUT}.json")],
            "train-all": ["train-all", *inputs, *train_flags,
                          "--threads", str(TRAIN_ALL_THREADS),
                          "--seed", str(seed), "--out-dir", str(out / "lodo")],
            "correlate": ["correlate", "--shift-report", str(out / "score0" / "shift_report.json"),
                          *[arg for d in self.domain_names
                            for arg in ("--eval-report", str(out / "lodo" / f"eval_{d}.json"))],
                          "--out", str(out / "correlation.json")],
        }
        commands = []
        for stage in self.stages:
            if stage != "score":
                commands.append((stage, argv[stage]))
                continue
            for start in range(self.starts):
                commands.append((f"score{start}", [
                    "score", *inputs, "--k-clusters", str(self.k_clusters),
                    "--grouping", "domain", "--seed", str(seed * self.starts + start),
                    "--out-dir", str(out / f"score{start}")]))
        return commands


WORKLOADS = {w.name: w for w in (
    Workload(
        name="score-k64", stages=("score",),
        domains=8, classes=10, per_cell=24, dim=128, offsets=("dom03=6", "dom06=3"),
        k_clusters=64, starts=10,
        stresses="clustering (assign_nearest E-step, its N*K*D temporary), shift_metric, "
                 "dataset loading",
        unchanged_by="mlp and training changes: it never trains",
    ),
    Workload(
        name="train-paper", stages=("splits", "train", "eval"),
        domains=8, classes=10, per_cell=60, dim=256, offsets=("dom03=6", "dom06=3"),
        hidden1=4096, hidden2=512, drop_prob=0.9, epochs=3,
        stresses="training.adam_step over ~3.2 M parameters, then mlp backward and "
                 "forward GEMMs, checkpoint save and load",
        unchanged_by="clustering and shift_metric changes: it never clusters",
    ),
    Workload(
        name="lodo-desk", stages=("score", "train-all", "correlate"),
        domains=6, classes=6, per_cell=100, dim=64,
        offsets=("dom01=2", "dom03=4", "dom05=8"),
        k_clusters=16, hidden1=256, hidden2=128, drop_prob=0.5, epochs=20,
        stresses="per-call cost of 2,160 small mlp/training steps, dropout, cli train-all "
                 "orchestration, splits, analysis",
        unchanged_by="a K=64 E-step change (K=16 on D=64 is a small share); "
                     "large-step Adam bandwidth changes move it less than train-paper",
    ),
)}

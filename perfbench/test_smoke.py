"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], classes=3, per_cell=12, dim=8, k_clusters=4,
                               hidden1=16, hidden2=8, drop_prob=0.1, epochs=40)


def bench(capsys, name: str, trace: bool):
    code = run.run(tiny(name), seed=3, seconds=0, trace=trace, spec=SPEC)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_has_its_unit(capsys, name):
    code, lines, result = bench(capsys, name, trace=False)
    assert code == 0 and result["correct"] and result["failed"] == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in run.REPORTED:  # the ungated ones print too, by name
        assert any(line.split()[:1] == [metric] for line in lines), metric


def test_every_per_layer_metric_is_measured_somewhere(capsys):
    seen: dict[str, float] = {}
    for name in sorted(WORKLOADS):
        code, lines, result = bench(capsys, name, trace=True)
        assert code == 0 and result["correct"], lines
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
        for k, v in result["metrics"].items():
            seen[k] = seen.get(k, 0.0) or v["value"]
    assert [k for k, v in seen.items() if v == 0] == []


def _corrupt_after(monkeypatch, command: str, mutate) -> None:
    real = run.run_command

    def corrupting(args, log_path, spans_path=None):
        result = real(args, log_path, spans_path)
        if args[0] == command and (command != "train" or spans_path is not None):
            mutate(args)
        return result

    monkeypatch.setattr(run, "run_command", corrupting)


def test_corrupted_shift_report_counts_as_failed_op(capsys, monkeypatch):
    def bump_score(args):
        path = Path(args[args.index("--out-dir") + 1]) / "shift_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["groups"][0]["score"] += 0.5
        path.write_text(json.dumps(report), encoding="utf-8")

    _corrupt_after(monkeypatch, "score", bump_score)
    code, lines, result = bench(capsys, "score-k64", trace=False)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any("shift_report.json" in line and line.startswith("failed:") for line in lines)


def test_corrupted_checkpoint_breaks_byte_identity(capsys, monkeypatch):
    def flip_byte(args):
        path = Path(args[args.index("--out") + 1])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

    _corrupt_after(monkeypatch, "train", flip_byte)  # only in the traced repeat
    code, lines, result = bench(capsys, "train-paper", trace=True)
    assert code == 1 and result["failed"] >= 1
    assert any("ckpt_dom01.emlp byte-identical" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-k64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(10) == 0
    assert tracing.tail_percentile(78) == 87
    assert tracing.tail_percentile(2160) == 99
    for n in (11, 78, 2160):
        rank = -(-tracing.tail_percentile(n) * n // 100)
        assert n - rank >= 10

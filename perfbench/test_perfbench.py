"""Tests of the benchmark itself: its declaration, its output format at tiny
size, the per-layer to end-to-end mapping, and its refusal to run without
the program's sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_declaration_meets_the_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(PER_LAYER) <= 128
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(tracing.MOVES) == set(PER_LAYER)
    bookkeeping = {"trainer.steps", "trace.overhead_frac"}
    for name, targets in tracing.MOVES.items():
        assert targets or name in bookkeeping, name
        for metric, workload in targets:
            assert metric in END_TO_END and workload in WORKLOADS, (name, metric, workload)


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.spans = [["trainer.step", 0.0, 0.010, -1], ["model.encode", 0.001, 0.004, 0],
                ["model.encode", 0.005, 0.006, 0]]
    d = tr.durations_ms()
    assert d["trainer.step"] == pytest.approx([10.0])
    assert d["trainer.step_self"] == pytest.approx([6.0])
    assert d["model.encode"] == pytest.approx([3.0, 1.0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run_bench(workload, 0))["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, m in metrics.items():
        assert m["unit"] == END_TO_END[name]["unit"] and m["value"] > 0, name


def test_tiny_traced_run_reports_every_per_layer_metric():
    metrics = result_of(run_bench(WORKLOADS[0], 1))["metrics"]
    assert set(metrics) == set(PER_LAYER)
    for name, m in metrics.items():
        assert m["unit"] == PER_LAYER[name]["unit"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

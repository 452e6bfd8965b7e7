"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracing import Recorder, Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),
        Span("b", 0, 2.0, 4.0),       # overlaps a: together they cover [1, 4]
        Span("a.inner", 1, 1.5, 2.0),
        Span("c", 0, 6.0, 7.0),
        Span("late", 0, 9.5, 11.0),   # clipped to the parent's end
        Span("other", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 1.5, 2.0, 0.5, 1.0, 1.5, 1.0])


def test_names_units_and_directions_are_well_formed():
    names = [w.name for w in wl.WORKLOADS.values()]
    names += [m.name for m in wl.END_TO_END] + [m.name for m in wl.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 and n[0].isalnum() for n in names), names
    assert len(names) == len(set(names))
    for m in wl.END_TO_END + wl.PER_LAYER:
        assert UNIT.fullmatch(m.unit) and m.better in ("higher", "lower"), m
    assert all(0 < m.bound <= 0.25 for m in wl.END_TO_END)
    setup = next(m for m in wl.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in wl.END_TO_END)
    assert all(m.moves for m in wl.PER_LAYER)


def test_benchmark_json_matches_the_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in wl.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in wl.PER_LAYER]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_recorder_patches_every_binding_and_restores_them():
    from rootrank import aggregation, autodiff, evaluation, network, ranker

    originals = (ranker.build_plan, network.attention_forward, ranker.network_forward,
                 evaluation.train, evaluation.rank_commit, autodiff.matmul, ranker.AdamState.step)
    recorder = Recorder().install()
    try:
        assert ranker.build_plan is aggregation.build_plan is not originals[0]
        assert network.attention_forward is aggregation.attention_forward is not originals[1]
        assert ranker.network_forward is network.network_forward is not originals[2]
        assert evaluation.train is ranker.train is not originals[3]
        assert evaluation.rank_commit is ranker.rank_commit is not originals[4]
        assert autodiff.matmul is autodiff._OPS["matmul"] is not originals[5]
        assert ranker.AdamState.step is not originals[6]
        assert recorder.missing == []
    finally:
        recorder.restore()
    assert (ranker.build_plan, network.attention_forward, ranker.network_forward,
            evaluation.train, evaluation.rank_commit, autodiff.matmul,
            ranker.AdamState.step) == originals
    assert autodiff._OPS["matmul"] is autodiff.matmul


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_reports_every_metric_with_unit_and_direction(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    defs = wl.PER_LAYER if trace == "1" else wl.END_TO_END
    assert list(result["metrics"]) == [m.name for m in defs]
    for m in defs:
        entry = result["metrics"][m.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m.unit
        assert isinstance(entry["value"], float)
        row = next(line for line in lines if line.split()[:1] == [m.name])
        assert m.unit in row.split() and f"({m.better} is better)" in row
    if trace == "0":
        assert all(result["metrics"][m.name]["value"] > 0 for m in defs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "small-commits", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

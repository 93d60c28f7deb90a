"""Tests of the benchmark itself, at toy sizes (a few seconds per workload).

Run with ``python -m pytest servebench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from servebench.__main__ import REPO, SRC, main
from servebench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from servebench.workloads import WORKLOADS

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
TOY = ("--seed", "7", "--seconds", "1", "--scale", "0.1")


def run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "servebench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def printed_with_unit(stdout: str, name: str, unit: str) -> bool:
    """``name value unit`` appears on a human-readable line."""
    return any(
        line.split()[:1] == [name] and line.split()[2:3] == [unit]
        for line in stdout.splitlines()[:-1]
    )


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "-m", "servebench"]
    assert BENCHMARK["paths"] == ["servebench"]
    for workload in BENCHMARK["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_metric_and_answers_correctly(workload):
    proc = run_cli("--workload", workload, "--trace", "1", *TOY)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0 " in proc.stdout
    metrics = result["metrics"]
    assert list(metrics) == list(PER_LAYER_UNITS)
    for name, unit in PER_LAYER_UNITS.items():
        assert metrics[name]["unit"] == unit
        assert printed_with_unit(proc.stdout, name, unit), name
    for name, unit in END_TO_END_UNITS.items():
        assert printed_with_unit(proc.stdout, name, unit), name
    assert "sum of layers" in proc.stdout
    for op in ("right", "left"):
        assert metrics[f"batch.kernel_ms.{op}"]["value"] > 0
    spans = REPO / ".servebench" / "traces" / f"{workload}-seed7.jsonl"
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"id", "name", "parent", "request", "start", "end"} <= set(records[0])
    assert {"server.decode", "batch.kernel", "core.plan_build"} <= {
        r["name"] for r in records
    }


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_cli("--workload", "mvm-k1", "--trace", "0", *TOY)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(END_TO_END_UNITS)
    for name, unit in END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


def test_wrong_expected_answer_is_a_failure(monkeypatch, capsys):
    import servebench.workloads as workloads

    prepare = workloads.prepare
    corrupted = []

    def prepare_with_a_wrong_reference(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        request = next(r for r in prepared.requests if r.op == "left")
        pool = prepared.expected[(request.matrix, request.op)]
        pool[request.slot] = pool[request.slot] + 1.0
        corrupted.append((request.matrix, request.op, request.slot))
        return prepared

    monkeypatch.setattr(workloads, "prepare", prepare_with_a_wrong_reference)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        code = main(["--workload", "mvm-k1", "--trace", "0", *TOY])
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert len(corrupted) == 1


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(
        REPO / "servebench",
        tmp_path / "servebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "servebench", "--workload", "mvm-k1", *TOY,
         "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

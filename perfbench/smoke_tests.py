"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/smoke_tests.py

The file name keeps these tests out of the repository's default test
collection; they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import SpanRecorder

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result_line(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_digests_agree(workload):
    record = run.run_benchmark(workload, seed=3, seconds=0, traced=True, scale="tiny")
    digests = {s["traced"]: s["digest"] for s in record["samples"]}
    assert digests[True] == digests[False]
    metrics = record["result"]["metrics"]
    assert metrics["trace.attributed_frac"]["value"] > 0.5
    if workloads.WORKLOADS[workload].replay:
        assert metrics["data.decode_ratio"]["value"] == 2.0
        assert metrics["chain.execute_s"]["value"] == 0.0
    else:
        assert metrics["chain.executed_tx"]["value"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_tampered_output_counts_as_failed(traced):
    record = run.run_benchmark("hash-exec", seed=0, seconds=0, traced=traced, scale="tiny", tamper=True)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] == 1
    assert record["samples"][0]["problems"]
    if traced:
        assert result["metrics"]["failed_frac"]["value"] == 1 / result["attempted"]


def test_unpinned_tamper_is_outvoted():
    record = run.run_benchmark("hash-exec", seed=5, seconds=0, traced=False, scale="tiny", tamper=True)
    assert [s["ok"] for s in record["samples"]] == [False, True, True]


def test_without_the_program_it_exits_nonzero(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hash-exec", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_excludes_nested_spans():
    recorder = SpanRecorder()
    outer = recorder.begin("epochs")
    recorder.spans[outer][1] = 0.0
    inner = recorder.begin("decode")
    recorder.end(inner)
    recorder.end(outer)
    recorder.spans[inner][1:3] = [1.0, 3.0]
    recorder.spans[outer][2] = 4.0
    assert recorder.self_times() == {"epochs": 2.0, "decode": 2.0}


def test_timed_iter_spans_only_the_producer():
    recorder = SpanRecorder()
    with recorder.span("run"):
        assert list(recorder.timed_iter("decode", iter([1, 2]))) == [1, 2]
    names = [span[0] for span in recorder.spans]
    assert names == ["run", "decode", "decode", "decode"]
    assert all(span[3] == 0 for span in recorder.spans[1:])

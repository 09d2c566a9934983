"""Smoke tests for the benchmark at toy size.

    python3 -m pytest perfbench

Every workload runs traced and untraced on a 2-block, width-32 model, plus
unit tests of the tracer and of comparison mode. The whole file takes
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import compare
from tracing import SPAN_TABLE, Tracer
from workloads import WORKLOADS as WORKLOAD_DEFS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", str(trace), "--scale", "smoke", "--results-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in listed
    }
    (record_file,) = tmp_path.glob("*.json")
    record = json.loads(record_file.read_text())
    assert record["environment"]["harness_threads"] == 1
    blas_threads = WORKLOAD_DEFS[workload].blas_threads
    if blas_threads is not None:
        assert set(record["environment"]["blas_thread_env"].values()) == {str(blas_threads)}
    assert all(record["checks"].values())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert record["detail"]["spans_absent"] == []
        assert metrics["trace.coverage"] >= 0.95
        r = {"desk_r0": 0, "desk_r40": 40, "short_wav_b1": 8}[workload]
        assert (metrics["tome.tokens_removed"] > 0) == (r > 0)
        assert (metrics["kd.self_s"] > 0) == (workload == "short_wav_b1")
    else:
        assert all(v > 0 for v in metrics.values())


def test_all_workloads_one_command(tmp_path):
    proc = run_bench(
        "--workload", "all", "--seed", "2", "--seconds", "0.2",
        "--scale", "smoke", "--results-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]
    }
    printed = {tuple(line.split()[:2] + line.split()[-1:]) for line in proc.stdout.splitlines()}
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert (w, m["name"], m["unit"]) in printed


def test_same_seed_same_counts(tmp_path):
    """Boundary counts repeat exactly from run to run."""
    values = []
    for run in range(2):
        proc = run_bench(
            "--workload", "desk_r40", "--seed", "5", "--seconds", "0.2", "--trace", "1",
            "--scale", "smoke", "--results-dir", str(tmp_path / str(run)),
        )
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        values.append(
            (metrics["tome.tokens_removed"]["value"], metrics["transformer.final_tokens"]["value"])
        )
    assert values[0] == values[1]


def test_without_sources_no_result(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, a run fails and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*", ".*"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_absent_names_and_self_time():
    calls = []

    def inner(x):
        calls.append(x)
        return x

    def outer(x):
        return fake.transformer.attention_batch(x)

    fake = types.SimpleNamespace(
        bench=types.SimpleNamespace(run_inference=outer),
        transformer=types.SimpleNamespace(attention_batch=inner),
    )
    tracer = Tracer()
    tracer.install(vars(fake))
    try:
        tracer.request = 0
        fake.bench.run_inference(types.SimpleNamespace(shape=(2, 7)))
    finally:
        tracer.uninstall()
    assert fake.bench.run_inference is outer and fake.transformer.attention_batch is inner
    present = {"bench.run_inference", "transformer.attention_batch"}
    assert set(tracer.absent) == {f"{m}.{a}" for m, a, _ in SPAN_TABLE} - present
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and inner_span.counts == {"tokens": 14}
    selfs = tracer.self_times()
    outer_total = outer_span.end - outer_span.start
    assert selfs[0] == pytest.approx(outer_total - (inner_span.end - inner_span.start))
    assert len(calls) == 1


def _record(workload, seed, value, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": 0, "attempted": 10, "failed": failed,
        "metrics": {
            m["name"]: {"value": value if m["name"] == "samples_per_s" else 1.0, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        },
    }


def _label(base_values, new_values):
    base = {"w": [_record("w", i, v) for i, v in enumerate(base_values)]}
    new = {"w": [_record("w", i, v) for i, v in enumerate(new_values)]}
    rows = compare.compare(base, new, SPEC)
    return {r["metric"]: r["label"] for r in rows}


def test_compare_labels():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert _label(steady, steady)["samples_per_s"] == "unchanged"
    assert _label(steady, [v * 0.5 for v in steady])["samples_per_s"] == "regressed"
    assert _label(steady, [v * 1.2 for v in steady])["samples_per_s"] == "improved"
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 5.5, 14.5, 10.0, 6.0, 14.0]
    assert _label(noisy, noisy)["samples_per_s"] == "unresolved"
    assert _label(steady, steady)["error_rate"] == "unchanged"

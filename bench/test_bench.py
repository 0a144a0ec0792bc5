"""Smoke tests of the benchmark: every workload, leg and check at reduced size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that must repeat exactly for a given seed.
EXACT = ["mining.domain_size", "model.space_size", "model.nnz", "fitting.sweeps",
         "fitting.evaluations", "fitting.fisher_calls", "baselines.bm_sweeps"]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload, trace, seed=0):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = smoke(workload, trace=0)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_counts_repeat(workload):
    first, second = (smoke(workload, trace=1)["metrics"] for _ in range(2))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == declared
    assert first["trace.missing_wraps"]["value"] == 0
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_wrap_is_flagged_not_raised(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from tracing import Tracer

    tracer = Tracer()
    tracer.wrap("json.no_such_function", "json.missing")
    tracer.wrap("json.dumps", "json.dumps")
    try:
        with tracer.span("outer"):
            json.dumps([1])
    finally:
        tracer.restore()
    assert tracer.missing == ["json.no_such_function"]
    assert [s.name for s in tracer.spans] == ["outer", "json.dumps"]
    assert tracer.spans[1].parent == 0
    assert json.dumps is not None and json.dumps.__module__ == "json"

"""Self-test of the benchmark: every workload at its smoke sizes.

    python3 -m pytest bench

Runs ``run.py --smoke`` through the same code paths as a full run and checks
the printed result against BENCHMARK.json, the result file, and the trace
checks (``run.py`` exits non-zero when a trace check fails).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
ANSWER_KEYS = {"ndofs", "newton_iters", "rungs", "final_residual"}

sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.LAYER_METRICS[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))

    record = json.loads(
        (BENCH / "results" / f"{name}-seed5-trace{trace}-smoke.json").read_text()
    )
    assert record["metrics"] == result["metrics"]
    assert record["environment"]["seed"] == 5
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for rep in record["repetitions"]:
        assert rep["error"] is None
        if "solve.newton" in WORKLOADS[name].layers:
            assert ANSWER_KEYS <= set(rep["answer"])
    if trace:
        spans = record["spans"]
        assert spans and {s["name"] for s in spans} == set(WORKLOADS[name].layers)
        assert all(s["end"] >= s["start"] for s in spans)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if "solve.newton" in WORKLOADS[name].layers:
            assert m["assembly.resjac_calls"] == m["solve.newton_iters"] + m["solve.rungs"]
            assert m["assembly.residual_calls"] == (
                m["solve.newton_iters"] + m["solve.halvings"]
            )


def test_trace_check_fails_on_missing_layer():
    workload = WORKLOADS["visc2d"]
    tracer = tracing.Tracer()
    with tracer.run(1):
        spaces = workload.build(workload.smoke_sizes)
    with pytest.raises(tracing.TraceError, match="layers without spans"):
        tracing.layer_metrics(tracer, 1, workload, {"ndofs": [spaces[0].ndofs]})


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "visc2d", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""The benchmark's own test, on its smoke sizes:

    python3 -m pytest perfbench

Every end-to-end metric is printed with its unit for each workload, the
traced run prints every per-layer metric, a deliberately wrong expected
output fails the run, and a directory without the program's sources is
refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

ROADMAP_NAMES = {
    "verdict": {"verdict_p50_ms": "ms", "verdict_p99_ms": "ms", "verdicts_per_s": "1/s",
                "verdict_requests": "count"},
    "explain": {"explain_p50_ms": "ms", "explain_requests": "count"},
    "pipeline": {"pipeline_s": "s"},
}


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, result


def _printed(lines, name, unit) -> bool:
    return any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc, lines, result = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = {**dict(bench.END_TO_END), **ROADMAP_NAMES[workload], "error_ratio": "ratio"}
    for name, unit in expected.items():
        assert _printed(lines, name, unit), name


def test_traced_run_prints_every_per_layer_metric():
    proc, lines, result = _run(
        "--workload", "verdict", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    units = {name: unit for name, unit, *_ in bench.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert _printed(lines, name, unit), name
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["preprocess.columns_per_verdict"] == 36
    assert values["neuralnet.steps"] > 0 and values["featsel.fitness_calls"] > 0
    assert values["explain.coalitions"] > 0 and values["service.rejected"] > 0


def test_wrong_expected_output_fails_the_run():
    proc, _, result = _run(
        "--workload", "verdict", "--seed", "5", "--seconds", "1", "--smoke", "--fault-check")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in bench.PER_LAYER
    ]


def test_refuses_to_run_without_the_program_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc, _, result = _run("--workload", "verdict", "--seed", "1", "--seconds", "1",
                               cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert result is None

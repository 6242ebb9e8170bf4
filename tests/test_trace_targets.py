"""Every function the traced benchmark wraps, and every config the benchmark
builds, must exist in edysec, so a rename or a removed setting fails here
rather than only in a benchmark run."""

import dataclasses
import importlib

import pytest

from edysec import featsel, pipeline
from edysec.dataset import generate_synthetic
from loaders import perfbench


def test_every_traced_target_resolves():
    tracing = perfbench("tracing")
    for module_name in tracing.MODULES:
        importlib.import_module(f"edysec.{module_name}")
    missing = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"edysec.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"edysec.{module_name}.{attr}")
    assert not missing, f"traced targets missing from edysec: {missing}"


@pytest.mark.parametrize("sizes", ["FULL", "SMOKE"])
def test_benchmark_pipeline_options_build(sizes):
    workloads = perfbench("workloads")
    options = workloads.pipeline_options(41, getattr(workloads, sizes))
    assert isinstance(options, pipeline.PipelineOptions)


# Every settable value of the pipeline, as the artifact's fingerprint records it.
FINGERPRINT_OPTIONS = {
    "ratios", "seed", "alpha", "selectors", "swarm", "baseline", "models", "epochs",
    "batch_size", "learning_rate", "threshold", "stability_mode", "stability_runs", "explain_count",
}
FINGERPRINT_SWARM = {"population", "iterations", "seed"}
FINGERPRINT_BASELINE = {"epochs", "seed"}


def test_fingerprint_options_are_the_settable_fields():
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert names(pipeline.PipelineOptions) == FINGERPRINT_OPTIONS
    assert names(featsel.SwarmConfig) == FINGERPRINT_SWARM
    assert names(featsel.BaselineConfig) == FINGERPRINT_BASELINE
    options = pipeline.PipelineOptions(
        selectors=("anova",), models=("nn",), epochs=2, stability_mode="off", explain_count=0,
        baseline=featsel.BaselineConfig(epochs=2),
    )
    ds = generate_synthetic(80, 2, 2, seed=1)
    recorded = pipeline.run_pipeline(ds, options).artifact.fingerprint["options"]
    assert set(recorded) == FINGERPRINT_OPTIONS
    assert set(recorded["swarm"]) == FINGERPRINT_SWARM
    assert set(recorded["baseline"]) == FINGERPRINT_BASELINE

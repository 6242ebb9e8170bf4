"""Accuracy gate for explained verdicts: default Kernel SHAP on the
benchmark's served artifact against exact Shapley values over all 2^17
coalitions (tests/data/shapley_oracle.json, written by
tests/make_shapley_oracle.py, which also rebuilds the model here)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from edysec import explain

ORACLE = Path(__file__).resolve().parent / "make_shapley_oracle.py"
# Mean relative L2 error over the three records. At seed 0, 33 centroids x
# 2048 shared coalitions erred 0.109, 10 x 4096 shared coalitions 0.068, and
# 16 centroids with their own samples over 20,480 rows err 0.054 (0.0535 with
# float32 scores against a float32 fixture, as with float64 against float64).
MAX_MEAN_ERROR = 0.090
MIN_TOP5_OVERLAP = 4
# The median of that error over seeds 0-4: 0.0769 when the 10 centroids share
# 4096 coalitions, 0.0607 when 16 centroids each draw their own (measured with
# tests/explain_frontier.py). The bound sits halfway, so a shared sample fails it.
MAX_MEDIAN_ERROR = 0.069
MEDIAN_SEEDS = range(5)
# The stale check lets each background probability p move by at most this
# many times p(1 - p), which is about how far its logit may move; a
# probability saturated at 0 or 1 must match exactly. Scoring the rows one at
# a time instead of in one batch (another float32 kernel) moves them by up to
# 3.9e-6 of it; the same model trained in float64 and served in float32 moves
# them by up to 1.15e-5.
MAX_LOGIT_DRIFT = 6e-6


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("make_shapley_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def served(oracle, tmp_path_factory):
    """The served artifact saved and loaded, the feature groups of the matrix
    it projects, and the projected rows of the oracle's packages."""
    return oracle.served_case(tmp_path_factory.mktemp("served"))


def top5(phi):
    return set(np.argsort(-np.abs(phi))[:5].tolist())


def test_kernel_shap_against_exact_shapley(oracle, served):
    fixture = json.loads(oracle.FIXTURE.read_text())
    model, groups, rows = served
    background = model.explanation_background()
    stale = "fixture stale: regenerate it with tests/make_shapley_oracle.py"
    assert fixture["features"] == list(groups), stale
    probabilities, expected = model.predict_proba(background), np.array(fixture["background_probabilities"])
    assert np.all(np.abs(probabilities - expected) <= MAX_LOGIT_DRIFT * expected * (1 - expected)), stale
    base = float(probabilities.mean())
    for record in fixture["records"]:
        fx = float(model.predict_proba(rows[record["package"]][None, :])[0])
        assert abs(base - record["base"]) <= 1e-9 and abs(fx - record["fx"]) <= 1e-9, stale

    mean_errors = []
    for seed in MEDIAN_SEEDS:
        errors = []
        for record in fixture["records"]:
            plan = explain.explanation_plan(background, groups, seed=seed)
            attr = explain.kernel_shap(model.predict_proba, rows[record["package"]], plan)
            phi, exact = np.array([attr.phi[f] for f in fixture["features"]]), np.array(record["phi"])
            errors.append(float(np.linalg.norm(phi - exact) / np.linalg.norm(exact)))
            if seed == 0:  # the seed every served explanation uses
                assert len(top5(phi) & top5(exact)) >= MIN_TOP5_OVERLAP, record["package"]
        if seed == 0:
            assert np.mean(errors) <= MAX_MEAN_ERROR, errors
        mean_errors.append(float(np.mean(errors)))
    assert np.median(mean_errors) <= MAX_MEDIAN_ERROR, mean_errors


def test_loaded_artifact_knows_its_groups(served):
    # a loaded preprocessor lists its features alphabetically (noise_12 before
    # noise_2); the artifact's groups follow the columns of the matrix it projects
    model, groups, rows = served
    assert list(groups) != sorted(groups)
    assert list(model.groups) == list(groups)
    assert all(np.array_equal(model.groups[name], cols) for name, cols in groups.items())
    x = next(iter(rows.values()))
    plan = explain.explanation_plan(model.explanation_background(), groups)
    assert model.explain(x) == explain.kernel_shap(model.predict_proba, x, plan)

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
# Mean relative L2 error over the three records. 33 centroids x 2048
# coalitions erred 0.109 at seed 0; 10 x 4096 errs 0.068.
MAX_MEAN_ERROR = 0.090
MIN_TOP5_OVERLAP = 4


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("make_shapley_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def top5(phi):
    return set(np.argsort(-np.abs(phi))[:5].tolist())


def test_kernel_shap_against_exact_shapley(oracle, tmp_path):
    fixture = json.loads(oracle.FIXTURE.read_text())
    model, groups, rows = oracle.served_case(tmp_path)
    background = model.explanation_background()
    stale = "fixture stale: regenerate it with tests/make_shapley_oracle.py"
    assert fixture["features"] == list(groups), stale
    base = float(model.predict_proba(background).mean())
    errors = []
    for record in fixture["records"]:
        x = rows[record["package"]]
        fx = float(model.predict_proba(x[None, :])[0])
        assert abs(base - record["base"]) <= 1e-9 and abs(fx - record["fx"]) <= 1e-9, stale

        attr = explain.kernel_shap(model.predict_proba, x, background, groups)
        phi, exact = np.array([attr.phi[f] for f in fixture["features"]]), np.array(record["phi"])
        errors.append(float(np.linalg.norm(phi - exact) / np.linalg.norm(exact)))
        assert len(top5(phi) & top5(exact)) >= MIN_TOP5_OVERLAP, record["package"]
    assert np.mean(errors) <= MAX_MEAN_ERROR, errors

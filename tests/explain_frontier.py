"""Error-against-latency frontier of the sampled Kernel SHAP path, measured on
the accuracy gate's case (tests/data/shapley_oracle.json; see
tests/make_shapley_oracle.py for the served artifact it rebuilds).

For each (centroids, budget) setting it prints the forward rows one
explanation runs, the mean relative L2 error over the fixture's three records
at seed 0, the median and the worst of that error over seeds 0-9, and the
median in-process `kernel_shap` time with the plan built beforehand, through
the artifact's network form, as a served explanation runs it. The centroid count is set through
`explain.KERNEL_BACKGROUND_K`; the budget is passed to `explanation_plan`,
where one that covers r * (2^d - 2) rows (r background rows, d features)
builds the exact plan instead.

    PYTHONPATH=src python tests/explain_frontier.py              # SETTINGS below
    PYTHONPATH=src python tests/explain_frontier.py 16:20480 8:10240

A setting of 20,480 rows takes about 20 s on 2 cores.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from edysec import explain

ORACLE = Path(__file__).resolve().parent / "make_shapley_oracle.py"
SETTINGS = ((16, 20480), (16, 10240), (8, 10240), (10, 20480), (32, 20480), (16, 40960))
SEEDS = range(10)


def _oracle():
    spec = importlib.util.spec_from_file_location("make_shapley_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(model, groups, rows, records, centroids: int, budget: int) -> dict:
    explain.KERNEL_BACKGROUND_K = centroids
    background = model.explanation_background()
    forwarded = 0

    def counted(score):
        def forward(batch):
            nonlocal forwarded
            forwarded += len(batch)
            return score(batch)
        return forward

    network = model.network
    network = dataclasses.replace(network, predict=counted(network.predict), head=counted(network.head))

    errors, ms = [], []
    for seed in SEEDS:
        plan = explain.explanation_plan(background, groups, budget, seed)
        per_record = []
        for record in records:
            forwarded = 0
            start = time.perf_counter()
            attr = explain.kernel_shap(network, rows[record["package"]], plan)
            ms.append((time.perf_counter() - start) * 1e3)
            phi, exact = np.array([attr.phi[f] for f in groups]), np.array(record["phi"])
            per_record.append(float(np.linalg.norm(phi - exact) / np.linalg.norm(exact)))
        errors.append(float(np.mean(per_record)))
    return {
        "centroids": centroids,
        "budget": budget,
        "rows": forwarded,
        "seed0": errors[0],
        "median": float(np.median(errors)),
        "worst": max(errors),
        "kernel_shap_ms": float(np.median(ms)),
    }


def main(argv: list[str]) -> int:
    settings = [tuple(int(v) for v in arg.split(":")) for arg in argv] or SETTINGS
    oracle = _oracle()
    records = json.loads(oracle.FIXTURE.read_text())["records"]
    with tempfile.TemporaryDirectory() as tmp:
        model, groups, rows = oracle.served_case(Path(tmp))
    print(f"{'centroids':>9} {'budget':>7} {'rows':>7} {'seed 0':>7} {'median':>7} {'worst':>7} {'ms':>7}")
    for centroids, budget in settings:
        r = measure(model, groups, rows, records, centroids, budget)
        print(
            f"{r['centroids']:>9} {r['budget']:>7} {r['rows']:>7} {r['seed0']:>7.3f}"
            f" {r['median']:>7.3f} {r['worst']:>7.3f} {r['kernel_shap_ms']:>7.0f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

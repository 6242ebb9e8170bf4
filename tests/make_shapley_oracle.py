"""Regenerate tests/data/shapley_oracle.json, the reference that the Kernel
SHAP accuracy gate in tests/test_shapley_oracle.py compares against.

The model is the benchmark's served artifact (perfbench/workloads.py's
`build_artifact` recipe on its corpus at seed 41): 17 source features, a
92-wide input, a 500x500x500 MLP and a 100-row background. For three
held-out records the fixture holds the exact Shapley value of every feature,
enumerated over all 2^17 coalitions with the whole background, together with
v(empty) and v(full). The fixture also holds the model's probability on each
background row; with v(empty) and v(full), the gate uses these to tell
whether the fixture still describes the model it rebuilds.

    PYTHONPATH=src python tests/make_shapley_oracle.py

takes about 13 minutes on 2 cores (13.1M forward rows per record, scored
in float32 like every served probability).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from edysec import artifact, dataset, explain
from exact_shapley import exact_shapley
from loaders import perfbench

FIXTURE = Path(__file__).resolve().parent / "data" / "shapley_oracle.json"
SEED = 41
PACKAGES = ("pkg000014", "pkg000016", "pkg000018")  # held out: in the validation and test splits


def served_case(work: Path):
    """The served artifact rebuilt in `work`, its feature groups, and the
    projected input row of each package in PACKAGES."""
    wl = perfbench("workloads")
    ds = wl.load_corpus(*wl.write_corpus(work, SEED, wl.FULL))
    held_out = {pkg for pkg, _ in wl.build_artifact(ds, SEED, work / "artifact.json")}
    if not held_out.issuperset(PACKAGES):
        raise SystemExit(f"{sorted(set(PACKAGES) - held_out)} are not held out at seed {SEED}")
    model = artifact.load_artifact(work / "artifact.json")
    picked = [ds.ids.index(pkg) for pkg in PACKAGES]
    projected = model.project(dataset.TraceDataset(
        ds.manifest, PACKAGES, tuple(ds.rows[i] for i in picked), tuple(ds.labels[i] for i in picked)
    ))
    return model, explain.feature_groups(projected), dict(zip(PACKAGES, projected.X))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        model, groups, rows = served_case(Path(tmp))
    background = model.explanation_background()
    records = []
    for pkg in PACKAGES:
        exact = exact_shapley(model.predict_proba, rows[pkg], background, groups)
        records.append({"package": pkg, "phi": list(exact.phi.values()), "base": exact.base, "fx": exact.fx})
        sys.stderr.write(f"{pkg}: residual {exact.residual:.1e}\n")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({
        "corpus_seed": SEED,
        "background_rows": len(background),
        "background_probabilities": model.predict_proba(background).tolist(),
        "features": list(groups),
        "records": records,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

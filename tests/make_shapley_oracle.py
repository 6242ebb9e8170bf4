"""Regenerate the references that the Kernel SHAP accuracy gates in
tests/test_shapley_oracle.py compare against: tests/data/shapley_oracle.json
(the `served` case) and tests/data/shapley_oracle_text.json (the `text` case).

The `served` model is the benchmark's served artifact (perfbench/workloads.py's
`build_artifact` recipe on its corpus at seed 41): 17 source features, a
92-wide input, a 500x500x500 MLP and a 100-row background. Two of its three
held-out records score 1.0.

The `text` model is an `mlp` trained for 3 epochs on 12 of the served
features of the same corpus: `inf_5` and eleven noise features, five of them
text, a 87-wide input and a 100-row background. Its eight records are test
rows across the score range: those whose probabilities lie nearest to 0,
1/7, ..., 1.

For each record a fixture holds the exact Shapley value of every feature,
enumerated over all 2^d coalitions with the whole background, together with
v(empty) and the record's probability scored alone, as the gate scores it. It
also holds the model's probability on each background row; with v(empty) and
the record's probability, the gate uses these to tell whether the fixture
still describes the model it rebuilds.

    PYTHONPATH=src python tests/make_shapley_oracle.py            # both cases
    PYTHONPATH=src python tests/make_shapley_oracle.py text       # one of them

The `served` case takes about 13 minutes on 2 cores (13.1M forward rows per
record), the `text` case about 20 s (409,600 rows per record), both scored in
float32 like every served probability.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from edysec import artifact, dataset, explain, featsel
from edysec import neuralnet as nn
from edysec.preprocess import Preprocessor
from exact_shapley import exact_shapley
from loaders import perfbench

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "shapley_oracle.json"
TEXT_FIXTURE = DATA / "shapley_oracle_text.json"
SEED = 41
PACKAGES = ("pkg000014", "pkg000016", "pkg000018")  # held out: in the validation and test splits
TEXT_FEATURES = ("inf_5", *(f"noise_{i}" for i in range(6)), "noise_12", "noise_13", "noise_14", "noise_21", "noise_22")
TEXT_RECORDS = 8


def _corpus(work: Path):
    wl = perfbench("workloads")
    return wl, wl.load_corpus(*wl.write_corpus(work, SEED, wl.FULL))


def _projected(model, ds, packages):
    picked = [ds.ids.index(pkg) for pkg in packages]
    return model.project(dataset.TraceDataset(
        ds.manifest, tuple(packages), tuple(ds.rows[i] for i in picked), tuple(ds.labels[i] for i in picked)
    ))


def served_case(work: Path):
    """The served artifact rebuilt in `work`, its feature groups, and the
    projected input row of each package in PACKAGES."""
    wl, ds = _corpus(work)
    held_out = {pkg for pkg, _ in wl.build_artifact(ds, SEED, work / "artifact.json")}
    if not held_out.issuperset(PACKAGES):
        raise SystemExit(f"{sorted(set(PACKAGES) - held_out)} are not held out at seed {SEED}")
    model = artifact.load_artifact(work / "artifact.json")
    projected = _projected(model, ds, PACKAGES)
    return model, explain.feature_groups(projected), dict(zip(PACKAGES, projected.X))


def text_case(work: Path):
    """The text-bearing model trained in `work`, saved and loaded, its
    feature groups, and the projected input row of every test package."""
    _, ds = _corpus(work)
    splits = dataset.split_dataset(ds, seed=SEED)
    pre = Preprocessor.fit(splits.train)
    train = featsel.project(pre.transform(splits.train), TEXT_FEATURES)
    params, _ = nn.train(nn.NetworkSpec.mlp(train.width), nn.TrainConfig(epochs=3, seed=SEED), train.X, train.labels)
    artifact.save_artifact(artifact.ModelArtifact(
        manifest=ds.manifest, preprocessor=pre, selected=TEXT_FEATURES,
        selector_provenance={"method": "fixed", "d_j": len(TEXT_FEATURES)}, params=params,
        fingerprint={"seed": SEED, "model": "mlp"}, background=explain.sample_background(train, 100, SEED),
    ), work / "text.json")
    model = artifact.load_artifact(work / "text.json")
    projected = _projected(model, ds, splits.test.ids)
    return model, explain.feature_groups(projected), dict(zip(splits.test.ids, projected.X))


def text_records(model, rows: dict) -> list[str]:
    """The TEXT_RECORDS packages whose probabilities lie nearest to evenly
    spaced points of [0, 1], both ends included."""
    packages = list(rows)
    probabilities = model.predict_proba(np.array([rows[p] for p in packages]))
    return [packages[int(np.argmin(np.abs(probabilities - p)))] for p in np.linspace(0, 1, TEXT_RECORDS)]


def write_fixture(path: Path, model, groups, rows: dict, packages) -> None:
    background = model.explanation_background()
    records = []
    for pkg in packages:
        exact = exact_shapley(model.predict_proba, rows[pkg], background, groups)
        fx = float(model.predict_proba(rows[pkg][None, :])[0])  # alone, not in a batch of coalition rows
        records.append({"package": pkg, "phi": list(exact.phi.values()), "base": exact.base, "fx": fx})
        sys.stderr.write(f"{path.name} {pkg}: fx {exact.fx:.3f}, residual {exact.residual:.1e}\n")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "corpus_seed": SEED,
        "background_rows": len(background),
        "background_probabilities": model.predict_proba(background).tolist(),
        "features": list(groups),
        "records": records,
    }, indent=2) + "\n")


def main(argv: list[str]) -> int:
    for case in argv or ("served", "text"):
        with tempfile.TemporaryDirectory() as tmp:
            if case == "served":
                model, groups, rows = served_case(Path(tmp))
                write_fixture(FIXTURE, model, groups, rows, PACKAGES)
            elif case == "text":
                model, groups, rows = text_case(Path(tmp))
                write_fixture(TEXT_FIXTURE, model, groups, rows, text_records(model, rows))
            else:
                raise SystemExit(f"unknown case {case!r}: served or text")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

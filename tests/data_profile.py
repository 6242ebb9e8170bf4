"""Timings of the data path, from records to matrices: the median time of

- `dataset.generate_synthetic` at the benchmark's corpus shape (the rows,
  kinds and 6 + 30 columns that perfbench/workloads.py `write_corpus` asks for);
- `pipeline.prepare` of that corpus at the default options (the split, the
  preprocessor's fit and the transforms of the three splits);
- one-row `artifact.predict_package` on a held-out record, with the 17-feature
  `mlp` artifact that perfbench/workloads.py `build_artifact` serves, built
  the same way from the same corpus (one epoch, batch 64).

With `--against <checkout>` it is an interleaved A/B of this checkout and
another: the other checkout's `edysec` is loaded in the same process under
the package name `edysec_other`, each side builds its own corpus and artifact
with its own code, and the side that runs first alternates from one repetition
to the next. It prints each side's medians and their ratio, this over other,
so host drift falls on both sides alike.

    PYTHONPATH=src python tests/data_profile.py
    PYTHONPATH=src python tests/data_profile.py --against <checkout>
    PYTHONPATH=src python tests/data_profile.py --against . --rows 600 --reps 3

At the benchmark's 3,000 rows an A/B takes about 20-30 s on 2 cores.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import edysec

ROOT = Path(__file__).resolve().parent.parent
OTHER = "edysec_other"  # the package name --against loads the other checkout's edysec under
PREDICT_CALLS = 50  # one-row verdicts per timed repetition
PREDICT_REPS = 8  # predict_package repetitions per --reps repetition


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_by_path("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def load_other(checkout: str):
    """Another checkout's edysec package, imported as OTHER."""
    package = Path(checkout).resolve() / "src" / "edysec"
    spec = importlib.util.spec_from_file_location(OTHER, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = module  # its relative imports resolve under OTHER
    spec.loader.exec_module(module)
    return module


class Side:
    """One edysec package's corpus, served artifact and held-out record."""

    def __init__(self, package, rows: int, seed: int):
        self.mod = {name: importlib.import_module(f"{package.__name__}.{name}")
                    for name in ("artifact", "dataset", "explain", "featsel", "neuralnet", "pipeline", "preprocess")}
        self.rows, self.seed = rows, seed
        self.ds = self.corpus()
        self.options = self.mod["pipeline"].PipelineOptions()
        self.model, (self.package, self.record) = self.served_artifact()

    def corpus(self):
        return self.mod["dataset"].generate_synthetic(self.rows, 6, 30, kinds=WORKLOADS.KINDS, seed=self.seed)

    def prepare(self):
        return self.mod["pipeline"].prepare(self.ds, self.options)

    def served_artifact(self):
        """perfbench/workloads.py `build_artifact`, in memory, with this side's modules."""
        art, nn = self.mod["artifact"], self.mod["neuralnet"]
        features = WORKLOADS.SERVED_FEATURES
        splits = self.mod["dataset"].split_dataset(self.ds, seed=self.seed)
        pre = self.mod["preprocess"].Preprocessor.fit(splits.train)
        train_sel = self.mod["featsel"].project(pre.transform(splits.train), features)
        params, _ = nn.train(nn.NetworkSpec.mlp(train_sel.width),
                             nn.TrainConfig(epochs=1, batch_size=64, seed=self.seed),
                             train_sel.X, train_sel.labels)
        model = art.ModelArtifact(
            manifest=self.ds.manifest, preprocessor=pre, selected=features,
            selector_provenance={"method": "fixed", "d_j": len(features)}, params=params,
            fingerprint={"seed": self.seed, "model": "mlp"},
            background=self.mod["explain"].sample_background(train_sel, 100, self.seed),
        )
        return model, (splits.test.ids[0], splits.test.rows[0])

    def predict(self):
        for _ in range(PREDICT_CALLS):
            self.mod["artifact"].predict_package(self.model, self.record, package=self.package)


FIGURES = (  # name, Side method, repetitions per --reps repetition, calls per timing, unit, scale
    ("generate_synthetic", Side.corpus, 1, 1, "ms", 1e3),
    ("prepare", Side.prepare, 1, 1, "ms", 1e3),
    ("predict_package", Side.predict, PREDICT_REPS, PREDICT_CALLS, "us", 1e6),
)


def profile(sides: list[Side], reps: int) -> list[dict]:
    """Each figure's median time per call on each side; on repetition r the
    sides run in turn, starting with side r mod k."""
    times = [{name: [] for name, *_ in FIGURES} for _ in sides]
    for name, method, per_rep, calls, _, scale in FIGURES:
        for r in range(reps * per_rep):
            order = list(range(len(sides)))
            order = order[r % len(sides):] + order[: r % len(sides)]
            for i in order:
                started = time.perf_counter()
                method(sides[i])
                times[i][name].append((time.perf_counter() - started) / calls * scale)
    return [{name: statistics.median(side[name]) for name in side} for side in times]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="data-path timings: corpus, prepare, one-row verdict")
    parser.add_argument("--against", metavar="CHECKOUT", help="another checkout to interleave with this one")
    parser.add_argument("--rows", type=int, default=WORKLOADS.FULL.rows, help="corpus rows (default: the benchmark's)")
    parser.add_argument("--reps", type=int, default=7, help="timed repetitions per figure and side")
    parser.add_argument("--seed", type=int, default=1, help="corpus and artifact seed")
    args = parser.parse_args(argv)
    packages = [edysec] if args.against is None else [edysec, load_other(args.against)]
    this, *other = profile([Side(p, args.rows, args.seed) for p in packages], args.reps)
    print(f"rows {args.rows}, {args.reps} repetitions; medians, ratio is this over other")
    print(f"{'figure':>20} {'unit':>4} {'this':>10}" + (f" {'other':>10} {'ratio':>7}" if other else ""))
    for name, _, _, _, unit, _ in FIGURES:
        line = f"{name:>20} {unit:>4} {this[name]:>10.3f}"
        if other:
            line += f" {other[0][name]:>10.3f} {this[name] / other[0][name]:>7.3f}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

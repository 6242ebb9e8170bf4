"""Time of an explained verdict's attributions: `ModelArtifact.explain` of
two held-out rows, with the plan built beforehand, as a served explanation
runs it, at each input width.

Width 92 is the benchmark's served artifact (perfbench/workloads.py
`build_artifact` on its corpus at seed 41): 17 source features, a 500x500x500
MLP and a 100-row background. At any other width the served artifact keeps
its manifest and preprocessing, and takes a random-init `mlp` of that width,
100 seeded normal background rows, two seeded normal rows to explain, and its
17 features as contiguous column ranges of about equal size: the same plan
(100 centroids, 12,288 coalition rows) at the paper's widths, 770 and 1543.

With `--against <checkout>` it is an interleaved A/B of this checkout's
`ModelArtifact.explain` and another's: the other checkout's `edysec` is
loaded in the same process under the package name `edysec_other`, both sides
load the same artifact file and explain the same rows, and the side that runs
first alternates from one repetition to the next. It prints each side's
median, their ratio, this over other, so host drift falls on both sides
alike, and the largest difference of an attribution between the sides. BLAS
keeps the threads it starts with.

    PYTHONPATH=src python tests/explain_profile.py                  # widths 92, 770, 1543
    PYTHONPATH=src python tests/explain_profile.py --against <checkout> 92 1543
    PYTHONPATH=src python tests/explain_profile.py --against . --rows 600 --reps 2 92 770

At the defaults an A/B takes about 1 minute on 2 cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from edysec import artifact, dataset
from edysec import neuralnet as nn
from loaders import load_other, perfbench

WIDTHS = (92, 770, 1543)
SEED = 41
EXPLAINED = 2  # held-out rows explained per repetition
BACKGROUND_ROWS = 100


def served(work: Path, rows: int):
    """The served artifact's path, the artifact as loaded, and the projected
    rows of its first EXPLAINED held-out records."""
    wl = perfbench("workloads")
    ds = wl.load_corpus(*wl.write_corpus(work, SEED, dataclasses.replace(wl.FULL, rows=rows)))
    path = work / "served.json"
    held_out = wl.build_artifact(ds, SEED, path)[:EXPLAINED]
    model = artifact.load_artifact(path)
    records = dataset.TraceDataset(ds.manifest, tuple(p for p, _ in held_out), tuple(r for _, r in held_out),
                                   (0,) * len(held_out))
    return path, model, model.project(records).X


def widened(model, width: int, path: Path):
    """`model` with a random-init `mlp` of `width` inputs and a seeded normal
    background, saved at `path`; its groups over `width` columns and the rows
    to explain."""
    rng = np.random.default_rng(width)
    wide = dataclasses.replace(model, params=nn.init_network(nn.NetworkSpec.mlp(width), seed=SEED),
                               background=rng.normal(size=(BACKGROUND_ROWS, width)))
    artifact.save_artifact(wide, path)
    groups = dict(zip(model.groups, np.array_split(np.arange(width), len(model.groups))))
    return groups, rng.normal(size=(EXPLAINED, width))


def profile(path: Path, groups, xs, modules: list, reps: int) -> tuple[list[float], float]:
    """The median explanation time of each artifact module in `modules`, in
    ms, and the largest |Δφ| between the first two. Every side loads `path`
    (with `groups` over its columns, if given) and explains each row once
    before the timed repetitions; on repetition t the sides run in turn,
    starting with side t mod k."""
    sides = []
    for module in modules:
        model = module.load_artifact(path)
        if groups is not None:
            model.groups = groups  # replaces the groups its preprocessing projects
        for x in xs:
            model.explain(x)  # builds the shared plan
        sides.append(model)
    times = [[] for _ in sides]
    for t in range(reps):
        for i in [*range(t % len(sides), len(sides)), *range(t % len(sides))]:
            for x in xs:
                start = time.perf_counter()
                sides[i].explain(x)
                times[i].append((time.perf_counter() - start) * 1e3)
    gap = 0.0
    if len(sides) > 1:
        for x in xs:
            this, other = (np.array(list(side.explain(x).phi.values())) for side in sides[:2])
            gap = max(gap, float(np.abs(this - other).max()))
    return [float(np.median(ms)) for ms in times], gap


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="interleaved timing of ModelArtifact.explain")
    parser.add_argument("widths", nargs="*", type=int, help=f"input widths (default: {' '.join(map(str, WIDTHS))})")
    parser.add_argument("--against", metavar="CHECKOUT", help="another checkout to interleave with this one")
    parser.add_argument("--rows", type=int, default=perfbench("workloads").FULL.rows,
                        help="corpus rows the served artifact is trained on")
    parser.add_argument("--reps", type=int, default=12, help="timed repetitions per side and width")
    args = parser.parse_args(argv)
    modules = [artifact]
    if args.against is not None:
        modules.append(importlib.import_module(f"{load_other(args.against).__name__}.artifact"))
    print(f"{'width':>5} {'side':>5} {'ms':>8} {'max |dphi|':>11}   (median of {args.reps} x {EXPLAINED} explanations)")
    with tempfile.TemporaryDirectory() as tmp:
        served_path, model, rows = served(Path(tmp), args.rows)
        for width in args.widths or WIDTHS:
            path, groups, xs = served_path, None, rows
            if width != model.params.spec.input_width:
                path = Path(tmp) / f"width-{width}.json"
                groups, xs = widened(model, width, path)
            (this, *other), gap = profile(path, groups, xs, modules, args.reps)
            lines = [("this", this)]
            if other:
                lines = [("other", other[0]), ("this", this), ("ratio", this / other[0])]
            for side, value in lines:
                print(f"{width:>5} {side:>5} {value:>8.3f} {gap:>11.1e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Byte-identity check of seeded pipeline and CLI outputs against another
checkout (for example the parent commit, made with `git clone` or `git
archive`).

    python tests/byte_identity.py <other checkout> [--out DIR]

It writes the same output set twice into the same work path, once with
PYTHONPATH=<other checkout>/src and once with this checkout's src/, keeps the
two trees under DIR (a temporary directory by default) as `other/` and
`this/`, and runs `diff -r` on them. The output set:

- `reports/` and `pipeline-artifact.json`: `run_pipeline` on a seeded
  600-row corpus of 36 features (all five selectors, stability over 3 seeds),
  then `emit_reports` and `save_artifact`;
- `cli/`: the stdout of `edysec evaluate`, `explain` (shap, lime, the
  sampled path at 17 features and the exact path at 6), `stability` (two
  settings) and `train` (two presets on 17 features and the `nn` preset on
  6, the artifacts too);
- `verdicts.jsonl`: 30 verdicts of the 17-feature artifact, the first 2
  explained, without their latency;
- `held-out.jsonl`: the verdict on every held-out row of the benchmark's
  served artifact (perfbench/workloads.py at seed 41);
- `artifacts.jsonl`: one line for each artifact above (the pipeline's, `t1`
  to `t3` and the served one), as that run's own `load_artifact` reads it:
  sha256 digests of its weights as `<f4` and its background as `<f8`, its
  network spec, threshold, selected features, selector provenance,
  fingerprint and preprocessor. When only the storage format of artifacts
  changes, the artifact files differ and this file does not.

Besides the diff it prints how many held-out verdicts change their label and
the largest change of a held-out probability. It exits 0 when the trees are
identical, 1 when they differ. Both runs take about 1 minute on 2 cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERVED_SEED = 41
T2_FEATURES = [*(f"inf_{i}" for i in range(6)), *(f"noise_{i}" for i in range(6)),
               "noise_12", "noise_13", "noise_14", "noise_21", "noise_22"]
T3_FEATURES = [f"inf_{i}" for i in range(6)]  # 100 background rows x 62 coalitions = 6,200 rows: exact


def _cli(out: Path, name: str, argv: list[str]) -> None:
    from edysec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status:
        raise SystemExit(f"edysec {' '.join(argv)} exited {status}")
    (out / "cli" / f"{name}.out").write_text(buf.getvalue())


def _artifact_line(name: str, path) -> str:
    """What the artifact at `path` holds once loaded, whatever its storage format."""
    from edysec import artifact

    def digest(arr, dtype):
        return None if arr is None else hashlib.sha256(arr.astype(dtype).tobytes()).hexdigest()

    model = artifact.load_artifact(path)
    return json.dumps({
        "artifact": name,
        "weights_sha256": digest(model.params.flat, "<f4"),
        "background_sha256": digest(model.background, "<f8"),
        "spec": model.params.spec.to_dict(),
        "threshold": model.threshold,
        "selected": list(model.selected),
        "selector_provenance": model.selector_provenance,
        "fingerprint": model.fingerprint,
        "preprocessor": model.preprocessor.to_dict(),
    }, sort_keys=True) + "\n"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def write_outputs(out: Path) -> None:
    """Every output of the set above, from the edysec on the import path."""
    from edysec import artifact, dataset, featsel, pipeline

    (out / "cli").mkdir(parents=True)
    ds = dataset.generate_synthetic(600, 6, 30, kinds={"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}, seed=11)
    data, manifest = str(out / "data.csv"), str(out / "manifest.json")
    dataset.save_dataset(ds, data)
    ds.manifest.save(manifest)
    ds = dataset.load_dataset(data, dataset.FeatureManifest.load(manifest))

    options = pipeline.PipelineOptions(
        stability_runs=3, swarm=featsel.SwarmConfig(population=4, iterations=3),
        baseline=featsel.BaselineConfig(epochs=3), epochs=3,
    )
    result = pipeline.run_pipeline(ds, options)
    pipeline.emit_reports(result, str(out / "reports"))
    a = str(out / "pipeline-artifact.json")
    artifact.save_artifact(result.artifact, a)

    features, exact_features = out / "features.json", out / "features-exact.json"
    features.write_text(json.dumps(T2_FEATURES))
    exact_features.write_text(json.dumps(T3_FEATURES))
    t1, t2, t3 = str(out / "t1.json"), str(out / "t2.json"), str(out / "t3.json")
    _cli(out, "evaluate", ["evaluate", "--artifact", a, "--data", data])
    for method in ("shap", "lime"):
        _cli(out, f"explain-{method}", ["explain", "--artifact", a, "--data", data, "--count", "3", "--method", method])
    _cli(out, "stability-seeds", ["stability", "--data", data, "--manifest", manifest, "--mode", "seeds",
                                  "--runs", "3", "--epochs", "2", "--seed", "5"])
    _cli(out, "stability-lr", ["stability", "--data", data, "--manifest", manifest, "--mode", "seeds",
                               "--runs", "4", "--epochs", "1", "--batch", "256", "--lr", "0.0003"])
    _cli(out, "train-nn", ["train", "--data", data, "--manifest", manifest, "--model", "nn",
                           "--epochs", "3", "--artifact", t1])
    _cli(out, "train-mlp", ["train", "--data", data, "--manifest", manifest, "--model", "mlp", "--epochs", "2",
                            "--batch", "64", "--features", str(features), "--artifact", t2])
    _cli(out, "explain-sampled", ["explain", "--artifact", t2, "--data", data, "--count", "1", "--per-package"])
    _cli(out, "train-exact", ["train", "--data", data, "--manifest", manifest, "--model", "nn", "--epochs", "2",
                              "--features", str(exact_features), "--artifact", t3])
    _cli(out, "explain-exact", ["explain", "--artifact", t3, "--data", data, "--count", "2"])

    lines = [_artifact_line(Path(path).name, path) for path in (a, t1, t2, t3)]
    model = artifact.load_artifact(t2)
    with open(out / "verdicts.jsonl", "w", encoding="utf-8") as fh:
        for i, (pkg, row) in enumerate(zip(ds.ids[:30], ds.rows[:30])):
            report = artifact.predict_package(model, row, package=pkg, explain_verdict=i < 2).to_dict()
            del report["latency_ms"]
            fh.write(json.dumps(report, sort_keys=True) + "\n")

    wl = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = wl.load_corpus(*wl.write_corpus(Path(tmp), SERVED_SEED, wl.FULL))
        held_out = wl.build_artifact(corpus, SERVED_SEED, Path(tmp) / "served.json")
        served = artifact.load_artifact(Path(tmp) / "served.json")
        lines.append(_artifact_line("served.json", Path(tmp) / "served.json"))
    (out / "artifacts.jsonl").write_text("".join(lines))
    with open(out / "held-out.jsonl", "w", encoding="utf-8") as fh:
        for pkg, row in held_out:
            report = artifact.predict_package(served, row, package=pkg)
            fh.write(json.dumps({"package": pkg, "probability": report.probability, "verdict": report.verdict}) + "\n")


def _held_out(tree: Path) -> dict:
    with open(tree / "held-out.jsonl", encoding="utf-8") as fh:
        return {r["package"]: r for r in map(json.loads, fh)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="checkout to compare against; its src/ is imported")
    parser.add_argument("--out", type=Path, default=None, help="where the two trees are kept")
    parser.add_argument("--write", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write is not None:
        write_outputs(args.write)
        return 0

    out = args.out or Path(tempfile.mkdtemp(prefix="byte-identity-"))
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"  # the same path for both runs, so no output differs by its path
        for name, src in (("other", args.other.resolve() / "src"), ("this", ROOT / "src")):
            shutil.rmtree(out / name, ignore_errors=True)
            env = {**os.environ, "PYTHONPATH": str(src)}
            subprocess.run([sys.executable, __file__, str(args.other), "--write", str(work)], env=env, check=True)
            shutil.move(str(work), str(out / name))

    diff = subprocess.run(["diff", "-r", "-q", str(out / "other"), str(out / "this")], capture_output=True, text=True)
    sys.stdout.write(diff.stdout or "identical\n")
    before, after = _held_out(out / "other"), _held_out(out / "this")
    flips = sum(before[p]["verdict"] != after[p]["verdict"] for p in before)
    moved = max(abs(before[p]["probability"] - after[p]["probability"]) for p in before)
    print(f"held-out verdicts: {len(before)}, labels flipped: {flips}, largest probability change: {moved:.3g}")
    print(f"trees kept in {out}")
    return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

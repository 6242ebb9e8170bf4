"""Command-line entry point: dataset tooling, selection, training, evaluation,
stability, explanations, the full pipeline, and the verdict service."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

from . import explain, featsel, metrics, pipeline, service, stability, workers
from .artifact import dataset_hash, load_artifact, predict_package, save_artifact
from .dataset import (
    FeatureManifest,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import BadFeatureList, BadOption, BadRecord, EdysecError, UnwritableOutput

ARTIFACT_ENV = "EDYSEC_ARTIFACT"


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load(args):
    return load_dataset(args.data, FeatureManifest.load(args.manifest))


def _load_projected(args):
    """The artifact, and --data under --manifest (default: the artifact's) projected through it."""
    artifact = load_artifact(args.artifact)
    manifest = FeatureManifest.load(args.manifest) if args.manifest else artifact.manifest
    return artifact, artifact.project(load_dataset(args.data, manifest))


def _options(args) -> pipeline.PipelineOptions:
    """The pipeline options that `args` sets, each parsed under its field's
    name; a list value becomes a tuple."""
    return pipeline.PipelineOptions(**{
        name: tuple(value) if isinstance(value, list) else value
        for name in pipeline.PipelineOptions.__dataclass_fields__
        if (value := getattr(args, name, None)) is not None
    })


@contextlib.contextmanager
def _writing(path):
    """Writes under `path`; an OSError they raise is UnwritableOutput."""
    try:
        yield
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc


def _check_out_dir(path) -> None:
    """Refuse an output directory that cannot be made, before anything is
    computed for it: the nearest path at or above it that exists must be a
    directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise UnwritableOutput(f"cannot write {path}: {existing} is not a directory")


def _check_out_file(path) -> None:
    """Refuse an output file that names a directory or whose directory does
    not exist, before anything is computed for it."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UnwritableOutput(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise UnwritableOutput(f"cannot write {path}: no directory {folder}")


def _bind(value: str) -> tuple[str, int]:
    host, colon, port = value.rpartition(":")
    if not (colon and port.isdecimal() and int(port) <= 65535):
        raise BadOption(f"--bind takes HOST:PORT with a port in [0, 65535], got {value!r}")
    return host or "127.0.0.1", int(port)


def cmd_synth(args):
    if not 0.0 <= args.text_fraction <= 1.0:
        raise BadOption(f"--text-fraction must be in [0, 1], got {args.text_fraction}")
    kinds = {"numeric": 1.0 - args.text_fraction}
    if args.text_fraction > 0:
        kinds["categorical"] = args.text_fraction / 2
        kinds["pattern"] = args.text_fraction / 2
    ds = generate_synthetic(
        args.rows, args.informative, args.noise, kinds=kinds, seed=args.seed
    )
    data_path = os.path.join(args.out, "data.csv")
    manifest_path = os.path.join(args.out, "manifest.json")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        save_dataset(ds, data_path)
        ds.manifest.save(manifest_path)
    _emit({"data": data_path, "manifest": manifest_path, "rows": len(ds), "sha256": dataset_hash(ds)})


def cmd_split(args):
    ds, options = _load(args), _options(args)
    splits = split_dataset(ds, options.ratios, options.seed)
    sizes = {}
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        for name, part in (("train", splits.train), ("validation", splits.validation), ("test", splits.test)):
            save_dataset(part, os.path.join(args.out, f"{name}.csv"))
            sizes[name] = len(part)
    _emit({"out": args.out, "seed": options.seed, "sizes": sizes})


def cmd_select(args):
    ds, options = _load(args), _options(args)
    with workers.Pool(pipeline.largest_batch(options)) as pool:
        _, _, (train_pm, val_pm, _) = pipeline.prepare(ds, options)
        results = pipeline.run_selectors(train_pm, val_pm, options, pool)
    chosen = featsel.choose_selector(results)
    _emit({"selectors": [asdict(r) for r in results], "chosen": chosen.method})


def _feature_list(path: str) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            names = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadFeatureList(f"cannot read a JSON feature list from {path}: {exc}") from exc
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise BadFeatureList(f"{path} must hold a non-empty JSON list of feature names")
    if len(set(names)) < len(names):
        raise BadFeatureList(f"{path} names a feature more than once")
    return tuple(names)


def cmd_train(args):
    ds, options = _load(args), _options(args)
    _check_out_file(args.artifact)
    with workers.Pool(1) as pool:
        _, pre, matrices = pipeline.prepare(ds, options)
        train_pm = matrices[0]
        selected = _feature_list(args.features) if args.features else tuple(train_pm.source_features())
        [(params, history)], _ = pipeline.train_batch(pool, options, matrices, (args.model,), selected, [])
    artifact = pipeline.build_artifact(
        ds, pre, train_pm, selected, params, args.model, options,
        provenance={"method": "manual", "d_j": len(selected)},
    )
    with _writing(args.artifact):
        save_artifact(artifact, args.artifact)
    last = history[-1]
    _emit({
        "artifact": args.artifact,
        "model": args.model,
        "epochs": len(history),
        "train_loss": last.train_loss,
        "val_acc": last.val_acc,
    })


def cmd_evaluate(args):
    artifact, projected = _load_projected(args)
    report, cm = metrics.evaluate(projected.labels, artifact.predict_proba(projected.X), artifact.threshold, auc=True)
    _emit({"metrics": report.to_dict(), "confusion": asdict(cm)})


def cmd_stability(args):
    ds, options = _load(args), _options(args)
    with workers.Pool(pipeline.largest_batch(options)) as pool:
        _, _, matrices = pipeline.prepare(ds, options)
        train_pm, val_pm, _ = matrices
        selector_results = (
            pipeline.run_selectors(train_pm, val_pm, options, pool)
            if options.stability_mode == "selectors"
            else []
        )
        runs = pipeline.stability_configs(options, tuple(train_pm.source_features()), selector_results)
        _, table = pipeline.train_batch(pool, options, matrices, (), None, runs)
    rows = stability.stability_report(table, seed=options.seed)
    sys.stdout.write(stability.render_table(rows))
    _emit([r.display() for r in rows])


def cmd_explain(args):
    if args.count < 0:
        raise BadOption(f"--count must be >= 0, got {args.count}")
    artifact, projected = _load_projected(args)
    if args.method == "shap":  # one plan for every explained record
        method = artifact.explain
    else:
        background = artifact.explanation_background()
        method = lambda x: explain.lime_explain(artifact.network, x, background, artifact.groups)
    count = min(args.count, projected.X.shape[0])
    records = []
    for i in range(count):
        attr = method(projected.X[i])
        records.append({"package": projected.ids[i] if projected.ids else str(i), **attr.to_dict()})
        if args.per_package:
            sys.stdout.write(json.dumps(records[-1], sort_keys=True) + "\n")
    if not args.per_package:
        _emit(records)


def cmd_pipeline(args):
    ds = _load(args)
    options = _options(args)
    _check_out_dir(args.out)
    if args.artifact:
        _check_out_file(args.artifact)
    result = pipeline.run_pipeline(ds, options)
    with _writing(args.out):
        written = pipeline.emit_reports(result, args.out)
    if args.artifact:
        with _writing(args.artifact):
            save_artifact(result.artifact, args.artifact)
        written.append(args.artifact)
    _emit({
        "chosen_selector": result.chosen.method,
        "selected": list(result.chosen.selected),
        "model": result.best_model,
        "test_f1": result.evaluation.f1,
        "written": written,
    })


def cmd_predict(args):
    artifact = load_artifact(args.artifact)
    try:
        with open(args.record, encoding="utf-8") as fh:
            request = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadRecord(f"cannot read a JSON record from {args.record}: {exc}") from exc
    features = request.get("features", request) if isinstance(request, dict) else None
    if not isinstance(features, dict):
        raise BadRecord(f"{args.record} must hold a JSON object of features")
    report = predict_package(
        artifact,
        features,
        package=str(request.get("package", "package")),
        explain_verdict=args.explain,
    )
    _emit(report.to_dict())


def cmd_serve(args):
    path = args.artifact or os.environ.get(ARTIFACT_ENV)
    if not path:
        raise EdysecError(f"pass --artifact or set {ARTIFACT_ENV}")
    host, port = _bind(args.bind)
    artifact = load_artifact(path)
    try:
        server = service.make_server(artifact, host, port)
    except OSError as exc:
        raise EdysecError(f"cannot serve on {host}:{port}: {exc}") from exc
    sys.stderr.write(f"serving on {host}:{server.server_address[1]}\n")
    try:
        server.serve_forever()
    finally:
        server.server_close()


def _rollup(name: str, text: str) -> str:
    """The `edysec report` lines of one report file's text."""
    if name == "stability.txt":
        return text
    report = json.loads(text)
    if name == "evaluation.json":
        d = report["metrics"]["display"]
        return (
            f"Model {report['model']} on {report['features']} features: "
            f"F1 {d['f1']:.2f}, accuracy {d['accuracy']:.2f}, "
            f"FPR {d['fpr_pct']:.2f}%, FNR {d['fnr_pct']:.2f}%\n"
        )
    return f"Selection/explanation overlap: {len(report['overlap'])} features, Jaccard {report['jaccard']:.3f}\n"


def cmd_report(args):
    """Human-readable rollup of a reports directory. Fails closed, printing
    nothing, on a directory that holds none of the reports and on a report
    that is not readable JSON with the fields the rollup reads."""
    names = ("evaluation.json", "stability.txt", "overlap.json")
    found = [name for name in names if os.path.exists(os.path.join(args.reports, name))]
    if not found:
        raise EdysecError(f"{args.reports} holds none of {', '.join(names)}")
    lines = []
    for name in found:
        path = os.path.join(args.reports, name)
        try:
            with open(path, encoding="utf-8") as fh:
                lines.append(_rollup(name, fh.read()))
        except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
            raise EdysecError(f"cannot read the report {path}: {exc!r}") from exc
    sys.stdout.write("".join(lines))


def _add_data_args(p, manifest_required=True):
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--manifest", required=manifest_required, help="manifest JSON")


def _add_split_args(p):
    p.add_argument("--ratios", type=float, nargs=3, default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_train_args(p):
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edysec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace dataset")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--informative", type=int, required=True)
    p.add_argument("--noise", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--text-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write train/validation/test CSVs")
    _add_data_args(p)
    _add_split_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("select", help="run feature selectors and pick the best subset")
    _add_data_args(p)
    _add_split_args(p)
    p.add_argument("--methods", dest="selectors", nargs="+", choices=featsel.METHODS, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train one model and save an artifact")
    _add_data_args(p)
    _add_split_args(p)
    _add_train_args(p)
    p.add_argument("--model", choices=tuple(pipeline.MODEL_PRESETS), default="mlp")
    p.add_argument("--features", default=None, help="JSON list of source features to keep")
    p.add_argument("--artifact", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score an artifact against a labeled CSV")
    p.add_argument("--artifact", required=True)
    _add_data_args(p, manifest_required=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stability", help="run-to-run stability table")
    _add_data_args(p)
    _add_split_args(p)
    _add_train_args(p)
    p.add_argument("--mode", dest="stability_mode", choices=("seeds", "selectors"), default="seeds")
    p.add_argument("--runs", dest="stability_runs", type=int, default=None)
    p.add_argument("--models", nargs="+", choices=tuple(pipeline.MODEL_PRESETS), default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("explain", help="per-package explanations from an artifact")
    p.add_argument("--artifact", required=True)
    _add_data_args(p, manifest_required=False)
    p.add_argument("--method", choices=("shap", "lime"), default="shap")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--per-package", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("pipeline", help="full end-to-end run")
    _add_data_args(p)
    _add_split_args(p)
    _add_train_args(p)
    p.add_argument("--methods", dest="selectors", nargs="+", choices=featsel.METHODS, default=None)
    p.add_argument("--models", nargs="+", choices=tuple(pipeline.MODEL_PRESETS), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mode", dest="stability_mode", choices=("seeds", "selectors", "off"), default=None)
    p.add_argument("--runs", dest="stability_runs", type=int, default=None)
    p.add_argument("--explain-count", dest="explain_count", type=int, default=None)
    p.add_argument("--out", required=True, help="reports directory")
    p.add_argument("--artifact", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("predict", help="score a single package record")
    p.add_argument("--artifact", required=True)
    p.add_argument("--in", dest="record", required=True, help="JSON record file")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve", help="start the verdict service")
    p.add_argument("--artifact", default=None, help=f"defaults to ${ARTIFACT_ENV}")
    p.add_argument("--bind", default="127.0.0.1:8730")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="print a rollup of emitted reports")
    p.add_argument("--reports", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except EdysecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

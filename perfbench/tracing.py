"""In-memory spans around the public functions of edysec, installed from
outside the package by replacing module and class attributes.

A span records name, start, end, parent span and request id. Spans are kept
in memory and written out as JSON lines when the run ends. Nothing under
src/ knows about this module; `instrument()` swaps every binding of a
wrapped function (including names imported into other edysec modules) for a
timing wrapper, and `Tracer.restore()` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time

MODULES = (
    "artifact", "cli", "dataset", "explain", "featsel", "metrics",
    "neuralnet", "pipeline", "preprocess", "service", "stability",
)

# (module, attribute or Class.method, span name, tag taken from the call)
TARGETS = (
    ("dataset", "load_dataset", "dataset.load_dataset", None),
    ("dataset", "split_dataset", "dataset.split_dataset", None),
    ("preprocess", "Preprocessor.fit", "preprocess.fit", None),
    ("preprocess", "Preprocessor.transform", "preprocess.transform",
     lambda a, k: len(a[1].manifest.columns)),
    ("featsel", "anova_f_scores", "featsel.anova_f_scores", None),
    ("featsel", "select_anova", "featsel.select_anova", None),
    ("featsel", "select_corr", "featsel.select_corr", None),
    ("featsel", "permutation_importance", "featsel.permutation_importance", None),
    ("featsel", "select_importance", "featsel.select_importance", None),
    ("featsel", "select_bpso", "featsel.select_bpso", None),
    ("featsel", "select_bwoa", "featsel.select_bwoa", None),
    ("featsel", "train_baseline", "featsel.train_baseline", None),
    ("featsel", "baseline_validation_accuracy", "featsel.baseline_validation_accuracy", None),
    ("featsel", "MaskFitness.__call__", "featsel.fitness", None),
    ("featsel", "MaskFitness.validation_score", "featsel.fitness", None),
    ("featsel", "choose_selector", "featsel.choose_selector", None),
    ("featsel", "project", "featsel.project", None),
    ("neuralnet", "train", "neuralnet.train", lambda a, k: a[1].seed),
    ("neuralnet", "forward_batch", "neuralnet.forward_batch", None),
    ("neuralnet", "backward", "neuralnet.backward", None),
    ("neuralnet", "adam_step", "neuralnet.adam_step", None),
    ("neuralnet", "predict_proba", "neuralnet.predict_proba", lambda a, k: len(a[1])),
    ("metrics", "confusion", "metrics.confusion", None),
    ("metrics", "classification_metrics", "metrics.classification_metrics", None),
    ("metrics", "roc_auc", "metrics.roc_auc", None),
    ("stability", "stability_report", "stability.stability_report", None),
    ("explain", "feature_groups", "explain.feature_groups", None),
    ("explain", "sample_background", "explain.sample_background", None),
    ("explain", "kernel_shap", "explain.kernel_shap", None),
    ("explain", "global_importance", "explain.global_importance", None),
    ("explain", "explanation_ranking", "explain.explanation_ranking", None),
    ("explain", "selection_overlap", "explain.selection_overlap", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "run_selectors", "pipeline.run_selectors", None),
    ("pipeline", "emit_reports", "pipeline.emit_reports", None),
    ("artifact", "save_artifact", "artifact.save_artifact", None),
    ("artifact", "load_artifact", "artifact.load_artifact", None),
    ("artifact", "predict_package", "artifact.predict_package",
     lambda a, k: bool(k.get("explain_verdict", False))),
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def begin(self, name: str, request=None, tag=None) -> dict:
        local = self._state()
        if request is not None:
            local.request = request
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": local.stack[-1]["id"] if local.stack else None,
            "request": local.request,
            "tag": tag,
            "process": self.process,
            "start": time.perf_counter(),
            "end": None,
        }
        local.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        local = self._state()
        local.stack.pop()
        if not local.stack:
            local.request = None
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request=None, tag=None):
        span = self.begin(name, request, tag)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, func, name: str, tag=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.begin(name, tag=tag(args, kwargs) if tag else None)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        write_spans(path, sorted(self.spans, key=lambda s: s["start"]))


def instrument(tracer: Tracer) -> None:
    """Wrap every target, replacing each binding of the original function in
    every edysec module, so calls made through imported names are traced too."""
    modules = [importlib.import_module(f"edysec.{m}") for m in MODULES]
    for module_name, attr, span_name, tag in TARGETS:
        owner = importlib.import_module(f"edysec.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = inspect.getattr_static(cls, method)
            if isinstance(raw, classmethod):
                tracer.patch(cls, method, classmethod(tracer.wrap(raw.__func__, span_name, tag)))
            else:
                tracer.patch(cls, method, tracer.wrap(raw, span_name, tag))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span_name, tag)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, name, wrapped)


def instrument_service(tracer: Tracer) -> None:
    """Root span per HTTP request; the request id is the client's X-Request-Id."""
    from edysec import service

    handler = service.VerdictHandler
    original = handler.__dict__["do_POST"]

    def do_POST(self):
        request = self.headers.get("X-Request-Id")
        with tracer.span("service.request", request=request):
            return original(self)

    tracer.patch(handler, "do_POST", do_POST)


# -- per-layer metrics derived from spans ----------------------------------

def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


class SpanIndex:
    """Parent/child lookups over one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s["start"])

    def named(self, name, within=None):
        found = [s for s in self.spans if s["name"] == name]
        if within is not None:
            found = [s for s in found if self.has_ancestor(s, within)]
        return found

    def parent_name(self, span):
        parent = self.by_id.get(span["parent"])
        return parent["name"] if parent else None

    def has_ancestor(self, span, name) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def self_time(self, span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children.get(span["id"], ()))


# Span that opens each selector's stretch of work inside run_selectors.
SELECTOR_MARKERS = {
    "featsel.anova_f_scores": "anova",
    "featsel.select_corr": "corr",
    "featsel.train_baseline": "importance",
    "featsel.select_bpso": "pso",
    "featsel.select_bwoa": "woa",
}


def pipeline_layers(spans, seed: int, stability_runs: int) -> dict:
    """Layer figures of one traced pipeline run (load → run → emit → save)."""
    ix = SpanIndex(spans)
    root = "bench.pipeline"
    total = lambda name: sum(_dur(s) for s in ix.named(name, within=root))
    out = {
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.split_s": total("dataset.split_dataset"),
        "preprocess.fit_s": total("preprocess.fit"),
        "preprocess.transform_s": total("preprocess.transform"),
        "pipeline.select_s": total("pipeline.run_selectors"),
        "pipeline.emit_s": total("pipeline.emit_reports"),
        "stability.report_s": total("stability.stability_report"),
    }

    per_method = dict.fromkeys(SELECTOR_MARKERS.values(), 0.0)
    for run in ix.named("pipeline.run_selectors", within=root):
        method = None
        for child in ix.children.get(run["id"], ()):
            method = SELECTOR_MARKERS.get(child["name"], method)
            if method is not None:
                per_method[method] += _dur(child)
    for method, seconds in per_method.items():
        out[f"featsel.{method}_s"] = seconds

    fitness = ix.named("featsel.fitness", within=root)
    misses = sum(
        1 for s in ix.named("featsel.baseline_validation_accuracy", within=root)
        if ix.parent_name(s) == "featsel.fitness"
    )
    out["featsel.fitness_calls"] = len(fitness)
    out["featsel.baseline_trainings"] = len(ix.named("featsel.train_baseline", within=root))
    out["featsel.fitness_hit_ratio"] = (len(fitness) - misses) / len(fitness) if fitness else 0.0

    trains = ix.named("neuralnet.train", within=root)
    stability_seeds = {seed + 1000 * (r + 1) for r in range(stability_runs)}
    out["neuralnet.train_s"] = sum(_dur(s) for s in trains)
    out["stability.train_s"] = sum(_dur(s) for s in trains if s["tag"] in stability_seeds)
    steps = {name: [] for name in ("neuralnet.forward_batch", "neuralnet.backward", "neuralnet.adam_step")}
    for train in trains:
        for child in ix.children.get(train["id"], ()):
            if child["name"] in steps:
                steps[child["name"]].append(_dur(child))
    out["neuralnet.steps"] = len(steps["neuralnet.adam_step"])
    out["neuralnet.forward_ms"] = _median(steps["neuralnet.forward_batch"], 1e3)
    out["neuralnet.backward_ms"] = _median(steps["neuralnet.backward"], 1e3)
    out["neuralnet.adam_ms"] = _median(steps["neuralnet.adam_step"], 1e3)

    def module_total(prefix):  # outermost spans of one module, so nothing counts twice
        return sum(
            _dur(s) for s in ix.spans
            if s["name"].startswith(prefix) and not (ix.parent_name(s) or "").startswith(prefix)
            and ix.has_ancestor(s, root)
        )

    out["metrics.s"] = module_total("metrics.")
    out["explain.pipeline_s"] = module_total("explain.")
    return out


def verdict_layers(server_spans) -> dict:
    """Per-verdict layer figures from the spans of a traced `edysec serve`."""
    ix = SpanIndex(server_spans)
    plain = [s for s in ix.named("artifact.predict_package") if s["tag"] is False]
    explained = [s for s in ix.named("artifact.predict_package") if s["tag"] is True]

    def under(parents, name):
        return [c for p in parents for c in ix.children.get(p["id"], ()) if c["name"] == name]

    transforms = under(plain, "preprocess.transform")
    shap = under(explained, "explain.kernel_shap")
    rows, model_ms, coalitions = [], [], []
    for s in shap:
        calls = [c for c in ix.children.get(s["id"], ()) if c["name"] == "neuralnet.predict_proba"]
        coalitions.append(len(calls))
        rows.append(sum(c["tag"] for c in calls))
        model_ms.append(sum(_dur(c) for c in calls) * 1e3)
    return {
        "artifact.load_ms": _median([_dur(s) for s in ix.named("artifact.load_artifact")], 1e3),
        "artifact.predict_ms": _median([_dur(s) for s in plain], 1e3),
        "preprocess.transform_ms": _median([_dur(s) for s in transforms], 1e3),
        "preprocess.columns_per_verdict": _median([s["tag"] for s in transforms]),
        "featsel.project_ms": _median([_dur(s) for s in under(plain, "featsel.project")], 1e3),
        "neuralnet.predict_ms": _median([_dur(s) for s in under(plain, "neuralnet.predict_proba")], 1e3),
        "explain.kernel_shap_ms": _median([_dur(s) for s in shap], 1e3),
        "explain.self_ms": _median([ix.self_time(s) for s in shap], 1e3),
        "explain.coalitions": _median(coalitions),
        "neuralnet.explain_rows": _median(rows),
        "neuralnet.explain_predict_ms": _median(model_ms),
    }


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]

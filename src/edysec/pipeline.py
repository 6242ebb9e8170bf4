"""End-to-end orchestration: split, preprocess, run selectors, pick the best
subset by the performance/compactness objective, train candidate networks,
evaluate, and produce stability and explanation reports."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import explain, featsel, metrics, stability, workers
from . import neuralnet as nn
from .artifact import ModelArtifact, dataset_hash
from .dataset import DatasetSplits, TraceDataset, split_dataset
from .errors import BadOption
from .preprocess import Preprocessor, ProcessedMatrix

ANOVA_K = 12  # features the ANOVA selector keeps (all of them if fewer)
MODEL_PRESETS = {"mlp": nn.NetworkSpec.mlp, "nn": nn.NetworkSpec.nn}


@dataclass(frozen=True)
class PipelineOptions:
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0
    alpha: float = featsel.DEFAULT_ALPHA
    selectors: tuple[str, ...] = featsel.METHODS
    swarm: featsel.SwarmConfig = featsel.SwarmConfig()
    baseline: featsel.BaselineConfig = featsel.BaselineConfig()
    models: tuple[str, ...] = ("mlp", "nn")
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    threshold: float = 0.5
    stability_mode: str = "seeds"  # "seeds" | "selectors" | "off"
    stability_runs: int = 10
    explain_count: int = 20

    def __post_init__(self):  # caught before any selection or training
        nn.TrainConfig(self.epochs, self.batch_size, self.learning_rate)  # raises BadOption on a bad value
        if self.explain_count < 0:
            raise BadOption(f"explain_count must be >= 0, got {self.explain_count}")
        unknown = (set(self.selectors) - set(featsel.METHODS)) | (set(self.models) - set(MODEL_PRESETS))
        if unknown:
            raise BadOption(f"unknown selector or model preset: {', '.join(sorted(unknown))}")
        if self.stability_mode not in ("seeds", "selectors", "off"):
            raise BadOption(f"unknown stability mode {self.stability_mode!r}")
        if self.stability_mode == "seeds" and self.stability_runs < 2:
            raise BadOption(f"stability needs at least two runs, got {self.stability_runs}")
        if self.stability_mode == "selectors" and len(self.selectors) < 2:
            raise BadOption(f"stability across selectors needs at least two of them, got {len(self.selectors)}")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["swarm"] = vars(self.swarm).copy()
        d["baseline"] = vars(self.baseline).copy()
        for key in ("ratios", "selectors", "models"):
            d[key] = list(d[key])
        return d


@dataclass
class CandidateScore:
    model: str
    val_accuracy: float
    val_f1: float
    test_f1: float | None = None


@dataclass
class PipelineResult:
    artifact: ModelArtifact
    splits: DatasetSplits
    selector_results: list[featsel.SelectorResult]
    chosen: featsel.SelectorResult
    candidates: list[CandidateScore]
    best_model: str
    evaluation: metrics.MetricsReport
    confusion: metrics.ConfusionMatrix
    stability_rows: list[stability.StabilityRow] | None
    explanations: list[explain.Attribution]
    ranking: list[str]
    overlap: tuple[set, float]
    histories: dict[str, nn.TrainHistory] = field(default_factory=dict)


def train_network(
    name: str, options: PipelineOptions, seed: int, train_sel, val_sel, record_history: bool = True
):
    """Train one model preset on projected train/validation matrices under the
    options' epochs, batch size and learning rate; returns (params, history),
    the history empty without `record_history` (see `nn.train`)."""
    spec = MODEL_PRESETS[name](train_sel.X.shape[1])
    cfg = nn.TrainConfig(
        epochs=options.epochs,
        batch_size=options.batch_size,
        learning_rate=options.learning_rate,
        seed=seed,
    )
    return nn.train(spec, cfg, train_sel.X, train_sel.labels, val_sel.X, val_sel.labels, record_history)


def _val_scores(params, val_pm, threshold):
    probs = nn.predict_proba(params, val_pm.X)
    cm = metrics.confusion(val_pm.labels, probs, threshold)
    report = metrics.classification_metrics(cm)
    return report.accuracy, report.f1


def largest_batch(options: PipelineOptions) -> int:
    """The most jobs any worker batch of a run with these options holds."""
    swarm = options.swarm.population if {"pso", "woa"} & set(options.selectors) else 1
    runs = {"seeds": options.stability_runs, "selectors": len(options.selectors), "off": 0}[options.stability_mode]
    return max(swarm, len(options.selectors), len(options.models) * (1 + runs))


def run_selectors(
    train_pm: ProcessedMatrix,
    val_pm: ProcessedMatrix,
    options: PipelineOptions,
    pool: workers.Pool,
) -> list[featsel.SelectorResult]:
    """Each selector's subset, scored by one shared `MaskFitness` whose
    baselines train in `pool`, so a subset that two selectors pick is trained
    once. The subsets are validated as one batch once every selector has
    picked its own. The importance selector's baseline trains here: its
    weights are used at once."""
    names = train_pm.source_features()
    fitness = featsel.MaskFitness(train_pm, val_pm, pool, options.alpha, options.baseline)
    selections = []
    for method in options.selectors:
        if method == "anova":
            scores = featsel.anova_f_scores(train_pm)
            selected = featsel.select_anova(scores, min(ANOVA_K, len(names)), names)
        elif method == "corr":
            selected = featsel.select_corr(train_pm)
        elif method == "importance":
            baseline = featsel.train_baseline(train_pm.X, train_pm.labels, options.baseline)
            importances = featsel.permutation_importance(baseline, val_pm, seed=options.seed)
            selected = featsel.select_importance(importances, manifest_order=names)
        else:
            runner = featsel.select_bpso if method == "pso" else featsel.select_bwoa
            mask = runner(fitness, len(names), options.swarm).mask
            selected = tuple(n for n, bit in zip(names, mask) if bit)
        selections.append(selected)
    ps = fitness.validation_score(np.array([np.isin(names, selected) for selected in selections])).tolist()
    return [
        featsel.SelectorResult(
            method=method,
            selected=selected,
            d_j=len(selected),
            p_j=p,
            objective=featsel.objective(p, len(selected), len(names), options.alpha),
        )
        for method, selected, p in zip(options.selectors, selections, ps)
    ]


def build_artifact(
    ds, pre, train_sel, selected, params, model, options, provenance, fingerprint=None
) -> ModelArtifact:
    """The artifact of a network trained on `train_sel`, the training rows
    projected onto `selected`: the fitted preprocessor, the selected features,
    the selector provenance, the weights, the threshold, a fingerprint (seed,
    model, dataset hash and the `fingerprint` entries) and the explanation
    background."""
    return ModelArtifact(
        manifest=ds.manifest,
        preprocessor=pre,
        selected=tuple(selected),
        selector_provenance=provenance,
        params=params,
        threshold=options.threshold,
        fingerprint={
            "seed": options.seed, "model": model, "dataset_sha256": dataset_hash(ds), **(fingerprint or {})
        },
        background=explain.sample_background(train_sel, seed=options.seed),
    )


def run_pipeline(ds: TraceDataset, options: PipelineOptions = PipelineOptions()) -> PipelineResult:
    with workers.Pool(largest_batch(options)) as pool:  # the workers start while the data is prepared
        splits = split_dataset(ds, options.ratios, options.seed)
        pre = Preprocessor.fit(splits.train)
        train_pm = pre.transform(splits.train)
        val_pm = pre.transform(splits.validation)
        test_pm = pre.transform(splits.test)

        selector_results = run_selectors(train_pm, val_pm, options, pool)
        chosen = featsel.choose_selector(selector_results)
        runs = stability_configs(options, chosen.selected, selector_results)
        trained, table = train_batch(
            pool, options, (train_pm, val_pm, test_pm), options.models, chosen.selected, runs
        )

    train_sel = featsel.project(train_pm, chosen.selected)
    val_sel = featsel.project(val_pm, chosen.selected)
    test_sel = featsel.project(test_pm, chosen.selected)

    candidates, histories = [], {}
    for name, (params, history) in zip(options.models, trained):
        acc, f1 = _val_scores(params, val_sel, options.threshold)
        candidates.append(CandidateScore(name, acc, f1))
        histories[name] = history
    best = max(candidates, key=lambda c: (c.val_accuracy, c.val_f1))
    params = trained[options.models.index(best.model)][0]

    test_probs = nn.predict_proba(params, test_sel.X)
    cm = metrics.confusion(test_sel.labels, test_probs, options.threshold)
    auc = metrics.roc_auc(test_sel.labels, test_probs)
    report = metrics.classification_metrics(cm, auc=auc)

    stability_rows = None if table is None else stability.stability_report(table, seed=options.seed)

    artifact = build_artifact(
        ds, pre, train_sel, chosen.selected, params, best.model, options,
        provenance={
            "method": chosen.method,
            "p_j": chosen.p_j,
            "d_j": chosen.d_j,
            "objective": chosen.objective,
            "alpha": options.alpha,
        },
        fingerprint={"options": options.to_dict()},
    )
    explanations, ranking, overlap = _explanations(artifact, test_sel, options)
    return PipelineResult(
        artifact=artifact,
        splits=splits,
        selector_results=selector_results,
        chosen=chosen,
        candidates=candidates,
        best_model=best.model,
        evaluation=report,
        confusion=cm,
        stability_rows=stability_rows,
        explanations=explanations,
        ranking=ranking,
        overlap=overlap,
        histories=histories,
    )


def stability_configs(options, selected, selector_results) -> list[tuple[str, tuple, int]]:
    """Labelled (feature subset, seed) stability runs: the stability seeds on
    `selected`, each selector's subset at one seed, or none."""
    if options.stability_mode == "seeds":
        return [(f"seed_{r}", selected, options.seed + 1000 * (r + 1)) for r in range(options.stability_runs)]
    if options.stability_mode == "selectors":
        return [(res.method, res.selected, options.seed) for res in selector_results]
    return []


def _training(options, train_pm, val_pm, test_pm, name, seed, selected, candidate):
    """One worker job: a candidate's (params, history) on `selected`, or, for
    a stability run, the trained network's test F1."""
    train_sel, val_sel = featsel.project(train_pm, selected), featsel.project(val_pm, selected)
    params, history = train_network(name, options, seed, train_sel, val_sel, record_history=candidate)
    if candidate:
        return params, history
    test_sel = featsel.project(test_pm, selected)
    cm = metrics.confusion(test_sel.labels, nn.predict_proba(params, test_sel.X), options.threshold)
    return metrics.classification_metrics(cm).f1


def train_batch(pool, options, matrices, models, selected, runs):
    """The candidate training of each of `models` on `selected`, and every
    model's stability `runs`, as one batch of jobs in `pool`. `matrices` are
    the processed (train, validation, test) rows; the test rows are read by
    stability runs only. Returns the candidates' (params, history) in
    `models` order, and the stability ScoreTable (None without runs)."""
    jobs = [(name, options.seed, selected, True) for name in models]
    jobs += [(name, seed, subset, False) for name in options.models for _, subset, seed in runs]
    done = pool.map(_training, jobs, common=(options, *matrices))
    trained, f1 = done[: len(models)], done[len(models):]
    if not runs:
        return trained, None
    scores = tuple(tuple(f1[i : i + len(runs)]) for i in range(0, len(f1), len(runs)))
    return trained, stability.ScoreTable(tuple(options.models), tuple(label for label, _, _ in runs), scores)


def _explanations(artifact, test_sel, options):
    """The artifact's own attributions of `options.explain_count` test rows,
    drawn at `options.seed`, their global ranking and its selection overlap."""
    groups = explain.feature_groups(test_sel)
    rng = np.random.default_rng(options.seed)
    n = test_sel.X.shape[0]
    count = min(options.explain_count, n)
    idx = np.sort(rng.choice(n, size=count, replace=False)) if count else []
    explanations = [artifact.explain(test_sel.X[i], groups) for i in idx]
    if explanations:
        selected = artifact.selected
        ranking = explain.explanation_ranking(explain.global_importance(explanations))
        overlap = explain.selection_overlap(selected, ranking, min(len(selected), len(ranking)))
    else:
        ranking, overlap = [], (set(), 0.0)
    return explanations, ranking, overlap


def emit_reports(result: PipelineResult, out_dir) -> list[str]:
    """Deterministic report files: evaluation, selector table, stability,
    one explanation record per explained test sample."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def dump(name, payload):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)

    cm = result.confusion
    dump(
        "evaluation.json",
        {
            "model": result.best_model,
            "features": len(result.chosen.selected),
            "metrics": result.evaluation.to_dict(),
            "confusion": {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn},
        },
    )
    dump("selectors.json", [r.to_dict() for r in result.selector_results])
    if result.stability_rows is not None:
        dump("stability.json", [r.display() for r in result.stability_rows])
        path = os.path.join(out_dir, "stability.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(stability.render_table(result.stability_rows))
        written.append(path)

    path = os.path.join(out_dir, "explanations.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for attr in result.explanations:
            fh.write(json.dumps(attr.to_dict(), sort_keys=True))
            fh.write("\n")
    written.append(path)

    overlap_set, score = result.overlap
    dump(
        "overlap.json",
        {"ranking": result.ranking, "overlap": sorted(overlap_set), "jaccard": score},
    )
    return written

"""Feature selection at source-feature granularity: ANOVA, correlation filter,
permutation importance, binary PSO, binary WOA, the performance/compactness
objective, and projection of processed matrices onto a selected subset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from . import neuralnet as nn
from .errors import BadK, BadOption, EmptyResult, LayoutMismatch, SingleClass, UnknownFeature
from .preprocess import ProcessedMatrix

METHODS = ("anova", "corr", "importance", "pso", "woa")

DEFAULT_ALPHA = 0.95


@dataclass(frozen=True)
class SelectorResult:
    method: str
    selected: tuple[str, ...]
    d_j: int
    p_j: float
    objective: float

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown selector method {self.method!r}")
        if not self.selected:
            raise ValueError("selected feature set must be nonempty")
        if not (0.0 <= self.p_j <= 1.0):
            raise ValueError("validation score must lie in [0, 1]")


@dataclass(frozen=True)
class SwarmConfig:
    population: int = 20
    iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise BadOption("population must be >= 2")
        if self.iterations < 1:
            raise BadOption("iterations must be >= 1")


@dataclass(frozen=True)
class SwarmRun:
    """Raw swarm outcome: best mask over all evaluations plus per-iteration bests."""

    mask: np.ndarray
    fitness: float
    history: tuple[float, ...]


def source_matrix(pm: ProcessedMatrix) -> tuple[np.ndarray, list[str]]:
    """One scalar summary column per source feature: numeric features pass
    through; text features collapse to the L2 norm of their processed block."""
    out = np.zeros((pm.X.shape[0], len(pm.layout)))
    for j, (_, kind, cols) in enumerate(pm.spans()):
        out[:, j] = pm.X[:, cols.start] if kind == "numeric" else np.linalg.norm(pm.X[:, cols], axis=1)
    return out, pm.source_features()


def _anova_f(summary: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-way two-group F of each column of `summary`: 0 for a constant
    column, inf where each class is constant but the classes differ."""
    if len(set(y.tolist())) < 2:
        raise SingleClass("both classes must be present")
    g0 = summary[y == 0]
    g1 = summary[y == 1]
    n0, n1 = len(g0), len(g1)
    grand = summary.mean(axis=0)
    between = n0 * (g0.mean(axis=0) - grand) ** 2 + n1 * (g1.mean(axis=0) - grand) ** 2
    within = ((g0 - g0.mean(axis=0)) ** 2).sum(axis=0) + ((g1 - g1.mean(axis=0)) ** 2).sum(axis=0)
    within_ms = within / (n0 + n1 - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(within_ms > 0, between / within_ms, np.where(between == 0, 0.0, np.inf))


def anova_f_scores(pm: ProcessedMatrix) -> dict[str, float]:
    """One-way two-group F per source feature over the scalar summaries."""
    summary, names = source_matrix(pm)
    return dict(zip(names, _anova_f(summary, np.asarray(pm.labels)).tolist()))


def select_anova(scores: dict[str, float], k: int) -> tuple[str, ...]:
    """The k highest-scoring features, ties kept in the scores' (column) order."""
    if not (1 <= k <= len(scores)):
        raise BadK(f"k must be in [1, {len(scores)}], got {k}")
    return tuple(sorted(scores, key=lambda f: -scores[f])[:k])


def select_corr(
    pm: ProcessedMatrix,
    relevance_min: float = 0.1,
    redundancy_max: float = 0.9,
) -> tuple[str, ...]:
    """Keep features with |point-biserial r| >= relevance_min, then drop (ascending
    relevance) features whose |r| with another kept feature exceeds
    redundancy_max. With two classes r^2 = F / (F + n - 2) for the ANOVA F;
    a constant column correlates with nothing."""
    if not (0.0 <= relevance_min <= 1.0 and 0.0 <= redundancy_max <= 1.0):
        raise BadOption("thresholds must lie in [0, 1]")
    summary, names = source_matrix(pm)
    n = len(summary)
    relevance = np.sqrt(1.0 - (n - 2) / (_anova_f(summary, np.asarray(pm.labels)) + n - 2))
    kept = relevance >= relevance_min
    if not kept.any():
        raise EmptyResult("no feature passes the relevance threshold")
    std = summary.std(axis=0)
    z = np.divide(summary - summary.mean(axis=0), std, out=np.zeros_like(summary), where=std > 0)
    redundant = np.abs(z.T @ z) / n > redundancy_max
    for j in sorted(np.flatnonzero(kept), key=lambda j: relevance[j]):  # stable: ties in column order
        kept[j] = False  # j against every other survivor
        kept[j] = not redundant[j, kept].any()
    return tuple(name for name, keep in zip(names, kept) if keep)


def permutation_importance(
    params: nn.NetworkParams,
    pm: ProcessedMatrix,
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """Mean accuracy drop when a feature's whole processed block is permuted."""
    if params.spec.input_width != pm.width:
        raise LayoutMismatch("model input width does not match matrix layout")
    rng = np.random.default_rng(seed)
    base_acc = metrics.accuracy(pm.labels, nn.predict_proba(params, pm.X))
    importances = {}
    for name, _, cols in pm.spans():
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(pm.X.shape[0])
            shuffled = pm.X.copy()
            shuffled[:, cols] = pm.X[perm, cols]
            acc = metrics.accuracy(pm.labels, nn.predict_proba(params, shuffled))
            drops.append(base_acc - acc)
        importances[name] = float(np.mean(drops))
    return importances


def select_importance(importances: dict[str, float], fraction: float) -> tuple[str, ...]:
    """The features at or above `fraction` of the top importance, and the top
    feature itself when every importance is negative."""
    top = max(importances.values())
    return tuple(name for name, importance in importances.items() if importance >= min(fraction * top, top))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.clip(v, -60, 60)))


def _sample(v: np.ndarray, rng) -> np.ndarray:
    """Masks whose bits are drawn with probability sigmoid(v); `_repair` then
    gives each empty mask one bit."""
    return _repair(rng.random(v.shape) < _sigmoid(v), rng)


def _repair(masks: np.ndarray, rng) -> np.ndarray:
    """`masks` with one random bit set in each empty row, drawn in row order."""
    for row in masks:
        if not row.any():
            row[rng.integers(0, len(row))] = True
    return masks


# Binary PSO: inertia falling linearly from PSO_W_START to PSO_W_END, pulls
# PSO_C1 toward the personal and PSO_C2 toward the global best, velocities
# clipped to +-PSO_V_MAX. WOA_B is the whale's log-spiral shape constant.
PSO_W_START, PSO_W_END = 0.9, 0.4
PSO_C1 = PSO_C2 = 2.0
PSO_V_MAX = 6.0
WOA_B = 1.0

# Both swarms call `fitness` with their whole (population, d) boolean mask
# array, once for the initial population and once per iteration, and read
# one score per row.


def select_bpso(fitness, d_source: int, cfg: SwarmConfig = SwarmConfig()) -> SwarmRun:
    """Binary PSO with sigmoid bit sampling; returns the global best mask."""
    if d_source < 1:
        raise ValueError("d_source must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    pop, d = cfg.population, d_source
    x = _repair(rng.integers(0, 2, size=(pop, d)).astype(bool), rng)
    v = rng.uniform(-1.0, 1.0, size=(pop, d))
    pbest, pbest_scores = x.copy(), np.full(pop, -np.inf)
    gbest, gbest_score, history = None, -np.inf, []
    for it in range(cfg.iterations + 1):
        if it:
            w = PSO_W_START + (PSO_W_END - PSO_W_START) * ((it - 1) / max(cfg.iterations - 1, 1))
            r1 = rng.random((pop, d))
            r2 = rng.random((pop, d))
            v = (
                w * v
                + PSO_C1 * r1 * (pbest.astype(float) - x.astype(float))
                + PSO_C2 * r2 * (gbest.astype(float) - x.astype(float))
            )
            np.clip(v, -PSO_V_MAX, PSO_V_MAX, out=v)
            x = _sample(v, rng)
        scores = np.asarray(fitness(x), dtype=float)
        better = scores > pbest_scores
        pbest[better], pbest_scores[better] = x[better], scores[better]
        g = int(np.argmax(pbest_scores))
        if pbest_scores[g] > gbest_score:
            gbest, gbest_score = pbest[g].copy(), float(pbest_scores[g])
        history.append(gbest_score)
    return SwarmRun(gbest, gbest_score, tuple(history))


def select_bwoa(fitness, d_source: int, cfg: SwarmConfig = SwarmConfig()) -> SwarmRun:
    """Binary whale optimization, synchronous as in Mirjalili & Lewis, "The
    Whale Optimization Algorithm", Advances in Engineering Software 95 (2016),
    Fig. 6: each iteration moves every whale relative to the previous
    iteration's leader (encircling or search, or the spiral) on a continuous
    state, samples every mask by sigmoid, scores them as one batch and then
    updates the leader, keeping the best mask of all evaluations."""
    if d_source < 1:
        raise ValueError("d_source must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    pop, d = cfg.population, d_source
    x = rng.uniform(-1.0, 1.0, size=(pop, d))
    best_mask, best_score, history = None, -np.inf, []
    for it in range(cfg.iterations + 1):
        if it:
            a = 2.0 * (1.0 - (it - 1) / max(cfg.iterations - 1, 1))
            moved = np.empty_like(x)
            for i in range(pop):
                if rng.random() < 0.5:
                    A = 2.0 * a * rng.random() - a
                    C = 2.0 * rng.random(d)
                    target = best_x if abs(A) < 1.0 else x[int(rng.integers(0, pop))]
                    moved[i] = target - A * np.abs(C * target - x[i])
                else:
                    l = rng.uniform(-1.0, 1.0)
                    moved[i] = np.abs(best_x - x[i]) * np.exp(WOA_B * l) * np.cos(2.0 * np.pi * l) + best_x
            x = np.clip(moved, -10.0, 10.0)
        masks = _sample(x, rng)
        scores = np.asarray(fitness(masks), dtype=float)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_mask, best_score = masks[i].copy(), float(scores[i])
            # saturate the leader's continuous state so bits sampled near it stay
            # close to the best mask (flip probability sigmoid(-4) ~ 1.8% per bit)
            best_x = np.where(best_mask, 4.0, -4.0)
        history.append(best_score)
    return SwarmRun(best_mask, best_score, tuple(history))


def objective(p_j: float, d_j: int, d_total: int, alpha: float = DEFAULT_ALPHA) -> float:
    """alpha * P + (1 - alpha) * (1 - d/d_total)."""
    if not (0.0 <= alpha <= 1.0):
        raise BadOption(f"alpha must lie in [0, 1], got {alpha}")
    if not (1 <= d_j <= d_total):
        raise ValueError("d_j must lie in [1, d_total]")
    return alpha * p_j + (1.0 - alpha) * (1.0 - d_j / d_total)


def choose_selector(results: list[SelectorResult]) -> SelectorResult:
    """Argmax of the objective; ties broken by smaller d_j, then method order."""
    if not results:
        raise ValueError("need at least one selector result")
    return min(results, key=lambda r: (-r.objective, r.d_j, METHODS.index(r.method)))


def project(pm: ProcessedMatrix, selected) -> ProcessedMatrix:
    """Keep processed columns whose source feature is selected, order preserved."""
    selected = set(selected)
    unknown = selected - set(pm.source_features())
    if unknown:
        raise UnknownFeature(f"unknown source features: {sorted(unknown)}")
    cols = [i for name, _, span in pm.spans() if name in selected for i in range(span.start, span.stop)]
    return ProcessedMatrix(
        X=pm.X[:, cols],
        layout=tuple(entry for entry in pm.layout if entry[0] in selected),
        labels=pm.labels,
        ids=pm.ids,
    )


# -- baseline model used to score candidate subsets -------------------------

@dataclass(frozen=True)
class BaselineConfig:
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise BadOption("epochs must be >= 1")


BASELINE_HIDDEN_UNITS = 64
BASELINE_BATCH_SIZE = 64


def train_baseline(X: np.ndarray, y: np.ndarray, cfg: BaselineConfig = BaselineConfig()) -> nn.NetworkParams:
    """One hidden layer of BASELINE_HIDDEN_UNITS, no dropout, trained at the
    default learning rate in batches of BASELINE_BATCH_SIZE."""
    spec = nn.NetworkSpec(X.shape[1], (nn.LayerSpec(BASELINE_HIDDEN_UNITS, 0.0),))
    train_cfg = nn.TrainConfig(epochs=cfg.epochs, batch_size=BASELINE_BATCH_SIZE, seed=cfg.seed)
    params, _ = nn.train(spec, train_cfg, X, np.asarray(y, dtype=float))
    return params


def baseline_validation_accuracy(
    train_pm: ProcessedMatrix,
    val_pm: ProcessedMatrix,
    selected,
    cfg: BaselineConfig = BaselineConfig(),
) -> float:
    tr = project(train_pm, selected)
    vd = project(val_pm, selected)
    params = train_baseline(tr.X, tr.labels, cfg)
    return metrics.accuracy(vd.labels, nn.predict_proba(params, vd.X))


class MaskFitness:
    """J_FS fitness of a batch of source-feature masks, caching baseline
    trainings. A batch's distinct uncached masks train as one batch in the
    workers of `pool` (a `workers.Pool`)."""

    def __init__(self, train_pm, val_pm, pool, alpha=DEFAULT_ALPHA, baseline=BaselineConfig()):
        self.alpha = alpha
        self.baseline = baseline
        self.pool = pool
        self.names = train_pm.source_features()
        self._matrices = (train_pm, val_pm)  # one object, so a worker receives the matrices once
        self._cache: dict[bytes, tuple[float, float]] = {}

    def _train(self, masks) -> list[tuple[float, float]]:
        """Each mask's (P, J), training the masks not seen before."""
        keys = [np.packbits(mask).tobytes() for mask in masks]
        fresh = {}
        for key, mask in zip(keys, masks):
            if key not in self._cache:
                fresh.setdefault(key, tuple(n for n, bit in zip(self.names, mask) if bit))
        jobs = [(selected, self.baseline) for selected in fresh.values()]
        ps = self.pool.map(baseline_validation_accuracy, jobs, common=self._matrices)
        for (key, selected), p in zip(fresh.items(), ps):
            self._cache[key] = (p, objective(p, len(selected), len(self.names), self.alpha))
        return [self._cache[key] for key in keys]

    def __call__(self, masks) -> np.ndarray:
        """J of each mask."""
        return np.array([j for _, j in self._train(masks)])

    def validation_score(self, masks) -> np.ndarray:
        """The baseline's validation accuracy P of each mask."""
        return np.array([p for p, _ in self._train(masks)])

"""Run-to-run stability statistics: mean/std, percentile bootstrap CI, tied
average ranks, stability score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewScores
from .metrics import midranks

CI_LEVEL = 0.95
BOOTSTRAP_RESAMPLES = 100_000


@dataclass(frozen=True)
class ScoreTable:
    models: tuple[str, ...]
    configs: tuple[str, ...]  # selector methods or seed labels
    scores: tuple[tuple[float, ...], ...]  # [model][config]

    def __post_init__(self):
        if len(self.scores) != len(self.models):
            raise ValueError("one score row per model required")
        if any(len(row) != len(self.configs) for row in self.scores):
            raise ValueError("every model needs a score for every config")
        if len(self.configs) < 2:
            raise TooFewScores("a stability table needs at least two runs")

    def row(self, model: str) -> tuple[float, ...]:
        return self.scores[self.models.index(model)]


@dataclass(frozen=True)
class StabilityRow:
    model: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    avg_rank: float
    stability: float  # 1 - std

    def display(self) -> dict:
        return {
            "model": self.model,
            "mean": round(self.mean, 3),
            "std": round(self.std, 3),
            "avg_rank": round(self.avg_rank, 1),
            "ci": [round(self.ci_low, 3), round(self.ci_high, 3)],
            "stability": round(self.stability, 3),
        }


def sample_std(scores) -> float:
    """Divide-by-(n-1) standard deviation; the convention the report uses."""
    scores = np.asarray(scores, dtype=float)
    if scores.size < 2:
        raise TooFewScores("a standard deviation needs at least two scores")
    return float(scores.std(ddof=1))


def bootstrap_ci(scores, seed: int = 0):
    """CI_LEVEL percentile bootstrap of the mean over BOOTSTRAP_RESAMPLES
    resamples, deterministic per seed."""
    scores = np.asarray(scores, dtype=float)
    if scores.size < 2:
        raise TooFewScores("bootstrap needs at least two scores")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, scores.size, size=(BOOTSTRAP_RESAMPLES, scores.size))
    means = scores[idx].mean(axis=1)
    lo = (1.0 - CI_LEVEL) / 2.0
    return float(np.quantile(means, lo)), float(np.quantile(means, 1.0 - lo))


def average_rank(table: ScoreTable) -> dict[str, float]:
    """Per-config descending ranks with tie-mean, averaged across configs.
    Raises NonFiniteScore on a NaN or infinite score."""
    scores = np.asarray(table.scores, dtype=float)
    ranks = np.empty_like(scores)
    for j in range(scores.shape[1]):
        ranks[:, j] = midranks(-scores[:, j])
    avg = ranks.mean(axis=1)
    return {model: float(r) for model, r in zip(table.models, avg)}


def stability_report(table: ScoreTable, seed: int = 0) -> list[StabilityRow]:
    """One row per model, sorted by mean descending then average rank ascending."""
    ranks = average_rank(table)
    rows = []
    for model in table.models:
        scores = np.asarray(table.row(model), dtype=float)
        mean = float(scores.mean())
        std = sample_std(scores)
        if np.ptp(scores) > 0:
            lo, hi = bootstrap_ci(scores, seed=seed)
        else:
            lo = hi = mean
        rows.append(
            StabilityRow(
                model=model,
                mean=mean,
                std=std,
                ci_low=lo,
                ci_high=hi,
                avg_rank=ranks[model],
                stability=1.0 - std,
            )
        )
    rows.sort(key=lambda r: (-r.mean, r.avg_rank, r.model))
    return rows


def render_table(rows: list[StabilityRow]) -> str:
    """Plain-text table: Model, Mean F1, Std, Avg Rank, 95% CI, Stability."""
    header = f"{'Model':<14}{'Mean F1':>9}{'Std':>8}{'Avg Rank':>10}{'95% CI':>18}{'Stability':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        d = r.display()
        ci = f"[{d['ci'][0]:.3f}, {d['ci'][1]:.3f}]"
        lines.append(
            f"{r.model:<14}{d['mean']:>9.3f}{d['std']:>8.3f}{d['avg_rank']:>10.1f}{ci:>18}{d['stability']:>11.3f}"
        )
    return "\n".join(lines) + "\n"

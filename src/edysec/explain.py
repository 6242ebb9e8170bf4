"""Model-agnostic explanations at source-feature granularity: exact Shapley
enumeration, Kernel SHAP, LIME-style local surrogates, and global aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeatureMismatch, SingularSystem, TooManyFeatures
from .preprocess import ProcessedMatrix

EXACT_LIMIT = 12
KERNEL_ENUM_LIMIT = 14
KERNEL_SAMPLE_BUDGET = 2048  # sampled coalitions above KERNEL_ENUM_LIMIT features


@dataclass(frozen=True)
class Attribution:
    phi: dict[str, float]
    base: float
    fx: float
    method: str

    @property
    def residual(self) -> float:
        return self.base + sum(self.phi.values()) - self.fx

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.phi.items(), key=lambda kv: (-abs(kv[1]), kv[0]))

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "fx": self.fx,
            "method": self.method,
            "residual": self.residual,
            "contributions": [{"feature": f, "phi": p} for f, p in self.ranked()],
        }


@dataclass(frozen=True)
class ExplainConfig:
    lime_perturbations: int = 5000
    lime_top_k: int | None = None
    seed: int = 0


def feature_groups(pm: ProcessedMatrix) -> dict[str, np.ndarray]:
    """Ordered map source feature -> processed column indices."""
    return {name: pm.feature_columns(name) for name in pm.source_features()}


def sample_background(pm: ProcessedMatrix, size: int = 100, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = pm.X.shape[0]
    idx = rng.choice(n, size=min(size, n), replace=False)
    return pm.X[np.sort(idx)]


def _coalition_values(model, x, background, groups, subsets):
    """v(S) = mean model output with features outside S replaced row-wise by
    background values (interventional masking on whole blocks)."""
    names = list(groups)
    values = {}
    for mask_bits in subsets:
        rows = background.copy()
        for j, name in enumerate(names):
            if mask_bits >> j & 1:
                rows[:, groups[name]] = x[groups[name]]
        values[mask_bits] = float(np.mean(model(rows)))
    return values


def exact_shapley(model, x, background, groups) -> Attribution:
    """Full 2^d enumeration of the Shapley value per source feature."""
    d = len(groups)
    if d > EXACT_LIMIT:
        raise TooManyFeatures(f"exact enumeration capped at {EXACT_LIMIT} features, got {d}")
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    subsets = range(1 << d)
    v = _coalition_values(model, x, background, groups, subsets)

    fact = [math.factorial(i) for i in range(d + 1)]
    names = list(groups)
    phi = {}
    for j, name in enumerate(names):
        total = 0.0
        for s in range(1 << d):
            if s >> j & 1:
                continue
            size = bin(s).count("1")
            weight = fact[size] * fact[d - size - 1] / fact[d]
            total += weight * (v[s | (1 << j)] - v[s])
        phi[name] = total
    return Attribution(phi=phi, base=v[0], fx=v[(1 << d) - 1], method="exact_shapley")


def _kernel_weight(d: int, size: int) -> float:
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def kernel_shap(model, x, background, groups, budget=None, seed: int = 0) -> Attribution:
    """Weighted least squares over the Shapley kernel with the empty/full
    coalition constraints enforced exactly.

    `budget` is "exact" (enumerate every coalition) or a sampled coalition
    count. By default coalitions are enumerated up to KERNEL_ENUM_LIMIT
    features and KERNEL_SAMPLE_BUDGET are sampled above it."""
    d = len(groups)
    if d < 2:
        raise ValueError("kernel SHAP needs at least two source features")
    if budget is None:
        budget = "exact" if d <= KERNEL_ENUM_LIMIT else KERNEL_SAMPLE_BUDGET
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    names = list(groups)

    full = (1 << d) - 1
    if budget == "exact":
        if d > KERNEL_ENUM_LIMIT:
            raise TooManyFeatures(
                f"full coalition enumeration capped at {KERNEL_ENUM_LIMIT} features; pass a numeric budget"
            )
        coalitions = [s for s in range(1, full)]
        weights = np.array([_kernel_weight(d, bin(s).count("1")) for s in coalitions])
    else:
        rng = np.random.default_rng(seed)
        sizes = np.arange(1, d)
        size_p = np.array([(d - 1) / (s * (d - s)) for s in sizes])
        size_p /= size_p.sum()
        coalitions = []
        for _ in range(int(budget)):
            size = int(rng.choice(sizes, p=size_p))
            members = rng.choice(d, size=size, replace=False)
            bits = 0
            for m in members:
                bits |= 1 << int(m)
            coalitions.append(bits)
        weights = np.ones(len(coalitions))

    v = _coalition_values(model, x, background, groups, set(coalitions) | {0, full})
    base, fx = v[0], v[full]

    z = np.array([[s >> j & 1 for j in range(d)] for s in coalitions], dtype=float)
    y = np.array([v[s] for s in coalitions])
    # eliminate the last feature via the efficiency constraint
    y_adj = y - base - z[:, -1] * (fx - base)
    Z_adj = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)
    solution, _, rank, _ = np.linalg.lstsq(Z_adj * sw[:, None], y_adj * sw, rcond=None)
    if rank < d - 1:
        raise SingularSystem("degenerate coalition sample; increase the budget")
    phi = {name: float(w) for name, w in zip(names[:-1], solution)}
    phi[names[-1]] = float((fx - base) - solution.sum())
    return Attribution(phi=phi, base=base, fx=fx, method="kernel_shap")


def lime_explain(model, x, background, groups, cfg: ExplainConfig = ExplainConfig()) -> Attribution:
    """Local surrogate: mask random feature subsets to background values, fit a
    distance-weighted linear model on the binary mask design."""
    d = len(groups)
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    names = list(groups)
    n_pert = cfg.lime_perturbations
    if n_pert < 10 * d:
        raise ValueError(f"need at least {10 * d} perturbations for {d} features")
    rng = np.random.default_rng(cfg.seed)

    masks = rng.integers(0, 2, size=(n_pert, d))  # 1 = keep the instance value
    bg_idx = rng.integers(0, len(background), size=n_pert)
    rows = background[bg_idx].copy()
    for j, name in enumerate(names):
        keep = masks[:, j] == 1
        rows[np.ix_(keep, groups[name])] = x[groups[name]]
    preds = np.asarray(model(rows), dtype=float)

    dist = 1.0 - masks.mean(axis=1)
    width = 0.75 * math.sqrt(d)
    sw = np.sqrt(np.exp(-(dist**2) / width**2))
    design = np.hstack([np.ones((n_pert, 1)), masks.astype(float)])
    solution, _, rank, _ = np.linalg.lstsq(design * sw[:, None], preds * sw, rcond=None)
    if rank < d + 1:
        raise SingularSystem("degenerate perturbation sample")

    intercept = float(solution[0])
    coefs = solution[1:]
    if cfg.lime_top_k is not None and cfg.lime_top_k < d:
        keep = set(np.argsort(-np.abs(coefs))[: cfg.lime_top_k].tolist())
        coefs = np.array([c if j in keep else 0.0 for j, c in enumerate(coefs)])
    fx = float(np.asarray(model(x.reshape(1, -1)))[0])
    phi = {name: float(c) for name, c in zip(names, coefs)}
    return Attribution(phi=phi, base=intercept, fx=fx, method="lime")


def global_importance(attributions: list[Attribution]) -> dict[str, float]:
    """I(f) = mean |phi_f| over instances."""
    if not attributions:
        raise ValueError("need at least one attribution")
    features = set(attributions[0].phi)
    for a in attributions[1:]:
        if set(a.phi) != features:
            raise FeatureMismatch("attributions cover different feature sets")
    return {
        f: float(np.mean([abs(a.phi[f]) for a in attributions])) for f in attributions[0].phi
    }


def explanation_ranking(importance: dict[str, float]) -> list[str]:
    if not importance:
        raise ValueError("importance map is empty")
    return sorted(importance, key=lambda f: (-importance[f], f))


def selection_overlap(selected, ranking: list[str], k: int | None = None) -> tuple[set, float]:
    """Overlap of the selected subset with the top-k explanation ranking;
    score is the Jaccard index of the two sets."""
    selected = set(selected)
    if k is None:
        k = len(selected)
    if k > len(ranking):
        raise ValueError("k exceeds the ranking length")
    top = set(ranking[:k])
    overlap = selected & top
    union = selected | top
    return overlap, (len(overlap) / len(union) if union else 1.0)

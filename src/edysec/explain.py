"""Model-agnostic explanations at source-feature granularity: Kernel SHAP,
LIME-style local surrogates, and global aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import allocate
from .errors import FeatureMismatch, NoBackground, SingularSystem, TooFewFeatures, TooManyFeatures
from .preprocess import ProcessedMatrix

KERNEL_SAMPLE_BUDGET = 20480  # (coalition, background row) forward rows a plan makes unless told otherwise
KERNEL_BACKGROUND_K = 16  # weighted centroids that stand in for the background, each with its own sample
# Rows per model call, in whole coalitions (at least one) of a centroid's rows.
# The benchmark's explained verdicts (two BLAS threads) took a median 262 / 252 /
# 244 ms at 256 / 512 / 1024 rows, with a peak RSS of 60.2 / 61.7 / 65.0 MB (100
# rows: 380 ms, 59.8 MB). Past 512, a doubling buys about 3% for 3 MB more.
MODEL_BLOCK_ROWS = 512
LIME_PERTURBATIONS = 5000  # masked rows per LIME fit, at least 10 per feature


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


def feature_groups(pm: ProcessedMatrix) -> dict[str, np.ndarray]:
    """Ordered map source feature -> processed column indices."""
    return {name: np.arange(cols.start, cols.stop) for name, _, cols in pm.spans()}


def sample_background(pm: ProcessedMatrix, size: int = 100, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = pm.X.shape[0]
    idx = rng.choice(n, size=min(size, n), replace=False)
    return pm.X[np.sort(idx)]


def summarize_background(background, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Weighted k-means summary of a background sample: at most
    KERNEL_BACKGROUND_K centroids, each weighted by its cluster's share of the
    rows, so the weighted mean is the background mean. A background of that
    many rows or fewer passes through with uniform weights. Seeded k-means++
    start, then at most 100 Lloyd iterations."""
    k = KERNEL_BACKGROUND_K
    background = np.asarray(background, dtype=float)
    n = len(background)
    if n <= k:
        return background, np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    centers = [background[rng.integers(n)]]
    dist = ((background - centers[0]) ** 2).sum(axis=1)
    while len(centers) < k and dist.sum() > 0:  # stops early below k distinct rows
        centers.append(background[rng.choice(n, p=dist / dist.sum())])
        dist = np.minimum(dist, ((background - centers[-1]) ** 2).sum(axis=1))
    centers = np.array(centers)
    labels = np.full(n, -1)
    for _ in range(100):
        nearest = ((background[:, None, :] - centers) ** 2).sum(axis=2).argmin(axis=1)
        if np.array_equal(nearest, labels):
            break
        labels = nearest
        centers = np.array([
            background[labels == c].mean(axis=0) if (labels == c).any() else centers[c]
            for c in range(len(centers))
        ])
    used = np.unique(labels)  # the centers left are exactly the means of these clusters
    return centers[used], np.bincount(labels)[used] / n


def _column_masks(groups, coalitions, width: int) -> np.ndarray:
    """One boolean row per coalition over the processed columns: True where
    the column's group is in the coalition."""
    columns = np.zeros((len(coalitions), width), dtype=bool)
    for j, idx in enumerate(groups.values()):
        columns[:, idx] = coalitions[:, j : j + 1]
    return columns


def _kernel_weight(d: int, size: int) -> float:
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _tier(d: int, s: int) -> np.ndarray:
    """Every size-s coalition of d features as a bool row, in
    `itertools.combinations` order: each member set of size k is extended by
    every feature after its last, one whole level at a time."""
    members = np.arange(d)[:, None]
    for _ in range(s - 1):
        last = members[:, -1]
        after = d - 1 - last  # the features after each set's last member
        starts = np.cumsum(after) - after
        nxt = np.arange(after.sum()) - np.repeat(starts - last - 1, after)
        members = np.column_stack([np.repeat(members, after, axis=0), nxt])
    rows = np.zeros((len(members), d), dtype=bool)
    rows[np.arange(len(members))[:, None], members] = True
    return rows


def _sample_coalitions(d: int, budget: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Coalition rows and kernel weights for `budget` distinct coalitions
    (rounded down to even, capped at the 2^d - 2 proper ones).

    Size tiers are taken in complement pairs (s, d - s), outermost first. A
    tier is enumerated whole while the budget left, split by kernel mass over
    the open tiers, covers it (the shap KernelExplainer rule). The open tiers
    are then sampled in complement pairs, tier by mass and members uniformly,
    until the budget is filled; each sampled coalition is weighted by its draw
    count, scaled so that every size keeps its total kernel mass."""
    mass = lambda s: (d - 1) / (s * (d - s))  # kernel weight of all size-s coalitions together
    pair = lambda s: 1 if 2 * s == d else 2  # the middle tier of an even d is its own complement
    left = min(budget - budget % 2, (1 << d) - 2)
    tiers = list(range(1, d // 2 + 1))
    rows, weights = [], []
    while tiers:
        s = tiers[0]
        count = pair(s) * math.comb(d, s)
        share = pair(s) * mass(s) / sum(pair(t) * mass(t) for t in tiers)
        if left * share < count - 1e-8:
            break
        tier = _tier(d, s)
        if pair(s) == 2:  # each coalition, then its complement
            tier = np.stack([tier, ~tier], axis=1).reshape(-1, d)
        rows.append(tier)
        weights.append(np.full(count, _kernel_weight(d, s)))
        left -= count
        tiers.pop(0)

    draws: dict[bytes, int] = {}
    p = np.array([pair(t) * mass(t) for t in tiers])
    while len(draws) < left:  # every pair adds two new coalitions or none
        sizes = rng.choice(tiers, size=left // 2, p=p / p.sum())
        batch = rng.random((len(sizes), d)).argsort(axis=1) < sizes[:, None]
        for row in batch:
            for member in (row, ~row):
                key = member.tobytes()
                draws[key] = draws.get(key, 0) + 1
            if len(draws) >= left:
                break
    sampled = np.frombuffer(b"".join(draws), dtype=bool).reshape(-1, d)
    counts = np.array(list(draws.values()), dtype=float)
    sizes = sampled.sum(axis=1)
    per_size = np.bincount(sizes, weights=counts, minlength=d)
    rows.append(sampled)
    weights.append(counts / per_size[sizes] * mass(sizes))
    return np.concatenate(rows), np.concatenate(weights)


@dataclass(frozen=True)
class ExplanationPlan:
    """Kernel SHAP stratified by background centroid, built by
    `explanation_plan` and never written after; `kernel_shap` reads it.

    A centroid is a set of background rows: `centers` has shape (k, r, width),
    and centroid k's game is v_k(S) = the mean over its r rows of f(x on S,
    that row elsewhere), so v_k(full) = f(x). Centroid k owns the coalition
    rows `bits[bounds[k]:bounds[k+1]]`, with their kernel weights and the
    inverse Gram matrix of its weighted design (last feature eliminated); the
    attribution is the weighted sum of the centroids' Kernel SHAP solutions.
    Exact Kernel SHAP, one centroid that holds the whole background with every
    proper coalition, is the plan wherever its rows fit the budget."""

    groups: dict[str, np.ndarray]
    centers: np.ndarray
    weights: np.ndarray
    bits: np.ndarray
    kernel: np.ndarray
    bounds: np.ndarray
    gram_inv: np.ndarray


def _gram_inverse(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(D^T D)^-1 for the design D over coalition rows `z` scaled by
    sqrt(weight), the last feature eliminated via the efficiency constraint.
    Raises SingularSystem unless D determines every attribution (lstsq's
    cut-off)."""
    z = z.astype(float)
    design = (z[:, :-1] - z[:, -1:]) * np.sqrt(weights)[:, None]
    _, s, vt = np.linalg.svd(design, full_matrices=False)
    full_rank = design.shape[1]
    if len(s) < full_rank or np.sum(s > s[0] * max(design.shape) * np.finfo(float).eps) < full_rank:
        raise SingularSystem("degenerate coalition sample; increase the budget")
    return (vt.T / s**2) @ vt


def explanation_plan(background, groups, budget: int = KERNEL_SAMPLE_BUDGET, seed: int = 0) -> ExplanationPlan:
    """Coalitions, kernel weights, background centroids and solve for
    `kernel_shap` over the source-feature `groups`, within `budget`
    (coalition, background row) forward rows. The plan is exact, one centroid
    that holds the whole background and enumerates every proper coalition,
    where that fits: r * (2^d - 2) <= budget. Otherwise the background is
    summarised to at most KERNEL_BACKGROUND_K weighted centroids. The budget is
    split between the centroids by weight, and each takes its own distinct
    coalitions with `_sample_coalitions`, seeded by `seed` (see
    `ExplanationPlan`). Raises NoBackground for a background of no rows and
    SingularSystem if the coalitions cannot determine every attribution."""
    d = len(groups)
    if d < 2:
        raise TooFewFeatures(f"kernel SHAP needs at least two source features, got {d}")
    background = np.asarray(background, dtype=float)
    if not len(background):
        raise NoBackground("kernel SHAP needs at least one background row")
    rng = np.random.default_rng(seed)
    if len(background) * ((1 << d) - 2) <= budget:  # its share caps at 2^d - 2: whole tiers, nothing drawn
        centers, weights = background[None], np.ones(1)
    else:
        centers, weights = summarize_background(background, seed=seed)
        centers = centers[:, None, :]
    samples = [_sample_coalitions(d, 2 * share, rng) for share in allocate(budget // 2, weights)]
    gram_inv = np.array([_gram_inverse(z, w) for z, w in samples])
    bits, kernel = (np.concatenate(part) for part in zip(*samples))
    bounds = np.cumsum([0] + [len(z) for z, _ in samples])
    return ExplanationPlan(dict(groups), centers, weights, bits, kernel, bounds, gram_inv)


def kernel_shap(model, x, plan: ExplanationPlan) -> Attribution:
    """Weighted least squares over the Shapley kernel with the empty/full
    coalition constraints enforced exactly, as `plan` lays it out. A caller
    that explains many rows builds the plan once."""
    x = np.asarray(x, dtype=float)
    _, r, width = plan.centers.shape
    # one call for every centroid row and x: float32 scores depend on the batch they are in
    ends = np.asarray(model(np.vstack([plan.centers.reshape(-1, width), x])), dtype=float)
    bases, fx = ends[:-1].reshape(-1, r).mean(axis=1), float(ends[-1])
    owner = np.repeat(np.arange(len(bases)), np.diff(plan.bounds))
    v = np.empty(len(plan.bits))
    step = max(1, MODEL_BLOCK_ROWS // r)  # coalitions per model call
    for start in range(0, len(v), step):  # column masks for one block at a time
        block = slice(start, start + step)
        masks = _column_masks(plan.groups, plan.bits[block], width)[:, None, :]
        scores = model(np.where(masks, x, plan.centers[owner[block]]).reshape(-1, width))
        v[block] = np.asarray(scores, dtype=float).reshape(-1, r).mean(axis=1)
    phi = np.zeros(len(plan.groups))
    for k, (lo, hi) in enumerate(zip(plan.bounds[:-1], plan.bounds[1:])):
        bits = plan.bits[lo:hi]
        y = v[lo:hi] - bases[k] - bits[:, -1] * (fx - bases[k])
        g = (plan.kernel[lo:hi] * y) @ bits  # g[:-1] - g[-1] is D^T (sw * y) for the weighted design D
        solution = plan.gram_inv[k] @ (g[:-1] - g[-1])
        phi += plan.weights[k] * np.append(solution, fx - bases[k] - solution.sum())
    return Attribution(dict(zip(plan.groups, phi.tolist())), float(plan.weights @ bases), fx, "kernel_shap")


def lime_explain(model, x, background, groups) -> Attribution:
    """Local surrogate: mask random feature subsets to background values, fit a
    distance-weighted linear model on the binary mask design. Draws
    LIME_PERTURBATIONS masks at seed 0."""
    d = len(groups)
    n_pert = LIME_PERTURBATIONS
    if 10 * d > n_pert:
        raise TooManyFeatures(f"LIME covers at most {n_pert // 10} source features, got {d}")
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    names = list(groups)
    rng = np.random.default_rng(0)

    masks = rng.integers(0, 2, size=(n_pert, d))  # 1 = keep the instance value
    bg_idx = rng.integers(0, len(background), size=n_pert)
    rows = np.where(_column_masks(groups, masks == 1, len(x)), x, background[bg_idx])
    preds = np.asarray(model(rows), dtype=float)

    dist = 1.0 - masks.mean(axis=1)
    width = 0.75 * math.sqrt(d)
    sw = np.sqrt(np.exp(-(dist**2) / width**2))
    design = np.hstack([np.ones((n_pert, 1)), masks.astype(float)])
    solution, _, rank, _ = np.linalg.lstsq(design * sw[:, None], preds * sw, rcond=None)
    if rank < d + 1:
        raise SingularSystem("degenerate perturbation sample")

    fx = float(np.asarray(model(x.reshape(1, -1)))[0])
    phi = {name: float(c) for name, c in zip(names, solution[1:])}
    return Attribution(phi=phi, base=float(solution[0]), fx=fx, method="lime")


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

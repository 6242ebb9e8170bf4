"""Model-agnostic explanations at source-feature granularity: Kernel SHAP,
LIME-style local surrogates, and global aggregation."""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import allocate
from .errors import FeatureMismatch, NoBackground, SingularSystem, TooFewFeatures, TooManyFeatures, WidthMismatch
from .preprocess import ProcessedMatrix

KERNEL_SAMPLE_BUDGET = 20480  # (coalition, centroid) forward rows a plan makes unless told otherwise
KERNEL_BACKGROUND_K = 16  # weighted centroids that stand in for the background, each with its own sample
# Rows per model call, one per (coalition, centroid); a centroid is one weighted
# background row, so a block may span centroids. An explained verdict of the
# benchmark's served artifact (in process, two BLAS threads) took a median
# 150-153 / 130-134 / 128-131 ms at 256 / 512 / 1024 rows, with a peak RSS of
# 45.5 / 47.8 / 51.3 MB; tests/explain_profile.py read 512 against 256 at
# 0.85-0.87 and against 1024 at 1.025-1.032, at widths 92 and 1543. Past 512,
# a doubling buys about 3% for 3.5 MB more.
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
    rows, so the weighted mean is the background mean. Seeded k-means++
    start, then at most 100 Lloyd iterations."""
    k = KERNEL_BACKGROUND_K
    background = np.asarray(background, dtype=float)
    n = len(background)
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


def _kernel_weight(d: int, size: int) -> float:
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _tier(d: int, s: int) -> np.ndarray:
    """Every size-s coalition of d features as a bool row, in
    `itertools.combinations` order."""
    members = np.array(list(itertools.combinations(range(d), s)))
    rows = np.zeros((len(members), d), dtype=bool)
    np.put_along_axis(rows, members, True, axis=1)
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

    A centroid is one weighted background row: `centers` has shape (k, width),
    and centroid k's game is v_k(S) = f(x on S, centroid k elsewhere), so
    v_k(full) = f(x). Centroid k owns the coalition rows
    `bits[bounds[k]:bounds[k+1]]`, with their kernel weights and the inverse
    Gram matrix of its weighted design (last feature eliminated); the
    attribution is the weighted sum of the centroids' Kernel SHAP solutions.
    Exact Kernel SHAP, every background row its own centroid at weight 1/r
    with every proper coalition (by Shapley linearity the exact answer of the
    background-mean game), is the plan wherever its rows fit the budget."""

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
    (coalition, centroid) forward rows. Each of the r background rows is a
    centroid of weight 1/r where r * (2^d - 2) <= budget (the plan is exact:
    each enumerates every proper coalition) or r <= KERNEL_BACKGROUND_K.
    Otherwise the background is summarised to that many weighted centroids.
    The budget is split between the centroids by weight, and each takes its
    own distinct coalitions with `_sample_coalitions`, seeded by `seed` (see
    `ExplanationPlan`). Raises NoBackground for a background of no rows and
    SingularSystem if the coalitions cannot determine every attribution."""
    d = len(groups)
    if d < 2:
        raise TooFewFeatures(f"kernel SHAP needs at least two source features, got {d}")
    background = np.asarray(background, dtype=float)
    r = len(background)
    if not r:
        raise NoBackground("kernel SHAP needs at least one background row")
    rng = np.random.default_rng(seed)
    if r <= KERNEL_BACKGROUND_K or r * ((1 << d) - 2) <= budget:  # the rows are their own centroids
        centers, weights = background, np.full(r, 1 / r)
    else:
        centers, weights = summarize_background(background, seed=seed)
    samples = [_sample_coalitions(d, 2 * share, rng) for share in allocate(budget // 2, weights)]
    gram_inv = np.array([_gram_inverse(z, w) for z, w in samples])
    bits, kernel = (np.concatenate(part) for part in zip(*samples))
    bounds = np.cumsum([0] + [len(z) for z, _ in samples])
    return ExplanationPlan(dict(groups), centers, weights, bits, kernel, bounds, gram_inv)


@dataclass(frozen=True)
class SplitModel:
    """A model split after its first affine layer, f(X) = head(X·weight +
    bias), as `kernel_shap` scores it: `predict` is f itself, which scores the
    explained row and the centroids, and `head` scores first-layer
    pre-activations. A plain callable f is the split with weight I, bias 0
    and head f (`SplitModel.of`)."""

    predict: Callable[[np.ndarray], np.ndarray]
    weight: np.ndarray
    bias: np.ndarray
    head: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def of(cls, model, width: int) -> "SplitModel":
        if isinstance(model, cls):
            return model
        return cls(model, np.eye(width), np.zeros(width), model)


def _coalition_values(model: SplitModel, x, centers, groups, bits, bounds) -> np.ndarray:
    """`model.head`'s value of each coalition row: x on the features in S and
    row k of `centers` elsewhere, for the rows bits[bounds[k]:bounds[k+1]].

    A coalition row enters the model as its first-layer pre-activation c_k·W
    + b + Σ_{g∈S} (x − c_k)_g·W_g: with base_k = c_k·W + b and U_k, whose row
    g is (x − c_k)[cols_g] @ W[cols_g], a block of centroid k's coalition bits
    is `bits @ U_k + base_k`, computed in the dtype of W."""
    weight = model.weight
    centers = centers.astype(weight.dtype)
    shift = x.astype(weight.dtype) - centers
    lift = np.stack([shift[:, cols] @ weight[cols] for cols in groups.values()], axis=1)  # U_k, (k, d, units)
    offset = centers @ weight + model.bias  # base_k, (k, units)
    owner = np.repeat(np.arange(len(centers)), np.diff(bounds))
    v = np.empty(len(bits))
    for start in range(0, len(v), MODEL_BLOCK_ROWS):
        stop = min(start + MODEL_BLOCK_ROWS, len(v))
        block = bits[start:stop].astype(weight.dtype)
        z = np.empty((stop - start, weight.shape[1]), dtype=weight.dtype)
        for k in range(owner[start], owner[stop - 1] + 1):  # the block's rows, owner by owner
            rows = slice(max(bounds[k], start) - start, min(bounds[k + 1], stop) - start)
            np.matmul(block[rows], lift[k], out=z[rows])
            z[rows] += offset[k]
        v[start:stop] = model.head(z)
    return v


def kernel_shap(model, x, plan: ExplanationPlan) -> Attribution:
    """Weighted least squares over the Shapley kernel with the empty/full
    coalition constraints enforced exactly, as `plan` lays it out. `model` is
    a SplitModel or a plain callable (see there), scored through
    `_coalition_values`. A caller that explains many rows builds the plan once.
    Raises WidthMismatch, before any scoring, for a row not as wide as the
    plan's centroids."""
    x = np.asarray(x, dtype=float)
    if x.shape != plan.centers.shape[1:]:
        raise WidthMismatch(f"expected width {plan.centers.shape[1]}, got a row of shape {x.shape}")
    model = SplitModel.of(model, len(x))
    # one call for every centroid and x: float32 scores depend on the batch they are in
    ends = np.asarray(model.predict(np.vstack([plan.centers, x])), dtype=float)
    bases, fx = ends[:-1], float(ends[-1])
    v = _coalition_values(model, x, plan.centers, plan.groups, plan.bits, plan.bounds)
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
    LIME_PERTURBATIONS masks at seed 0. `model` is scored as in `kernel_shap`,
    each background row the centroid of the perturbations drawn against it."""
    d = len(groups)
    n_pert = LIME_PERTURBATIONS
    if 10 * d > n_pert:
        raise TooManyFeatures(f"LIME covers at most {n_pert // 10} source features, got {d}")
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    model = SplitModel.of(model, len(x))
    fx = float(np.asarray(model.predict(x.reshape(1, -1)))[0])
    rng = np.random.default_rng(0)

    masks = rng.integers(0, 2, size=(n_pert, d))  # 1 = keep the instance value
    bg_idx = rng.integers(0, len(background), size=n_pert)
    order = np.argsort(bg_idx, kind="stable")  # the perturbations grouped by background row
    bounds = np.cumsum([0, *np.bincount(bg_idx, minlength=len(background))])
    preds = np.empty(n_pert)
    preds[order] = _coalition_values(model, x, background, groups, masks[order], bounds)

    dist = 1.0 - masks.mean(axis=1)
    width = 0.75 * math.sqrt(d)
    sw = np.sqrt(np.exp(-(dist**2) / width**2))
    design = np.hstack([np.ones((n_pert, 1)), masks.astype(float)])
    solution, _, rank, _ = np.linalg.lstsq(design * sw[:, None], preds * sw, rcond=None)
    if rank < d + 1:
        raise SingularSystem("degenerate perturbation sample")

    phi = {name: float(c) for name, c in zip(groups, solution[1:])}
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

"""Model-agnostic explanations at source-feature granularity: Kernel SHAP,
LIME-style local surrogates, and global aggregation."""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import allocate
from .errors import (
    FeatureMismatch,
    NoBackground,
    SingularSystem,
    TooFewFeatures,
    TooManyFeatures,
    WidthMismatch,
)
from .preprocess import ProcessedMatrix

# (coalition, centroid) forward rows a plan makes unless told otherwise: the
# smallest round budget that keeps 10 features over 12 background rows exact
# (12 x 1,022 = 12,264 rows)
KERNEL_SAMPLE_BUDGET = 12288
# Rows per model call, one per (coalition, centroid); a centroid is one weighted
# background row, so a block may span centroids. An explained verdict of the
# benchmark's served artifact (in process, two BLAS threads) took a median
# 150-153 / 130-134 / 128-131 ms at 256 / 512 / 1024 rows, with a peak RSS of
# 45.5 / 47.8 / 51.3 MB; tests/explain_profile.py read 512 against 256 at
# 0.85-0.87 and against 1024 at 1.025-1.032, at widths 92 and 1543. Past 512,
# a doubling buys about 3% for 3.5 MB more.
MODEL_BLOCK_ROWS = 512
LIME_PERTURBATIONS = 5000  # masked rows per LIME fit, at least 10 per feature
# Each centroid's control variate (`_Surrogate`) stands in for the link by its
# chord plus SURROGATE_SINES sine terms, fitted on SURROGATE_POINTS interior
# points.
SURROGATE_SINES = 8
SURROGATE_POINTS = 32


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
    """Kernel SHAP stratified by background row, built by `explanation_plan`
    and never written after; `kernel_shap` reads it.

    Every background row is a centroid of weight 1/r: `centers` has shape
    (r, width), and centroid k's game is v_k(S) = f(x on S, centroid k
    elsewhere), so v_k(full) = f(x). Centroid k owns the coalition rows
    `bits[bounds[k]:bounds[k+1]]`, with their kernel weights and the inverse
    Gram matrix of its weighted design (last feature eliminated); the
    attribution is the weighted sum of the centroids' solutions. Where every
    centroid's share holds every proper coalition, the plan is exact Kernel
    SHAP: by Shapley linearity the exact answer of the background-mean game."""

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
    """Coalitions, kernel weights and solve for `kernel_shap` over the
    source-feature `groups`, within `budget` (coalition, centroid) forward
    rows. Each of the r background rows is a centroid of weight 1/r, so the
    budget is split evenly between them, and each takes its own distinct
    coalitions with `_sample_coalitions`, seeded by `seed` (see
    `ExplanationPlan`): every proper coalition where r * (2^d - 2) <= budget.
    A coalition and its complement give one design row between them, so each
    centroid's budget // (2r) pairs must determine its d - 1 unknowns: over a
    100-row background the default budget (61 or 62 pairs a centroid) covers
    at most 59 source features, some seeds 60. Raises NoBackground for a
    background of no rows and SingularSystem if the coalitions cannot
    determine every attribution."""
    d = len(groups)
    if d < 2:
        raise TooFewFeatures(f"kernel SHAP needs at least two source features, got {d}")
    background = np.asarray(background, dtype=float)
    r = len(background)
    if not r:
        raise NoBackground("kernel SHAP needs at least one background row")
    rng = np.random.default_rng(seed)
    weights = np.full(r, 1 / r)
    samples = [_sample_coalitions(d, 2 * share, rng) for share in allocate(budget // 2, weights)]
    gram_inv = np.array([_gram_inverse(z, w) for z, w in samples])
    bits, kernel = (np.concatenate(part) for part in zip(*samples))
    bounds = np.cumsum([0] + [len(z) for z, _ in samples])
    return ExplanationPlan(dict(groups), background, weights, bits, kernel, bounds, gram_inv)


@dataclass(frozen=True)
class SplitModel:
    """A model split after its first affine layer and before its link,
    f(X) = link(head(X·weight + bias)), as `kernel_shap` scores it: `logits`
    takes whole rows (the explained row and the centroids) to the values the
    link maps to scores, a network's logits, and `head` takes first-layer
    pre-activations to the same values; `link` is applied to whole arrays of
    them. A plain callable f is the split with logits f, weight I, bias 0,
    head f and the identity link (`SplitModel.of`)."""

    logits: Callable[[np.ndarray], np.ndarray]
    weight: np.ndarray
    bias: np.ndarray
    head: Callable[[np.ndarray], np.ndarray]
    link: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def of(cls, model, width: int) -> "SplitModel":
        if isinstance(model, cls):
            return model
        return cls(model, np.eye(width), np.zeros(width), model, lambda t: t)


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
    values = []
    for start in range(0, len(bits), MODEL_BLOCK_ROWS):
        stop = min(start + MODEL_BLOCK_ROWS, len(bits))
        block = bits[start:stop].astype(weight.dtype)
        z = np.empty((stop - start, weight.shape[1]), dtype=weight.dtype)
        for k in range(owner[start], owner[stop - 1] + 1):  # the block's rows, owner by owner
            rows = slice(max(bounds[k], start) - start, min(bounds[k + 1], stop) - start)
            np.matmul(block[rows], lift[k], out=z[rows])
            z[rows] += offset[k]
        values.append(model.head(z))
    return np.concatenate(values)


def _solve(plan: ExplanationPlan, owner, values, empty, full) -> np.ndarray:
    """Every centroid's Kernel SHAP solution, (k, d), for the coalition values
    `values` of games with v_k(empty) = empty[k] and v_k(full) = full[k]:
    each centroid's D^T (sw * y) from one `np.add.reduceat`, then one batched
    product with the plan's inverse Gram matrices."""
    span = full - empty
    y = values - empty[owner] - plan.bits[:, -1] * span[owner]
    g = np.add.reduceat((plan.kernel * y)[:, None] * plan.bits, plan.bounds[:-1], axis=0)
    solution = np.matmul(plan.gram_inv, (g[:, :-1] - g[:, -1:])[:, :, None])[:, :, 0]
    return np.column_stack([solution, span - solution.sum(axis=1)])


@dataclass(frozen=True)
class _Surrogate:
    """Centroid k's surrogate link: s_k(t) ≈ link(h_k + t) on [lo_k, lo_k +
    span_k], the range of a_k·1_S over the coalitions S, written as the chord
    through both ends plus SURROGATE_SINES sine terms of the remainder, which
    vanishes at both ends. Its game G_k(S) = s_k(a_k·1_S) has an exact
    Shapley value in closed form (`shapley`)."""

    lo: np.ndarray  # (k,)
    span: np.ndarray  # (k,), 1 where the range is a point
    start: np.ndarray  # s_k(lo_k)
    slope: np.ndarray  # the chord's
    coef: np.ndarray  # (k, SURROGATE_SINES)

    @classmethod
    def fit(cls, link, h, a) -> "_Surrogate":
        """The chord through link(h_k + t) at both ends of the range of a_k·1_S,
        and the sine coefficients of the remainder by a type-I discrete sine
        transform over SURROGATE_POINTS evenly spaced interior points."""
        lo, hi = np.minimum(a, 0).sum(axis=1), np.maximum(a, 0).sum(axis=1)
        span = np.where(hi > lo, hi - lo, 1.0)
        n = SURROGATE_POINTS + 1
        u = np.arange(n + 1) / n  # both ends, the points between them
        s = link(h[:, None] + lo[:, None] + span[:, None] * u)
        slope = (s[:, -1] - s[:, 0]) / span
        rest = s[:, 1:-1] - s[:, :1] - (slope * span)[:, None] * u[1:-1]
        basis = np.sin(np.pi / n * np.outer(np.arange(1, n), np.arange(1, SURROGATE_SINES + 1)))
        return cls(lo, span, s[:, 0], slope, 2 / n * rest @ basis)

    def __call__(self, t, k) -> np.ndarray:
        """s_k(t) for each value t and its centroid k, the sine terms summed by
        Clenshaw's recurrence, sin((m+1)θ) = 2cos θ sin(mθ) − sin((m−1)θ)."""
        u = (t - self.lo[k]) / self.span[k]
        theta, coef = np.pi * u, self.coef[k]
        two_cos, y, z = 2 * np.cos(theta), 0.0, 0.0
        for m in reversed(range(SURROGATE_SINES)):
            y, z = coef[:, m] + two_cos * y - z, y
        return self.start[k] + self.slope[k] * self.span[k] * u + y * np.sin(theta)

    def shapley(self, a) -> np.ndarray:
        """The exact Shapley value of every G_k, (k, d), in O(d^2) per sine term.

        The chord gives slope_k·a_k. A sine term is the imaginary part of the
        exponential game c·E(S), E(S) = Π_{j∈S} z_j with z_j = e^{iωa_j}, whose
        Shapley value by the multilinear extension (Owen, "Multilinear
        extensions of games", 1972) is φ_i = (z_i − 1) ∫₀¹ Π_{j≠i} (1 + q(z_j
        − 1)) dq. The integrand is a polynomial of degree d − 1 in q, which
        Gauss-Legendre at ⌈d/2⌉ nodes integrates exactly; the products that
        leave one j out come from prefix and suffix products."""
        d = a.shape[1]
        q, qw = np.polynomial.legendre.leggauss(-(-d // 2))
        q, qw = (q + 1) / 2, qw / 2  # on [0, 1]
        omega = np.pi * np.arange(1, SURROGATE_SINES + 1) / self.span[:, None]  # (k, M)
        w = np.exp(1j * omega * a.T[:, :, None]) - 1  # z_j - 1, (d, k, M)
        factor = lambda j: 1 + w[j, ..., None] * q  # (k, M, nodes)
        left = np.empty(w.shape + q.shape, dtype=complex)  # left[i]: the product over j < i, then j != i
        left[0] = 1
        for j in range(1, d):
            np.multiply(left[j - 1], factor(j - 1), out=left[j])
        right = np.ones_like(left[0])  # the product over j > i
        for i in reversed(range(d)):
            left[i] *= right
            right *= factor(i)
        c = self.coef * np.exp(-1j * omega * self.lo[:, None])  # sin(ω(t − lo)) = Im(e^{-iωlo} e^{iωt})
        return self.slope[:, None] * a + np.einsum("km,dkm->kd", c, w * (left @ qw)).imag


def kernel_shap(model, x, plan: ExplanationPlan) -> Attribution:
    """Weighted least squares over the Shapley kernel with the empty/full
    coalition constraints enforced exactly, as `plan` lays it out, with a
    control variate in the head's values (Goldwasser & Hooker, "Stabilizing
    Estimates of Shapley Values with Control Variates", 2023). `model` is a
    SplitModel or a plain callable (see there), scored through
    `_coalition_values`. A caller that explains many rows builds the plan once.

    For centroid k, a_k is its solve of the coalition head values h, with ends
    h(c_k) and h(x), and G_k(S) = s_k(a_k·1_S) its surrogate game
    (`_Surrogate`). The attribution is Σ_k w_k [KS_k(v_k − G_k) + Sh(G_k)]:
    the surrogate is scored on the plan's own coalitions, so the correction
    is unbiased and keeps efficiency. Under the identity link s_k is its
    chord, G_k is additive, and the correction is zero up to rounding.
    Raises WidthMismatch, before any scoring, for a row not as wide as the
    plan's centroids."""
    x = np.asarray(x, dtype=float)
    if x.shape != plan.centers.shape[1:]:
        raise WidthMismatch(f"expected width {plan.centers.shape[1]}, got a row of shape {x.shape}")
    model = SplitModel.of(model, len(x))
    # one call for every centroid and x: float32 scores depend on the batch they are in
    end_logits = model.logits(np.vstack([plan.centers, x]))
    logits = _coalition_values(model, x, plan.centers, plan.groups, plan.bits, plan.bounds)
    ends, v = (np.asarray(model.link(t), dtype=float) for t in (end_logits, logits))
    end_logits, logits = np.asarray(end_logits, dtype=float), np.asarray(logits, dtype=float)
    owner = np.repeat(np.arange(len(plan.centers)), np.diff(plan.bounds))
    a = _solve(plan, owner, logits, end_logits[:-1], end_logits[-1])
    surrogate, k = _Surrogate.fit(model.link, end_logits[:-1], a), np.arange(len(a))
    g = surrogate(np.einsum("nd,nd->n", plan.bits, a[owner]), owner)
    g_empty, g_full = surrogate(np.zeros(len(a)), k), surrogate(a.sum(axis=1), k)
    bases, fx = ends[:-1], float(ends[-1])
    phi = plan.weights @ (_solve(plan, owner, v - g, bases - g_empty, fx - g_full) + surrogate.shapley(a))
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
    fx = float(np.asarray(model.link(model.logits(x.reshape(1, -1))))[0])
    rng = np.random.default_rng(0)

    masks = rng.integers(0, 2, size=(n_pert, d))  # 1 = keep the instance value
    bg_idx = rng.integers(0, len(background), size=n_pert)
    order = np.argsort(bg_idx, kind="stable")  # the perturbations grouped by background row
    bounds = np.cumsum([0, *np.bincount(bg_idx, minlength=len(background))])
    preds = np.empty(n_pert)
    preds[order] = model.link(_coalition_values(model, x, background, groups, masks[order], bounds))

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

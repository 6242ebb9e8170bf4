import itertools
import math

import numpy as np
import pytest

from edysec import explain
from edysec import neuralnet as nn
from edysec.dataset import generate_synthetic, split_dataset
from edysec.errors import FeatureMismatch, NoBackground, SingularSystem, TooFewFeatures, TooManyFeatures
from edysec.preprocess import Preprocessor
from exact_shapley import EXACT_LIMIT, exact_shapley


def make_groups(d):
    return {f"f{j}": np.array([j]) for j in range(d)}


def linear_model(w, b=0.0):
    w = np.asarray(w, dtype=float)

    def model(rows):
        return rows @ w + b

    return model


@pytest.fixture
def fixture():
    rng = np.random.default_rng(0)
    d = 4
    return {
        "groups": make_groups(d),
        "x": rng.normal(size=d),
        "background": rng.normal(size=(16, d)),
        "model": linear_model([1.0, -2.0, 0.5, 3.0], b=0.2),
    }


class TestExactShapley:
    def test_linear_model_closed_form(self, fixture):
        # for a linear model, phi_j = w_j * (x_j - mean(background_j))
        attr = exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        w = np.array([1.0, -2.0, 0.5, 3.0])
        mu = fixture["background"].mean(axis=0)
        expect = w * (fixture["x"] - mu)
        for j, name in enumerate(fixture["groups"]):
            assert attr.phi[name] == pytest.approx(expect[j], abs=1e-10)

    def test_local_accuracy(self, fixture):
        attr = exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        assert abs(attr.residual) < 1e-9

    def test_feature_cap(self):
        d = EXACT_LIMIT + 1
        with pytest.raises(TooManyFeatures):
            exact_shapley(lambda r: r.sum(axis=1), np.zeros(d), np.zeros((4, d)), make_groups(d))

    def test_block_groups(self):
        # two processed columns belonging to one source feature move together
        rng = np.random.default_rng(1)
        groups = {"a": np.array([0, 1]), "b": np.array([2])}
        x = rng.normal(size=3)
        bg = rng.normal(size=(8, 3))
        model = linear_model([1.0, 1.0, 1.0])
        attr = exact_shapley(model, x, bg, groups)
        mu = bg.mean(axis=0)
        assert attr.phi["a"] == pytest.approx((x[0] - mu[0]) + (x[1] - mu[1]), abs=1e-10)


class TestKernelShap:
    def test_matches_exact_enumeration(self, fixture):
        exact = exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        plan = explain.explanation_plan(fixture["background"], fixture["groups"])
        kernel = explain.kernel_shap(fixture["model"], fixture["x"], plan)
        for name in fixture["groups"]:
            assert kernel.phi[name] == pytest.approx(exact.phi[name], abs=1e-8)
        assert abs(kernel.residual) < 1e-9

    def test_sampled_budget_close(self, fixture):
        exact = exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        plan = explain.explanation_plan(fixture["background"], fixture["groups"], budget=4000, seed=0)
        sampled = explain.kernel_shap(fixture["model"], fixture["x"], plan)
        for name in fixture["groups"]:
            assert sampled.phi[name] == pytest.approx(exact.phi[name], abs=0.05)

    @pytest.mark.parametrize("d, rows, budget", [
        (7, 100, explain.KERNEL_SAMPLE_BUDGET), (8, 100, explain.KERNEL_SAMPLE_BUDGET), (9, 5, 2550), (9, 5, 2549),
    ], ids=["default-exact", "default-sampled", "covering-exact", "one-under-sampled"])
    def test_row_budget_picks_the_plan(self, d, rows, budget):
        # exact where the whole background times every proper coalition fits the budget
        # (7 x 100 rows: 12,600; 8: 25,400): every background row its own centroid of
        # weight 1/r, each with every proper coalition; weighted centroids with sampled
        # coalitions one row over
        rng = np.random.default_rng(d)
        bg, groups = rng.normal(size=(rows, d)), make_groups(d)
        kwargs = {} if budget == explain.KERNEL_SAMPLE_BUDGET else {"budget": budget}
        plan = explain.explanation_plan(bg, groups, seed=5, **kwargs)
        assert len(plan.bits) <= budget
        if rows * ((1 << d) - 2) <= budget:
            assert np.array_equal(plan.centers, bg) and np.all(plan.weights == 1 / rows)
            assert plan.bounds.tolist() == list(range(0, rows * ((1 << d) - 2) + 1, (1 << d) - 2))
            for lo, hi in zip(plan.bounds[:-1], plan.bounds[1:]):
                bits, sizes = plan.bits[lo:hi], plan.bits[lo:hi].sum(axis=1)
                assert len(np.unique(bits, axis=0)) == (1 << d) - 2 and 0 < sizes.min() and sizes.max() < d
        else:
            assert plan.centers.shape == (min(rows, explain.KERNEL_BACKGROUND_K), d)

    def test_sampled_linear_closed_form(self):
        # the summary keeps the background mean, so a linear model stays exact at d = 17
        rng = np.random.default_rng(17)
        w, x, bg = rng.normal(size=17), rng.normal(size=17), rng.normal(size=(100, 17))
        attr = explain.kernel_shap(linear_model(w, b=0.3), x, explain.explanation_plan(bg, make_groups(17), seed=2))
        expect = w * (x - bg.mean(axis=0))
        assert np.abs(np.array(list(attr.phi.values())) - expect).max() < 1e-9
        assert abs(attr.residual) < 1e-9

    def test_sampled_converges_to_exact(self):
        # a 10-row background passes through the summary, so the error is the sampler's alone;
        # bounds are twice the worst relative L2 error seen over 6 models x 8 seeds when the 10
        # rows shared 4096 (0.0235) or 8192 (0.0117) coalitions; each row now draws that many of
        # its own, so the budgets, in forward rows, are 10 times those counts
        d = 16
        rng = np.random.default_rng(0)
        W1, w2 = rng.normal(size=(d, 8)) / 2, rng.normal(size=8)
        model = lambda rows: np.tanh(rows @ W1) @ w2
        x, bg = rng.normal(size=d), rng.normal(size=(10, d))
        ref = np.array(list(exact_shapley(model, x, bg, make_groups(d)).phi.values()))
        for budget, bound in [(40_960, 0.047), (81_920, 0.025)]:
            for seed in range(3):
                plan = explain.explanation_plan(bg, make_groups(d), budget=budget, seed=seed)
                attr = explain.kernel_shap(model, x, plan)
                phi = np.array(list(attr.phi.values()))
                assert np.linalg.norm(phi - ref) / np.linalg.norm(ref) < bound

    def test_sampled_same_seed_same_attribution(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=16)
        model = lambda rows: np.tanh(rows @ w)
        x, bg, groups = rng.normal(size=16), rng.normal(size=(50, 16)), make_groups(16)
        shap = lambda seed: explain.kernel_shap(model, x, explain.explanation_plan(bg, groups, budget=6_000, seed=seed))
        first = shap(9)
        assert first == shap(9)
        assert first != shap(10)

    def test_needs_two_features(self, fixture):
        with pytest.raises(TooFewFeatures):
            plan = explain.explanation_plan(fixture["background"][:, :1], make_groups(1))
            explain.kernel_shap(fixture["model"], fixture["x"][:1], plan)


def reference_exact_kernel_shap(model, x, background, groups):
    """Exact Kernel SHAP as it was computed before explanation plans: enumerate every
    proper coalition, one model call per coalition over the whole background,
    and `lstsq` on the weighted design with the last feature eliminated."""
    d, width = len(groups), background.shape[1]
    coalitions = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(bool)
    v = []
    for members in coalitions:
        mask = np.zeros(width, dtype=bool)
        for j, idx in enumerate(groups.values()):
            mask[idx] = members[j]
        v.append(np.asarray(model(np.where(mask, x, background)), dtype=float).mean())
    base, fx, y = v[0], v[-1], np.array(v[1:-1])
    z = coalitions[1:-1].astype(float)
    sizes = coalitions[1:-1].sum(axis=1).tolist()
    weights = np.array([(d - 1) / (math.comb(d, s) * s * (d - s)) for s in sizes])
    y_adj = y - base - z[:, -1] * (fx - base)
    sw = np.sqrt(weights)
    solution = np.linalg.lstsq((z[:, :-1] - z[:, -1:]) * sw[:, None], y_adj * sw, rcond=None)[0]
    names = list(groups)
    phi = {name: float(w) for name, w in zip(names[:-1], solution)}
    phi[names[-1]] = float((fx - base) - solution.sum())
    return explain.Attribution(phi=phi, base=float(base), fx=float(fx), method="kernel_shap")


def tanh_case(d, width, rows, seed):
    rng = np.random.default_rng(seed)
    W1, w2 = rng.normal(size=(width, 8)) / 2, rng.normal(size=8)
    model = lambda r: np.tanh(r @ W1) @ w2
    groups = {f"f{j}": cols for j, cols in enumerate(np.array_split(np.arange(width), d))}
    return model, groups, rng.normal(size=(3, width)), rng.normal(size=(rows, width))


def itertools_tier(d, s):
    """The size-s coalitions of d features, one row per itertools combination."""
    rows = np.zeros((math.comb(d, s), d), dtype=bool)
    for row, members in zip(rows, itertools.combinations(range(d), s)):
        row[list(members)] = True
    return rows


class TestPlan:
    @pytest.mark.parametrize("d, width, rows", [(5, 8, 12), (17, 20, 100)])
    def test_reused_plan_matches_a_fresh_build(self, d, width, rows):
        # exact path at d = 5, sampled path (16 centroids, each with its own coalitions) at d = 17
        model, groups, xs, bg = tanh_case(d, width, rows, seed=d)
        plan = explain.explanation_plan(bg, groups, seed=3)
        for x in xs:
            assert explain.kernel_shap(model, x, plan) == explain.kernel_shap(
                model, x, explain.explanation_plan(bg, groups, seed=3)
            )

    @pytest.mark.parametrize("d", [2, 7, 11, 14])
    def test_exact_path_keeps_its_bits(self, d):
        # one centroid's Gram solve over every coalition matches lstsq to rounding
        model, groups, xs, bg = tanh_case(d, d + 3, 9, seed=d)
        plan = explain.explanation_plan(bg, groups, budget=len(bg) * ((1 << d) - 2))
        attr = explain.kernel_shap(model, xs[0], plan)
        ref = reference_exact_kernel_shap(model, xs[0], bg, groups)
        assert max(abs(attr.phi[name] - ref.phi[name]) for name in groups) <= 1e-12
        assert abs(attr.base - ref.base) <= 1e-14 and abs(attr.fx - ref.fx) <= 1e-14

    def test_exact_plan_enumerates_in_itertools_order(self):
        # every proper coalition, outermost tier first, in combinations order and
        # each followed by its complement (an even d's middle tier alone), with
        # its kernel weight: the same bits as a row-by-row itertools enumeration
        for d in range(2, 15):
            rows, weights = [], []
            for s in range(1, d // 2 + 1):
                tier = itertools_tier(d, s)
                rows.extend(tier if 2 * s == d else [r for row in tier for r in (row, ~row)])
                weights += [explain._kernel_weight(d, s)] * (len(rows) - len(weights))
            bits, kernel = explain._sample_coalitions(d, (1 << d) - 2, np.random.default_rng(0))
            assert bits.dtype == bool and np.array_equal(bits, np.array(rows)), d
            assert kernel.tobytes() == np.array(weights).tobytes(), d

    @pytest.mark.parametrize("d, budget", [(17, 1280), (20, 3000), (36, 1500)])
    def test_sampled_plan_keeps_its_draws(self, d, budget, monkeypatch):
        # a sampled share enumerates its outer tiers, then draws the rest: the
        # same rows, weights and draws as with tiers built by itertools
        got = explain._sample_coalitions(d, budget, np.random.default_rng(d))
        assert np.array_equal(got[0][: 2 * d].sum(axis=1), [1, d - 1] * d)  # tier 1 enumerated
        monkeypatch.setattr(explain, "_tier", itertools_tier)
        want = explain._sample_coalitions(d, budget, np.random.default_rng(d))
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()

    def test_exact_path_scores_whole_coalitions_per_call(self):
        # d = 8 over 100 background rows, under a budget that covers them: one call for
        # the background and x, then the 100 x 254 (row, coalition) rows in 50 calls of at
        # most MODEL_BLOCK_ROWS
        model, groups, xs, bg = tanh_case(8, 11, 100, seed=8)
        calls = []
        counting = lambda rows: calls.append(len(rows)) or model(rows)
        explain.kernel_shap(counting, xs[0], explain.explanation_plan(bg, groups, budget=25_400))
        assert len(calls) == 51 and calls[0] == 101 and max(calls[1:]) <= explain.MODEL_BLOCK_ROWS
        assert sum(calls) == 25_501

    def test_sampled_band_against_the_covering_exact_plan(self):
        # 12 features over 100 rows need 409,400 rows exact, so the default plan samples; on a
        # trained `nn` preset it stays within the oracle gate's 0.090 of the exact answer
        ds = generate_synthetic(600, 6, 6, seed=41)
        splits = split_dataset(ds, seed=41)
        pre = Preprocessor.fit(splits.train)
        train, test = pre.transform(splits.train), pre.transform(splits.test)
        spec, cfg = nn.NetworkSpec.nn(train.width), nn.TrainConfig(epochs=3, seed=41)
        params, _ = nn.train(spec, cfg, train.X, train.labels)
        model = lambda rows: nn.predict_proba(params, rows)
        bg, groups = explain.sample_background(train, 100, seed=41), explain.feature_groups(train)
        assert len(groups) == 12
        sampled = explain.explanation_plan(bg, groups)
        exact = explain.explanation_plan(bg, groups, budget=len(bg) * ((1 << 12) - 2))
        assert len(sampled.centers) <= explain.KERNEL_BACKGROUND_K and len(exact.centers) == 100
        for x in test.X[:5]:
            phi = np.array(list(explain.kernel_shap(model, x, sampled).phi.values()))
            ref = np.array(list(explain.kernel_shap(model, x, exact).phi.values()))
            assert np.linalg.norm(phi - ref) / np.linalg.norm(ref) <= 0.090

    def test_degenerate_sample_is_refused_when_built(self):
        # two coalitions cannot determine 17 attributions
        _, groups, _, bg = tanh_case(17, 17, 20, seed=0)
        with pytest.raises(SingularSystem):
            explain.explanation_plan(bg, groups, budget=2)

    def test_empty_background_is_refused_when_built(self):
        # no rows fit any budget, but there is nothing to take the expectation over
        with pytest.raises(NoBackground):
            explain.explanation_plan(np.zeros((0, 4)), make_groups(4))

    def test_too_small_a_share_is_refused_when_built(self):
        # 600 rows over the 16 centroids of a 50-row background leave some centroid
        # fewer than the 15 coalitions its 16 attributions need
        _, groups, _, bg = tanh_case(16, 16, 50, seed=0)
        with pytest.raises(SingularSystem):
            explain.explanation_plan(bg, groups, budget=600)

    def test_shares_follow_the_weights_and_sum_to_the_budget(self):
        _, groups, _, bg = tanh_case(17, 20, 100, seed=1)
        plan = explain.explanation_plan(bg, groups)
        shares = np.diff(plan.bounds)
        assert len(plan.centers) == explain.KERNEL_BACKGROUND_K
        assert shares.sum() == len(plan.bits) == explain.KERNEL_SAMPLE_BUDGET
        assert np.all(shares % 2 == 0)  # complement pairs
        assert np.abs(shares - plan.weights * explain.KERNEL_SAMPLE_BUDGET).max() <= 2

    def test_one_row_background_covering_every_coalition_is_exact(self):
        # one centroid whose share holds all 2^d - 2 proper coalitions enumerates them
        d = 6
        model, groups, xs, bg = tanh_case(d, 9, 1, seed=6)
        exact = exact_shapley(model, xs[0], bg, groups)
        sampled = explain.kernel_shap(model, xs[0], explain.explanation_plan(bg, groups, budget=(1 << d) - 2))
        assert sampled.phi == pytest.approx(exact.phi, abs=1e-12)
        assert (sampled.base, sampled.fx) == pytest.approx((exact.base, exact.fx), abs=1e-12)

    def test_base_is_the_weighted_centroid_value(self):
        model, groups, xs, bg = tanh_case(17, 20, 100, seed=2)
        plan = explain.explanation_plan(bg, groups)
        for x in xs:
            attr = explain.kernel_shap(model, x, plan)
            assert attr.base == pytest.approx(plan.weights @ model(plan.centers), abs=1e-12)
            assert attr.fx == pytest.approx(model(x[None, :])[0], abs=1e-12)
            assert abs(attr.residual) <= 1e-9

    def test_block_size_keeps_the_bits(self, monkeypatch):
        # a float32 MLP scores a row to the same bits in blocks of 100 rows and of 512
        model, groups, xs, bg = tanh_case(17, 40, 100, seed=4)
        spec = nn.NetworkSpec(40, (nn.LayerSpec(128), nn.LayerSpec(128)))
        params = nn.NetworkParams(spec, nn.init_network(spec, seed=4).flat.astype(np.float32))
        mlp = lambda rows: nn.predict_proba(params, rows)
        plan = explain.explanation_plan(bg, groups)
        assert isinstance(plan, explain.ExplanationPlan)
        attrs = []
        for rows in (100, 512):
            monkeypatch.setattr(explain, "MODEL_BLOCK_ROWS", rows)
            attrs.append([explain.kernel_shap(mlp, x, plan) for x in xs])
        assert attrs[0] == attrs[1]

    def test_plan_stays_small(self):
        # the served shape (17 features, 92 columns): 20,480 x 17 coalition bits (348 kB),
        # one kernel weight per row (164 kB), 16 inverse Gram matrices of 16 x 16 (33 kB),
        # 16 centroids of 92 columns (12 kB) and the groups' column indices: about 557 kB
        _, groups, _, bg = tanh_case(17, 92, 100, seed=3)
        plan = explain.explanation_plan(bg, groups)
        arrays = [plan.centers, plan.weights, plan.bits, plan.kernel, plan.bounds, plan.gram_inv]
        assert sum(a.nbytes for a in [*arrays, *plan.groups.values()]) <= 560_000


class TestLime:
    def test_recovers_linear_signs(self, fixture):
        attr = explain.lime_explain(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        # a linear model's local effect of keeping x_j is w_j * (x_j - mean(background_j))
        effect = np.array([1.0, -2.0, 0.5, 3.0]) * (fixture["x"] - fixture["background"].mean(axis=0))
        names = list(fixture["groups"])
        assert [np.sign(attr.phi[n]) for n in names] == list(np.sign(effect))
        assert [name for name, _ in attr.ranked()] == [names[j] for j in np.argsort(-np.abs(effect))]
        assert attr.method == "lime"

    def test_perturbation_floor(self):
        # 10 perturbations per feature: 5000 cover 500 features, not 501
        d = explain.LIME_PERTURBATIONS // 10 + 1
        model = linear_model(np.ones(d))
        with pytest.raises(TooManyFeatures):
            explain.lime_explain(model, np.ones(d), np.zeros((2, d)), make_groups(d))


class TestGlobal:
    def test_importance_and_ranking(self):
        a = explain.Attribution({"f0": 0.5, "f1": -1.0}, 0.0, 0.0, "m")
        b = explain.Attribution({"f0": -0.5, "f1": 0.2}, 0.0, 0.0, "m")
        imp = explain.global_importance([a, b])
        assert imp["f0"] == pytest.approx(0.5)
        assert imp["f1"] == pytest.approx(0.6)
        assert explain.explanation_ranking(imp) == ["f1", "f0"]

    def test_feature_mismatch(self):
        a = explain.Attribution({"f0": 0.5}, 0.0, 0.0, "m")
        b = explain.Attribution({"f1": 0.5}, 0.0, 0.0, "m")
        with pytest.raises(FeatureMismatch):
            explain.global_importance([a, b])

    def test_overlap_jaccard(self):
        overlap, score = explain.selection_overlap(
            ["a", "b", "c"], ["b", "d", "a", "c"], k=2
        )
        assert overlap == {"b"}  # top-2 of the ranking is {b, d}
        assert score == pytest.approx(1 / 4)
        with pytest.raises(ValueError):
            explain.selection_overlap(["a"], ["a"], k=5)


class TestBackground:
    def test_sample_deterministic(self):
        from edysec.dataset import generate_synthetic
        from edysec.preprocess import Preprocessor

        ds = generate_synthetic(50, 2, 1, seed=0)
        pm = Preprocessor.fit(ds).transform(ds)
        a = explain.sample_background(pm, 10, seed=1)
        b = explain.sample_background(pm, 10, seed=1)
        assert np.array_equal(a, b)
        assert a.shape == (10, pm.width)

    @pytest.mark.parametrize("rows", [100, 57, 34])
    def test_summary_keeps_the_mean(self, rows):
        bg = np.random.default_rng(rows).normal(size=(rows, 6))
        centers, weights = explain.summarize_background(bg, seed=4)
        assert len(centers) == len(weights) <= explain.KERNEL_BACKGROUND_K
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(weights @ centers, bg.mean(axis=0), atol=1e-12)
        again = explain.summarize_background(bg, seed=4)
        assert np.array_equal(centers, again[0]) and np.array_equal(weights, again[1])

    def test_small_summary_passes_through(self):
        bg = np.random.default_rng(0).normal(size=(explain.KERNEL_BACKGROUND_K, 3))
        centers, weights = explain.summarize_background(bg)
        assert np.array_equal(centers, bg) and np.all(weights == 1 / len(bg))

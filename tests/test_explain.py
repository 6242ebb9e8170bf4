import numpy as np
import pytest

from edysec import explain
from edysec.errors import FeatureMismatch, TooManyFeatures


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
        attr = explain.exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        w = np.array([1.0, -2.0, 0.5, 3.0])
        mu = fixture["background"].mean(axis=0)
        expect = w * (fixture["x"] - mu)
        for j, name in enumerate(fixture["groups"]):
            assert attr.phi[name] == pytest.approx(expect[j], abs=1e-10)

    def test_local_accuracy(self, fixture):
        attr = explain.exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        assert abs(attr.residual) < 1e-9

    def test_feature_cap(self):
        groups = make_groups(13)
        with pytest.raises(TooManyFeatures):
            explain.exact_shapley(lambda r: r.sum(axis=1), np.zeros(13), np.zeros((4, 13)), groups)

    def test_block_groups(self):
        # two processed columns belonging to one source feature move together
        rng = np.random.default_rng(1)
        groups = {"a": np.array([0, 1]), "b": np.array([2])}
        x = rng.normal(size=3)
        bg = rng.normal(size=(8, 3))
        model = linear_model([1.0, 1.0, 1.0])
        attr = explain.exact_shapley(model, x, bg, groups)
        mu = bg.mean(axis=0)
        assert attr.phi["a"] == pytest.approx((x[0] - mu[0]) + (x[1] - mu[1]), abs=1e-10)


class TestKernelShap:
    def test_matches_exact_enumeration(self, fixture):
        exact = explain.exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        kernel = explain.kernel_shap(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"], budget="exact"
        )
        for name in fixture["groups"]:
            assert kernel.phi[name] == pytest.approx(exact.phi[name], abs=1e-8)
        assert abs(kernel.residual) < 1e-9

    def test_sampled_budget_close(self, fixture):
        exact = explain.exact_shapley(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"]
        )
        sampled = explain.kernel_shap(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"],
            budget=4000, seed=0,
        )
        for name in fixture["groups"]:
            assert sampled.phi[name] == pytest.approx(exact.phi[name], abs=0.05)

    @pytest.mark.parametrize("d, explicit", [(14, "exact"), (15, 2048)])
    def test_default_budget(self, d, explicit):
        # exact enumeration up to KERNEL_ENUM_LIMIT features, 2048 sampled coalitions above
        rng = np.random.default_rng(d)
        w = rng.normal(size=d)
        model = lambda rows: np.tanh(rows @ w)
        x, bg, groups = rng.normal(size=d), rng.normal(size=(3, d)), make_groups(d)
        default = explain.kernel_shap(model, x, bg, groups, seed=5)
        assert default == explain.kernel_shap(model, x, bg, groups, budget=explicit, seed=5)

    def test_needs_two_features(self, fixture):
        with pytest.raises(ValueError):
            explain.kernel_shap(
                fixture["model"], fixture["x"][:1], fixture["background"][:, :1], make_groups(1)
            )


class TestLime:
    def test_recovers_linear_signs(self, fixture):
        cfg = explain.ExplainConfig(lime_perturbations=4000, seed=0)
        attr = explain.lime_explain(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"], cfg
        )
        ranked = [name for name, _ in attr.ranked()]
        assert ranked[0] == "f3"  # largest weight magnitude
        assert attr.method == "lime"

    def test_top_k_zeroes_rest(self, fixture):
        cfg = explain.ExplainConfig(lime_perturbations=4000, lime_top_k=2, seed=0)
        attr = explain.lime_explain(
            fixture["model"], fixture["x"], fixture["background"], fixture["groups"], cfg
        )
        assert sum(1 for v in attr.phi.values() if v != 0.0) == 2

    def test_perturbation_floor(self, fixture):
        cfg = explain.ExplainConfig(lime_perturbations=10, seed=0)
        with pytest.raises(ValueError):
            explain.lime_explain(
                fixture["model"], fixture["x"], fixture["background"], fixture["groups"], cfg
            )


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

import numpy as np
import pytest

from edysec import featsel, pipeline, workers
from edysec.dataset import TraceDataset, generate_synthetic, split_dataset
from edysec.errors import BadK, BadOption, EmptyResult, LayoutMismatch, UnknownFeature
from edysec.preprocess import Preprocessor, ProcessedMatrix


@pytest.fixture(scope="module")
def matrices():
    ds = generate_synthetic(300, 2, 4, seed=7)
    splits = split_dataset(ds, seed=0)
    pre = Preprocessor.fit(splits.train)
    return pre.transform(splits.train), pre.transform(splits.validation)


class TestSourceMatrix:
    def test_numeric_passthrough(self, matrices):
        train_pm, _ = matrices
        summary, names = featsel.source_matrix(train_pm)
        assert summary.shape == (train_pm.X.shape[0], len(names))
        assert np.array_equal(summary[:, 0], train_pm.X[:, 0])

    def test_text_collapses_to_norm(self):
        ds = generate_synthetic(80, 1, 2, kinds={"pattern": 1.0}, seed=3)
        pm = Preprocessor.fit(ds).transform(ds)
        summary, names = featsel.source_matrix(pm)
        cols = {name: span for name, _, span in pm.spans()}["noise_0"]
        j = names.index("noise_0")
        assert np.allclose(summary[:, j], np.linalg.norm(pm.X[:, cols], axis=1))


class TestAnova:
    def test_informative_score_higher(self, matrices):
        train_pm, _ = matrices
        scores = featsel.anova_f_scores(train_pm)
        worst_inf = min(scores["inf_0"], scores["inf_1"])
        best_noise = max(v for k, v in scores.items() if k.startswith("noise"))
        assert worst_inf > best_noise

    def test_select_top_k(self, matrices):
        train_pm, _ = matrices
        scores = featsel.anova_f_scores(train_pm)
        top2 = featsel.select_anova(scores, 2)
        assert set(top2) == {"inf_0", "inf_1"}
        with pytest.raises(BadK):
            featsel.select_anova(scores, 0)
        with pytest.raises(BadK):
            featsel.select_anova(scores, 99)

    def test_constant_feature(self):
        from edysec.preprocess import ProcessedMatrix

        X = np.column_stack([np.ones(10), np.arange(10.0)])
        pm = ProcessedMatrix(X, (("a", "numeric", 1), ("b", "numeric", 1)), np.array([0, 1] * 5))
        scores = featsel.anova_f_scores(pm)
        assert scores["a"] == 0.0


class TestCorr:
    def test_filters_noise(self, matrices):
        train_pm, _ = matrices
        selected = featsel.select_corr(train_pm, relevance_min=0.3)
        assert set(selected) == {"inf_0", "inf_1"}

    def test_redundancy_drop(self):
        from edysec.preprocess import ProcessedMatrix

        rng = np.random.default_rng(0)
        y = np.array([0, 1] * 50)
        a = y + rng.normal(0, 0.1, 100)
        b = a + rng.normal(0, 0.01, 100)  # near-duplicate, slightly weaker
        X = np.column_stack([a, b])
        pm = ProcessedMatrix(X, (("a", "numeric", 1), ("b", "numeric", 1)), y)
        selected = featsel.select_corr(pm, relevance_min=0.1, redundancy_max=0.9)
        assert len(selected) == 1

    def test_empty_result(self, matrices):
        train_pm, _ = matrices
        with pytest.raises(EmptyResult):
            featsel.select_corr(train_pm, relevance_min=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_pair_reference(self, seed):
        # 36 source features with text columns, plus three built ones: a
        # perfectly separating column, a constant one and a near copy of inf_0
        ds = generate_synthetic(400, 6, 30, kinds={"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}, seed=seed)
        train = split_dataset(ds, seed=seed).train
        pm = Preprocessor.fit(train).transform(train)
        y = pm.labels
        built = np.column_stack([y, np.ones(len(y)), pm.X[:, 0] + np.random.default_rng(seed).normal(0, 0.05, len(y))])
        layout = (("separating", "numeric", 1), ("constant", "numeric", 1), ("near_copy", "numeric", 1))
        pm = ProcessedMatrix(np.hstack([pm.X, built]), pm.layout + layout, y)
        summary, names = featsel.source_matrix(pm)

        def r(a, b):  # |Pearson r|, 0 against a constant column
            return 0.0 if a.std() == 0 or b.std() == 0 else abs(np.corrcoef(a, b)[0, 1])

        relevance = [r(col, y.astype(float)) for col in summary.T]
        survivors = {j for j, rel in enumerate(relevance) if rel >= 0.1}
        for j in sorted(survivors, key=lambda j: (relevance[j], j)):
            if any(r(summary[:, j], summary[:, k]) > 0.9 for k in survivors - {j}):
                survivors.discard(j)
        selected = featsel.select_corr(pm)
        assert selected == tuple(names[j] for j in sorted(survivors))
        assert "separating" in selected and "constant" not in selected
        assert not {"inf_0", "near_copy"} <= set(selected)  # one of the pair goes as redundant

        scores, n = featsel.anova_f_scores(pm), len(y)
        assert scores["separating"] == np.inf and scores["constant"] == 0.0
        for name, rel in zip(names, relevance):
            if np.isfinite(scores[name]):
                assert scores[name] == pytest.approx((n - 2) * rel**2 / (1 - rel**2), rel=1e-8)


class TestImportance:
    def test_permutation_recovers_signal(self, matrices):
        train_pm, val_pm = matrices
        cfg = featsel.BaselineConfig(epochs=10)
        params = featsel.train_baseline(train_pm.X, train_pm.labels, cfg)
        imp = featsel.permutation_importance(params, val_pm, repeats=3, seed=0)
        assert min(imp["inf_0"], imp["inf_1"]) > max(
            v for k, v in imp.items() if k.startswith("noise")
        )
        selected = featsel.select_importance(imp, pipeline.IMPORTANCE_FRACTION)
        assert {"inf_0", "inf_1"} <= set(selected)

    def test_top_feature_kept_when_every_importance_is_negative(self):
        assert featsel.select_importance({"a": -0.01, "b": -0.03}, 0.2) == ("a",)
        assert featsel.select_importance({"a": -0.01, "b": -0.01, "c": -0.02}, 0.2) == ("a", "b")
        # label noise: at this seed every permutation importance is negative
        ds = generate_synthetic(120, 1, 2, seed=3)
        labels = tuple(np.random.default_rng(3).permutation(ds.labels).tolist())
        options = pipeline.PipelineOptions(selectors=("importance",))
        _, _, (train_pm, val_pm, _) = pipeline.prepare(TraceDataset(ds.manifest, ds.ids, ds.rows, labels), options)
        [result] = pipeline.run_selectors(train_pm, val_pm, options, RecordingPool())
        assert result.selected == ("noise_1",)

    def test_layout_mismatch(self, matrices):
        train_pm, val_pm = matrices
        params = featsel.train_baseline(train_pm.X[:, :3], train_pm.labels, featsel.BaselineConfig(epochs=1))
        with pytest.raises(LayoutMismatch):
            featsel.permutation_importance(params, val_pm)


def bit_match(target):
    target = np.asarray(target, dtype=bool)

    def fitness(masks):
        return np.sum(masks == target, axis=1).astype(float)

    return fitness


class TestSwarms:
    def test_bpso_finds_planted_mask(self):
        target = np.zeros(12, dtype=bool)
        target[[1, 4, 7]] = True
        cfg = featsel.SwarmConfig(population=15, iterations=40, seed=0)
        run = featsel.select_bpso(bit_match(target), 12, cfg)
        assert run.fitness == 12.0
        assert np.array_equal(run.mask, target)

    def test_bwoa_finds_planted_mask(self):
        target = np.zeros(12, dtype=bool)
        target[[0, 5, 9]] = True
        cfg = featsel.SwarmConfig(population=15, iterations=40, seed=0)
        run = featsel.select_bwoa(bit_match(target), 12, cfg)
        assert run.fitness == 12.0

    def test_history_monotone_and_deterministic(self):
        target = np.ones(8, dtype=bool)
        cfg = featsel.SwarmConfig(population=8, iterations=10, seed=5)
        for runner in (featsel.select_bpso, featsel.select_bwoa):
            a = runner(bit_match(target), 8, cfg)
            b = runner(bit_match(target), 8, cfg)
            assert a.history == b.history
            assert list(a.history) == sorted(a.history)

    @pytest.mark.parametrize("runner", [featsel.select_bpso, featsel.select_bwoa])
    def test_one_batch_per_iteration(self, runner):
        calls = []

        def fitness(masks):
            calls.append(np.array(masks))
            return np.sum(masks, axis=1).astype(float)

        cfg = featsel.SwarmConfig(population=7, iterations=5, seed=1)
        runner(fitness, 9, cfg)
        assert len(calls) == cfg.iterations + 1
        assert all(c.shape == (7, 9) and c.dtype == bool for c in calls)

    def test_never_empty_mask(self):
        cfg = featsel.SwarmConfig(population=6, iterations=5, seed=2)
        run = featsel.select_bpso(lambda masks: -masks.sum(axis=1).astype(float), 6, cfg)
        assert run.mask.sum() >= 1


class TestObjective:
    def test_formula(self):
        assert featsel.objective(0.99, 17, 36, alpha=0.95) == pytest.approx(
            0.95 * 0.99 + 0.05 * (1 - 17 / 36)
        )

    def test_bounds(self):
        with pytest.raises(ValueError):
            featsel.objective(0.9, 0, 36)
        with pytest.raises(BadOption):
            featsel.objective(0.9, 1, 36, alpha=1.5)

    def test_choose_selector_tiebreak(self):
        a = featsel.SelectorResult("anova", ("f1",), 1, 0.9, 0.95)
        b = featsel.SelectorResult("pso", ("f1", "f2"), 2, 0.9, 0.95)
        assert featsel.choose_selector([b, a]).method == "anova"  # smaller d_j wins


class TestProject:
    def test_projection(self, matrices):
        train_pm, _ = matrices
        out = featsel.project(train_pm, ("inf_0",))
        assert out.source_features() == ["inf_0"]
        assert out.X.shape == (train_pm.X.shape[0], 1)
        assert np.array_equal(out.labels, train_pm.labels)

    def test_idempotent(self, matrices):
        train_pm, _ = matrices
        once = featsel.project(train_pm, ("inf_0", "noise_1"))
        twice = featsel.project(once, ("inf_0", "noise_1"))
        assert np.array_equal(once.X, twice.X)

    def test_unknown_feature(self, matrices):
        train_pm, _ = matrices
        with pytest.raises(UnknownFeature):
            featsel.project(train_pm, ("nope",))


class TestMaskFitness:
    def test_matches_direct_objective(self, matrices):
        train_pm, val_pm = matrices
        mask = np.array([[True, True, False, False, False, False]])
        p = featsel.baseline_validation_accuracy(
            train_pm, val_pm, ("inf_0", "inf_1"), featsel.BaselineConfig(epochs=3)
        )
        expect = featsel.objective(p, 2, 6, alpha=0.9)
        with workers.Pool(1) as pool:
            fit = featsel.MaskFitness(train_pm, val_pm, pool, alpha=0.9, baseline=featsel.BaselineConfig(epochs=3))
            assert fit(mask) == pytest.approx(expect)
            assert fit.validation_score(mask) == pytest.approx(p)


class RecordingPool:
    """Stands in for `workers.Pool`: records the subsets of each `map` and
    scores a subset by its size."""

    def __init__(self):
        self.maps = []

    def map(self, fn, jobs, common=()):
        subsets = [selected for selected, _ in jobs]
        self.maps.append(subsets)
        return [len(selected) / 10 for selected in subsets]


class TestBatches:
    def test_mask_fitness_trains_each_distinct_uncached_mask_once(self, matrices):
        train_pm, val_pm = matrices
        names = train_pm.source_features()
        pool = RecordingPool()
        fit = featsel.MaskFitness(train_pm, val_pm, pool, alpha=0.9)
        cached, a, b = np.eye(len(names), dtype=bool)[:3]
        fit(np.array([cached]))
        scores = fit(np.array([a, cached, b, a]))
        assert pool.maps == [[(names[0],)], [(names[1],), (names[2],)]]
        assert scores[0] == scores[3] == featsel.objective(0.1, 1, len(names), alpha=0.9)
        assert fit.validation_score(np.array([b, a])).tolist() == [0.1, 0.1]
        assert sum(len(subsets) for subsets in pool.maps) == 3  # nothing trained twice

    def test_run_selectors_validates_the_subsets_as_one_batch(self, matrices):
        train_pm, val_pm = matrices
        pool = RecordingPool()
        options = pipeline.PipelineOptions(
            selectors=("anova", "corr", "importance"), baseline=featsel.BaselineConfig(epochs=2)
        )
        results = pipeline.run_selectors(train_pm, val_pm, options, pool)
        assert [r.method for r in results] == list(options.selectors)
        assert len(pool.maps) == 1  # each distinct subset once, in manifest order
        assert sorted(pool.maps[0]) == sorted({tuple(n for n in train_pm.source_features() if n in r.selected)
                                               for r in results})
        assert [r.p_j for r in results] == [r.d_j / 10 for r in results]

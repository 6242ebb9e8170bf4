import numpy as np
import pytest

from edysec.errors import NonFiniteScore, TooFewScores
from edysec.stability import (
    ScoreTable,
    average_rank,
    bootstrap_ci,
    render_table,
    sample_std,
    stability_report,
)


def table():
    return ScoreTable(
        models=("a", "b", "c"),
        configs=("c1", "c2"),
        scores=((0.99, 0.98), (0.99, 0.97), (0.95, 0.98)),
    )


class TestStd:
    def test_population_vs_sample(self):
        scores = [0.97, 0.98, 0.99, 0.98, 0.98]
        assert sample_std(scores) == pytest.approx(np.std(scores, ddof=1))

    def test_single_score(self):
        with pytest.raises(TooFewScores):
            sample_std([0.5])


class TestBootstrap:
    def test_deterministic_and_ordered(self):
        scores = [0.98, 0.99, 0.99, 0.99, 0.99]
        a = bootstrap_ci(scores, seed=0)
        b = bootstrap_ci(scores, seed=0)
        assert a == b
        assert a[0] <= np.mean(scores) <= a[1]

    def test_needs_two_scores(self):
        with pytest.raises(TooFewScores):
            bootstrap_ci([0.5])

    def test_constant_scores_collapse(self):
        lo, hi = bootstrap_ci([0.9, 0.9, 0.9], seed=1)
        assert lo == hi == pytest.approx(0.9)


class TestRanks:
    def test_tie_mean(self):
        ranks = average_rank(table())
        # c1: a,b tie at (1+2)/2, c last; c2: a,c tie at (1+2)/2, b last
        assert ranks["a"] == pytest.approx((1.5 + 1.5) / 2)
        assert ranks["b"] == pytest.approx((1.5 + 3) / 2)
        assert ranks["c"] == pytest.approx((3 + 1.5) / 2)

    def test_rank_sum_invariant(self):
        ranks = average_rank(table())
        m = 3
        assert sum(ranks.values()) == pytest.approx(m * (m + 1) / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score(self, bad):
        with pytest.raises(NonFiniteScore):
            average_rank(ScoreTable(("a", "b"), ("c1", "c2"), ((0.9, bad), (0.8, 0.7))))


class TestReport:
    def test_rows_sorted_and_consistent(self):
        rows = stability_report(table(), seed=0)
        means = [r.mean for r in rows]
        assert means == sorted(means, reverse=True)
        for r in rows:
            assert r.stability == pytest.approx(1.0 - r.std)
            assert r.ci_low <= r.mean <= r.ci_high

    def test_render(self):
        rows = stability_report(table(), seed=0)
        text = render_table(rows)
        assert "Mean F1" in text and "Stability" in text
        assert text.count("\n") == len(rows) + 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScoreTable(("a",), ("c1", "c2"), ((0.5,),))

    def test_no_runs_is_too_few_scores(self):
        with pytest.raises(TooFewScores):
            ScoreTable(("a", "b"), (), ((), ()))

    def test_one_run_is_too_few_scores(self):
        with pytest.raises(TooFewScores):
            ScoreTable(("a", "b"), ("c1",), ((0.9,), (0.8,)))

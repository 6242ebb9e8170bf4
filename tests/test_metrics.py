import numpy as np
import pytest

from edysec.errors import LengthMismatch, NonFiniteScore, SingleClass
from edysec.metrics import ConfusionMatrix, classification_metrics, confusion, evaluate, midranks, roc_auc


class TestConfusion:
    def test_counts(self):
        labels = [1, 1, 0, 0, 1]
        probs = [0.9, 0.2, 0.1, 0.8, 0.6]
        cm = confusion(labels, probs)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 1)
        assert cm.to_dict() == {"tp": 2, "tn": 1, "fp": 1, "fn": 1}
        # evaluate: the same counts, their report, and the AUC only when asked
        report, evaluated = evaluate(labels, probs, 0.5)
        assert evaluated == cm and report == classification_metrics(cm) and report.auc is None
        report, _ = evaluate(labels, probs, 0.5, auc=True)
        assert report == classification_metrics(cm, auc=roc_auc(labels, probs)) and report.auc == pytest.approx(4 / 6)

    def test_threshold_inclusive(self):
        cm = confusion([1, 0], [0.5, 0.5], threshold=0.5)
        assert (cm.tp, cm.fp) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1], [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            confusion([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability(self, bad):
        # NaN >= t is False: counted, it would be a benign prediction
        with pytest.raises(NonFiniteScore):
            confusion([0, 1, 1], [0.2, bad, 0.7])
        for auc in (False, True):
            with pytest.raises(NonFiniteScore):
                evaluate([0, 1, 1], [0.2, bad, 0.7], 0.5, auc=auc)


class TestClassificationMetrics:
    def test_known_values(self):
        cm = ConfusionMatrix(tp=1066, tn=1058, fp=6, fn=11)
        r = classification_metrics(cm)
        assert r.accuracy == pytest.approx(2124 / 2141)
        assert r.precision == pytest.approx(1066 / 1072)
        assert r.recall == pytest.approx(1066 / 1077)
        assert r.fpr == pytest.approx(6 / 1064)
        assert r.fnr == pytest.approx(11 / 1077)
        assert r.error_rate == pytest.approx(1 - r.accuracy)
        d = r.to_dict()["display"]
        assert d["fpr_pct"] == 0.56
        assert d["fnr_pct"] == 1.02

    def test_degenerate_denominators(self):
        r = classification_metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
        assert r.precision == 1.0 and r.recall == 1.0


class TestMidranks:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([7.0], [1.0]),
            ([2.0, 2.0, 2.0, 2.0], [2.5, 2.5, 2.5, 2.5]),
            ([-1.5, -3.0, 0.0, -0.5], [2.0, 1.0, 4.0, 3.0]),
            ([3, 1, 3, 2, 1, 3], [5.0, 1.5, 5.0, 3.0, 1.5, 5.0]),
            ([0.5, -2.0, 0.5, -2.0, 9.0, 0.0], [4.5, 1.5, 4.5, 1.5, 6.0, 3.0]),
        ],
    )
    def test_hand_written(self, values, expected):
        assert midranks(values).tolist() == expected


class TestRocAuc:
    def test_perfect_and_reversed(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_ties_count_half(self):
        assert roc_auc([0, 1], [0.5, 0.5]) == 0.5
        assert roc_auc([0, 1, 1], [0.3, 0.3, 0.7]) == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score(self, bad):
        with pytest.raises(NonFiniteScore):
            roc_auc([0, 1, 1], [0.2, bad, 0.7])

    def test_single_class(self):
        with pytest.raises(SingleClass):
            roc_auc([1, 1], [0.2, 0.4])

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        s = np.round(rng.random(30), 1)
        pos, neg = s[y == 1], s[y == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert roc_auc(y, s) == pytest.approx(wins / (len(pos) * len(neg)))

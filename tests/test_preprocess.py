import dataclasses
import math

import numpy as np
import pytest

from edysec import featsel
from edysec.dataset import FeatureColumn, FeatureManifest, TraceDataset, generate_synthetic
from edysec.errors import UnknownColumn, UnknownFeature, WrongKind
from edysec.preprocess import (
    Preprocessor,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    fit_text_vectorizer,
    tfidf_block,
    tokenize,
)


def text_dataset():
    manifest = FeatureManifest(
        columns=(
            FeatureColumn("count", "numeric", "Filetop"),
            FeatureColumn("paths", "pattern", "Opensnoop"),
        ),
        label_column="label",
        id_column="package",
    )
    rows = (
        {"count": 1.0, "paths": "/tmp/a.py /tmp/b.py"},
        {"count": 2.0, "paths": "/etc/passwd"},
        {"count": 3.0, "paths": "/tmp/a.py"},
        {"count": 6.0, "paths": ""},
    )
    return TraceDataset(manifest, ("p0", "p1", "p2", "p3"), rows, (0, 1, 0, 1))


class TestTokenize:
    def test_lowercase_alnum_runs(self):
        assert tokenize("GET /Tmp/x-1.PY") == ["get", "tmp", "x", "1", "py"]

    def test_empty(self):
        assert tokenize("--- ///") == []


class TestScaler:
    def test_population_std(self):
        ds = text_dataset()
        params = fit_scaler(ds)
        values = np.array([1.0, 2.0, 3.0, 6.0])
        assert params.means["count"] == pytest.approx(3.0)
        assert params.stds["count"] == pytest.approx(values.std(ddof=0))

    def test_transform_and_zero_sigma(self):
        params = ScalerParams({"count": 3.0}, {"count": 0.0})
        out = apply_scaler(params, text_dataset())
        assert np.all(out[:, 0] == 0.0)

    def test_unknown_column(self):
        # extra dataset columns are ignored; a fitted column the dataset lacks is refused
        assert apply_scaler(ScalerParams({}, {}), text_dataset()).shape == (4, 0)
        with pytest.raises(UnknownColumn):
            apply_scaler(ScalerParams({"nope": 0.0}, {"nope": 1.0}), text_dataset())


class TestTextVectorizer:
    def test_idf_formula(self):
        ds = text_dataset()
        vec = fit_text_vectorizer(ds, "paths")
        assert vec.vocabulary == tuple(sorted(vec.vocabulary))
        n = len(ds)
        i = vec.vocabulary.index("tmp")  # appears in 2 of 4 cells
        assert vec.idf[i] == pytest.approx(math.log((1 + n) / (1 + 2)) + 1.0)

    def test_wrong_kind(self):
        with pytest.raises(WrongKind):
            fit_text_vectorizer(text_dataset(), "count")

    def test_l2_norm_and_oov(self):
        vec = fit_text_vectorizer(text_dataset(), "paths")
        row, oov, empty = tfidf_block(vec, ["/tmp/a.py zzz-unseen", "zzz-unseen", ""])
        assert np.linalg.norm(row) == pytest.approx(1.0)
        assert np.all(oov == 0.0) and np.all(empty == 0.0)

    def test_counts_scale_with_repeats(self):
        vec = fit_text_vectorizer(text_dataset(), "paths")
        once, twice = tfidf_block(vec, ["passwd py", "passwd passwd py"])
        i = vec.vocabulary.index("passwd")
        assert twice[i] > once[i]


class TestProcessedMatrix:
    def test_layout_and_groups(self):
        ds = text_dataset()
        pre = Preprocessor.fit(ds)
        pm = pre.transform(ds)
        vec = pre.vectorizers["paths"]
        assert pm.width == 1 + len(vec.vocabulary)
        assert pm.source_features() == ["count", "paths"]
        width = len(vec.vocabulary)
        assert list(pm.spans()) == [("count", "numeric", slice(0, 1)), ("paths", "text", slice(1, 1 + width))]
        assert pm.layout == (("count", "numeric", 1), ("paths", "text", width))

    def test_transform_matches_manual(self):
        ds = text_dataset()
        pre = Preprocessor.fit(ds)
        pm = pre.transform(ds)
        scaled = apply_scaler(pre.scaler, ds)
        assert np.allclose(pm.X[:, 0], scaled[:, 0])
        vec = pre.vectorizers["paths"]
        counts = np.array([{"a": 1, "b": 1, "py": 2, "tmp": 2}.get(t, 0) for t in vec.vocabulary])  # "/tmp/a.py /tmp/b.py"
        expect = counts * np.array(vec.idf)
        assert np.allclose(pm.X[0, 1:], expect / np.linalg.norm(expect))

    def test_matches_the_per_cell_reference(self):
        # the loop the blocks replaced: one column of the scaler, and one cell of TF-IDF, at a time
        def reference(pre, ds):
            columns = []
            for name, mu in pre.scaler.means.items():
                sigma = pre.scaler.stds[name]
                values = np.array([row[name] for row in ds.rows], dtype=float)
                columns.append((values - mu) / sigma if sigma > 0 else np.zeros(len(ds)))
            X = np.column_stack(columns)
            for name, vec in pre.vectorizers.items():
                rows = []
                for row in ds.rows:
                    out = np.zeros(len(vec.vocabulary))
                    for token in tokenize(row[name]):
                        if token in vec.index:
                            out[vec.index[token]] += 1.0
                    out *= np.asarray(vec.idf)
                    norm = np.linalg.norm(out)
                    rows.append(out / norm if norm > 0 else out)
                X = np.hstack([X, np.vstack(rows)])
            return X

        ds = generate_synthetic(300, 6, 30, kinds={"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}, seed=3)
        train, rest = ds.subset(range(200)), ds.subset(range(200, 300))
        pre = Preprocessor.fit(train)
        for part in (train, rest):
            assert pre.transform(part).X.tobytes() == reference(pre, part).tobytes()


class TestPreprocessorState:
    def test_dict_roundtrip(self):
        ds = text_dataset()
        pre = Preprocessor.fit(ds)
        again = Preprocessor.from_dict(pre.to_dict())
        a = pre.transform(ds)
        b = again.transform(ds)
        assert np.array_equal(a.X, b.X)

    def test_select_matches_projection(self):
        ds = generate_synthetic(
            120, 3, 6, kinds={"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}, seed=5
        )
        pre = Preprocessor.fit(ds)
        names = [n for n in ds.manifest.feature_names() if n in ("inf_1", "noise_1", "noise_3", "noise_5")]
        assert {ds.manifest.column(n).kind for n in names} >= {"numeric", "categorical", "pattern"}
        picked = pre.select(names).transform(ds)
        projected = featsel.project(pre.transform(ds), names)
        assert np.array_equal(picked.X, projected.X)
        assert picked.layout == projected.layout
        with pytest.raises(UnknownFeature):
            pre.select(["nope"])

    def test_missing_or_rekinded_fitted_column_is_refused(self):
        ds = text_dataset()
        pre = Preprocessor.fit(ds)
        count, paths = ds.manifest.columns
        for columns in (
            (count,),
            (count, dataclasses.replace(paths, kind="numeric")),
            (dataclasses.replace(count, kind="categorical"), paths),
        ):
            manifest = dataclasses.replace(ds.manifest, columns=columns)
            with pytest.raises(UnknownColumn):
                pre.transform(TraceDataset(manifest, ds.ids, ds.rows, ds.labels))

    def test_fit_on_train_only(self):
        ds = generate_synthetic(
            100, 2, 4, kinds={"numeric": 0.5, "pattern": 0.5}, seed=2
        )
        train = ds.subset(range(80))
        rest = ds.subset(range(80, 100))
        pre = Preprocessor.fit(train)
        pm = pre.transform(rest)  # unseen tokens must not widen the matrix
        assert pm.width == pre.transform(train).width


class TestBatchIndependence:
    """A row's processed values are the same bits whatever rows are
    transformed with it."""

    @staticmethod
    def corpus():
        manifest = FeatureManifest(
            columns=(
                FeatureColumn("count", "numeric", "Filetop"),
                FeatureColumn("flat", "numeric", "Install"),  # zero std in training
                FeatureColumn("paths", "pattern", "Opensnoop"),
                FeatureColumn("calls", "categorical", "SysCall"),
                FeatureColumn("blank", "categorical", "TCP"),  # no token in training: width 0
            ),
            label_column="label",
            id_column="package",
        )
        train = (
            {"count": 1.0, "flat": 2.0, "paths": "/tmp/a.py /tmp/b.py", "calls": "open read", "blank": ""},
            {"count": 2.5, "flat": 2.0, "paths": "/etc/passwd", "calls": "connect", "blank": "--"},
            {"count": -3.0, "flat": 2.0, "paths": "/tmp/a.py", "calls": "open open write", "blank": "/ ."},
            {"count": 6.0, "flat": 2.0, "paths": "", "calls": "", "blank": ""},
        )
        scored = train + (
            {"count": 0.0, "flat": 7.0, "paths": "", "calls": "", "blank": "new tokens"},  # empty cells
            {"count": 1e6, "flat": -1.0, "paths": "zzz /qqq", "calls": "unseen", "blank": "x"},  # only OOV tokens
            {"count": 1.0, "flat": 2.0, "paths": "/tmp/a.py /tmp/b.py", "calls": "open read", "blank": ""},  # repeated
            {"count": 2.0, "flat": 2.0, "paths": "/TMP/A.PY;/ETC/Passwd", "calls": "OPEN,Read,open", "blank": "A"},
        )
        make = lambda rows: TraceDataset(
            manifest, tuple(f"p{i}" for i in range(len(rows))), rows, tuple(i % 2 for i in range(len(rows)))
        )
        return make(train), make(scored)

    def test_rows_alone_give_the_batch_bits(self):
        train, scored = self.corpus()
        pre = Preprocessor.fit(train)
        assert pre.scaler.stds["flat"] == 0.0 and pre.vectorizers["blank"].vocabulary == ()
        whole = pre.transform(scored)
        assert [name for name, _, _ in whole.layout] == ["count", "flat", "paths", "calls"]
        alone = np.vstack([pre.transform(scored.subset([i])).X for i in range(len(scored))])
        assert alone.shape == whole.X.shape
        assert alone.tobytes() == whole.X.tobytes()
        assert whole.X[:4].tobytes() == pre.transform(train).X.tobytes()
        assert whole.X[6].tobytes() == whole.X[0].tobytes()
        assert np.all(whole.X[4:6, 2:] == 0.0) and np.all(whole.X[:, 1] == 0.0)
        assert np.all(np.signbit(whole.X[:, 1]) == 0)  # +0.0, not -0.0, for the zero-std column

    def test_zero_rows_give_an_empty_matrix_of_the_width(self):
        train, scored = self.corpus()
        pre = Preprocessor.fit(train)
        none = pre.transform(scored.subset([]))
        assert none.X.shape == (0, pre.transform(scored).width)
        assert none.labels.shape == (0,)

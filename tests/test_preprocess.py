import dataclasses
import math

import numpy as np
import pytest

from edysec import featsel
from edysec.dataset import FeatureColumn, FeatureManifest, TraceDataset, generate_synthetic
from edysec.errors import RowMismatch, UnknownColumn, UnknownFeature, WrongKind
from edysec.preprocess import (
    Preprocessor,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    fit_text_vectorizer,
    tokenize,
    transform_text,
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
        row = transform_text(vec, "/tmp/a.py zzz-unseen")
        assert np.linalg.norm(row) == pytest.approx(1.0)
        empty = transform_text(vec, "")
        assert np.all(empty == 0.0)

    def test_counts_scale_with_repeats(self):
        vec = fit_text_vectorizer(text_dataset(), "paths")
        once = transform_text(vec, "passwd py")
        twice = transform_text(vec, "passwd passwd py")
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
        assert list(pm.feature_columns("count")) == [0]
        assert len(pm.feature_columns("paths")) == len(vec.vocabulary)
        assert pm.layout == (("count", "numeric", 1), ("paths", "text", len(vec.vocabulary)))

    def test_unknown_feature_columns(self):
        pm = Preprocessor.fit(text_dataset()).transform(text_dataset())
        with pytest.raises(UnknownColumn):
            pm.feature_columns("nope")

    def test_transform_matches_manual(self):
        ds = text_dataset()
        pre = Preprocessor.fit(ds)
        pm = pre.transform(ds)
        scaled = apply_scaler(pre.scaler, ds)
        assert np.allclose(pm.X[:, 0], scaled[:, 0])
        vec = pre.vectorizers["paths"]
        expect = transform_text(vec, ds.rows[0]["paths"])
        assert np.allclose(pm.X[0, 1:], expect)


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

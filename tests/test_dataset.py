import math

import numpy as np
import pytest

from edysec.dataset import (
    DatasetSplits,
    FeatureColumn,
    FeatureManifest,
    TraceDataset,
    allocate,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from edysec.errors import BadLabel, BadNumeric, BadOption, BadRatios, DuplicateId, MissingColumn, ShortRow


def small_manifest():
    return FeatureManifest(
        columns=(
            FeatureColumn("reads", "numeric", "Filetop"),
            FeatureColumn("paths", "pattern", "Opensnoop"),
        ),
        label_column="label",
        id_column="package",
    )


def write_csv(path, rows, header="package,label,reads,paths"):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestLoadDataset:
    def test_roundtrip(self, tmp_path):
        man = small_manifest()
        p = write_csv(tmp_path / "d.csv", ["a,0,1.5,/tmp/x", "b,1,2.0,/etc/y"])
        ds = load_dataset(p, man)
        assert ds.ids == ("a", "b")
        assert ds.labels == (0, 1)
        assert ds.rows[0]["reads"] == 1.5
        assert ds.rows[1]["paths"] == "/etc/y"
        out = tmp_path / "out.csv"
        save_dataset(ds, out)
        again = load_dataset(out, man)
        assert again == ds

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,0,1.0"], header="package,label,reads")
        with pytest.raises(MissingColumn):
            load_dataset(p, small_manifest())

    def test_bad_numeric(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,0,oops,/x"])
        with pytest.raises(BadNumeric) as exc:
            load_dataset(p, small_manifest())
        assert exc.value.row == 0 and exc.value.column == "reads"

    def test_non_finite_numeric(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,0,inf,/x"])
        with pytest.raises(BadNumeric):
            load_dataset(p, small_manifest())

    def test_short_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,0,1.0,/x", "b,1,2.0"])
        with pytest.raises(ShortRow) as exc:
            load_dataset(p, small_manifest())
        assert exc.value.row == 1

    def test_bad_label(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,2,1.0,/x"])
        with pytest.raises(BadLabel):
            load_dataset(p, small_manifest())

    def test_duplicate_id(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,0,1.0,/x", "a,1,2.0,/y"])
        with pytest.raises(DuplicateId):
            load_dataset(p, small_manifest())


class TestManifest:
    def test_roundtrip(self, tmp_path):
        man = small_manifest()
        path = tmp_path / "m.json"
        man.save(path)
        assert FeatureManifest.load(path) == man

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureManifest(
                columns=(
                    FeatureColumn("x", "numeric", "TCP"),
                    FeatureColumn("x", "numeric", "TCP"),
                ),
                label_column="label",
                id_column="package",
            )


class TestSplit:
    def test_allocate_largest_remainder(self):
        assert allocate(10, (0.7, 0.15, 0.15)) == [7, 2, 1]
        assert allocate(14271, (0.7, 0.15, 0.15)) == [9990, 2141, 2140]

    def test_partition_and_stratification(self):
        ds = generate_synthetic(200, 2, 2, seed=5)
        splits = split_dataset(ds, seed=3)
        all_ids = sorted(splits.train.ids + splits.validation.ids + splits.test.ids)
        assert all_ids == sorted(ds.ids)
        for part in (splits.train, splits.validation, splits.test):
            pos = sum(part.labels)
            assert abs(len(part) - 2 * pos) <= 1

    def test_deterministic(self):
        ds = generate_synthetic(100, 2, 2, seed=5)
        a = split_dataset(ds, seed=7)
        b = split_dataset(ds, seed=7)
        assert a.train.ids == b.train.ids and a.test.ids == b.test.ids
        c = split_dataset(ds, seed=8)
        assert c.train.ids != a.train.ids

    def test_bad_ratios(self):
        ds = generate_synthetic(50, 1, 1, seed=0)
        with pytest.raises(BadRatios):
            split_dataset(ds, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(BadRatios):
            split_dataset(ds, ratios=(1.0, -0.5, 0.5))


class TestSynthetic:
    def test_shapes_and_ground_truth(self):
        ds = generate_synthetic(
            120, 3, 6, kinds={"numeric": 0.5, "categorical": 0.25, "pattern": 0.25}, seed=9
        )
        assert len(ds) == 120
        assert ds.manifest.informative == ("inf_0", "inf_1", "inf_2")
        assert len(ds.manifest.feature_names()) == 9
        kinds = [c.kind for c in ds.manifest.columns if c.name.startswith("noise_")]
        assert kinds.count("numeric") == 3
        pos = sum(ds.labels)
        assert abs(len(ds) - 2 * pos) <= 1

    def test_informative_columns_separate_classes(self):
        ds = generate_synthetic(400, 2, 2, seed=11)
        y = np.array(ds.labels)
        for name in ds.manifest.informative:
            v = np.array([row[name] for row in ds.rows])
            assert v[y == 1].mean() - v[y == 0].mean() > 2.0

    @pytest.mark.parametrize("d_noise, kinds", [
        (-2, None), (3, {"numeric": -1.0, "categorical": 1.0, "pattern": 1.0}), (3, {"numeric": 1.5, "pattern": -0.5}),
        (3, {"numeric": 0.5}), (3, {"numeric": 0.0, "pattern": 0.0}),
    ])
    def test_refuses_a_shape_it_cannot_write(self, d_noise, kinds):
        with pytest.raises(BadOption):
            generate_synthetic(40, 1, d_noise, kinds=kinds)

    def test_deterministic(self):
        a = generate_synthetic(60, 2, 2, seed=4)
        b = generate_synthetic(60, 2, 2, seed=4)
        assert a == b

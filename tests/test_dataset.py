import hashlib
import math

import numpy as np
import pytest

from edysec import dataset
from edysec.artifact import dataset_hash
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


BENCHMARK_KINDS = {"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}  # perfbench's corpus mix


class TestSyntheticPinned:
    """The synthetic corpus is pinned by seed: a change to its draws fails here."""

    @pytest.mark.parametrize("shape, kinds, seed, sha256", [
        ((200, 3, 5), None, 11, "15df410cd5a61b95501aa01a250cf0993a506c841edf94676e2f06d21665cb4f"),
        ((600, 6, 30), BENCHMARK_KINDS, 41, "9f9cd829b6eff54609fb8cd23a75042974967fecdc839b9622e5a6a9ca7517bf"),
    ])
    def test_saved_corpus_bytes(self, tmp_path, shape, kinds, seed, sha256):
        save_dataset(generate_synthetic(*shape, kinds=kinds, seed=seed), tmp_path / "c.csv")
        assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == sha256

    def test_dataset_hash(self):
        ds = generate_synthetic(600, 6, 30, kinds=BENCHMARK_KINDS, seed=41)
        assert dataset_hash(ds) == "7da9a3db940ed34e1c03d7b6f8fd203530daa73e75f42cf9c7415f303f3907d4"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_token_cells_are_the_per_cell_choice_draws(self, seed):
        # the reference: one count and one rng.choice per cell
        ref, rng = [], np.random.default_rng(seed)
        for _ in range(2000):
            count = int(rng.integers(0, 5))
            ref.append(" ".join(rng.choice(dataset._SYNTH_TOKENS, size=count)) if count else "")
        got = np.random.default_rng(seed)
        assert dataset._token_cells(got, 2000) == ref
        assert got.integers(0, 5, 9).tolist() == rng.integers(0, 5, 9).tolist()  # the generator is left where they leave it
        assert got.normal() == rng.normal()

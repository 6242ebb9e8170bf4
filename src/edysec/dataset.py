"""Trace-feature datasets: manifest, CSV loading, splitting, synthetic fixtures."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLabel,
    BadNumeric,
    BadOption,
    BadRatios,
    BadText,
    DuplicateId,
    MissingColumn,
    ShortRow,
    SingleClass,
    UnreadableInput,
)

KINDS = ("numeric", "categorical", "pattern")
TRACES = ("Filetop", "Opensnoop", "Install", "TCP", "SysCall", "Pattern")

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str
    trace: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} for column {self.name}")
        if self.trace not in TRACES:
            raise ValueError(f"unknown trace {self.trace!r} for column {self.name}")


@dataclass(frozen=True)
class FeatureManifest:
    columns: tuple[FeatureColumn, ...]
    label_column: str
    id_column: str
    # ground-truth informative columns, populated only by the synthetic generator
    informative: tuple[str, ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names in manifest")
        if self.label_column in names or self.id_column in names:
            raise ValueError("label/id columns must not be listed as features")
        if self.label_column == self.id_column:
            raise ValueError("label and id columns must differ")

    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> FeatureColumn:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def numeric_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == "numeric"]

    def text_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.kind in ("categorical", "pattern")]

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "id_column": self.id_column,
            "label_column": self.label_column,
            "features": [
                {"name": c.name, "kind": c.kind, "trace": c.trace} for c in self.columns
            ],
            **({"informative": list(self.informative)} if self.informative else {}),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureManifest":
        if d.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version: {d.get('version')!r}")
        return cls(
            columns=tuple(
                FeatureColumn(f["name"], f["kind"], f["trace"]) for f in d["features"]
            ),
            label_column=d["label_column"],
            id_column=d["id_column"],
            informative=tuple(d.get("informative", ())),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FeatureManifest":
        """Read a manifest file; one that is not a valid manifest fails closed as UnreadableInput."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
            raise UnreadableInput(f"cannot read a manifest from {path}: {exc!r}") from exc


@dataclass(frozen=True)
class TraceDataset:
    manifest: FeatureManifest
    ids: tuple[str, ...]
    rows: tuple[dict, ...]  # column name -> cell (float for numeric, str otherwise)
    labels: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.ids) == len(self.rows) == len(self.labels)):
            raise ValueError("ids/rows/labels length mismatch")

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices) -> "TraceDataset":
        return TraceDataset(
            manifest=self.manifest,
            ids=tuple(self.ids[i] for i in indices),
            rows=tuple(self.rows[i] for i in indices),
            labels=tuple(self.labels[i] for i in indices),
        )


@dataclass(frozen=True)
class DatasetSplits:
    train: TraceDataset
    validation: TraceDataset
    test: TraceDataset


def _parse_label(raw: str, row: int) -> int:
    if raw not in ("0", "1"):
        raise BadLabel(row, raw)
    return int(raw)


def parse_cell(col: FeatureColumn, value, row) -> float | str:
    """The one rule for a feature cell, from a CSV or a JSON record: a numeric
    cell is a number or numeric string (not a bool) that parses to a finite
    float; a text cell is a string."""
    if col.kind != "numeric":
        if not isinstance(value, str):
            raise BadText(row, col.name, value)
        return value
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise BadNumeric(row, col.name, value)


def load_dataset(csv_path, manifest: FeatureManifest) -> TraceDataset:
    """Load a CSV under the manifest; every cell passes `parse_cell`. A file
    that cannot be read as UTF-8 CSV fails closed as UnreadableInput."""
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(manifest.id_column)
            index = {name: i for i, name in enumerate(header)}
            for required in (manifest.id_column, manifest.label_column, *manifest.feature_names()):
                if required not in index:
                    raise MissingColumn(required)

            ids, rows, labels = [], [], []
            seen = set()
            for row_num, record in enumerate(reader):
                if len(record) < len(header):
                    raise ShortRow(row_num, len(record), len(header))
                pkg = record[index[manifest.id_column]]
                if pkg in seen:
                    raise DuplicateId(pkg)
                seen.add(pkg)
                cells = {
                    col.name: parse_cell(col, record[index[col.name]], row_num) for col in manifest.columns
                }
                ids.append(pkg)
                rows.append(cells)
                labels.append(_parse_label(record[index[manifest.label_column]], row_num))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableInput(f"cannot read the dataset {csv_path}: {exc!r}") from exc
    return TraceDataset(manifest, tuple(ids), tuple(rows), tuple(labels))


def save_dataset(ds: TraceDataset, csv_path) -> None:
    """Write a dataset back to CSV (round-trips with load_dataset)."""
    man = ds.manifest
    header = [man.id_column, man.label_column, *man.feature_names()]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pkg, cells, label in zip(ds.ids, ds.rows, ds.labels):
            row = [pkg, str(label)]
            for col in man.columns:
                value = cells[col.name]
                row.append(repr(float(value)) if col.kind == "numeric" else value)
            writer.writerow(row)


def allocate(n: int, ratios) -> list[int]:
    """Largest-remainder allocation of n items over the ratios."""
    exact = [n * r for r in ratios]
    counts = [int(math.floor(e)) for e in exact]
    short = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def split_dataset(
    ds: TraceDataset,
    ratios=(0.70, 0.15, 0.15),
    seed: int = 0,
) -> DatasetSplits:
    """Deterministic seeded train/validation/test split, stratified by label."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise BadRatios(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)}")

    rng = np.random.default_rng(seed)
    groups = [
        [i for i, y in enumerate(ds.labels) if y == 0],
        [i for i, y in enumerate(ds.labels) if y == 1],
    ]
    if any(not g for g in groups):
        raise SingleClass("stratified split needs at least one row per class")

    parts: list[list[int]] = [[], [], []]
    for group in groups:
        perm = rng.permutation(len(group))
        shuffled = [group[i] for i in perm]
        counts = allocate(len(group), ratios)
        start = 0
        for part, count in zip(parts, counts):
            part.extend(shuffled[start : start + count])
            start += count
    parts = [sorted(p) for p in parts]
    train, val, test = (ds.subset(p) for p in parts)
    return DatasetSplits(train, val, test)


SYNTH_SEPARATION = 3.0  # class mean gap of an informative synthetic column
_SYNTH_TOKENS = (
    "open", "read", "write", "connect", "exec", "fork", "stat", "close",
    "tmp", "home", "etc", "socket", "dns", "pip", "setup", "wheel",
)


def generate_synthetic(
    n: int,
    d_informative: int,
    d_noise: int,
    kinds: dict | None = None,
    seed: int = 0,
) -> TraceDataset:
    """Class-separated synthetic trace dataset.

    Informative columns are numeric, class-conditionally normal with means
    SYNTH_SEPARATION apart (in units of the unit noise std). Noise columns are
    independent of the label; their kinds follow the `kinds` fractions,
    which are non-negative and sum to 1 (default: all numeric). The manifest's `informative` field records the
    ground-truth informative column names.
    """
    if n < 4:
        raise BadOption(f"need n >= 4 rows, got {n}")
    if d_informative < 1:
        raise BadOption(f"need d_informative >= 1, got {d_informative}")
    if d_noise < 0:
        raise BadOption(f"need d_noise >= 0, got {d_noise}")
    kinds = dict(kinds or {"numeric": 1.0})
    if any(k not in KINDS for k in kinds):
        raise BadOption(f"unknown kinds in {kinds}")
    if any(fraction < 0 for fraction in kinds.values()) or abs(sum(kinds.values()) - 1.0) > 1e-9:
        raise BadOption(f"kind fractions must be >= 0 and sum to 1, got {kinds}")

    rng = np.random.default_rng(seed)
    labels = np.array(([0, 1] * ((n + 1) // 2))[:n])
    rng.shuffle(labels)

    columns: list[FeatureColumn] = []
    informative = tuple(f"inf_{i}" for i in range(d_informative))
    for i, name in enumerate(informative):
        columns.append(FeatureColumn(name, "numeric", TRACES[i % len(TRACES)]))

    # noise column kinds by largest-remainder over the requested fractions
    kind_order = [k for k in KINDS if k in kinds]
    noise_counts = allocate(d_noise, [kinds[k] for k in kind_order]) if d_noise else []
    noise_kinds: list[str] = []
    for k, count in zip(kind_order, noise_counts):
        noise_kinds.extend([k] * count)
    for i, kind in enumerate(noise_kinds):
        columns.append(FeatureColumn(f"noise_{i}", kind, TRACES[(d_informative + i) % len(TRACES)]))

    manifest = FeatureManifest(
        columns=tuple(columns),
        label_column="label",
        id_column="package",
        informative=informative,
    )

    data: dict[str, list] = {}
    for name in informative:
        shift = labels * SYNTH_SEPARATION
        data[name] = (rng.normal(0.0, 1.0, n) + shift).tolist()
    for i, kind in enumerate(noise_kinds):
        data[f"noise_{i}"] = rng.normal(0.0, 1.0, n).tolist() if kind == "numeric" else _token_cells(rng, n)

    ids = tuple(f"pkg{i:06d}" for i in range(n))
    names = manifest.feature_names()
    rows = tuple(dict(zip(names, cells)) for cells in zip(*(data[name] for name in names)))
    return TraceDataset(manifest, ids, rows, tuple(labels.tolist()))


def _token_cells(rng: np.random.Generator, n: int) -> list[str]:
    """n text cells, drawn as `count = rng.integers(0, 5)` and then
    `rng.choice(_SYNTH_TOKENS, size=count)` per cell would draw them, and the
    generator left where those calls leave it, from one block of 32-bit words.

    Each value of both calls takes one 32-bit word u (Lemire's bounded
    method): a count is (5·u) >> 32, with u = 0 rejected and redrawn, and a
    token is u >> 28, which 16 tokens never reject."""
    state = rng.bit_generator.state
    words = rng.integers(0, 2**32, size=5 * n + 64, dtype=np.uint32).tolist()  # 64 spare words for rejections
    cells, at = [], 0
    for _ in range(n):
        while not words[at]:
            at += 1
        count = words[at] * 5 >> 32
        cells.append(" ".join([_SYNTH_TOKENS[word >> 28] for word in words[at + 1 : at + 1 + count]]))
        at += 1 + count
    rng.bit_generator.state = state
    rng.integers(0, 2**32, size=at, dtype=np.uint32)  # take exactly the words the cells used
    return cells

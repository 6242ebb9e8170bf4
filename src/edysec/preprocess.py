"""Preprocessing: z-score numeric columns, per-column TF-IDF for text columns, assembly."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import TraceDataset
from .errors import RowMismatch, UnknownColumn, WrongKind

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs; trace text splits naturally on punctuation."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class ScalerParams:
    means: dict[str, float]
    stds: dict[str, float]  # population (1/n) convention


def fit_scaler(train: TraceDataset) -> ScalerParams:
    if len(train) == 0:
        raise ValueError("cannot fit scaler on an empty dataset")
    means, stds = {}, {}
    for name in train.manifest.numeric_columns():
        values = np.array([row[name] for row in train.rows], dtype=float)
        means[name] = float(values.mean())
        stds[name] = float(values.std())  # ddof=0
    return ScalerParams(means, stds)


def apply_scaler(params: ScalerParams, ds: TraceDataset) -> np.ndarray:
    """Scaled numeric block, columns in manifest order. sigma=0 columns map to 0."""
    names = ds.manifest.numeric_columns()
    for name in names:
        if name not in params.means:
            raise UnknownColumn(name)
    out = np.zeros((len(ds), len(names)))
    for j, name in enumerate(names):
        mu, sigma = params.means[name], params.stds[name]
        values = np.array([row[name] for row in ds.rows], dtype=float)
        if sigma > 0:
            out[:, j] = (values - mu) / sigma
    return out


@dataclass(frozen=True)
class TextVectorizer:
    column: str
    vocabulary: tuple[str, ...]  # alphabetical; index = position
    idf: tuple[float, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.vocabulary)}

    @cached_property
    def idf_array(self) -> np.ndarray:
        idf = np.asarray(self.idf)
        idf.flags.writeable = False  # shared by every transform_text call
        return idf


def fit_text_vectorizer(train: TraceDataset, column: str) -> TextVectorizer:
    """Smoothed idf: ln((1+n)/(1+df)) + 1, df counted over training cells."""
    kind = train.manifest.column(column).kind
    if kind not in ("categorical", "pattern"):
        raise WrongKind(f"column {column} has kind {kind}")
    n = len(train)
    df: dict[str, int] = {}
    for row in train.rows:
        for token in set(tokenize(row[column])):
            df[token] = df.get(token, 0) + 1
    vocab = tuple(sorted(df))
    idf = tuple(float(np.log((1 + n) / (1 + df[t])) + 1.0) for t in vocab)
    return TextVectorizer(column, vocab, idf)


def transform_text(vec: TextVectorizer, cell: str) -> np.ndarray:
    """Count * idf over the vocabulary, L2-normalized; OOV tokens ignored."""
    out = np.zeros(len(vec.vocabulary))
    index = vec.index
    for token in tokenize(cell):
        i = index.get(token)
        if i is not None:
            out[i] += 1.0
    out *= vec.idf_array
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm
    return out


@dataclass(frozen=True)
class ProcessedMatrix:
    X: np.ndarray  # n x d_tilde, float64
    column_map: tuple[tuple[str, str], ...]  # (source feature name, block kind) per column
    labels: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != len(self.column_map):
            raise RowMismatch("column_map width does not match matrix")
        if self.X.shape[0] != len(self.labels):
            raise RowMismatch("labels do not align with rows")

    @property
    def width(self) -> int:
        return self.X.shape[1]

    def source_features(self) -> list[str]:
        seen: list[str] = []
        for name, _ in self.column_map:
            if name not in seen:
                seen.append(name)
        return seen

    def feature_columns(self, name: str) -> np.ndarray:
        cols = np.array([i for i, (src, _) in enumerate(self.column_map) if src == name])
        if cols.size == 0:
            raise UnknownColumn(name)
        return cols


def assemble(
    numeric_block: np.ndarray,
    numeric_names: list[str],
    text_blocks: list[tuple[str, np.ndarray]],
    labels,
    ids=(),
) -> ProcessedMatrix:
    """Concatenate numeric columns then each text column's vocabulary block."""
    n = numeric_block.shape[0] if numeric_block.size else (
        text_blocks[0][1].shape[0] if text_blocks else len(labels)
    )
    blocks = []
    column_map: list[tuple[str, str]] = []
    if numeric_block.shape[1] != len(numeric_names):
        raise RowMismatch("numeric block width does not match names")
    if numeric_names:
        if numeric_block.shape[0] != n:
            raise RowMismatch("numeric block rows misaligned")
        blocks.append(numeric_block)
        column_map.extend((name, "numeric") for name in numeric_names)
    for name, block in text_blocks:
        if block.shape[0] != n:
            raise RowMismatch(f"text block {name} rows misaligned")
        blocks.append(block)
        column_map.extend((name, "text") for _ in range(block.shape[1]))
    X = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return ProcessedMatrix(X, tuple(column_map), np.asarray(labels, dtype=int), tuple(ids))


@dataclass(frozen=True)
class Preprocessor:
    """Fitted preprocessing state: scaler plus one vectorizer per text column."""

    scaler: ScalerParams
    vectorizers: dict[str, TextVectorizer] = field(default_factory=dict)

    @classmethod
    def fit(cls, train: TraceDataset) -> "Preprocessor":
        scaler = fit_scaler(train)
        vectorizers = {
            name: fit_text_vectorizer(train, name)
            for name in train.manifest.text_columns()
        }
        return cls(scaler, vectorizers)

    def transform(self, ds: TraceDataset) -> ProcessedMatrix:
        numeric_names = ds.manifest.numeric_columns()
        numeric = apply_scaler(self.scaler, ds)
        text_blocks = []
        for name in ds.manifest.text_columns():
            vec = self.vectorizers.get(name)
            if vec is None:
                raise UnknownColumn(name)
            block = np.vstack([transform_text(vec, row[name]) for row in ds.rows]) \
                if len(ds) else np.zeros((0, len(vec.vocabulary)))
            text_blocks.append((name, block))
        return assemble(numeric, numeric_names, text_blocks, ds.labels, ds.ids)

    def to_dict(self) -> dict:
        return {
            "scaler": {"means": self.scaler.means, "stds": self.scaler.stds},
            "vectorizers": {
                name: {"vocabulary": list(v.vocabulary), "idf": list(v.idf)}
                for name, v in self.vectorizers.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        scaler = ScalerParams(dict(d["scaler"]["means"]), dict(d["scaler"]["stds"]))
        vectorizers = {
            name: TextVectorizer(name, tuple(v["vocabulary"]), tuple(v["idf"]))
            for name, v in d["vectorizers"].items()
        }
        return cls(scaler, vectorizers)

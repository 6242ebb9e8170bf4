"""Preprocessing: z-score numeric columns, per-column TF-IDF for text columns,
and the column layout of the processed matrix."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import TraceDataset
from .errors import RowMismatch, UnknownColumn, UnknownFeature, WrongKind

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs; trace text splits naturally on punctuation."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class ScalerParams:
    means: dict[str, float]
    stds: dict[str, float]  # population (1/n) convention

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The means and the stds as read-only arrays, in fitted order."""
        arrays = np.array(list(self.means.values()), dtype=float), np.array(list(self.stds.values()), dtype=float)
        for array in arrays:
            array.flags.writeable = False  # shared by every apply_scaler call
        return arrays


def fit_scaler(train: TraceDataset) -> ScalerParams:
    if len(train) == 0:
        raise ValueError("cannot fit scaler on an empty dataset")
    means, stds = {}, {}
    for name in train.manifest.numeric_columns():
        values = np.array([row[name] for row in train.rows], dtype=float)
        means[name] = float(values.mean())
        stds[name] = float(values.std())  # ddof=0
    return ScalerParams(means, stds)


def _kinds(ds: TraceDataset) -> dict[str, str]:
    """Column name -> "numeric" or "text" under the dataset's manifest."""
    return {c.name: "numeric" if c.kind == "numeric" else "text" for c in ds.manifest.columns}


def apply_scaler(params: ScalerParams, ds: TraceDataset) -> np.ndarray:
    """Scaled numeric block, columns in fitted order, scaled in one array
    operation. sigma=0 columns map to 0; a fitted column the dataset lacks,
    or has as text, is refused."""
    kinds = _kinds(ds)
    names = list(params.means)
    for name in names:
        if kinds.get(name) != "numeric":
            raise UnknownColumn(f"{name}: fitted as numeric, not a numeric column of the dataset")
    values = np.array([[row[name] for name in names] for row in ds.rows], dtype=float).reshape(len(ds), len(names))
    mu, sigma = params.arrays
    values -= mu
    return np.divide(values, sigma, out=np.zeros_like(values), where=sigma > 0)


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
        idf.flags.writeable = False  # shared by every tfidf_block call
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


def tfidf_block(vec: TextVectorizer, cells) -> np.ndarray:
    """One row per cell: token count * idf over the vocabulary, L2-normalized;
    OOV tokens ignored. A row's values do not depend on the other cells: its
    norm is the BLAS dot that `np.linalg.norm` of the row alone takes."""
    index, width = vec.index, len(vec.vocabulary)
    hits = [
        row * width + column
        for row, cell in enumerate(cells)
        for column in map(index.get, tokenize(cell))
        if column is not None
    ]
    block = np.bincount(np.array(hits, dtype=np.intp), minlength=len(cells) * width).reshape(len(cells), width)
    block = block * vec.idf_array
    norms = np.sqrt(block[:, None, :] @ block[:, :, None]).reshape(len(cells), 1)  # a vector dot per row
    norms += norms == 0  # a row without a known token divides by 1 and stays 0
    block /= norms
    return block


@dataclass(frozen=True)
class ProcessedMatrix:
    X: np.ndarray  # n x d_tilde, float64; an artifact scores it in float32
    layout: tuple[tuple[str, str, int], ...]  # (source feature, "numeric" | "text", width), in column order
    labels: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != sum(width for _, _, width in self.layout):
            raise RowMismatch("layout width does not match matrix")
        if self.X.shape[0] != len(self.labels):
            raise RowMismatch("labels do not align with rows")

    @property
    def width(self) -> int:
        return self.X.shape[1]

    def source_features(self) -> list[str]:
        return [name for name, _, _ in self.layout]

    def spans(self):
        """(source feature, kind, column slice) per source feature, in column order."""
        start = 0
        for name, kind, width in self.layout:
            yield name, kind, slice(start, start + width)
            start += width


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
        """The fitted columns in fit order: the scaled numerics, then each
        vocabulary block. Dataset columns it was not fitted on are ignored.
        The blocks are built a column at a time, and a row's values do not
        depend on the rows transformed with it."""
        numeric = apply_scaler(self.scaler, ds)
        layout = [(name, "numeric", 1) for name in self.scaler.means] + [
            (name, "text", len(vec.vocabulary))
            for name, vec in self.vectorizers.items()
            if vec.vocabulary  # a column whose training cells held no token adds no feature
        ]
        X = np.empty((len(ds), sum(width for _, _, width in layout)))
        X[:, : numeric.shape[1]] = numeric
        start = numeric.shape[1]
        kinds = _kinds(ds)
        for name, vec in self.vectorizers.items():
            if kinds.get(name) != "text":
                raise UnknownColumn(f"{name}: fitted as text, not a text column of the dataset")
            width = len(vec.vocabulary)
            X[:, start : start + width] = tfidf_block(vec, [row[name] for row in ds.rows])
            start += width
        return ProcessedMatrix(X, tuple(layout), np.asarray(ds.labels, dtype=int), tuple(ds.ids))

    def select(self, names) -> "Preprocessor":
        """The fitted state of the named features only, in the order named."""
        names = list(names)
        unknown = set(names) - set(self.scaler.means) - set(self.vectorizers)
        if unknown:
            raise UnknownFeature(f"not fitted: {sorted(unknown)}")
        numeric = [name for name in names if name in self.scaler.means]
        return Preprocessor(
            ScalerParams({n: self.scaler.means[n] for n in numeric}, {n: self.scaler.stds[n] for n in numeric}),
            {name: self.vectorizers[name] for name in names if name in self.vectorizers},
        )

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

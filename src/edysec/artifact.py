"""Versioned model artifact: fitted preprocessing, selected features, network
weights, and the per-package verdict path."""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import explain
from . import neuralnet as nn
from .dataset import FeatureManifest, TraceDataset, parse_cell
from .errors import (
    CorruptArtifact,
    MissingFeature,
    NoBackground,
    NonFiniteScore,
    UnreadableArtifact,
    VersionMismatch,
)
from .preprocess import Preprocessor, ProcessedMatrix

ARTIFACT_VERSION = 2

VERDICT_TOP_K = 5  # attributions an explained verdict carries, largest |phi| first


def _finite(probs: np.ndarray) -> np.ndarray:
    """Network probabilities as float64; a non-finite one is rejected, never thresholded."""
    if not np.isfinite(probs).all():
        raise NonFiniteScore("the network produced a non-finite probability")
    return probs.astype(float)


def _encode(arr: np.ndarray, dtype: str) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii"),
    }


def _decode(d: dict, dtype: str) -> np.ndarray:
    """A read-only array over the decoded bytes."""
    raw = binascii.a2b_base64(d["data"])  # reads the str in place, where b64decode copies it to bytes first
    return np.frombuffer(raw, dtype=dtype).reshape(d["shape"])


@dataclass
class ModelArtifact:
    manifest: FeatureManifest
    preprocessor: Preprocessor
    selected: tuple[str, ...]
    selector_provenance: dict  # method, p_j, d_j, objective, alpha
    params: nn.NetworkParams
    threshold: float = 0.5
    fingerprint: dict = field(default_factory=dict)  # seed, train config, dataset hash
    background: np.ndarray | None = None  # projected training rows for explanations
    _plan: explain.ExplanationPlan | None = field(default=None, init=False, repr=False, compare=False)
    _plan_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Only the selected features are transformed, in manifest order (the
        # network's column order). A preprocessor fitted on every feature, as
        # callers pass it, is pruned here. A loaded preprocessor lists its
        # features alphabetically (the payload is saved with sorted keys), so
        # the sort restores the network's order (`noise_2` before `noise_12`).
        order = self.manifest.feature_names()
        self.preprocessor = self.preprocessor.select(sorted(self.selected, key=order.index))
        # The network scores in NETWORK_DTYPE. Float64 weights a caller passes
        # are cast once, here; the check refuses any that overflow it and any
        # NaN or inf that a stored buffer holds.
        with np.errstate(over="ignore"):
            self.params = nn.NetworkParams(self.params.spec, self.params.flat.astype(nn.NETWORK_DTYPE, copy=False))
        if not np.isfinite(self.params.flat).all():
            raise CorruptArtifact(f"a network weight is not finite in {self.params.flat.dtype}")
        if not isinstance(self.threshold, (int, float)) or not 0.0 <= self.threshold <= 1.0:
            raise CorruptArtifact(f"threshold must be a number in [0, 1], got {self.threshold!r}")
        bg, width = self.background, self.params.spec.input_width
        if bg is not None and not (bg.ndim == 2 and bg.shape[0] >= 1 and bg.shape[1] == width and np.isfinite(bg).all()):
            raise CorruptArtifact(f"background must be at least one row of {width} finite cells, got shape {bg.shape}")

    def project(self, ds: TraceDataset) -> ProcessedMatrix:
        """The network's input matrix for raw records."""
        return self.preprocessor.transform(ds)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Malicious-class probabilities for rows of the input matrix, scored
        in nn.NETWORK_DTYPE and returned as float64. A row that is not finite
        there is refused before the forward pass (NonFiniteInput), and a
        non-finite score is rejected, never thresholded."""
        return _finite(nn.predict_proba(self.params, X))

    @property
    def network(self) -> explain.SplitModel:
        """The network as Kernel SHAP scores it: `predict_proba`, and the
        first layer's weights and bias, after which `nn.forward_from` scores
        a coalition row from its pre-activations, checked as predict_proba's."""
        head = lambda z: _finite(nn.forward_from(self.params, z)[0])
        return explain.SplitModel(self.predict_proba, self.params.weights[0], self.params.biases[0], head)

    def explanation_background(self) -> np.ndarray:
        if self.background is None:
            raise NoBackground("artifact carries no background sample for explanations")
        return self.background

    @cached_property
    def groups(self) -> dict[str, np.ndarray]:
        """Source feature -> its columns of the input matrix, in column order."""
        return explain.feature_groups(self.project(TraceDataset(self.manifest, (), (), ())))

    def explanation_plan(self) -> explain.ExplanationPlan:
        """The Kernel SHAP plan over the background and `groups`: built by the
        first explanation, under a lock, and shared by every later one."""
        with self._plan_lock:
            if self._plan is None:
                self._plan = explain.explanation_plan(self.explanation_background(), self.groups)
            return self._plan

    def explain(self, x) -> explain.Attribution:
        """Kernel SHAP attributions of one row of the input matrix:
        the `network` against the background, through the shared plan."""
        return explain.kernel_shap(self.network, x, self.explanation_plan())

    def to_dict(self) -> dict:
        return {
            "version": ARTIFACT_VERSION,
            "manifest": self.manifest.to_dict(),
            "preprocessor": self.preprocessor.to_dict(),
            "selected": list(self.selected),
            "selector_provenance": self.selector_provenance,
            "network": {
                "spec": self.params.spec.to_dict(),
                "flat": _encode(self.params.flat, "<f4"),
            },
            "threshold": self.threshold,
            "fingerprint": self.fingerprint,
            "background": _encode(self.background, "<f8") if self.background is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelArtifact":
        if d.get("version") != ARTIFACT_VERSION:
            raise VersionMismatch(f"unsupported artifact version: {d.get('version')!r}")
        spec = nn.NetworkSpec.from_dict(d["network"]["spec"])
        flat, count = _decode(d["network"]["flat"], "<f4"), nn.param_count(spec)
        if flat.shape != (count,):
            raise CorruptArtifact(f"stored weights of shape {flat.shape} where the spec has ({count},)")
        return cls(
            manifest=FeatureManifest.from_dict(d["manifest"]),
            preprocessor=Preprocessor.from_dict(d["preprocessor"]),
            selected=tuple(d["selected"]),
            selector_provenance=d["selector_provenance"],
            params=nn.NetworkParams(spec, flat),
            threshold=d["threshold"],
            fingerprint=d["fingerprint"],
            background=_decode(d["background"], "<f8").copy() if d.get("background") else None,
        )


def dataset_hash(ds: TraceDataset) -> str:
    """sha256 over each row's id, label and cell reprs, one update per row."""
    h = hashlib.sha256()
    names = ds.manifest.feature_names()
    for pkg, row, label in zip(ds.ids, ds.rows, ds.labels):
        h.update("".join([pkg, str(label), *[repr(row[name]) for name in names]]).encode())
    return h.hexdigest()


_PAYLOAD = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def save_artifact(artifact: ModelArtifact, path) -> None:
    """Write `{"checksum": <sha256 of payload>, "payload": <the artifact's
    JSON as a string>}`, the payload encoded once (ASCII: non-ASCII text is
    escaped)."""
    payload = _PAYLOAD.encode(artifact.to_dict())
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "wb") as fh:
        fh.write(f'{{"checksum": "{checksum}", "payload": {json.dumps(payload)}}}\n'.encode())


def load_artifact(path) -> ModelArtifact:
    """Read, verify and decode an artifact; a file that cannot be read fails
    closed as UnreadableArtifact, any malformed part as CorruptArtifact."""
    try:
        with open(path, encoding="utf-8") as fh:
            wrapper = json.load(fh)
        payload = wrapper["payload"]
        if hashlib.sha256(payload.encode()).hexdigest() != wrapper["checksum"]:
            raise CorruptArtifact("checksum mismatch")
        return ModelArtifact.from_dict(json.loads(payload))
    except OSError as exc:
        raise UnreadableArtifact(f"cannot read artifact: {exc}") from exc
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptArtifact(f"malformed artifact: {exc!r}") from exc


@dataclass(frozen=True)
class VerdictReport:
    package: str
    probability: float
    verdict: str  # "benign" | "malicious"
    attributions: list | None
    latency_ms: float

    def to_dict(self) -> dict:
        return {
            "package": self.package,
            "probability": self.probability,
            "verdict": self.verdict,
            "attributions": self.attributions,
            "latency_ms": self.latency_ms,
        }


def _record_to_dataset(artifact: ModelArtifact, package: str, record: dict) -> TraceDataset:
    cells = {}
    for col in artifact.manifest.columns:
        if col.name not in record:
            raise MissingFeature(col.name)
        cells[col.name] = parse_cell(col, record[col.name], 0)
    return TraceDataset(artifact.manifest, (package,), (cells,), (0,))


def predict_package(
    artifact: ModelArtifact,
    record: dict,
    package: str = "package",
    explain_verdict: bool = False,
) -> VerdictReport:
    """Transform, score, threshold; optionally attach SHAP attributions."""
    started = time.perf_counter()
    projected = artifact.project(_record_to_dataset(artifact, package, record))
    probability = float(artifact.predict_proba(projected.X)[0])
    verdict = "malicious" if probability >= artifact.threshold else "benign"

    attributions = None
    if explain_verdict:
        attr = artifact.explain(projected.X[0])
        attributions = [
            {"feature": f, "phi": p} for f, p in attr.ranked()[:VERDICT_TOP_K]
        ]
    latency_ms = (time.perf_counter() - started) * 1000.0
    return VerdictReport(package, probability, verdict, attributions, latency_ms)

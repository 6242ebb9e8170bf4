"""From-scratch feedforward binary classifier: ReLU hidden layers, inverted dropout,
sigmoid output, BCE loss, Adam, deterministic seeded training."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import BadOption, NonFiniteInput, ShapeMismatch, StateMissing, WidthMismatch

BCE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK_BYTES = 256 << 10  # per array: four walked arrays and two work buffers fit a 2 MiB L2
ADAM_FLOOR_EVERY = 8  # adam_step floors the moments on steps t divisible by this
# Trained and served networks compute in float32, and artifacts store their
# weights in it. Weights are drawn as float64, then cast once.
NETWORK_DTYPE = np.float32


@dataclass(frozen=True)
class LayerSpec:
    units: int
    dropout: float = 0.0

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("units must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")


@dataclass(frozen=True)
class NetworkSpec:
    input_width: int
    hidden: tuple[LayerSpec, ...]

    @staticmethod
    def mlp(input_width: int) -> "NetworkSpec":
        return NetworkSpec(input_width, (LayerSpec(500, 0.1), LayerSpec(500, 0.2), LayerSpec(500, 0.3)))

    @staticmethod
    def nn(input_width: int) -> "NetworkSpec":
        return NetworkSpec(input_width, (LayerSpec(68, 0.0), LayerSpec(68, 0.0)))

    def layer_widths(self) -> list[tuple[int, int]]:
        widths = [self.input_width] + [l.units for l in self.hidden] + [1]
        return list(zip(widths[:-1], widths[1:]))

    def to_dict(self) -> dict:
        return {
            "input_width": self.input_width,
            "hidden": [[l.units, l.dropout] for l in self.hidden],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(d["input_width"], tuple(LayerSpec(u, r) for u, r in d["hidden"]))


@dataclass
class NetworkParams:
    """Every weight and bias of a network in one contiguous buffer, `flat`;
    `weights` and `biases` are per-layer views into it."""

    spec: NetworkSpec
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = [], []
        lo = 0
        for fan_in, fan_out in self.spec.layer_widths():
            self.weights.append(self.flat[lo : lo + fan_in * fan_out].reshape(fan_in, fan_out))
            lo += fan_in * fan_out
            self.biases.append(self.flat[lo : lo + fan_out])
            lo += fan_out

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.spec, self.flat.copy())

    def __reduce__(self):  # pickled as the buffer alone; the views are rebuilt over it
        return NetworkParams, (self.spec, self.flat)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise BadOption(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise BadOption(f"batch size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise BadOption(f"learning rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    train_acc: float
    val_loss: float | None
    val_acc: float | None


def param_count(spec: NetworkSpec) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in spec.layer_widths())


def init_network(spec: NetworkSpec, seed: int = 0) -> NetworkParams:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(spec, np.zeros(param_count(spec)))
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(params: NetworkParams, X: np.ndarray, train: bool = False, rng=None) -> tuple[np.ndarray, dict | None]:
    """Probabilities for a batch, computed in the dtype of `params.flat` (the
    input is cast to it), plus the cache backward() needs: the first affine
    layer, then `forward_from` its pre-activations. A training pass
    (`train=True`) also applies inverted dropout and keeps each layer's input
    and dropout mask; a scoring pass keeps nothing, and its cache is None."""
    if X.shape[1] != params.spec.input_width:
        raise WidthMismatch(f"expected width {params.spec.input_width}, got {X.shape[1]}")
    a = np.asarray(X, dtype=params.flat.dtype)
    z = a @ params.weights[0]
    z += params.biases[0]
    probs, cache = forward_from(params, z, train, rng)
    if train:
        cache["inputs"].insert(0, a)
    return probs, cache


def forward_from(params: NetworkParams, z: np.ndarray, train: bool = False, rng=None) -> tuple[np.ndarray, dict | None]:
    """`forward_batch` on from the first layer's pre-activations z = X·W₀ + b₀,
    which it overwrites. Each hidden layer applies its ReLU in place (and, in a
    training pass, its inverted dropout), then the next affine layer adds its
    bias in place on the matmul's output. A training pass's cache holds each
    later layer's input; forward_batch puts X in front of them."""
    a, inputs, masks = z, [], []
    for i, layer in enumerate(params.spec.hidden):
        np.maximum(a, 0.0, out=a)
        if train:
            mask = None
            if layer.dropout > 0.0:
                keep = 1.0 - layer.dropout
                mask = (rng.random(a.shape) < keep) / params.flat.dtype.type(keep)
                a *= mask
            inputs.append(a)
            masks.append(mask)
        a = a @ params.weights[i + 1]
        a += params.biases[i + 1]
    probs = _sigmoid(a[:, 0])
    return probs, ({"inputs": inputs, "masks": masks, "probs": probs} if train else None)


def batch_bce(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def backward(params: NetworkParams, cache: dict, y: np.ndarray) -> NetworkParams | None:
    """Gradients of mean batch BCE, honoring the dropout masks used in forward,
    as a NetworkParams of the same spec and dtype; None for an idle batch,
    every row of which is within BCE_CLAMP of its label, so every gradient
    would be zero (adam_step takes None as that)."""
    if cache is None:
        raise StateMissing("backward needs a training pass's cache; a scoring pass keeps none")
    for key in ("inputs", "masks", "probs"):
        if key not in cache:
            raise StateMissing(f"forward cache missing {key!r}")
    inputs, masks = cache["inputs"], cache["masks"]
    y = np.asarray(y, dtype=params.flat.dtype)
    diff = cache["probs"] - y
    # A row predicted within BCE_CLAMP of its label adds no gradient: batch_bce
    # is flat there, and its p - y (as small as a subnormal p) would carry
    # subnormals through every matmul below.
    diff[np.abs(diff) < BCE_CLAMP] = 0.0
    if not diff.any():
        return None
    delta = (diff / len(y))[:, None]  # dL/dlogits
    grads = NetworkParams(params.spec, np.empty_like(params.flat))  # every view is written below
    np.matmul(inputs[-1].T, delta, out=grads.weights[-1])
    delta.sum(axis=0, out=grads.biases[-1])
    da = delta @ params.weights[-1].T
    for i in reversed(range(len(params.spec.hidden))):
        if masks[i] is not None:
            da = da * masks[i]
        # the ReLU mask from the layer's kept output: relu(z)·mask > 0 exactly when
        # z > 0 on a kept unit, and a dropped unit's da·mask is ±0 or NaN already
        dz = da * (inputs[i + 1] > 0)
        np.matmul(inputs[i].T, dz, out=grads.weights[i])
        dz.sum(axis=0, out=grads.biases[i])
        if i:  # the input gradient of the first layer is never used
            # dz @ W.T, in float32 the same bits on OpenBLAS and about twice
            # as fast at a batch of 16 through a 500×500 layer
            da = (params.weights[i] @ dz.T).T
    return grads


@dataclass
class AdamState:
    """First and second moments without their (1 - β) factors (see
    adam_step), laid out as the `flat` buffer they track."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: NetworkParams, grads: NetworkParams | None, state: AdamState, t: int, cfg: TrainConfig) -> None:
    """One Adam update of `params` and `state`, in place, in Kingma & Ba's
    efficient form ("Adam", ICLR 2015, §2).

    The moments are kept without their (1 - β) factors, M ← β1·M + g and
    V ← β2·V + g², and those factors are folded into the step size and the
    epsilon: w -= α_t·M/(√V + ε̂_t) with α_t = lr·(1-β1)/bc1·√(bc2/(1-β2))
    and ε̂_t = ε·√(bc2/(1-β2)). This is the textbook lr·m̂/(√v̂ + ε) up to
    rounding. `grads` None is an idle batch, one whose gradients are all zero:
    its step only decays the moments, and gives the weights the same bits as
    zero gradients would.

    The flat buffers are walked in chunks of ADAM_CHUNK_BYTES per array, so
    that a chunk's elementwise passes stay in cache. On a step t divisible by
    ADAM_FLOOR_EVERY, a moment below its floor is set to zero after its update.

    Without the floors, a weight whose gradient stays zero (a dead ReLU unit)
    keeps its M subnormal for good, since k·0.9 rounds back to k ulps for
    small k, and every pass over a subnormal pays a microcode assist. The
    floors keep M, V, their decays and α_t·M normal, and α_t·M/den too while
    den stays below α_t/(lr·(1-β1)), at least 4.8 and about 30 late in
    training. They cost five passes a chunk, so they run once every
    ADAM_FLOOR_EVERY steps, and their thresholds include the decay of that
    many steps: a moment that only decays after a floor step stays normal
    until the next one. A moment that a nonzero gradient makes small between
    floor steps is flushed up to ADAM_FLOOR_EVERY - 1 steps late, and may be
    subnormal, as may its α_t·M/den, for those steps. A flushed M would have
    moved its weight by less than α_t·|M|/ε̂_t: at the default learning rate
    and late in training, about 3e-30 in float32.
    """
    if grads is not None and grads.spec.layer_widths() != params.spec.layer_widths():
        raise ShapeMismatch("gradient shapes do not match parameters")
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, cfg.learning_rate
    bc1 = 1.0 - b1 ** t
    scale = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))  # a Python float: float32 arrays stay float32
    alpha = lr * (1.0 - b1) / bc1 * scale
    eps = ADAM_EPS * scale
    floor = t % ADAM_FLOOR_EVERY == 0
    tiny = float(np.finfo(params.flat.dtype).tiny)
    m_floor = tiny / (b1 ** ADAM_FLOOR_EVERY * min(lr * (1.0 - b1), 1.0))  # α_t >= lr·(1-β1)
    v_floor = tiny / b2 ** ADAM_FLOOR_EVERY
    chunk = ADAM_CHUNK_BYTES // params.flat.itemsize
    buf_t = np.empty(min(chunk, params.flat.size), dtype=params.flat.dtype)
    buf_u = np.empty_like(buf_t)
    for lo in range(0, params.flat.size, chunk):
        w, m, v = (a[lo : lo + chunk] for a in (params.flat, state.m, state.v))
        tmp, den = buf_t[: w.size], buf_u[: w.size]
        m *= b1
        v *= b2
        if grads is not None:
            g = grads.flat[lo : lo + chunk]
            m += g
            np.multiply(g, g, out=tmp)
            v += tmp
        if floor:
            np.abs(m, out=tmp)
            np.greater_equal(tmp, m_floor, out=den)  # a float mask: den is free until the update
            m *= den  # branch-free: a masked store mispredicts on mixed masks
            np.greater_equal(v, v_floor, out=den)
            v *= den
        np.sqrt(v, out=den)
        den += eps
        np.divide(m, den, out=den)  # in place: a chunk's passes touch one work buffer fewer
        den *= alpha
        w -= den


def _epoch_stats(probs, y) -> tuple[float, float]:
    return batch_bce(probs, y), metrics.accuracy(y, probs)


def train(
    spec: NetworkSpec,
    cfg: TrainConfig,
    train_X: np.ndarray,
    train_y: np.ndarray,
    val_X: np.ndarray | None = None,
    val_y: np.ndarray | None = None,
) -> tuple[NetworkParams, list[EpochStats]]:
    """Seeded mini-batch Adam training in NETWORK_DTYPE; fully deterministic
    for a fixed config. Returns the weights and one EpochStats per epoch.

    An epoch's training loss and accuracy are those of the probabilities its
    training passes returned: with dropout on, and each row scored by the
    weights its batch saw. The validation rows, when given, are scored after
    each epoch; without them the validation fields are None.
    """
    if train_X.shape[1] != spec.input_width:
        raise WidthMismatch("training matrix width does not match spec")
    if val_X is not None:
        val_y = np.asarray(val_y, dtype=float)

    train_X = _network_input(train_X, NETWORK_DTYPE)
    train_y = np.asarray(train_y, dtype=NETWORK_DTYPE)
    params = NetworkParams(spec, init_network(spec, cfg.seed).flat.astype(NETWORK_DTYPE))
    state = AdamState.zeros_like(params)
    history = []
    t = 0
    n = len(train_X)
    seen = np.empty(n, dtype=NETWORK_DTYPE)  # each row's probability in its epoch's training pass
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 1]).permutation(n)
        dropout_rng = np.random.default_rng([cfg.seed, epoch, 2])
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            probs, cache = forward_batch(params, train_X[idx], train=True, rng=dropout_rng)
            seen[idx] = probs
            grads = backward(params, cache, train_y[idx])
            t += 1
            adam_step(params, grads, state, t, cfg)
        val = (None, None) if val_X is None else _epoch_stats(predict_proba(params, val_X), val_y)
        history.append(EpochStats(*_epoch_stats(seen, train_y), *val))
    return params, history


def _network_input(X: np.ndarray, dtype) -> np.ndarray:
    """`X` in a network's dtype. A row that is not finite there, as a value
    finite in float64 but beyond the float32 range, is refused: the forward
    pass would turn it into a NaN probability."""
    with np.errstate(over="ignore"):
        X = np.asarray(X, dtype=dtype)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"input row {int(np.argmin(finite))} is not finite in {X.dtype}")
    return X


def predict_proba(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Probabilities in the dtype of `params.flat`; a row that is not finite
    in that dtype raises NonFiniteInput."""
    probs, _ = forward_batch(params, _network_input(X, params.flat.dtype))
    return probs

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from edysec import metrics
from edysec import neuralnet as nn
from edysec.errors import NonFiniteInput, ShapeMismatch, StateMissing, WidthMismatch


@dataclass
class LayerAdamState:
    """Per-layer moments, as the reference update below keeps them."""

    m_w: list
    v_w: list
    m_b: list
    v_b: list

    @classmethod
    def zeros_like(cls, params):
        return cls(*([np.zeros_like(a) for a in arrays]
                     for arrays in (params.weights, params.weights, params.biases, params.biases)))


REF_CFG = SimpleNamespace(beta1=nn.ADAM_BETA1, beta2=nn.ADAM_BETA2, eps=nn.ADAM_EPS,
                          learning_rate=nn.TrainConfig().learning_rate)


def functional_adam_step(params, grads, state, t, cfg):
    """A copying, per-layer Adam update in Kingma & Ba's efficient form: the
    moments without their (1 - beta) factors, folded into alpha_t and eps_t.
    The in-place `nn.adam_step` must match it bit for bit while no moment
    falls below its floor."""
    grads_w, grads_b = grads
    if len(grads_w) != len(params.weights) or any(
        g.shape != w.shape for g, w in zip(grads_w, params.weights)
    ):
        raise ShapeMismatch("gradient shapes do not match parameters")
    new = params.copy()
    new_state = LayerAdamState(
        [m.copy() for m in state.m_w], [v.copy() for v in state.v_w],
        [m.copy() for m in state.m_b], [v.copy() for v in state.v_b],
    )
    scale = math.sqrt((1.0 - cfg.beta2 ** t) / (1.0 - cfg.beta2))
    alpha = cfg.learning_rate * (1.0 - cfg.beta1) / (1.0 - cfg.beta1 ** t) * scale
    eps = cfg.eps * scale
    for i in range(len(new.weights)):
        for value, grad, m_arr, v_arr in (
            (new.weights[i], grads_w[i], new_state.m_w[i], new_state.v_w[i]),
            (new.biases[i], grads_b[i], new_state.m_b[i], new_state.v_b[i]),
        ):
            m_arr *= cfg.beta1
            m_arr += grad
            v_arr *= cfg.beta2
            v_arr += grad * grad
            value -= m_arr / (np.sqrt(v_arr) + eps) * alpha
    return new, new_state


def scalar_bce(p: float, y: int) -> float:
    p = min(max(p, nn.BCE_CLAMP), 1.0 - nn.BCE_CLAMP)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def as_dtype(params, dtype):
    return nn.NetworkParams(params.spec, params.flat.astype(dtype))


def toy_data(n=64, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    return X, y


class TestSpec:
    def test_presets(self):
        mlp = nn.NetworkSpec.mlp(17)
        assert [(l.units, l.dropout) for l in mlp.hidden] == [(500, 0.1), (500, 0.2), (500, 0.3)]
        small = nn.NetworkSpec.nn(17)
        assert [(l.units, l.dropout) for l in small.hidden] == [(68, 0.0), (68, 0.0)]

    def test_param_count_closed_form(self):
        spec = nn.NetworkSpec(3, (nn.LayerSpec(5), nn.LayerSpec(2)))
        # 3*5+5 + 5*2+2 + 2*1+1 = 20 + 12 + 3
        assert nn.param_count(spec) == 35
        assert nn.init_network(spec).flat.size == 35

    def test_dict_roundtrip(self):
        spec = nn.NetworkSpec.mlp(9)
        assert nn.NetworkSpec.from_dict(spec.to_dict()) == spec

    def test_bad_layers(self):
        with pytest.raises(ValueError):
            nn.LayerSpec(0)
        with pytest.raises(ValueError):
            nn.LayerSpec(4, 1.0)


class TestParams:
    def test_layers_are_views_of_one_buffer(self):
        params = nn.init_network(nn.NetworkSpec(3, (nn.LayerSpec(5), nn.LayerSpec(2))), seed=2)
        assert params.flat.flags.c_contiguous and params.flat.size == 35
        for view in params.weights + params.biases:
            assert np.shares_memory(view, params.flat)
        # layout: W0 [0:15], b0 [15:20], W1 [20:30], b1 [30:32], W2 [32:34], b2 [34:35]
        params.biases[1] += 1.0
        assert np.array_equal(params.flat[30:32], np.ones(2))
        params.flat[20] = 9.0
        assert params.weights[1][0, 0] == 9.0

    def test_copy_shares_no_memory(self):
        params = nn.init_network(nn.NetworkSpec(3, (nn.LayerSpec(5),)), seed=2)
        clone = params.copy()
        assert np.array_equal(clone.flat, params.flat)
        for a in [clone.flat] + clone.weights + clone.biases:
            assert not np.shares_memory(a, params.flat)

    def test_init_draws_each_layer_in_order(self):
        # the artifact bytes depend on this draw order
        spec = nn.NetworkSpec(7, (nn.LayerSpec(5), nn.LayerSpec(3)))
        rng = np.random.default_rng(11)
        params = nn.init_network(spec, seed=11)
        for i, (fan_in, fan_out) in enumerate(spec.layer_widths()):
            bound = np.sqrt(6.0 / fan_in)
            assert np.array_equal(params.weights[i], rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            assert np.array_equal(params.biases[i], np.zeros(fan_out))


class TestForward:
    def test_output_range_and_width_check(self):
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8),))
        params = nn.init_network(spec, seed=1)
        X, _ = toy_data()
        probs = nn.predict_proba(params, X)
        assert probs.shape == (len(X),)
        assert np.all((probs > 0) & (probs < 1))
        with pytest.raises(WidthMismatch):
            nn.predict_proba(params, X[:, :3])

    @pytest.mark.parametrize("preset", [nn.NetworkSpec.mlp, nn.NetworkSpec.nn])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_score_to_an_empty_array(self, preset, dtype):
        params = as_dtype(nn.init_network(preset(5), seed=1), dtype)
        probs = nn.predict_proba(params, np.zeros((0, 5)))
        assert probs.shape == (0,) and probs.dtype == dtype

    def test_eval_mode_deterministic_despite_dropout(self):
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8, 0.5),))
        params = nn.init_network(spec, seed=1)
        X, _ = toy_data()
        assert np.array_equal(nn.predict_proba(params, X), nn.predict_proba(params, X))

    def test_inverted_dropout_scaling(self):
        # with the mask in expectation the train-time activation matches eval
        spec = nn.NetworkSpec(2, (nn.LayerSpec(400, 0.4),))
        params = nn.init_network(spec, seed=3)
        x = np.ones((1, 2))
        rng = np.random.default_rng(0)
        reps = [nn.forward_batch(params, x, train=True, rng=rng)[1]["inputs"][-1] for _ in range(200)]
        train_mean = np.mean([r.mean() for r in reps])
        eval_act = np.maximum(x @ params.weights[0] + params.biases[0], 0.0).mean()
        assert train_mean == pytest.approx(eval_act, rel=0.05)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scoring_pass_matches_a_training_pass(self, dtype):
        # without dropout, both passes compute the same probabilities to the bit
        X, _ = toy_data(n=200, d=12)
        spec = nn.NetworkSpec(12, (nn.LayerSpec(64), nn.LayerSpec(32)))
        params = as_dtype(nn.init_network(spec, seed=7), dtype)
        params.flat += np.random.default_rng(8).normal(0.0, 0.1, params.flat.size).astype(dtype)  # nonzero biases
        scored, cache = nn.forward_batch(params, X)
        assert cache is None
        trained, train_cache = nn.forward_batch(params, X, train=True, rng=np.random.default_rng(0))
        assert scored.dtype == dtype and np.array_equal(scored, trained)
        assert np.array_equal(train_cache["probs"], scored)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_keeps_the_bits_of_the_masked_formula(self, dtype):
        # the branch-free sigmoid against the four-mask formula it replaced: the
        # same bits on seeded values at scales 0.1-300 and at the edges; a NaN
        # stays NaN, though the sign bit of a NaN may differ
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(11)
        scales = np.repeat(np.geomspace(0.1, 300, 8), 50_000)
        edges = [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, np.nan]
        z = np.concatenate([rng.normal(size=len(scales)) * scales, edges]).astype(dtype)
        got, want = nn._sigmoid(z), masked(z)
        assert got.dtype == dtype
        finite = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~finite) and finite.sum() == len(z) - 1
        assert got[finite].tobytes() == want[finite].tobytes()


class TestLoss:
    def test_bce_clamps(self):
        assert nn.batch_bce(np.array([0.0]), np.array([0.0])) == pytest.approx(-np.log(1 - 1e-7))
        assert np.isfinite(nn.batch_bce(np.array([1.0]), np.array([0.0])))

    def test_batch_matches_scalar(self):
        probs = np.array([0.2, 0.9, 0.5])
        y = np.array([0.0, 1.0, 1.0])
        scalar = np.mean([scalar_bce(p, int(t)) for p, t in zip(probs, y)])
        assert nn.batch_bce(probs, y) == pytest.approx(scalar)


class TestBackward:
    def test_cache_required(self):
        spec = nn.NetworkSpec(4, (nn.LayerSpec(3),))
        params = nn.init_network(spec)
        with pytest.raises(StateMissing):
            nn.backward(params, {"inputs": []}, np.zeros(2))

    def test_scoring_pass_cache_is_refused(self):
        X, y = toy_data(n=8)
        params = nn.init_network(nn.NetworkSpec(4, (nn.LayerSpec(3),)))
        _, cache = nn.forward_batch(params, X)
        with pytest.raises(StateMissing, match="scoring pass"):
            nn.backward(params, cache, y)

    def test_gradient_descent_reduces_loss(self):
        X, y = toy_data()
        spec = nn.NetworkSpec(4, (nn.LayerSpec(16),))
        params = nn.init_network(spec, seed=0)
        probs, cache = nn.forward_batch(params, X, train=True, rng=np.random.default_rng(0))
        before = nn.batch_bce(probs, y)
        grads = nn.backward(params, cache, y)
        for i in range(len(params.weights)):
            params.weights[i] -= 0.5 * grads.weights[i]
            params.biases[i] -= 0.5 * grads.biases[i]
        after = nn.batch_bce(nn.predict_proba(params, X), y)
        assert after < before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_within_the_clamp_add_no_gradient(self, dtype):
        X, y = toy_data(n=8)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(16),))
        params = as_dtype(nn.init_network(spec, seed=0), dtype)
        _, cache = nn.forward_batch(params, X, train=True, rng=np.random.default_rng(0))  # no dropout
        # rows 0-3 within BCE_CLAMP of their label (a subnormal p among them), row 4 just outside
        y[:5] = [0, 0, 1, 1, 0]
        cache["probs"][:5] = np.array([1e-40, 5e-8, 1 - 6e-8, 1.0, 3e-7], dtype=dtype)
        grads = nn.backward(params, cache, y)
        cache["probs"][:4] = y[:4]
        exact = nn.backward(params, cache, y)
        assert np.array_equal(grads.flat, exact.flat)
        assert np.all((grads.flat == 0) | (np.abs(grads.flat) >= np.finfo(dtype).tiny))
        cache["probs"][4] = y[4]
        assert not np.array_equal(nn.backward(params, cache, y).flat, exact.flat)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_idle_batch_has_no_gradients(self, dtype):
        # None only when every row is within BCE_CLAMP of its label; one row
        # outside it, whichever, gives gradients
        X, y = toy_data(n=8)
        params = as_dtype(nn.init_network(nn.NetworkSpec(4, (nn.LayerSpec(16),)), seed=0), dtype)
        _, cache = nn.forward_batch(params, X, train=True, rng=np.random.default_rng(0))  # no dropout
        cache["probs"][:] = np.where(y == 1, 1 - 6e-8, 5e-8)
        assert nn.backward(params, cache, y) is None
        for row in range(len(y)):
            probs = cache["probs"].copy()
            probs[row] = abs(y[row] - 3e-7)
            grads = nn.backward(params, {**cache, "probs": probs}, y)
            assert grads is not None and grads.flat.any(), row

    def test_input_gradient_layout_keeps_the_bits(self):
        # backward computes each float32 input gradient as (W @ dz.T).T, which
        # must be dz @ W.T bit for bit on the BLAS build at hand: checked against
        # the chain rule written with dz @ W.T, on the trained presets, at every
        # batch size a ragged last batch of 16 can have and at a larger batch
        rng = np.random.default_rng(7)
        for spec in (nn.NetworkSpec.mlp(92), nn.NetworkSpec.nn(92)):
            params = as_dtype(nn.init_network(spec, seed=2), np.float32)
            for batch in (*range(1, 17), 64):
                X = rng.normal(size=(batch, 92)).astype(np.float32)
                y = rng.integers(0, 2, batch).astype(np.float32)
                _, cache = nn.forward_batch(params, X, train=True, rng=rng)
                got = nn.backward(params, cache, y).weights
                delta = ((cache["probs"] - y) / batch)[:, None]  # fresh weights fit no row within the clamp
                want = [cache["inputs"][-1].T @ delta]
                da = delta @ params.weights[-1].T
                for i in reversed(range(len(spec.hidden))):
                    if cache["masks"][i] is not None:
                        da = da * cache["masks"][i]
                    z = cache["inputs"][i] @ params.weights[i] + params.biases[i]
                    dz = da * (z > 0)
                    want.append(cache["inputs"][i].T @ dz)
                    da = dz @ params.weights[i].T
                assert [g.tobytes() for g in got] == [w.tobytes() for w in reversed(want)], (spec.hidden, batch)

class TestAdam:
    def test_shape_check(self):
        spec = nn.NetworkSpec(4, (nn.LayerSpec(3),))
        params = nn.init_network(spec)
        state = nn.AdamState.zeros_like(params)
        bad = nn.init_network(nn.NetworkSpec(2, (nn.LayerSpec(3),)))
        with pytest.raises(ShapeMismatch):
            nn.adam_step(params, bad, state, 1, nn.TrainConfig())

    def test_first_step_size(self):
        # with bias correction the first update has magnitude ~ lr per coordinate
        spec = nn.NetworkSpec(2, ())
        params = nn.init_network(spec, seed=0)
        snapshot = params.copy()
        state = nn.AdamState.zeros_like(params)
        grads = nn.NetworkParams(spec, np.array([0.3, 0.3, -0.7]))  # W (2, 1), then b (1,)
        cfg = nn.TrainConfig(learning_rate=1e-3)
        assert nn.adam_step(params, grads, state, 1, cfg) is None
        step = snapshot.weights[0] - params.weights[0]
        assert np.allclose(step, 1e-3, atol=1e-6)
        assert params.biases[0][0] - snapshot.biases[0][0] == pytest.approx(1e-3, abs=1e-6)

    def test_in_place_matches_functional_reference(self):
        # 517,001 elements span several chunks with a ragged last chunk at either
        # dtype's chunk length (TestDtype steps the float32 one); biases go down to 1 element
        spec = nn.NetworkSpec.mlp(30)
        assert nn.param_count(spec) == 517_001
        chunks = [nn.ADAM_CHUNK_BYTES // np.dtype(dtype).itemsize for dtype in (np.float64, np.float32)]
        assert chunks == [1 << 15, 1 << 16]
        assert all(nn.param_count(spec) % chunk != 0 for chunk in chunks)
        params = nn.init_network(spec, seed=4)
        ref, ref_state = params.copy(), LayerAdamState.zeros_like(params)
        state = nn.AdamState.zeros_like(params)
        cfg = nn.TrainConfig()
        assert cfg.learning_rate == REF_CFG.learning_rate
        rng = np.random.default_rng(5)
        for t in range(1, 51):
            grads = nn.NetworkParams(spec, rng.normal(size=params.flat.size))
            ref, ref_state = functional_adam_step(ref, (grads.weights, grads.biases), ref_state, t, REF_CFG)
            nn.adam_step(params, grads, state, t, cfg)
        for name in ("weights", "biases"):
            assert all(np.array_equal(a, b) for a, b in zip(getattr(params, name), getattr(ref, name)))
        m, v = nn.NetworkParams(spec, state.m), nn.NetworkParams(spec, state.v)
        for flat, per_layer in ((m.weights, ref_state.m_w), (v.weights, ref_state.v_w),
                                (m.biases, ref_state.m_b), (v.biases, ref_state.v_b)):
            assert all(np.array_equal(a, b) for a, b in zip(flat, per_layer))

    def test_matches_the_textbook_update(self):
        # lr·m̂/(√v̂ + ε) with m and v kept as the textbook keeps them, in float64,
        # over gradients of mixed scale with idle steps among them. The error is
        # relative to the step that |g| would give: where the signs of g cancel
        # in m, both forms keep only their rounding of the cancelled terms. The
        # weights restart at zero each step, so -w is the step's update exactly.
        spec = nn.NetworkSpec(20, (nn.LayerSpec(50),))
        params = nn.init_network(spec, seed=0)
        state = nn.AdamState.zeros_like(params)
        m, v, size = (np.zeros_like(params.flat) for _ in range(3))
        b1, b2, eps, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS, 0.01
        rng = np.random.default_rng(3)
        for t in range(1, 51):
            g = np.zeros_like(m) if t % 5 == 0 else rng.normal(size=m.size) * 10 ** rng.uniform(-4, 1, m.size)
            m = b1 * m + (1 - b1) * g
            size = b1 * size + (1 - b1) * np.abs(g)
            v = b2 * v + (1 - b2) * g * g
            den = np.sqrt(v / (1 - b2 ** t)) + eps
            want = lr * (m / (1 - b1 ** t)) / den
            params.flat[:] = 0.0
            nn.adam_step(params, None if t % 5 == 0 else nn.NetworkParams(spec, g), state, t,
                         nn.TrainConfig(learning_rate=lr))
            assert np.all(np.abs(-params.flat - want) <= 1e-12 * lr * (size / (1 - b1 ** t)) / den), t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_idle_step_matches_zero_gradients(self, dtype):
        # the decay-only step gives the weights the bits of a step on zero
        # gradients, floor steps included; the moments differ at most in the
        # sign of a zero (-0.0 + 0.0 is +0.0)
        spec = nn.NetworkSpec(20, (nn.LayerSpec(50),))
        idle = as_dtype(nn.init_network(spec, seed=0), dtype)
        n = idle.flat.size
        rng = np.random.default_rng(4)
        tiny = np.finfo(dtype).tiny
        m = rng.choice([-1, 1], n) * tiny * 10 ** rng.uniform(0, 12, n)  # across the floor
        m[:20] = -0.0
        v = tiny * 10 ** rng.uniform(-1, 6, n)
        v[20:40] = 0.0
        state = nn.AdamState(m.astype(dtype), v.astype(dtype))
        busy, busy_state = idle.copy(), nn.AdamState(state.m.copy(), state.v.copy())
        zeros = nn.NetworkParams(spec, np.zeros_like(idle.flat))
        for t in range(101, 126):  # three floor steps
            nn.adam_step(idle, None, state, t, nn.TrainConfig())
            nn.adam_step(busy, zeros, busy_state, t, nn.TrainConfig())
            assert idle.flat.tobytes() == busy.flat.tobytes(), t
            assert np.array_equal(state.m, busy_state.m) and np.array_equal(state.v, busy_state.v), t
        assert 40 < np.count_nonzero(state.m == 0) < n and 20 < np.count_nonzero(state.v == 0) < n  # floored

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_below_their_floor_become_zero(self, dtype):
        # zero gradients from moments just above the smallest normal: without
        # the floors, m and v would decay into subnormals and the update would underflow
        spec = nn.NetworkSpec(20, (nn.LayerSpec(50),))
        params = as_dtype(nn.init_network(spec, seed=0), dtype)
        tiny, lr = np.finfo(dtype).tiny, nn.TrainConfig().learning_rate
        rng = np.random.default_rng(0)
        n = params.flat.size
        k = nn.ADAM_FLOOR_EVERY  # drawn above the floors, which allow for k steps of decay
        m_floor = tiny / (nn.ADAM_BETA1 ** k * lr * (1 - nn.ADAM_BETA1))
        state = nn.AdamState((rng.choice([-1, 1], n) * m_floor * 10 ** rng.uniform(0, 6, n)).astype(dtype),
                             (tiny / nn.ADAM_BETA2 ** k * 10 ** rng.uniform(0, 1, n)).astype(dtype))
        grads = nn.NetworkParams(spec, np.zeros_like(params.flat))
        with np.errstate(under="raise"):
            for t in range(1001, 1301):  # from a step that does not floor
                nn.adam_step(params, grads, state, t, nn.TrainConfig())
        assert not state.m.any()
        assert 0 < np.count_nonzero(state.v) < n and state.v.min(initial=np.inf, where=state.v > 0) >= tiny


class TestDtype:
    """The network code computes in the dtype of `params.flat`."""

    SPEC = nn.NetworkSpec(12, (nn.LayerSpec(32, 0.2), nn.LayerSpec(16, 0.1)))

    def step(self, dtype):
        """One seeded training step from the same initial weights."""
        X, _ = toy_data(d=12)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        params = as_dtype(nn.init_network(self.SPEC, seed=3), dtype)
        state = nn.AdamState.zeros_like(params)
        probs, cache = nn.forward_batch(params, X, train=True, rng=np.random.default_rng(1))
        grads = nn.backward(params, cache, y)
        nn.adam_step(params, grads, state, 1, nn.TrainConfig())
        return probs, cache, grads, params, state

    def test_input_beyond_the_dtype_is_refused(self):
        X, _ = toy_data(d=12)
        X[3, 5] = 1e39  # finite in float64, infinite in float32
        params = nn.init_network(self.SPEC, seed=3)
        assert np.isfinite(nn.predict_proba(params, X)).all()
        with pytest.raises(NonFiniteInput, match="row 3 is not finite in float32"):
            nn.predict_proba(as_dtype(params, np.float32), X)
        with pytest.raises(NonFiniteInput):
            nn.train(self.SPEC, nn.TrainConfig(epochs=1), X, X[:, 0] > 0)

    def test_float32_stays_float32(self):
        probs, cache, grads, params, state = self.step(np.float32)
        arrays = [probs, grads.flat, params.flat, state.m, state.v, *cache["inputs"], *cache["masks"]]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert all(m is not None for m in cache["masks"])
        X, _ = toy_data(d=12)
        assert nn.predict_proba(params, X).dtype == np.float32
        assert nn.predict_proba(params, X[:0]).dtype == np.float32

    def test_float32_step_agrees_with_float64(self):
        # the same dropout draws in both; float32 rounding moves every value by less than 1e-6
        ref, low = self.step(np.float64), self.step(np.float32)
        for a, b in zip(ref[1]["masks"], low[1]["masks"]):
            assert np.array_equal(a > 0, b > 0)
        for a, b in ((ref[0], low[0]), (ref[2].flat, low[2].flat), (ref[3].flat, low[3].flat),
                     (ref[4].m, low[4].m), (ref[4].v, low[4].v)):
            assert np.abs(a - b).max() < 1e-6

    def test_float32_adam_matches_float32_reference(self):
        # float64 work buffers would round some of these 517,001 updates differently
        spec = nn.NetworkSpec.mlp(30)
        params = as_dtype(nn.init_network(spec, seed=4), np.float32)
        ref, ref_state = params.copy(), LayerAdamState.zeros_like(params)
        state = nn.AdamState.zeros_like(params)
        rng = np.random.default_rng(5)
        for t in range(1, 11):
            grads = nn.NetworkParams(spec, rng.normal(size=params.flat.size).astype(np.float32))
            ref, ref_state = functional_adam_step(ref, (grads.weights, grads.biases), ref_state, t, REF_CFG)
            nn.adam_step(params, grads, state, t, nn.TrainConfig())
        assert params.flat.dtype == state.m.dtype == state.v.dtype == np.float32
        assert np.array_equal(params.flat, ref.flat)
        m = nn.NetworkParams(spec, state.m)
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, ref_state.m_w))


class TestTrain:
    def test_learns_separable_data(self):
        X, y = toy_data(n=200)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(16, 0.1),))
        cfg = nn.TrainConfig(epochs=60, batch_size=16, seed=0)
        params, history = nn.train(spec, cfg, X, y)
        acc = np.mean((nn.predict_proba(params, X) >= 0.5) == (y == 1))
        assert acc >= 0.95
        assert len(history) == 60
        assert history[-1].train_loss < history[0].train_loss

    def test_trains_in_float32(self, monkeypatch):
        # the weights are drawn in float64, then cast once: the same units as a float64 draw
        X, y = toy_data(n=80)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8, 0.2),))
        cfg = nn.TrainConfig(epochs=3, batch_size=8, seed=1)
        seen, initial = set(), []
        step = nn.adam_step

        def recording_step(params, grads, state, t, cfg):
            seen.update(a.dtype for a in (params.flat, grads.flat, state.m, state.v))
            if t == 1:
                initial.append(params.flat.copy())
            step(params, grads, state, t, cfg)

        monkeypatch.setattr(nn, "adam_step", recording_step)
        params, _ = nn.train(spec, cfg, X, y)
        assert seen == {np.dtype(np.float32)} and params.flat.dtype == np.float32
        assert np.array_equal(initial[0], nn.init_network(spec, cfg.seed).flat.astype(np.float32))

    def test_long_run_keeps_moments_normal(self, monkeypatch):
        # weights that stop getting gradient (dead units, rows fitted within
        # BCE_CLAMP) have their moments decay past the float32 normal range;
        # checked after every step, floor step or not
        X, y = toy_data(n=64)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(32),))
        cfg = nn.TrainConfig(epochs=150, batch_size=8, learning_rate=0.05, seed=0)
        tiny = np.finfo(np.float32).tiny
        last, subnormal = {}, []
        step = nn.adam_step

        def recording_step(params, grads, state, t, cfg):
            with np.errstate(under="raise"):
                step(params, grads, state, t, cfg)
            if any(((moment != 0) & (np.abs(moment) < tiny)).any() for moment in (state.m, state.v)):
                subnormal.append(t)
            last.update(t=t, m=state.m)

        monkeypatch.setattr(nn, "adam_step", recording_step)
        nn.train(spec, cfg, X, y)
        assert last["t"] == 1200
        assert not subnormal
        assert (last["m"] == 0).any()  # without the floor, these would be subnormal

    def test_idle_batches_keep_the_weights(self, monkeypatch):
        # backward returns None for an idle batch (every row within BCE_CLAMP
        # of its label) and adam_step only decays the moments; backpropagating
        # it anyway and stepping on its zero gradients gives the same weights,
        # and moments that differ at most in the sign of a zero
        X, y = toy_data(n=64)
        X[:, 0] += 2 * (2 * y - 1)  # a margin the network fits within the clamp
        spec = nn.NetworkSpec(4, (nn.LayerSpec(32, 0.1), nn.LayerSpec(16)))
        cfg = nn.TrainConfig(epochs=40, batch_size=8, learning_rate=0.05, seed=0)
        step, backward = nn.adam_step, nn.backward
        states, idle = [], []

        def recording_step(params, grads, state, t, cfg):
            step(params, grads, state, t, cfg)
            if t == cfg.epochs * 8:
                states.append(state)

        def full_backward(params, cache, y):
            grads = backward(params, cache, y)
            if grads is not None:
                return grads
            idle.append(1)
            return nn.NetworkParams(params.spec, np.zeros_like(params.flat))

        monkeypatch.setattr(nn, "adam_step", recording_step)
        short, _ = nn.train(spec, cfg, X, y)
        monkeypatch.setattr(nn, "backward", full_backward)
        full, _ = nn.train(spec, cfg, X, y)
        assert 100 < len(idle) < cfg.epochs * 8  # idle and busy batches both occur
        assert short.flat.tobytes() == full.flat.tobytes()
        for a, b in ((states[0].m, states[1].m), (states[0].v, states[1].v)):
            assert np.array_equal(a, b)  # -0.0 == 0.0

    def test_deterministic(self):
        X, y = toy_data(n=80)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8, 0.2),))
        cfg = nn.TrainConfig(epochs=5, batch_size=8, seed=42)
        a, _ = nn.train(spec, cfg, X, y)
        b, _ = nn.train(spec, cfg, X, y)
        assert a.flat.tobytes() == b.flat.tobytes()
        c, _ = nn.train(spec, nn.TrainConfig(epochs=5, batch_size=8, seed=43), X, y)
        assert not all(np.array_equal(x, z) for x, z in zip(a.weights, c.weights))

    @pytest.mark.parametrize("preset", [nn.NetworkSpec.mlp, nn.NetworkSpec.nn])
    def test_history_is_the_epochs_own_training_passes(self, monkeypatch, preset):
        # each epoch's training loss and accuracy are those of the probabilities
        # its training passes returned, dropout on; no row is scored again
        X, y = toy_data(n=40)
        spec, cfg = preset(4), nn.TrainConfig(epochs=3, batch_size=16, seed=2)
        rows = {row.tobytes(): i for i, row in enumerate(X.astype(np.float32))}
        passes, scored = [], []
        forward = nn.forward_batch

        def recording_forward(params, Xb, train=False, rng=None):
            probs, cache = forward(params, Xb, train, rng)
            if train:
                passes.append(([rows[row.tobytes()] for row in Xb], probs.copy()))
            else:
                scored.append(len(Xb))
            return probs, cache

        monkeypatch.setattr(nn, "forward_batch", recording_forward)
        _, history = nn.train(spec, cfg, X, y)
        batches = -(-len(X) // cfg.batch_size)
        assert len(history) == cfg.epochs and len(passes) == cfg.epochs * batches and not scored
        for epoch, stats in enumerate(history):
            seen = np.full(len(X), np.nan, dtype=np.float32)
            for idx, probs in passes[epoch * batches : (epoch + 1) * batches]:
                seen[idx] = probs
            assert stats.train_loss == nn.batch_bce(seen, y.astype(np.float32))
            assert stats.train_acc == metrics.accuracy(y, seen)

    def test_validation_rows_keep_the_weights(self):
        # scoring the validation rows changes nothing but the history
        X, y = toy_data(n=80)
        rng = np.random.default_rng(9)
        val_X = rng.normal(size=(40, 4))
        val_y = rng.integers(0, 2, 40).astype(float)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8, 0.2),))
        cfg = nn.TrainConfig(epochs=6, batch_size=8, seed=0)
        kept, history = nn.train(spec, cfg, X, y, val_X, val_y)
        bare, unvalidated = nn.train(spec, cfg, X, y)
        assert kept.flat.tobytes() == bare.flat.tobytes()
        assert [(s.train_loss, s.train_acc) for s in history] == [(s.train_loss, s.train_acc) for s in unvalidated]
        assert all(s.val_loss is not None and s.val_acc is not None for s in history)
        assert all(s.val_loss is None and s.val_acc is None for s in unvalidated)

    def test_without_patience_last_weights_are_kept(self):
        X, y = toy_data(n=80)
        spec = nn.NetworkSpec(4, (nn.LayerSpec(8),))
        cfg = nn.TrainConfig(epochs=6, batch_size=8, seed=0)
        params, history = nn.train(spec, cfg, X, y, X[:20], y[:20])
        assert nn.batch_bce(nn.predict_proba(params, X[:20]), y[:20]) == history[-1].val_loss

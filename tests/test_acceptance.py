"""Acceptance suite. Each criterion prints one PASS/FAIL line (collected into
the terminal summary by conftest)."""

import os
import statistics
import time

import numpy as np
import pytest

from edysec import artifact as art
from edysec import explain, featsel, metrics, pipeline, stability
from edysec import neuralnet as nn
from edysec.dataset import FeatureManifest, generate_synthetic, load_dataset, split_dataset
from edysec.featsel import BaselineConfig, SwarmConfig
from edysec.preprocess import Preprocessor

from conftest import RESULTS
from exact_shapley import exact_shapley

REAL_DATA = os.environ.get("EDYSEC_DATASET")  # CSV path for the full benchmark
REAL_MANIFEST = os.environ.get("EDYSEC_MANIFEST")


def record(tag, ok, detail=""):
    line = f"{tag}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else "")
    RESULTS.append(line)
    print(line)
    assert ok, line


# --- A1: full benchmark, only when the real dataset is provided --------------

def test_a1_full_benchmark():
    if not (REAL_DATA and REAL_MANIFEST and os.path.exists(REAL_DATA)):
        RESULTS.append("A1: SKIP — benchmark dataset not present")
        pytest.skip("benchmark dataset not present")
    ds = load_dataset(REAL_DATA, FeatureManifest.load(REAL_MANIFEST))
    started = time.perf_counter()
    result = pipeline.run_pipeline(
        ds, pipeline.PipelineOptions(models=("mlp",), stability_mode="off")
    )
    elapsed = time.perf_counter() - started
    ok = (
        result.evaluation.f1 >= 0.97
        and result.evaluation.fpr <= 0.02
        and elapsed <= 45 * 60
    )
    record("A1", ok, f"F1={result.evaluation.f1:.4f} FPR={result.evaluation.fpr:.4%} {elapsed:.0f}s")


# --- A2: printed confusion rows reproduce printed FPR/FNR --------------------

# (model, TP, TN, FP, FN, printed FPR %, printed FNR %)
CONFUSION_ROWS = [
    ("CNN", 1046, 1055, 26, 14, 2.41, 1.32),
    ("MLP", 1066, 1058, 6, 11, 0.56, 1.02),
    ("LeNet", 1062, 1061, 10, 8, 0.93, 0.75),
    ("MDCNN", 1060, 1059, 12, 10, 1.12, 0.93),
    ("NN", 1066, 1059, 6, 10, 0.56, 0.93),
    ("LSTM", 1045, 1060, 27, 9, 2.48, 0.85),
    ("RNN", 1045, 1043, 27, 26, 2.52, 2.42),  # printed FNR is one ulp low (26/1071 = 2.43)
    ("Transformer", 1042, 1050, 30, 19, 2.78, 1.79),
    ("BERT", 1037, 1052, 35, 17, 3.22, 1.61),
    ("DistilGPT2", 1052, 1054, 20, 15, 1.86, 1.41),
]


def test_a2_confusion_arithmetic():
    worst = 0.0
    for model, tp, tn, fp, fn, fpr_pct, fnr_pct in CONFUSION_ROWS:
        r = metrics.classification_metrics(metrics.ConfusionMatrix(tp, tn, fp, fn))
        d = r.to_dict()["display"]
        worst = max(worst, abs(d["fpr_pct"] - fpr_pct), abs(d["fnr_pct"] - fnr_pct))
    # one unit of printed precision covers the single one-ulp typo (RNN FNR)
    record("A2", worst <= 0.01 + 1e-9, f"max |Δ| = {worst:.4f} pct points over {len(CONFUSION_ROWS)} rows")


# --- A3: published F1 grid reproduces the published stability table ----------

# per-model F1 over the five selector configurations (anova, corr, flaml, pso, woa)
F1_GRID = {
    "CNN": (0.97, 0.98, 0.98, 0.98, 0.98),
    "MLP": (0.98, 0.99, 0.99, 0.99, 0.99),
    "LeNet": (0.97, 0.98, 0.99, 0.98, 0.98),
    "MDCNN": (0.98, 0.99, 0.99, 0.99, 0.99),
    "NN": (0.98, 0.99, 0.99, 0.99, 0.99),
    "LSTM": (0.94, 0.98, 0.98, 0.97, 0.98),
    "RNN": (0.95, 0.98, 0.97, 0.95, 0.98),
    "Transformer": (0.95, 0.97, 0.97, 0.98, 0.98),
    "BERT": (0.97, 0.95, 0.97, 0.97, 0.98),
    "DistilGPT2": (0.97, 0.96, 0.98, 0.97, 0.98),
}

# model -> (mean, std, avg rank, stability) as printed
STABILITY_EXPECTED = {
    "MLP": (0.988, 0.004, 2.1, 0.996),
    "MDCNN": (0.988, 0.004, 2.1, 0.996),
    "NN": (0.988, 0.004, 2.1, 0.996),
    "LeNet": (0.980, 0.007, 5.1, 0.993),
    "CNN": (0.978, 0.004, 5.8, 0.996),
    "DistilGPT2": (0.972, 0.008, 7.1, 0.992),
    "LSTM": (0.970, 0.017, 7.3, 0.983),
    "Transformer": (0.970, 0.012, 7.5, 0.988),
    "BERT": (0.968, 0.011, 7.9, 0.989),
    "RNN": (0.966, 0.015, 8.0, 0.985),
}


def test_a3_stability_table_replication():
    models = tuple(F1_GRID)
    table = stability.ScoreTable(
        models=models,
        configs=("anova", "corr", "flaml", "pso", "woa"),
        scores=tuple(F1_GRID[m] for m in models),
    )
    rows = {r.model: r for r in stability.stability_report(table, seed=0)}
    bad = []
    for model, (mean, std, rank, stab) in STABILITY_EXPECTED.items():
        d = rows[model].display()
        if (d["mean"], d["std"], d["avg_rank"], d["stability"]) != (mean, std, rank, stab):
            bad.append(f"{model}: {d}")
    for model in ("MLP", "MDCNN", "NN"):
        if rows[model].display()["ci"] != [0.984, 0.990]:
            bad.append(f"{model} CI {rows[model].display()['ci']}")
    record("A3", not bad, f"10 rows + 3 CIs reproduced" if not bad else "; ".join(bad))


# --- A4: selector objective argmax and reduction term ------------------------

def test_a4_selector_argmax():
    fig4 = {  # method -> (accuracy, retained feature count)
        "anova": (0.98, 12),
        "corr": (0.99, 30),
        "importance": (0.99, 17),
        "pso": (0.99, 19),
        "woa": (0.99, 24),
    }
    scores = {
        m: featsel.objective(p, d, 36, alpha=0.95) for m, (p, d) in fig4.items()
    }
    best = max(scores, key=scores.get)
    unique = sum(1 for v in scores.values() if v == scores[best]) == 1
    reduction = f"{(1 - 17 / 36) * 100:.2f}%"
    record(
        "A4",
        best == "importance" and unique and reduction == "52.78%",
        f"argmax={best}, reduction={reduction}",
    )


# --- A5: parameter count ------------------------------------------------------

def test_a5_param_count():
    count = nn.param_count(nn.NetworkSpec.mlp(1543))
    record("A5", count == 1_273_501, f"param_count={count:,}")


# --- A6: analytic gradients vs central finite differences --------------------

def _numeric_grads(params, X, y, h=1e-6):
    def loss(p):
        probs, _ = nn.forward_batch(p, X)
        return nn.batch_bce(probs, y)

    grads_w, grads_b = [], []
    for i in range(len(params.weights)):
        gw = np.zeros_like(params.weights[i])
        for idx in np.ndindex(*params.weights[i].shape):
            p = params.copy()
            p.weights[i][idx] += h
            up = loss(p)
            p.weights[i][idx] -= 2 * h
            down = loss(p)
            gw[idx] = (up - down) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[i])
        for idx in np.ndindex(*params.biases[i].shape):
            p = params.copy()
            p.biases[i][idx] += h
            up = loss(p)
            p.biases[i][idx] -= 2 * h
            down = loss(p)
            gb[idx] = (up - down) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


def test_a6_gradient_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        d = int(rng.integers(2, 5))
        hidden = tuple(nn.LayerSpec(int(u), 0.0) for u in rng.integers(2, 5, size=rng.integers(1, 3)))
        spec = nn.NetworkSpec(d, hidden)
        params = nn.init_network(spec, seed=k)
        # nonzero biases keep pre-activations off the ReLU kink, where central
        # differences and the analytic subgradient legitimately disagree
        for i in range(len(params.biases)):
            params.biases[i] += rng.normal(0.0, 0.3, size=params.biases[i].shape)
        n = int(rng.integers(2, 6))
        while True:
            X = rng.normal(size=(n, d))
            _, cache = nn.forward_batch(params, X, train=True, rng=rng)
            pres = [a @ w + b for a, w, b in zip(cache["inputs"], params.weights, params.biases)]
            if min(np.abs(z).min() for z in pres) > 1e-3:
                break
        y = rng.integers(0, 2, n).astype(float)
        ana = nn.backward(params, cache, y)
        num_w, num_b = _numeric_grads(params, X, y)
        for a, b in zip(ana.weights + ana.biases, num_w + num_b):
            err = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-4)
            worst = max(worst, float(err.max()))
    record("A6", worst <= 1e-4, f"max relative error = {worst:.2e} over 20 nets")


# --- A7: kernel SHAP vs exact Shapley + axioms -------------------------------

def test_a7_shapley_oracle():
    rng = np.random.default_rng(1)
    worst_delta = worst_residual = worst_axiom = 0.0
    for k in range(20):
        d = int(rng.integers(2, 11))
        groups = {f"f{j}": np.array([j]) for j in range(d)}
        w = rng.normal(size=d)
        pair = rng.normal()

        def model(rows, w=w, pair=pair):
            out = rows @ w
            if rows.shape[1] >= 2:
                out = out + pair * rows[:, 0] * rows[:, 1]
            return 1.0 / (1.0 + np.exp(-out))

        x = rng.normal(size=d)
        bg = rng.normal(size=(12, d))
        exact = exact_shapley(model, x, bg, groups)
        kernel = explain.kernel_shap(model, x, explain.explanation_plan(bg, groups))
        worst_delta = max(
            worst_delta, max(abs(exact.phi[n] - kernel.phi[n]) for n in groups)
        )
        worst_residual = max(worst_residual, abs(exact.residual), abs(kernel.residual))

        # dummy axiom: append a feature the model never reads
        dummy_groups = {**groups, "dummy": np.array([d])}
        x2 = np.append(x, rng.normal())
        bg2 = np.column_stack([bg, rng.normal(size=len(bg))])
        dummy_attr = exact_shapley(
            lambda rows: model(rows[:, :d]), x2, bg2, dummy_groups
        )
        worst_axiom = max(worst_axiom, abs(dummy_attr.phi["dummy"]))

        # symmetry axiom: two interchangeable features get equal credit
        sym_w = w.copy()
        sym_w[1] = sym_w[0]
        x3 = x.copy()
        x3[1] = x3[0]
        bg3 = bg.copy()
        bg3[:, 1] = bg3[:, 0]

        def sym_model(rows, sym_w=sym_w):
            return 1.0 / (1.0 + np.exp(-(rows @ sym_w)))

        sym_attr = exact_shapley(sym_model, x3, bg3, groups)
        worst_axiom = max(worst_axiom, abs(sym_attr.phi["f0"] - sym_attr.phi["f1"]))
    ok = worst_delta <= 1e-6 and worst_residual <= 1e-6 and worst_axiom <= 1e-9
    record(
        "A7",
        ok,
        f"|Δφ|≤{worst_delta:.1e}, residual≤{worst_residual:.1e}, axioms≤{worst_axiom:.1e}",
    )


# --- A8: rank AUC vs quadratic pair counting ---------------------------------

def test_a8_auc_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]  # both classes present
        s = np.round(rng.random(n), 1)  # coarse grid forces ties
        pos, neg = s[y == 1], s[y == 0]
        wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
        expect = wins / (len(pos) * len(neg))
        worst = max(worst, abs(metrics.roc_auc(y, s) - expect))
    record("A8", worst <= 1e-12, f"max |Δ AUC| = {worst:.2e} over 100 fixtures")


# --- A9: planted-feature recovery and synthetic end-to-end -------------------

N_SEEDS = 10
D_INF, D_NOISE = 5, 25


def _planted_split(seed):
    ds = generate_synthetic(1000, D_INF, D_NOISE, seed=seed)
    splits = split_dataset(ds, seed=seed)
    pre = Preprocessor.fit(splits.train)
    return ds, pre.transform(splits.train), pre.transform(splits.validation)


def _hits(selected, informative):
    return len(set(selected) & set(informative))


def test_a9_planted_recovery_and_e2e():
    anova_wins = imp_wins = pso_wins = woa_wins = 0
    baseline = BaselineConfig(epochs=10)
    swarm = SwarmConfig(population=20, iterations=50, seed=0)
    for seed in range(N_SEEDS):
        ds, train_pm, val_pm = _planted_split(seed)
        informative = ds.manifest.informative
        names = train_pm.source_features()

        scores = featsel.anova_f_scores(train_pm)
        top = featsel.select_anova(scores, D_INF)
        anova_wins += _hits(top, informative) >= 4

        params = featsel.train_baseline(train_pm.X, train_pm.labels, baseline)
        imp = featsel.permutation_importance(params, val_pm, repeats=3, seed=seed)
        kept = featsel.select_importance(imp, pipeline.IMPORTANCE_FRACTION)
        imp_wins += _hits(kept, informative) >= 4

        # swarm recovery against a planted-mask fitness (bits matching ground truth)
        target = np.array([n in informative for n in names])

        def fitness(masks, target=target):
            return np.sum(masks == target, axis=1).astype(float)

        cfg = SwarmConfig(population=20, iterations=50, seed=seed)
        pso_mask = featsel.select_bpso(fitness, len(names), cfg).mask
        woa_mask = featsel.select_bwoa(fitness, len(names), cfg).mask
        pso_wins += _hits([n for n, b in zip(names, pso_mask) if b], informative) >= 4
        woa_wins += _hits([n for n, b in zip(names, woa_mask) if b], informative) >= 4

    recovery_ok = min(anova_wins, imp_wins, pso_wins, woa_wins) >= 8

    ds = generate_synthetic(1000, D_INF, 10, seed=99)
    result = pipeline.run_pipeline(
        ds,
        pipeline.PipelineOptions(
            epochs=30,
            selectors=("anova", "corr"),
            models=("nn",),
            stability_mode="off",
            explain_count=2,
            baseline=BaselineConfig(epochs=8),
        ),
    )
    e2e_ok = result.evaluation.f1 >= 0.98
    record(
        "A9",
        recovery_ok and e2e_ok,
        f"recovery {anova_wins}/{imp_wins}/{pso_wins}/{woa_wins} of {N_SEEDS} "
        f"(anova/importance/pso/woa), e2e F1={result.evaluation.f1:.4f}",
    )


# --- A10: warm per-package latency -------------------------------------------

@pytest.fixture(scope="module")
def small_artifact():
    ds = generate_synthetic(300, 4, 4, seed=12)
    result = pipeline.run_pipeline(
        ds,
        pipeline.PipelineOptions(
            epochs=8,
            selectors=("anova",),
            models=("mlp",),
            stability_mode="off",
            explain_count=0,
            baseline=BaselineConfig(epochs=5),
        ),
    )
    return ds, result.artifact


def test_a10_latency(small_artifact):
    ds, artifact = small_artifact
    records = [dict(row) for row in ds.rows[:20]]
    for rec in records[:5]:  # warm-up
        art.predict_package(artifact, rec)
    timings = []
    for i in range(50):
        rep = art.predict_package(artifact, records[i % len(records)])
        timings.append(rep.latency_ms)
    median = statistics.median(timings)
    record("A10", median <= 170.0, f"median warm latency = {median:.2f} ms")


# --- A11: determinism and round trip -----------------------------------------

def test_a11_determinism_roundtrip(tmp_path):
    ds = generate_synthetic(200, 3, 3, seed=21)
    options = pipeline.PipelineOptions(
        epochs=6,
        selectors=("anova", "corr"),
        models=("nn",),
        stability_mode="off",
        explain_count=1,
        baseline=BaselineConfig(epochs=4),
    )
    a = pipeline.run_pipeline(ds, options)
    b = pipeline.run_pipeline(ds, options)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    art.save_artifact(a.artifact, pa)
    art.save_artifact(b.artifact, pb)
    identical = pa.read_bytes() == pb.read_bytes()

    loaded = art.load_artifact(pa)
    max_diff = 0.0
    for row in ds.rows[:100]:
        p1 = art.predict_package(a.artifact, dict(row)).probability
        p2 = art.predict_package(loaded, dict(row)).probability
        max_diff = max(max_diff, abs(p1 - p2))
    record("A11", identical and max_diff == 0.0, f"bytes identical={identical}, max |Δp|={max_diff}")

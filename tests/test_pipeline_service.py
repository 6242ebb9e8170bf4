import base64
import csv
import dataclasses
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection, HTTPResponse
from pathlib import Path

import numpy as np
import pytest

from edysec import artifact as art
from edysec import cli, explain, featsel, pipeline, service
from edysec import neuralnet as nn
from edysec.dataset import TraceDataset, generate_synthetic, load_dataset, save_dataset
from edysec.errors import (
    BadOption,
    CorruptArtifact,
    EdysecError,
    MissingFeature,
    NoBackground,
    NonFiniteInput,
    NonFiniteScore,
    VersionMismatch,
)
from edysec.featsel import BaselineConfig, SwarmConfig
from edysec.preprocess import Preprocessor


def fast_options(**overrides):
    base = dict(
        epochs=8,
        selectors=("anova", "corr"),
        models=("nn",),
        stability_mode="off",
        explain_count=2,
        baseline=BaselineConfig(epochs=5),
        swarm=SwarmConfig(population=6, iterations=5),
    )
    base.update(overrides)
    return pipeline.PipelineOptions(**base)


@pytest.fixture(scope="module")
def run():
    ds = generate_synthetic(240, 3, 3, seed=6)
    return ds, pipeline.run_pipeline(ds, fast_options())


class TestPipeline:
    def test_selector_choice_and_model(self, run):
        ds, res = run
        assert res.chosen.method in ("anova", "corr")
        assert res.best_model == "nn"
        assert res.evaluation.f1 >= 0.9
        assert set(res.chosen.selected) <= set(ds.manifest.feature_names())

    def test_explanations_cover_selected(self, run):
        _, res = run
        assert len(res.explanations) == 2
        for attr in res.explanations:
            assert set(attr.phi) == set(res.chosen.selected)
            assert abs(attr.residual) < 1e-9
        assert set(res.ranking) == set(res.chosen.selected)

    def test_explanations_are_the_artifacts_own(self, monkeypatch):
        # at a seed other than 0, on a sampled plan, the report explains a row as
        # `edysec explain` and /v1/analyze do: through the artifact's own plan
        ds = generate_synthetic(240, 4, 14, seed=5)
        names = ds.manifest.feature_names()
        chosen = featsel.SelectorResult("anova", tuple(names), len(names), 1.0, 0.5)
        monkeypatch.setattr(pipeline, "run_selectors", lambda *a, **k: [chosen])
        options = fast_options(seed=3, selectors=("anova",), epochs=1)
        res = pipeline.run_pipeline(ds, options)
        fresh = art.ModelArtifact.from_dict(res.artifact.to_dict())
        assert len(fresh.explanation_plan().centers) <= explain.KERNEL_BACKGROUND_K < len(fresh.background)  # sampled centroids
        test = fresh.project(res.splits.test)
        # the test rows the pipeline draws to explain, at the run's seed
        rng = np.random.default_rng(options.seed)
        rows = np.sort(rng.choice(len(test.X), size=options.explain_count, replace=False))
        assert len(res.explanations) == options.explain_count == 2
        for attr, row in zip(res.explanations, rows):
            assert attr == fresh.explain(test.X[row])

    def test_candidates_keep_their_histories(self, run):
        _, res = run
        assert [len(h) for h in res.histories.values()] == [fast_options().epochs]

    def test_pool_holds_the_selector_validation_batch(self):
        # two selectors, one model, no stability: the two subsets are validated at once
        assert pipeline.largest_batch(fast_options()) == 2

    def test_stability_mode_seeds(self):
        ds = generate_synthetic(160, 2, 1, seed=1)
        res = pipeline.run_pipeline(
            ds, fast_options(stability_mode="seeds", stability_runs=2, models=("nn",), epochs=4)
        )
        assert res.stability_rows is not None
        assert [r.model for r in res.stability_rows] == ["nn"]

    def test_test_cell_beyond_float32_fails_the_run(self, run, tmp_path):
        # finite in float64 and in the CSV; its z-score is infinite in float32
        ds, res = run
        column = next(name for name in res.chosen.selected if name in ds.manifest.numeric_columns())
        row = ds.ids.index(res.splits.test.ids[0])
        rows = list(ds.rows)
        rows[row] = {**rows[row], column: 1e39}
        path = tmp_path / "data.csv"
        save_dataset(dataclasses.replace(ds, rows=tuple(rows)), path)
        with pytest.raises(NonFiniteInput):
            pipeline.run_pipeline(load_dataset(path, ds.manifest), fast_options())

    def test_reports_deterministic(self, run, tmp_path):
        ds, res = run
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.emit_reports(res, a)
        pipeline.emit_reports(pipeline.run_pipeline(ds, fast_options()), b)
        for name in ("evaluation.json", "selectors.json", "explanations.jsonl", "overlap.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def save_payload(payload, path):
    """Save an artifact payload under a valid checksum, tampered or not."""
    text = json.dumps(payload)
    path.write_text(json.dumps({"checksum": hashlib.sha256(text.encode()).hexdigest(), "payload": text}))


def save_with_weight(artifact, value, path):
    """Save `artifact` with its first weight stored as `value` in the float32 buffer."""
    payload = artifact.to_dict()
    flat = art._decode(payload["network"]["flat"], "<f4").copy()
    flat[0] = value
    payload["network"]["flat"] = art._encode(flat, "<f4")
    save_payload(payload, path)


class TestArtifact:
    def test_roundtrip_predictions(self, run, tmp_path):
        ds, res = run
        path = tmp_path / "m.json"
        art.save_artifact(res.artifact, path)
        loaded = art.load_artifact(path)
        # the float32-trained buffer is stored as its own bytes
        assert res.artifact.params.flat.dtype == loaded.params.flat.dtype == np.float32
        assert np.array_equal(loaded.params.flat, res.artifact.params.flat)
        X = res.artifact.project(ds).X
        assert np.array_equal(loaded.predict_proba(X), res.artifact.predict_proba(X))
        for row, pkg in zip(ds.rows[:20], ds.ids[:20]):
            a = art.predict_package(res.artifact, dict(row), package=pkg)
            b = art.predict_package(loaded, dict(row), package=pkg)
            assert a.probability == b.probability
            assert a.verdict == b.verdict

    def test_checksum_guard(self, run, tmp_path):
        _, res = run
        path = tmp_path / "m.json"
        art.save_artifact(res.artifact, path)
        wrapper = json.loads(path.read_text())
        wrapper["payload"] = wrapper["payload"].replace("0", "1", 1)
        path.write_text(json.dumps(wrapper))
        with pytest.raises(CorruptArtifact):
            art.load_artifact(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("definitely not json")
        with pytest.raises(CorruptArtifact):
            art.load_artifact(path)

    @pytest.mark.parametrize("content", ["[1]", '{"payload": 5, "checksum": "x"}', '{"payload": "{}"}'])
    def test_malformed_wrapper(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        with pytest.raises(CorruptArtifact):
            art.load_artifact(path)

    @pytest.mark.parametrize("defect", [
        "not an object", "no network", "no flat", "one weight short", "one weight extra", "2-D flat",
    ])
    def test_malformed_payload_fails_closed(self, run, tmp_path, capsys, defect):
        ds, res = run
        payload = res.artifact.to_dict()
        network, flat = payload["network"], res.artifact.params.flat
        if defect == "not an object":
            payload = [payload]
        elif defect == "no network":
            del payload["network"]
        elif defect == "no flat":
            del network["flat"]
        elif defect == "one weight short":
            network["flat"] = art._encode(flat[:-1], "<f4")
        elif defect == "one weight extra":
            network["flat"] = art._encode(np.append(flat, flat[-1]), "<f4")
        else:  # every weight, as one row
            network["flat"] = art._encode(flat[None, :], "<f4")
        path, rec = tmp_path / "m.json", tmp_path / "rec.json"
        save_payload(payload, path)
        with pytest.raises(CorruptArtifact):
            art.load_artifact(path)
        rec.write_text(json.dumps({"features": dict(ds.rows[0])}))
        capsys.readouterr()
        assert cli.main(["predict", "--artifact", str(path), "--in", str(rec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scores_in_float32_close_to_float64(self, run):
        ds, res = run
        X = res.artifact.project(ds).X
        served = res.artifact.predict_proba(X)
        params = res.artifact.params
        reference = nn.predict_proba(nn.NetworkParams(params.spec, params.flat.astype(np.float64)), X)
        assert served.dtype == np.float64 and np.array_equal(served, served.astype(np.float32))
        assert np.abs(served - reference).max() <= 1e-6
        threshold = res.artifact.threshold
        assert np.array_equal(served >= threshold, reference >= threshold)

    def test_stores_the_flat_float32_buffer(self, run):
        _, res = run
        params = res.artifact.params
        stored = res.artifact.to_dict()["network"]["flat"]
        assert stored["shape"] == [nn.param_count(params.spec)]
        assert base64.b64decode(stored["data"]) == params.flat.astype("<f4").tobytes()

    def test_weight_beyond_float32_is_corrupt(self, run, tmp_path):
        _, res = run
        path = tmp_path / "m.json"
        for value in (np.inf, np.nan):  # a weight beyond float32's range is stored as inf
            save_with_weight(res.artifact, value, path)
            with pytest.raises(CorruptArtifact, match="not finite in float32"):
                art.load_artifact(path)
        params = nn.NetworkParams(res.artifact.params.spec, res.artifact.params.flat.astype(np.float64))
        params.flat[0] = 1e39  # finite in float64
        with pytest.raises(CorruptArtifact):
            dataclasses.replace(res.artifact, params=params)

    def test_version_guard(self, run, tmp_path):
        _, res = run
        d = res.artifact.to_dict()
        for version in (1, 99):  # version 1 stored per-layer float64 weights; it must be retrained
            d["version"] = version
            with pytest.raises(VersionMismatch):
                art.ModelArtifact.from_dict(d)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 1.5, -0.1, "0.5", None])
    def test_threshold_must_be_a_number_in_0_1(self, run, threshold):
        _, res = run
        with pytest.raises(CorruptArtifact):
            dataclasses.replace(res.artifact, threshold=threshold)
        d = res.artifact.to_dict()
        d["threshold"] = threshold
        with pytest.raises(CorruptArtifact):
            art.ModelArtifact.from_dict(d)

    def test_missing_feature(self, run):
        ds, res = run
        record = dict(ds.rows[0])
        record.pop(res.artifact.selected[0], None)
        record.pop(ds.manifest.feature_names()[0], None)
        with pytest.raises(MissingFeature):
            art.predict_package(res.artifact, record)

    def test_explained_verdict(self, run):
        ds, res = run
        rep = art.predict_package(res.artifact, dict(ds.rows[0]), explain_verdict=True)
        assert rep.attributions is not None
        assert len(rep.attributions) == min(art.VERDICT_TOP_K, len(res.artifact.selected))
        assert rep.verdict in ("benign", "malicious")
        assert rep.latency_ms > 0


def counted_plans(monkeypatch, delay_s=0.0):
    """Count the explanation plans built from here on; each build waits
    `delay_s` first, so that concurrent requests meet while it runs."""
    built = []
    build = explain.explanation_plan

    def counting(*args, **kwargs):
        built.append(args)
        time.sleep(delay_s)
        return build(*args, **kwargs)

    monkeypatch.setattr(explain, "explanation_plan", counting)
    return built


def artifact_case(preset: str, d: int, rows: int, seed: int):
    """A random-init `preset` artifact, with seeded nonzero biases, over every
    feature of a seeded corpus of d source features (text ones too), with a
    `rows`-row background, and the corpus projected through it."""
    ds = generate_synthetic(300, 4, d - 4, kinds={"numeric": 0.5, "categorical": 0.25, "pattern": 0.25}, seed=seed)
    pre = Preprocessor.fit(ds)
    pm = pre.transform(ds)
    params = nn.init_network(getattr(nn.NetworkSpec, preset)(pm.width), seed=seed)
    for bias in params.biases:
        bias[...] = np.random.default_rng(seed).normal(scale=0.1, size=bias.shape)
    model = art.ModelArtifact(
        manifest=ds.manifest, preprocessor=pre, selected=tuple(ds.manifest.feature_names()),
        selector_provenance={"method": "manual"}, params=params,
        background=explain.sample_background(pm, rows, seed=seed),
    )
    return model, pm


def counted_forward(monkeypatch) -> list:
    """The rows of each nn.forward_from call from here on: every row the network scores."""
    forwarded, forward_from = [], nn.forward_from
    monkeypatch.setattr(nn, "forward_from", lambda params, z, *a: forwarded.append(len(z)) or forward_from(params, z, *a))
    return forwarded


class TestExplanationPlan:
    def test_plain_verdicts_build_no_plan(self, run, monkeypatch):
        ds, res = run
        fresh = dataclasses.replace(res.artifact)  # a copy without a plan yet
        built = counted_plans(monkeypatch)
        for row in ds.rows[:3]:
            art.predict_package(fresh, dict(row))
        assert built == []
        art.predict_package(fresh, dict(ds.rows[0]), explain_verdict=True)
        art.predict_package(fresh, dict(ds.rows[1]), explain_verdict=True)
        assert len(built) == 1

    @pytest.mark.parametrize("d", [12, 14, 17])
    def test_explained_verdict_stays_within_the_row_budget(self, d, monkeypatch):
        # every row the network scores passes nn.forward_from: one call for the
        # centroids and x, then the plan's coalition rows in calls of at most
        # MODEL_BLOCK_ROWS; at 17 features, 16 centroids + x + 20,480 rows
        model, pm = artifact_case("nn", d, 100, seed=d)
        assert len(model.groups) == d and len(model.background) == 100
        forwarded = counted_forward(monkeypatch)
        model.explain(pm.X[0])
        plan = model.explanation_plan()
        assert forwarded[0] == len(plan.centers) + 1 and max(forwarded[1:]) <= explain.MODEL_BLOCK_ROWS
        assert sum(forwarded) == len(plan.centers) + 1 + len(plan.bits) <= explain.KERNEL_SAMPLE_BUDGET + 101
        if d == 17:
            assert sum(forwarded) == 20_497

    @pytest.mark.parametrize("preset", ["mlp", "nn"])
    @pytest.mark.parametrize("rows", [80, 100], ids=["exact", "sampled"])
    def test_first_layer_values_match_masked_rows(self, preset, rows):
        # 8 features over 80 rows fit 80 x 254 = 20,320 rows exact, over 100 they
        # sample: either way a coalition's value from `bits @ U_k + base_k` is the
        # probability of its column-masked row, to float32 rounding
        model, pm = artifact_case(preset, 8, rows, seed=3)
        plan = model.explanation_plan()
        assert len(plan.centers) == (rows if rows == 80 else explain.KERNEL_BACKGROUND_K)
        network, scored = model.network, []
        recording = dataclasses.replace(network, head=lambda z: scored.append(network.head(z)) or scored[-1])
        explain.kernel_shap(recording, pm.X[0], plan)
        owner = np.repeat(np.arange(len(plan.centers)), np.diff(plan.bounds))
        masked = np.where(explain._column_masks(plan.groups, plan.bits, pm.width), pm.X[0], plan.centers[owner])
        block = explain.MODEL_BLOCK_ROWS
        want = np.concatenate([model.predict_proba(masked[i : i + block]) for i in range(0, len(masked), block)])
        got = np.concatenate(scored)
        assert 0.05 < got.mean() < 0.95  # not saturated
        assert np.abs(got - want).max() <= 2e-6

    def test_row_beyond_float32_is_refused_before_any_coalition(self, monkeypatch):
        model, pm = artifact_case("nn", 8, 100, seed=4)
        x = pm.X[0].copy()
        x[0] = 1e39  # finite in float64
        forwarded = counted_forward(monkeypatch)
        with pytest.raises(NonFiniteInput):
            model.explain(x)
        assert forwarded == []

    def test_non_finite_coalition_score_is_refused(self, monkeypatch):
        model, pm = artifact_case("nn", 8, 100, seed=5)
        forward_from, calls = nn.forward_from, []

        def nan_after_the_first_call(params, z, *a):
            calls.append(len(z))
            probs, cache = forward_from(params, z, *a)
            return (probs if len(calls) == 1 else np.full_like(probs, np.nan)), cache

        monkeypatch.setattr(nn, "forward_from", nan_after_the_first_call)
        with pytest.raises(NonFiniteScore):
            model.explain(pm.X[0])
        assert len(calls) == 2

    def test_concurrent_explained_verdicts_share_one_plan(self, run, monkeypatch):
        ds, res = run
        built = counted_plans(monkeypatch, delay_s=0.3)
        srv = service.make_server(dataclasses.replace(res.artifact), port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        replies = [None, None]
        start = threading.Barrier(2)

        def client(i):
            start.wait()
            replies[i] = http(srv.server_address[1], "/v1/analyze", {"features": dict(ds.rows[0]), "explain": True})

        clients = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        try:
            for c in clients:
                c.start()
            for c in clients:
                c.join(timeout=30)
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive() and not any(c.is_alive() for c in clients)
        assert [status for status, _ in replies] == [200, 200]
        assert replies[0][1]["attributions"] and replies[0][1]["attributions"] == replies[1][1]["attributions"]
        assert len(built) == 1


@pytest.fixture(scope="module")
def server(run):
    _, res = run
    srv = service.make_server(res.artifact, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv, srv.server_address[1]
    srv.shutdown()
    srv.server_close()


def http(port, path, body=None, raw=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = raw if raw is not None else (json.dumps(body).encode() if body is not None else None)
    req = urllib.request.Request(url, data=data, method="POST" if data is not None else "GET")
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.load(r)
    except urllib.error.HTTPError as e:
        return e.code, json.load(e)


def nested_json(depth: int = 100_000) -> bytes:
    """Under the body cap, but deeper than `json.loads` can recurse."""
    return b"[" * depth + b"]" * depth


class TestService:
    def test_health(self, server):
        _, port = server
        status, body = http(port, "/v1/health")
        assert status == 200 and body["status"] == "ok"
        assert "fingerprint" in body

    def test_analyze_ok(self, run, server):
        ds, _ = run
        _, port = server
        status, body = http(
            port, "/v1/analyze", {"package": ds.ids[0], "features": dict(ds.rows[0])}
        )
        assert status == 200
        assert body["package"] == ds.ids[0]
        assert 0.0 <= body["probability"] <= 1.0
        assert body["verdict"] in ("benign", "malicious")

    def test_malformed_is_400(self, server):
        _, port = server
        assert http(port, "/v1/analyze", raw=b"not json")[0] == 400
        assert http(port, "/v1/analyze", {"nope": 1})[0] == 400

    def test_missing_feature_is_422(self, run, server):
        ds, _ = run
        _, port = server
        record = dict(ds.rows[0])
        record.pop(ds.manifest.feature_names()[0])
        status, body = http(port, "/v1/analyze", {"features": record})
        assert status == 422 and "column" in body

    def test_stateless_ordering(self, run, server):
        ds, _ = run
        _, port = server
        first = http(port, "/v1/analyze", {"features": dict(ds.rows[0])})[1]
        http(port, "/v1/analyze", {"features": dict(ds.rows[1])})
        again = http(port, "/v1/analyze", {"features": dict(ds.rows[0])})[1]
        assert first["probability"] == again["probability"]

    def test_keep_alive_replies_do_not_wait_on_delayed_ack(self, run, server):
        ds, _ = run
        _, port = server
        body = json.dumps({"features": dict(ds.rows[0])})
        conn = HTTPConnection("127.0.0.1", port, timeout=5)
        rounds = []
        try:
            for i in range(25):
                started = time.perf_counter()
                if i % 5 == 4:
                    conn.request("GET", "/v1/health")
                else:
                    conn.request("POST", "/v1/analyze", body, {"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())
                rounds.append(time.perf_counter() - started)
                if i == 0:
                    sock = conn.sock
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()
        # with Nagle's algorithm on, each reply's body waited about 40 ms for the client's delayed ACK
        assert np.median(rounds) < 0.020


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A synthetic corpus and an `edysec train` artifact on it."""
    out = tmp_path_factory.mktemp("cli")
    cli.main([
        "synth", "--rows", "80", "--informative", "2", "--noise", "2",
        "--text-fraction", "0.5", "--seed", "3", "--out", str(out),
    ])
    model = out / "model.json"
    assert cli.main([
        "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
        "--model", "nn", "--epochs", "4", "--artifact", str(model),
    ]) == 0
    return out, model


class TestCli:
    def test_import_loads_no_scipy(self):
        # Importing scipy.stats costs a cold `edysec` process about 1.4 s and 66 MB.
        code = "import edysec.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("method, name", [("shap", "kernel_shap"), ("lime", "lime")])
    def test_explain(self, trained, capsys, method, name):
        out, model = trained
        capsys.readouterr()
        assert cli.main([
            "explain", "--artifact", str(model), "--data", str(out / "data.csv"),
            "--method", method, "--count", "3",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        selected = art.load_artifact(model).selected
        assert len(records) == 3
        for rec in records:
            assert rec["method"] == name
            assert {c["feature"] for c in rec["contributions"]} == set(selected)
            if method == "shap":
                assert abs(rec["residual"]) < 1e-9

    @pytest.mark.parametrize("mode", ["seeds", "selectors"])
    def test_stability(self, trained, capsys, mode):
        out, _ = trained
        capsys.readouterr()
        assert cli.main([
            "stability", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--mode", mode, "--runs", "2", "--epochs", "2", "--models", "nn", "mlp",
        ]) == 0
        text = capsys.readouterr().out
        table, _, rows = text.partition("\n[")
        assert table.splitlines()[0].startswith("Model")
        rows = json.loads("[" + rows)
        assert sorted(r["model"] for r in rows) == ["mlp", "nn"]
        for r in rows:
            assert 0.0 <= r["mean"] <= 1.0 and r["ci"][0] <= r["ci"][1]

    def test_synth_split_train_predict(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main([
            "synth", "--rows", "80", "--informative", "2", "--noise", "1",
            "--seed", "1", "--out", str(out),
        ]) == 0
        assert cli.main([
            "split", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "splits"), "--seed", "0",
        ]) == 0
        model = tmp_path / "model.json"
        assert cli.main([
            "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--model", "nn", "--epochs", "4", "--artifact", str(model),
        ]) == 0
        capsys.readouterr()

        with open(out / "data.csv") as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        features = {k: v for k, v in row.items() if k not in ("package", "label")}
        rec = tmp_path / "rec.json"
        rec.write_text(json.dumps({"package": "p", "features": features}))
        assert cli.main(["predict", "--artifact", str(model), "--in", str(rec)]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["verdict"] in ("benign", "malicious")

        assert cli.main(["evaluate", "--artifact", str(model), "--data", str(out / "data.csv")]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["metrics"]["accuracy"] >= 0.9

    def test_pipeline_and_report(self, tmp_path, capsys):
        out = tmp_path / "d"
        cli.main([
            "synth", "--rows", "80", "--informative", "2", "--noise", "1",
            "--seed", "2", "--out", str(out),
        ])
        reports = tmp_path / "reports"
        model = tmp_path / "model.json"
        assert cli.main([
            "pipeline", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--methods", "anova", "--models", "nn", "--epochs", "4",
            "--mode", "off", "--explain-count", "1",
            "--out", str(reports), "--artifact", str(model),
        ]) == 0
        capsys.readouterr()
        assert (reports / "evaluation.json").exists()
        assert model.exists()
        assert cli.main(["report", "--reports", str(reports)]) == 0
        text = capsys.readouterr().out
        assert "F1" in text

        # the test rows, split again at the same seed and ratios, score as
        # the pipeline scored them: one evaluation path from the artifact
        assert cli.main([
            "split", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "splits"),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--artifact", str(model), "--data", str(tmp_path / "splits" / "test.csv")]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        written = json.loads((reports / "evaluation.json").read_text())
        assert evaluated == {"metrics": written["metrics"], "confusion": written["confusion"]}

    @pytest.mark.parametrize("files", [
        {},
        {"notes.txt": "not a report"},
        {"evaluation.json": '{"model": "nn", "features": 3}'},
        {"evaluation.json": "{not json"},
        {"stability.txt": "table\n", "overlap.json": '{"ranking": []}'},
        {"overlap.json": '{"overlap": 4, "jaccard": 0.5}'},
    ])
    def test_report_fails_closed(self, tmp_path, capsys, files):
        reports = tmp_path / "reports"
        reports.mkdir()
        for name, text in files.items():
            (reports / name).write_text(text)
        capsys.readouterr()
        assert cli.main(["report", "--reports", str(reports)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert cli.main(["report", "--reports", str(tmp_path / "missing")]) == 2

    @pytest.mark.parametrize("content", ["[1, 2]", "not json", '{"features": [1]}'])
    def test_predict_record_must_be_an_object(self, trained, tmp_path, capsys, content):
        _, model = trained
        rec = tmp_path / "rec.json"
        rec.write_text(content)
        capsys.readouterr()
        assert cli.main(["predict", "--artifact", str(model), "--in", str(rec)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "not json", '{"inf_0": 1}', '["inf_0", 3]'])
    def test_train_features_must_be_a_list_of_names(self, trained, tmp_path, capsys, content):
        out, _ = trained
        features = tmp_path / "features.json"
        if content is not None:  # None: the file does not exist
            features.write_text(content)
        capsys.readouterr()
        assert cli.main([
            "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--model", "nn", "--epochs", "1", "--features", str(features),
            "--artifact", str(tmp_path / "model.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("where", ["record", "features", "artifact", "report"])
    def test_nested_json_exits_2(self, trained, tmp_path, capsys, where):
        out, model = trained
        nested = tmp_path / "nested.json"
        nested.write_bytes(nested_json())
        argv = {
            "record": ["predict", "--artifact", str(model), "--in", str(nested)],
            "features": [
                "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
                "--model", "nn", "--epochs", "1", "--features", str(nested),
                "--artifact", str(tmp_path / "model.json"),
            ],
            "artifact": ["predict", "--artifact", str(nested), "--in", str(nested)],
            "report": ["report", "--reports", str(tmp_path)],
        }[where]
        if where == "report":
            nested.rename(tmp_path / "evaluation.json")
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("which, content", [
        ("manifest", None),
        ("manifest", b"{not json"),
        ("manifest", b'{"version": 1}'),
        ("manifest", json.dumps({
            "version": 1, "id_column": "package", "label_column": "label",
            "features": [{"name": "a", "kind": "numeric", "trace": "TCP"}] * 2,
        }).encode()),
        ("data", None),
        ("data", b"package,label\n\xff\xfe\n"),
        ("data", b"x" * 200_000 + b"\n"),  # over csv's 131,072-character field limit
    ], ids=["no-manifest", "manifest-not-json", "manifest-no-features", "manifest-duplicates",
            "no-data", "data-not-utf8", "data-cell-too-long"])
    def test_unreadable_inputs_exit_2(self, trained, tmp_path, capsys, which, content):
        out, _ = trained
        paths = {"data": out / "data.csv", "manifest": out / "manifest.json"}
        paths[which] = tmp_path / f"bad-{which}"
        if content is not None:  # None: the file does not exist
            paths[which].write_bytes(content)
        capsys.readouterr()
        assert cli.main([
            "split", "--data", str(paths["data"]), "--manifest", str(paths["manifest"]), "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rec = tmp_path / "rec.json"
        rec.write_text("{}")
        missing.write_text("broken")
        assert cli.main(["predict", "--artifact", str(missing), "--in", str(rec)]) == 2

    # argv with DATA for the corpus's --data/--manifest, ONE_CLASS for its
    # malicious rows only, MODEL for its artifact and OUT for a path nothing
    # may be written to
    @pytest.mark.parametrize("argv", [
        ["synth", "--rows", "2", "--informative", "1", "--noise", "1", "--out", "OUT"],
        ["synth", "--rows", "40", "--informative", "1", "--noise", "3", "--text-fraction", "2", "--out", "OUT"],
        ["synth", "--rows", "40", "--informative", "1", "--noise", "3", "--text-fraction", "-0.5", "--out", "OUT"],
        ["synth", "--rows", "40", "--informative", "1", "--noise", "-2", "--out", "OUT"],
        ["train", "DATA", "--epochs", "0", "--artifact", "OUT"],
        ["train", "DATA", "--batch", "0", "--artifact", "OUT"],
        ["train", "DATA", "--lr", "0", "--artifact", "OUT"],
        ["select", "DATA", "--methods", "anova", "--alpha", "1.5"],
        ["select", "DATA", "--alpha", "2"],
        ["select", "DATA", "--alpha", "nan"],
        ["explain", "MODEL", "DATA", "--count", "-1"],
        ["explain", "MODEL", "DATA", "--count", "-1", "--per-package"],
        ["stability", "DATA", "--runs", "0"],
        ["pipeline", "DATA", "--explain-count", "-1", "--out", "OUT"],
        ["pipeline", "ONE_CLASS", "--methods", "anova", "--out", "OUT"],
        ["stability", "DATA", "--runs", "1"],
        ["pipeline", "DATA", "--runs", "1", "--out", "OUT"],
        ["train", "DATA", "--threshold", "nan", "--artifact", "OUT"],
        ["train", "DATA", "--threshold", "1.5", "--artifact", "OUT"],
    ])
    def test_out_of_range_values_exit_2(self, trained, tmp_path, capsys, argv):
        out, model = trained
        manifest = ["--manifest", str(out / "manifest.json")]
        with open(out / "data.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        one_class = tmp_path / "one_class.csv"
        with open(one_class, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *(r for r in rows if r[header.index("label")] == "1")])
        placeholders = {
            "DATA": ["--data", str(out / "data.csv"), *manifest],
            "ONE_CLASS": ["--data", str(one_class), *manifest],
            "MODEL": ["--artifact", str(model)],
            "OUT": [str(tmp_path / "out")],
        }
        capsys.readouterr()
        assert cli.main([part for a in argv for part in placeholders.get(a, [a])]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    # FILE is an existing file, UNDER_FILE a path below it, NODIR a file in a
    # directory that does not exist, DIR an existing directory
    @pytest.mark.parametrize("argv", [
        ["synth", "--rows", "40", "--informative", "1", "--noise", "1", "--out", "FILE"],
        ["split", "DATA", "--out", "FILE"],
        ["train", "DATA", "--model", "nn", "--artifact", "NODIR"],
        ["train", "DATA", "--model", "nn", "--artifact", "DIR"],
        ["pipeline", "DATA", "--out", "FILE"],
        ["pipeline", "DATA", "--out", "UNDER_FILE"],
        ["pipeline", "DATA", "--out", "OUT", "--artifact", "NODIR"],
    ], ids=["synth-out", "split-out", "train-artifact-nodir", "train-artifact-dir", "pipeline-out",
            "pipeline-out-under-file", "pipeline-artifact-nodir"])
    def test_unwritable_outputs_exit_2(self, trained, tmp_path, capsys, monkeypatch, argv):
        # an error line and exit 2, and `train` and `pipeline` refuse before they prepare or run anything
        out, _ = trained
        existing = tmp_path / "data.csv"
        existing.write_text("kept\n")
        (tmp_path / "dir").mkdir()
        placeholders = {
            "DATA": ["--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json")],
            "FILE": [str(existing)], "UNDER_FILE": [str(existing / "reports")],
            "NODIR": [str(tmp_path / "nodir" / "m.json")], "DIR": [str(tmp_path / "dir")], "OUT": [str(tmp_path / "out")],
        }
        started = []
        monkeypatch.setattr(pipeline, "prepare", lambda *a, **k: started.append("prepare"))
        monkeypatch.setattr(pipeline, "run_pipeline", lambda *a, **k: started.append("run_pipeline"))
        capsys.readouterr()
        assert cli.main([part for a in argv for part in placeholders.get(a, [a])]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert started == [] and existing.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "dir"] and not any((tmp_path / "dir").iterdir())

    def test_one_selector_stability_is_refused_before_selection(self, trained, tmp_path, capsys, monkeypatch):
        # stability across selectors needs at least two of them; that is known from the options
        out, _ = trained
        selections = []
        monkeypatch.setattr(pipeline, "run_selectors", lambda *a, **k: selections.append(a))
        capsys.readouterr()
        assert cli.main([
            "pipeline", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--methods", "anova", "--mode", "selectors", "--out", str(tmp_path / "out"),
            "--artifact", str(tmp_path / "model.json"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert selections == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("change", [
        {"stability_mode": "bootstrap"}, {"selectors": ("anova", "lasso")}, {"models": ("mlp", "cnn")},
        {"stability_mode": "selectors", "selectors": ("anova",)}, {"stability_runs": 1},
        {"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": -1e-3},
        {"threshold": float("nan")}, {"threshold": 1.5}, {"threshold": -0.1},
        {"alpha": float("nan")}, {"alpha": 2.0}, {"alpha": -0.1},
    ])
    def test_options_refuse_what_cannot_run(self, change):
        with pytest.raises(BadOption):
            pipeline.PipelineOptions(**change)

    def test_baseline_needs_an_epoch(self):
        with pytest.raises(BadOption):
            BaselineConfig(epochs=0)

    def test_zero_epochs_are_refused_before_selection(self, trained, tmp_path, capsys, monkeypatch):
        out, _ = trained
        selections = []
        monkeypatch.setattr(pipeline, "run_selectors", lambda *a, **k: selections.append(a))
        capsys.readouterr()
        assert cli.main([
            "pipeline", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--epochs", "0", "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert selections == [] and list(tmp_path.iterdir()) == []

    def test_non_finite_probabilities_exit_2(self, tmp_path, capsys):
        # at a learning rate of 1e10 every MLP probability is NaN; thresholded, all would be benign
        assert cli.main([
            "synth", "--rows", "300", "--informative", "3", "--noise", "4", "--seed", "2", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "stability", "--data", str(tmp_path / "data.csv"), "--manifest", str(tmp_path / "manifest.json"),
            "--runs", "2", "--epochs", "2", "--lr", "1e10", "--models", "mlp", "nn",
        ]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_one_feature_artifact_cannot_be_explained(self, trained, tmp_path, capsys):
        out, _ = trained
        features, model, rec = tmp_path / "features.json", tmp_path / "one.json", tmp_path / "rec.json"
        features.write_text('["inf_0"]')
        assert cli.main([
            "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--model", "nn", "--epochs", "1", "--features", str(features), "--artifact", str(model),
        ]) == 0
        ds = load_dataset(out / "data.csv", art.load_artifact(model).manifest)
        rec.write_text(json.dumps({"features": dict(ds.rows[0])}))
        capsys.readouterr()
        assert cli.main(["predict", "--artifact", str(model), "--in", str(rec), "--explain"]) == 2
        assert "two source features" in capsys.readouterr().err
        assert cli.main(["explain", "--artifact", str(model), "--data", str(out / "data.csv")]) == 2
        assert "two source features" in capsys.readouterr().err

        server = service.make_server(art.load_artifact(model), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            status, body = http(port, "/v1/analyze", {"features": dict(ds.rows[0]), "explain": True})
            assert status == 422 and "two source features" in body["error"] and "verdict" not in body
            assert http(port, "/v1/analyze", {"features": dict(ds.rows[0])})[0] == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("command", [
        ["predict", "--in", "rec.json"],
        ["evaluate", "--data", "data.csv"],
        ["explain", "--data", "data.csv"],
        ["serve", "--bind", "127.0.0.1:0"],
    ])
    def test_missing_artifact(self, trained, tmp_path, capsys, command):
        out, _ = trained
        rec = tmp_path / "rec.json"
        rec.write_text("{}")
        paths = {"rec.json": str(rec), "data.csv": str(out / "data.csv")}
        capsys.readouterr()
        argv = [paths.get(a, a) for a in command] + ["--artifact", str(tmp_path / "missing.json")]
        assert cli.main(argv) == 2
        assert "cannot read artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["predict", "--in", "rec.json"],
        ["evaluate", "--data", "data.csv"],
        ["explain", "--data", "data.csv"],
        ["serve", "--bind", "127.0.0.1:0"],
    ])
    def test_weight_beyond_float32_exits_2(self, trained, tmp_path, capsys, command):
        out, model = trained
        rec, path = tmp_path / "rec.json", tmp_path / "m.json"
        loaded = art.load_artifact(model)
        rows = load_dataset(out / "data.csv", loaded.manifest).rows
        rec.write_text(json.dumps({"features": dict(rows[0])}))
        paths = {"rec.json": str(rec), "data.csv": str(out / "data.csv")}
        for value in (-np.inf, np.nan):  # a weight beyond float32's range is stored as -inf
            save_with_weight(loaded, value, path)
            capsys.readouterr()
            assert cli.main([paths.get(a, a) for a in command] + ["--artifact", str(path)]) == 2
            assert "not finite in float32" in capsys.readouterr().err

    @pytest.mark.parametrize("bind", ["localhost", "127.0.0.1:abc", "127.0.0.1:70000", "IN USE"])
    def test_serve_refuses_an_address_it_cannot_use(self, trained, capsys, bind):
        _, model = trained
        with socket.socket() as taken:  # listened on, never served
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            if bind == "IN USE":
                bind = f"127.0.0.1:{taken.getsockname()[1]}"
            capsys.readouterr()
            assert cli.main(["serve", "--artifact", str(model), "--bind", bind]) == 2
        assert capsys.readouterr().err.startswith("error: ")


NUMERIC, TEXT = "inf_0", "noise_1"

# (cell value, column it goes in): each must be rejected with a typed error naming the column
HOSTILE = [
    ("nan", NUMERIC),
    ("inf", NUMERIC),
    ("-inf", NUMERIC),
    ("1e999", NUMERIC),
    ("abc", NUMERIC),
    ("", NUMERIC),
    (True, NUMERIC),
    (None, NUMERIC),
    ([1], NUMERIC),
    ({"v": 1}, NUMERIC),
    (10**400, NUMERIC),
    (["open", "/tmp"], TEXT),
    (3, TEXT),
    (None, TEXT),
    (False, TEXT),
]


@pytest.fixture(scope="module")
def mixed():
    """An artifact over numeric and text columns, and the dataset it came from."""
    ds = generate_synthetic(120, 2, 2, kinds={"numeric": 0.5, "pattern": 0.5}, seed=4)
    assert ds.manifest.column(NUMERIC).kind == "numeric"
    assert ds.manifest.column(TEXT).kind == "pattern"
    options = fast_options(selectors=("anova",), epochs=2, explain_count=1, baseline=BaselineConfig(epochs=2))
    return ds, pipeline.run_pipeline(ds, options).artifact


@pytest.fixture(scope="module")
def ports(mixed):
    """Live servers for the mixed artifact, with and without its background."""
    _, artifact = mixed
    bare = dataclasses.replace(artifact, background=None)
    servers = [service.make_server(a, port=0) for a in (artifact, bare)]
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for t in threads:
        t.start()
    yield tuple(s.server_address[1] for s in servers)
    for s in servers:
        s.shutdown()
        s.server_close()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


def with_cell(ds, column, value):
    record = dict(ds.rows[0])
    record[column] = value
    return record


class TestHostileInput:
    """The verdict path fails closed, in process, over HTTP and from the CLI."""

    @pytest.mark.parametrize("value, column", HOSTILE)
    def test_cell_in_process(self, mixed, value, column):
        ds, artifact = mixed
        with pytest.raises(EdysecError) as exc:
            art.predict_package(artifact, with_cell(ds, column, value))
        assert exc.value.column == column

    @pytest.mark.parametrize("value, column", HOSTILE)
    def test_cell_served(self, mixed, ports, value, column):
        ds, _ = mixed
        status, body = http(ports[0], "/v1/analyze", {"features": with_cell(ds, column, value)})
        assert status == 422 and body["column"] == column
        assert "verdict" not in body

    def test_cell_from_cli(self, mixed, tmp_path, capsys):
        ds, artifact = mixed
        path, rec = tmp_path / "m.json", tmp_path / "rec.json"
        art.save_artifact(artifact, path)
        rec.write_text(json.dumps({"features": with_cell(ds, NUMERIC, "nan")}))
        assert cli.main(["predict", "--artifact", str(path), "--in", str(rec)]) == 2
        assert NUMERIC in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e300, "-1e300"])
    def test_cell_beyond_float32(self, mixed, ports, tmp_path, capsys, value):
        # finite as parsed and as processed in float64, infinite once cast to float32
        ds, artifact = mixed
        assert NUMERIC in artifact.selected
        record = with_cell(ds, NUMERIC, value)
        with pytest.raises(NonFiniteInput):
            art.predict_package(artifact, record)
        status, body = http(ports[0], "/v1/analyze", {"features": record})
        assert status == 422 and "not finite in float32" in body["error"] and "verdict" not in body
        path, rec = tmp_path / "m.json", tmp_path / "rec.json"
        art.save_artifact(artifact, path)
        rec.write_text(json.dumps({"features": record}))
        capsys.readouterr()
        assert cli.main(["predict", "--artifact", str(path), "--in", str(rec)]) == 2
        assert "not finite in float32" in capsys.readouterr().err

    def test_numeric_string_scores_as_number(self, mixed):
        ds, artifact = mixed
        record = dict(ds.rows[0])
        as_number = art.predict_package(artifact, record)
        record[NUMERIC] = repr(record[NUMERIC])
        assert art.predict_package(artifact, record).probability == as_number.probability

    def test_non_finite_probability(self, mixed, ports, monkeypatch):
        ds, artifact = mixed
        monkeypatch.setattr(nn, "predict_proba", lambda params, X: np.full(len(X), np.nan))
        with pytest.raises(NonFiniteScore):
            art.predict_package(artifact, dict(ds.rows[0]))
        status, body = http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0])})
        assert status == 422 and "verdict" not in body

    @pytest.mark.parametrize("flag", ["false", "true", 1, 0, None, [True]])
    def test_explain_flag_must_be_boolean(self, mixed, ports, flag):
        ds, _ = mixed
        status, body = http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0]), "explain": flag})
        assert status == 400 and "verdict" not in body
        status, body = http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0]), "explain": False})
        assert status == 200 and body["attributions"] is None

    def test_explain_without_background(self, mixed, ports, tmp_path, capsys):
        ds, artifact = mixed
        bare = dataclasses.replace(artifact, background=None)
        with pytest.raises(NoBackground):
            art.predict_package(bare, dict(ds.rows[0]), explain_verdict=True)

        status, body = http(ports[1], "/v1/analyze", {"features": dict(ds.rows[0]), "explain": True})
        assert status == 422 and "verdict" not in body
        assert http(ports[1], "/v1/analyze", {"features": dict(ds.rows[0])})[0] == 200

        path, rec = tmp_path / "bare.json", tmp_path / "rec.json"
        art.save_artifact(bare, path)
        rec.write_text(json.dumps({"features": dict(ds.rows[0])}))
        assert cli.main(["predict", "--artifact", str(path), "--in", str(rec), "--explain"]) == 2
        assert "background" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["empty", "narrow", "nan"])
    def test_bad_background_fails_closed(self, mixed, tmp_path, capsys, defect):
        ds, artifact = mixed
        bg = artifact.background.copy()
        if defect == "empty":
            bg = bg[:0]
        elif defect == "narrow":
            bg = bg[:, 1:]
        else:
            bg[3, 0] = np.nan
        with pytest.raises(CorruptArtifact, match="background"):
            dataclasses.replace(artifact, background=bg)
        payload = artifact.to_dict()
        payload["background"] = art._encode(bg, "<f8")
        path, rec = tmp_path / "m.json", tmp_path / "rec.json"
        save_payload(payload, path)
        with pytest.raises(CorruptArtifact, match="background"):
            art.load_artifact(path)
        rec.write_text(json.dumps({"features": dict(ds.rows[0])}))
        capsys.readouterr()
        assert cli.main(["predict", "--artifact", str(path), "--in", str(rec), "--explain"]) == 2
        assert "background" in capsys.readouterr().err


def raw_exchange(port, data: bytes, timeout: float = 5.0):
    """Send raw bytes, read one reply; returns (status, JSON body, whether the
    reply said `Connection: close` and the server then closed the connection)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        resp = HTTPResponse(sock)
        resp.begin()
        body = json.loads(resp.read())
        try:
            closed = sock.recv(1) == b""
        except TimeoutError:
            closed = False
        except ConnectionResetError:  # closed with request bytes left unread
            closed = True
        return resp.status, body, closed and resp.getheader("Connection") == "close"


def post_head(length: str) -> bytes:
    return (f"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


class CountingWriter:
    """A handler's `wfile` that records each write before making it."""

    def __init__(self, wfile, writes):
        self._wfile, self._writes = wfile, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


@pytest.fixture(scope="module")
def counted(mixed):
    """A live server for the mixed artifact, and the list of every write its handlers make."""
    _, artifact = mixed
    writes = []
    srv = service.make_server(artifact, port=0)

    class Counted(srv.RequestHandlerClass):
        def setup(self):
            super().setup()
            self.wfile = CountingWriter(self.wfile, writes)

    srv.RequestHandlerClass = Counted
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address[1], writes
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def post_body(body: bytes) -> bytes:
    return post_head(str(len(body))) + body


def one_write_cases(ds):
    record = dict(ds.rows[0])
    missing = {k: v for k, v in record.items() if k != NUMERIC}
    return {
        "verdict": (post_body(json.dumps({"features": record}).encode()), 200),
        "health": (b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", 200),
        "bad-json": (post_body(b"not json"), 400),
        "missing-feature": (post_body(json.dumps({"features": missing}).encode()), 422),
        "unknown-path": (b"POST /v1/nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 404),
        "chunked": (b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 411),
        "too-long": (post_head(str((1 << 20) + 1)), 413),
        "head": (b"HEAD /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    }


class TestSocket:
    """The live server bounds what it reads and answers every request."""

    @pytest.mark.parametrize("length, status", [("-1", 400), ("abc", 400), (str((1 << 20) + 1), 413)])
    def test_bad_content_length(self, mixed, ports, length, status):
        ds, _ = mixed
        reply, body, closed = raw_exchange(ports[0], post_head(length))
        assert reply == status and "error" in body and closed
        assert http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0])})[0] == 200

    @pytest.mark.parametrize("data, status", [
        (b"PUT /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"GET /v1/health HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
        (b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 16) + b"\r\n\r\n", 431),
        (b"POST /v1/nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 404),
        # the chunks are never read, so they must not be parsed as a next request
        (b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 411),
    ], ids=["method", "header-count", "header-line", "unknown-path", "chunked"])
    def test_rejection_is_json_and_closes(self, mixed, ports, data, status):
        ds, _ = mixed
        reply, body, closed = raw_exchange(ports[0], data)
        assert reply == status and "error" in body and closed
        assert http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0])})[0] == 200

    @pytest.mark.parametrize("framing", [
        b"Content-Length: 5\r\n\r\nXYZ\r\n", b"Transfer-Encoding: chunked\r\n\r\n3\r\nXYZ\r\n0\r\n\r\n",
    ], ids=["content-length", "chunked"])
    def test_get_with_a_body_is_answered_once_and_closes(self, ports, framing):
        # the body is never read, so it must not be parsed as a next request
        reply, body, closed = raw_exchange(ports[0], b"GET /v1/health HTTP/1.1\r\nHost: x\r\n" + framing)
        assert reply == 200 and body["status"] == "ok" and closed

    def test_head_is_501_without_a_body(self, ports):
        with socket.create_connection(("127.0.0.1", ports[0]), timeout=5) as sock:
            sock.sendall(b"HEAD /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = b""
            while received := sock.recv(1024):
                reply += received
        assert reply.startswith(b"HTTP/1.1 501 ") and b"Content-Type: application/json\r\n" in reply
        assert reply.endswith(b"\r\n\r\n")  # the headers, and then the server closed

    def test_expect_100_continue(self, mixed, counted):
        # the interim reply leaves before the handler returns, so the client sends its body
        ds, _ = mixed
        port, writes = counted
        body = json.dumps({"features": dict(ds.rows[0])}).encode()
        head = post_head(str(len(body)))[:-2] + b"Expect: 100-continue\r\n\r\n"
        writes.clear()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                received = sock.recv(1024)
                assert received, "connection closed before 100 Continue"
                interim += received
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            resp = HTTPResponse(sock)
            resp.begin()
            assert resp.status == 200 and json.loads(resp.read())["verdict"] in ("benign", "malicious")
        assert [w[:13] for w in writes] == [b"HTTP/1.1 100 ", b"HTTP/1.1 200 "]  # the final reply in one write

    @pytest.mark.parametrize("case", [
        "verdict", "health", "bad-json", "missing-feature", "unknown-path", "chunked", "too-long", "head",
    ])
    def test_one_write_per_reply(self, mixed, counted, case):
        # a reply split into head and body wakes a keep-alive client twice
        ds, _ = mixed
        port, writes = counted
        data, status = one_write_cases(ds)[case]
        writes.clear()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(data)
            resp = HTTPResponse(sock, method=data.split(b" ", 1)[0].decode())
            resp.begin()
            body = resp.read()
        assert resp.status == status and len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 %d " % status) and writes[0].endswith(body)
        if case == "head":
            assert writes[0].endswith(b"\r\n\r\n")  # the head alone
        else:
            assert json.loads(body)

    def test_http_0_9_reply_is_its_body_alone(self, counted):
        port, writes = counted
        writes.clear()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"GET /v1/health\r\n\r\n")
            reply = b""
            while received := sock.recv(1024):
                reply += received
        assert json.loads(reply)["status"] == "ok" and writes == [reply]

    def test_nested_json_is_400(self, mixed, ports):
        ds, _ = mixed
        status, body = http(ports[0], "/v1/analyze", raw=nested_json())
        assert status == 400 and body["error"] == "request body must be JSON"
        assert http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0])})[0] == 200

    def test_slow_body_times_out(self, mixed):
        _, artifact = mixed
        srv = service.make_server(artifact, port=0)
        srv.RequestHandlerClass.timeout = 0.5
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            started = time.perf_counter()
            reply, body, closed = raw_exchange(srv.server_address[1], post_head("100") + b'{"feat')
            assert reply == 408 and "error" in body and closed
            assert time.perf_counter() - started < 5
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unexpected_error_is_500_json(self, mixed, ports, monkeypatch):
        ds, _ = mixed

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(service, "predict_package", broken)
        body = json.dumps({"features": dict(ds.rows[0])}).encode()
        status, reply, closed = raw_exchange(ports[0], post_head(str(len(body))) + body)
        assert status == 500 and "error" in reply and "verdict" not in reply
        assert closed

    def test_non_finite_reply_is_500_json(self, mixed, ports, monkeypatch):
        ds, _ = mixed
        report = art.VerdictReport("p", float("nan"), "benign", None, 1.0)
        monkeypatch.setattr(service, "predict_package", lambda *a, **k: report)
        status, body = http(ports[0], "/v1/analyze", {"features": dict(ds.rows[0])})
        assert status == 500 and "verdict" not in body


@pytest.fixture(scope="module")
def subset(tmp_path_factory):
    """An artifact over three of four features, fitted on a corpus whose
    manifest lists the columns in reverse, so its column order is not the
    alphabetical order a saved artifact's keys come back in; its preprocessor
    as fitted on every feature; and the artifact saved."""
    generated = generate_synthetic(120, 2, 2, kinds={"numeric": 0.5, "pattern": 0.5}, seed=4)
    manifest = dataclasses.replace(generated.manifest, columns=generated.manifest.columns[::-1])
    ds = TraceDataset(manifest, generated.ids, generated.rows, generated.labels)
    selected = (TEXT, NUMERIC, "inf_1")  # unselected: the numeric noise_0
    pre = Preprocessor.fit(ds)
    train_sel = featsel.project(pre.transform(ds), selected)
    spec = nn.NetworkSpec(train_sel.width, (nn.LayerSpec(8),))
    params, _ = nn.train(spec, nn.TrainConfig(epochs=2, seed=0), train_sel.X, train_sel.labels)
    artifact = art.ModelArtifact(
        manifest=ds.manifest, preprocessor=pre, selected=selected,
        selector_provenance={"method": "manual"}, params=params,
        background=train_sel.X[:10],
    )
    path = tmp_path_factory.mktemp("subset") / "model.json"
    art.save_artifact(artifact, path)
    return ds, pre, artifact, path


class TestPrunedPreprocessor:
    """The artifact keeps only the selected features' preprocessing."""

    def test_saved_preprocessor_holds_the_selected(self, subset):
        ds, pre, artifact, path = subset
        saved = json.loads(json.loads(path.read_text())["payload"])["preprocessor"]
        assert set(saved["scaler"]["means"]) | set(saved["vectorizers"]) == set(artifact.selected)
        loaded = art.load_artifact(path)
        expect = featsel.project(pre.transform(ds), artifact.selected)
        assert np.array_equal(loaded.project(ds).X, expect.X)
        assert loaded.project(ds).layout == expect.layout

    def test_full_preprocessor_payload_loads(self, subset, tmp_path):
        ds, pre, artifact, _ = subset
        payload = artifact.to_dict()
        payload["preprocessor"] = pre.to_dict()  # as saved before pruning
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"checksum": hashlib.sha256(text.encode()).hexdigest(), "payload": text}))
        loaded = art.load_artifact(path)
        fitted = loaded.preprocessor
        assert set(fitted.scaler.means) | set(fitted.vectorizers) == set(artifact.selected)
        for row in ds.rows[:20]:
            a = art.predict_package(artifact, dict(row), explain_verdict=True)
            b = art.predict_package(loaded, dict(row), explain_verdict=True)
            assert a.probability == b.probability and a.attributions == b.attributions

    def test_column_order_follows_the_fit_not_the_dataset_manifest(self, subset):
        ds, _, artifact, _ = subset
        reordered = dataclasses.replace(ds.manifest, columns=ds.manifest.columns[::-1])
        other = TraceDataset(reordered, ds.ids, ds.rows, ds.labels)
        assert np.array_equal(artifact.project(other).X, artifact.project(ds).X)

    def test_evaluate_refuses_a_manifest_without_a_selected_feature(self, subset, tmp_path, capsys):
        ds, _, _, path = subset
        data, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
        save_dataset(ds, data)
        columns = tuple(c for c in ds.manifest.columns if c.name != NUMERIC)
        dataclasses.replace(ds.manifest, columns=columns, informative=()).save(manifest)
        capsys.readouterr()
        assert cli.main(["evaluate", "--artifact", str(path), "--data", str(data), "--manifest", str(manifest)]) == 2
        assert NUMERIC in capsys.readouterr().err

    def test_served_record_still_needs_an_unselected_feature(self, subset):
        ds, _, artifact, _ = subset
        server = service.make_server(artifact, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            record = dict(ds.rows[0])
            assert http(port, "/v1/analyze", {"features": record})[0] == 200
            del record["noise_0"]
            status, body = http(port, "/v1/analyze", {"features": record})
            assert status == 422 and body["column"] == "noise_0"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

"""The three workloads: served verdicts, explained verdicts and the offline
pipeline. Imported only after run.py has put the checkout's src/ on the path.

The program under test sees only what a user would hand it: the generated
CSV and manifest, the saved artifact, and HTTP request bodies.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from edysec import artifact, dataset, explain, featsel, pipeline
from edysec import neuralnet as nn
from edysec.preprocess import Preprocessor

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The ROADMAP's `text` shape: 36 source features, 18 of them text, width 306.
KINDS = {"numeric": 0.4, "categorical": 0.3, "pattern": 0.3}
# The served artifact keeps 17 of the 36 features (the paper's 52.78%
# reduction): 12 numeric and 5 text columns, projected width 92. 17 is above
# explain.KERNEL_ENUM_LIMIT, so explanations take the sampled path.
SERVED_FEATURES = (
    *(f"inf_{i}" for i in range(6)),
    *(f"noise_{i}" for i in range(6)),
    "noise_12", "noise_13", "noise_14", "noise_21", "noise_22",
)
MALFORMED_EVERY = 20  # one body in 20 is malformed: 400 and 422 alternate
SCHEDULE_LEN = 2000
EXPLAIN_CHECKS = 1  # explained verdicts per phase whose attributions are recomputed in process
SERVER_DEADLINE_S = 60.0


@dataclass(frozen=True)
class Sizes:
    rows: int = 3000
    setup_reps: int = 3
    pipeline_epochs: int = 3
    swarm_population: int = 6
    swarm_iterations: int = 4
    baseline_epochs: int = 5
    stability_runs: int = 3
    explain_count: int = 5
    probe_verdicts: int = 100
    # One explained verdict takes about 3 s and varies by about 15% from one
    # to the next on a shared 2-core box, so an explain run measures at least 4.
    min_explains: int = 4
    pipeline_reload_checks: int = 50


FULL = Sizes()
SMOKE = Sizes(
    rows=600, setup_reps=1,
    swarm_population=3, swarm_iterations=2, baseline_epochs=2,
    stability_runs=2, explain_count=1, probe_verdicts=20, min_explains=1,
    pipeline_reload_checks=10,
)


class CheckFailed(Exception):
    pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    dropped: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# -- corpus and artifact ------------------------------------------------------

def write_corpus(work: Path, seed: int, sizes: Sizes) -> tuple[Path, Path]:
    ds = dataset.generate_synthetic(sizes.rows, 6, 30, kinds=KINDS, seed=seed)
    csv_path, manifest_path = work / "corpus.csv", work / "manifest.json"
    dataset.save_dataset(ds, csv_path)
    ds.manifest.save(manifest_path)
    return csv_path, manifest_path


def load_corpus(csv_path: Path, manifest_path: Path):
    return dataset.load_dataset(csv_path, dataset.FeatureManifest.load(manifest_path))


def build_artifact(ds, seed: int, path: Path):
    """Train the served MLP on the fixed 17-feature subset and save it.
    Returns the held-out rows (validation and test) as request records."""
    splits = dataset.split_dataset(ds, seed=seed)
    pre = Preprocessor.fit(splits.train)
    train_sel = featsel.project(pre.transform(splits.train), SERVED_FEATURES)
    spec = nn.NetworkSpec.mlp(train_sel.width)
    params, _ = nn.train(
        spec, nn.TrainConfig(epochs=1, batch_size=64, seed=seed),
        train_sel.X, train_sel.labels,
    )
    model = artifact.ModelArtifact(
        manifest=ds.manifest,
        preprocessor=pre,
        selected=SERVED_FEATURES,
        selector_provenance={"method": "fixed", "d_j": len(SERVED_FEATURES)},
        params=params,
        fingerprint={"seed": seed, "model": "mlp"},
        background=explain.sample_background(train_sel, 100, seed),
    )
    artifact.save_artifact(model, path)
    held_out = [
        (pkg, row)
        for part in (splits.validation, splits.test)
        for pkg, row in zip(part.ids, part.rows)
    ]
    return held_out


# -- the served program ------------------------------------------------------

class Server:
    """An `edysec serve` subprocess on a free port. Always stop() it."""

    def __init__(self, artifact_path: Path, log_path: Path, spans_path: Path | None = None):
        cmd = [sys.executable]
        if spans_path is None:
            cmd += ["-m", "edysec.cli"]
        else:
            cmd += [str(HERE / "traced_serve.py"), str(spans_path)]
        cmd += ["serve", "--artifact", str(artifact_path), "--bind", "127.0.0.1:0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.log_path = log_path
        self.started = time.perf_counter()
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log, env=env,
        )
        self.port = None
        self.ready_s = None

    def wait_ready(self) -> "Server":
        deadline = self.started + SERVER_DEADLINE_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise CheckFailed(f"server exited with {self.proc.returncode}: {self._tail()}")
            if self.port is None:
                self.port = self._bound_port()
            elif self._healthy():
                self.ready_s = time.perf_counter() - self.started
                return self
            time.sleep(0.005)
        raise CheckFailed(f"server not healthy within {SERVER_DEADLINE_S}s: {self._tail()}")

    def _bound_port(self):
        with open(self.log_path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
        return None

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/v1/health")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def _tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("server peak RSS unavailable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


@dataclass
class Served:
    server: Server
    artifact_path: Path
    held_out: list
    setup_s: list
    ready_s: list


def set_up_served(work: Path, seed: int, sizes: Sizes, reps: int, keep: list) -> Served:
    """Corpus, artifact and server start until /v1/health answers, `reps`
    times; the last server is kept running. `keep` collects every server so
    the caller can stop them on any exit."""
    setup_s, ready_s = [], []
    for rep in range(reps):
        started = time.perf_counter()
        csv_path, manifest_path = write_corpus(work, seed, sizes)
        ds = load_corpus(csv_path, manifest_path)
        path = work / "served-artifact.json"
        held_out = build_artifact(ds, seed, path)
        server = Server(path, work / f"server-{rep}.log")
        keep.append(server)
        server.wait_ready()
        setup_s.append(time.perf_counter() - started)
        ready_s.append(server.ready_s)
        if rep < reps - 1:
            server.stop()
    return Served(server, path, held_out, setup_s, ready_s)


# -- request traffic ---------------------------------------------------------

@dataclass(frozen=True)
class Request:
    index: int
    body: bytes
    expect: int
    record: int | None  # index into held-out rows for well-formed bodies
    explain: bool = False


def schedule(held_out, seed: int, explain_verdict: bool, malformed: bool) -> list[Request]:
    rng = np.random.default_rng([seed, 7])
    requests = []
    for i in range(SCHEDULE_LEN):
        r = int(rng.integers(len(held_out)))
        pkg, row = held_out[r]
        payload = {"package": pkg, "features": dict(row)}
        if explain_verdict:
            payload["explain"] = True
        if malformed and i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            if (i // MALFORMED_EVERY) % 2 == 0:
                body = json.dumps(payload).encode()
                requests.append(Request(i, body[: len(body) // 2], 400, None))
            else:
                names = sorted(row)
                del payload["features"][names[int(rng.integers(len(names)))]]
                requests.append(Request(i, json.dumps(payload).encode(), 422, None))
            continue
        requests.append(Request(i, json.dumps(payload).encode(), 200, r, explain_verdict))
    return requests


@dataclass
class Outcome:
    request: Request
    status: int | None
    latency_s: float | None
    reply: dict | None


def closed_loop(port: int, requests: list[Request], connections: int, seconds: float,
                min_requests: int, count: int | None = None) -> tuple[list[Outcome], float]:
    """Each connection sends its next request once the previous reply is in.
    Runs for `seconds` (at least `min_requests`), or for exactly `count`."""
    lock = threading.Lock()
    next_index = [0]
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    deadline = started + seconds

    def take():
        with lock:
            i = next_index[0]
            if count is not None and i >= count:
                return None
            if count is None and i >= min_requests and time.perf_counter() >= deadline:
                return None
            next_index[0] += 1
            return requests[i % len(requests)]

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while (req := take()) is not None:
                headers = {"Content-Type": "application/json", "X-Request-Id": str(req.index)}
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/analyze", body=req.body, headers=headers)
                    resp = conn.getresponse()
                    data = resp.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    with lock:
                        outcomes.append(Outcome(req, None, None, None))
                    continue
                latency = time.perf_counter() - sent
                try:
                    reply = json.loads(data)
                except ValueError:
                    reply = None
                with lock:
                    outcomes.append(Outcome(req, resp.status, latency, reply))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    outcomes.sort(key=lambda o: o.request.index)
    return outcomes, elapsed


def check_outcomes(outcomes, held_out, reference, tally: Tally, fault: bool) -> None:
    """Statuses, and every 200's probability and label against in-process
    predict_package on the same artifact; sampled attributions too."""
    expected_cache: dict = {}
    explained_checked = 0
    for o in outcomes:
        tally.attempted += 1
        req = o.request
        if o.status is None:
            tally.dropped += 1
            tally.fail(f"request {req.index}: no response")
            continue
        expect = req.expect + (1 if fault else 0)
        if o.status != expect:
            tally.fail(f"request {req.index}: status {o.status}, expected {expect}")
            continue
        if o.status != 200:
            tally.rejected += 1
            continue
        pkg, row = held_out[req.record]
        want_attr = req.explain and explained_checked < EXPLAIN_CHECKS
        key = (req.record, want_attr)
        if key not in expected_cache:
            expected_cache[key] = artifact.predict_package(
                reference, row, package=pkg, explain_verdict=want_attr
            )
        expected = expected_cache[key]
        reply = o.reply or {}
        if reply.get("probability") != expected.probability or reply.get("verdict") != expected.verdict:
            tally.fail(f"request {req.index}: verdict {reply.get('probability')!r}/{reply.get('verdict')!r} "
                       f"!= in-process {expected.probability!r}/{expected.verdict!r}")
            continue
        if req.explain:
            if not reply.get("attributions"):
                tally.fail(f"request {req.index}: explained verdict without attributions")
                continue
            if want_attr:
                explained_checked += 1
                if reply["attributions"] != expected.attributions:
                    tally.fail(f"request {req.index}: attributions differ from in-process kernel_shap")


def latency_figures(outcomes, elapsed: float) -> dict:
    answered = [o.latency_s for o in outcomes if o.latency_s is not None]
    if not answered:
        raise CheckFailed("no request was answered")
    return timing_figures(answered, elapsed)


def timing_figures(durations_s, elapsed: float) -> dict:
    """Median, 99th percentile, max and rate of one workload's operations."""
    ms = np.asarray(durations_s) * 1e3
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "p99_ms": float(np.percentile(ms, 99)),
        "max_ms": float(ms.max()),
        "n": len(ms),
        "per_s": len(ms) / elapsed,
    }


# -- pipeline -------------------------------------------------------------------

def pipeline_options(seed: int, sizes: Sizes) -> pipeline.PipelineOptions:
    return pipeline.PipelineOptions(
        seed=seed,
        selectors=featsel.METHODS,
        swarm=featsel.SwarmConfig(
            population=sizes.swarm_population, iterations=sizes.swarm_iterations, seed=seed
        ),
        baseline=featsel.BaselineConfig(epochs=sizes.baseline_epochs, seed=seed),
        models=("mlp", "nn"),
        epochs=sizes.pipeline_epochs,
        stability_mode="seeds",
        stability_runs=sizes.stability_runs,
        explain_count=sizes.explain_count,
    )


def run_pipeline_once(work: Path, csv_path: Path, manifest_path: Path, options) -> tuple[float, object, Path]:
    """What `edysec pipeline` does: ingest, run, emit reports, save artifact."""
    out_path = work / "pipeline-artifact.json"
    started = time.perf_counter()
    ds = load_corpus(csv_path, manifest_path)
    result = pipeline.run_pipeline(ds, options)
    pipeline.emit_reports(result, work / "reports")
    artifact.save_artifact(result.artifact, out_path)
    return time.perf_counter() - started, result, out_path


def check_pipeline(result, saved: Path, tally: Tally, checks: int, fault: bool) -> None:
    tally.attempted += 1
    floor = 0.98 + (1.0 if fault else 0.0)
    if not result.evaluation.f1 >= floor:
        tally.fail(f"pipeline test F1 {result.evaluation.f1:.4f} < {floor}")
        return
    reloaded = artifact.load_artifact(saved)
    test = result.splits.test
    for pkg, row in list(zip(test.ids, test.rows))[:checks]:
        a = artifact.predict_package(result.artifact, row, package=pkg)
        b = artifact.predict_package(reloaded, row, package=pkg)
        if (a.probability, a.verdict) != (b.probability, b.verdict):
            tally.fail(f"reloaded artifact scores {pkg} {b.probability!r}, in memory {a.probability!r}")
            return


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

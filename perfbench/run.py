"""edysec benchmark: served verdicts, explained verdicts and the offline pipeline.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):
  verdict   closed loop, 2 keep-alive connections, POST /v1/analyze; 1 body
            in 20 is malformed and must get its 400 or 422
  explain   closed loop, 1 connection, every request with "explain": true
  pipeline  in-process load_dataset -> run_pipeline -> emit_reports ->
            save_artifact on the generated corpus

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a separate traced pass carries the per-layer metrics. Every output
is checked; a failed check makes the run exit 1 with "correct": false.
--smoke shrinks every size for the benchmark's own test, and --fault-check
inverts the expected outputs so that the checks must fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verdict", "explain", "pipeline")
CONNECTIONS = {"verdict": 2, "explain": 1}

# End-to-end metrics, the same names on every workload. `op` is the unit of
# work a user waits on: one verdict, one explained verdict, or one whole
# pipeline run. The ROADMAP's per-workload names map onto them as
# verdict_p50_ms/verdicts_per_s, explain_p50_ms and pipeline_s. A tail
# percentile is printed (verdict_p99_ms) but not gated: explain and pipeline
# runs hold too few ops for one, and the set must be the same everywhere.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Per-layer metrics from the traced run: (name, unit, better, end-to-end
# metric and workload it should move). BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = (
    ("service.overhead_ms", "ms", "lower", "op_p50_ms/ops_per_s on verdict"),
    ("service.rejected", "count", "higher", "ok_ratio everywhere"),
    ("service.dropped", "count", "lower", "ok_ratio everywhere"),
    ("cli.serve_ready_s", "s", "lower", "setup_s on verdict/explain"),
    ("artifact.load_ms", "ms", "lower", "setup_s on verdict/explain"),
    ("artifact.bytes", "count", "lower", "setup_s on verdict/explain, op_p50_ms on pipeline"),
    ("artifact.save_ms", "ms", "lower", "setup_s on verdict/explain, op_p50_ms on pipeline"),
    ("artifact.predict_ms", "ms", "lower", "op_p50_ms on verdict"),
    ("dataset.load_s", "s", "lower", "op_p50_ms on pipeline"),
    ("dataset.split_s", "s", "lower", "op_p50_ms on pipeline"),
    ("preprocess.fit_s", "s", "lower", "op_p50_ms on pipeline"),
    ("preprocess.transform_s", "s", "lower", "op_p50_ms on pipeline"),
    ("preprocess.transform_ms", "ms", "lower", "op_p50_ms on verdict"),
    ("preprocess.columns_per_verdict", "count", "lower", "op_p50_ms on verdict"),
    ("featsel.project_ms", "ms", "lower", "op_p50_ms on verdict"),
    ("featsel.anova_s", "s", "lower", "op_p50_ms on pipeline"),
    ("featsel.corr_s", "s", "lower", "op_p50_ms on pipeline"),
    ("featsel.importance_s", "s", "lower", "op_p50_ms on pipeline"),
    ("featsel.pso_s", "s", "lower", "op_p50_ms on pipeline"),
    ("featsel.woa_s", "s", "lower", "op_p50_ms on pipeline"),
    ("featsel.fitness_calls", "count", "lower", "op_p50_ms on pipeline"),
    ("featsel.baseline_trainings", "count", "lower", "op_p50_ms on pipeline"),
    ("featsel.fitness_hit_ratio", "ratio", "higher", "op_p50_ms on pipeline"),
    ("neuralnet.train_s", "s", "lower", "op_p50_ms on pipeline"),
    ("neuralnet.steps", "count", "lower", "op_p50_ms on pipeline"),
    ("neuralnet.forward_ms", "ms", "lower", "op_p50_ms on pipeline"),
    ("neuralnet.backward_ms", "ms", "lower", "op_p50_ms on pipeline"),
    ("neuralnet.adam_ms", "ms", "lower", "op_p50_ms on pipeline"),
    ("neuralnet.predict_ms", "ms", "lower", "op_p50_ms on verdict"),
    ("neuralnet.explain_rows", "count", "lower", "op_p50_ms on explain"),
    ("neuralnet.explain_predict_ms", "ms", "lower", "op_p50_ms on explain"),
    ("metrics.s", "s", "lower", "nothing (op_p50_ms on pipeline at most)"),
    ("stability.train_s", "s", "lower", "op_p50_ms on pipeline"),
    ("stability.report_s", "s", "lower", "op_p50_ms on pipeline"),
    ("explain.kernel_shap_ms", "ms", "lower", "op_p50_ms on explain"),
    ("explain.self_ms", "ms", "lower", "op_p50_ms on explain"),
    ("explain.coalitions", "count", "lower", "op_p50_ms on explain"),
    ("explain.pipeline_s", "s", "lower", "op_p50_ms on pipeline"),
    ("pipeline.select_s", "s", "lower", "op_p50_ms on pipeline"),
    ("pipeline.emit_s", "s", "lower", "op_p50_ms on pipeline"),
    ("trace.overhead_pct", "%", "lower", "traced minus untraced op_p50_ms of the workload"),
)


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((SRC / "edysec").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def _stop_all(servers) -> None:
    for server in servers:
        server.stop()


def _served_phase(w, workload, port, held_out, seed, seconds, sizes, count=None):
    requests = w.schedule(held_out, seed, explain_verdict=(workload == "explain"),
                          malformed=(workload == "verdict"))
    min_ops = sizes.min_explains if workload == "explain" else 1
    return w.closed_loop(port, requests, CONNECTIONS[workload], seconds, min_ops, count)


def run_untraced(w, workload, seed, seconds, sizes, work, fault):
    """End-to-end metrics with tracing off."""
    tally = w.Tally()
    if workload == "pipeline":
        setup_s = []
        for _ in range(sizes.setup_reps):
            started = time.perf_counter()
            csv_path, manifest_path = w.write_corpus(work, seed, sizes)
            setup_s.append(time.perf_counter() - started)
        options = w.pipeline_options(seed, sizes)
        times = []
        while not times or sum(times) < seconds:
            elapsed, result, saved = w.run_pipeline_once(work, csv_path, manifest_path, options)
            times.append(elapsed)
            w.check_pipeline(result, saved, tally, sizes.pipeline_reload_checks, fault)
        figures = w.timing_figures(times, sum(times))
        rss = w.own_peak_rss_mb()
        roadmap_names = {"pipeline_s": (figures["p50_ms"] / 1e3, "s"),
                         "pipeline_runs": (figures["n"], "count")}
    else:
        servers = []
        try:
            served = w.set_up_served(work, seed, sizes, sizes.setup_reps, servers)
            setup_s = served.setup_s
            outcomes, elapsed = _served_phase(
                w, workload, served.server.port, served.held_out, seed, seconds, sizes)
            rss = served.server.peak_rss_mb()
        finally:
            _stop_all(servers)
        reference = w.artifact.load_artifact(served.artifact_path)
        w.check_outcomes(outcomes, served.held_out, reference, tally, fault)
        figures = w.latency_figures(outcomes, elapsed)
        if workload == "verdict":
            roadmap_names = {
                "verdict_p50_ms": (figures["p50_ms"], "ms"),
                "verdict_p99_ms": (figures["p99_ms"], "ms"),
                "verdicts_per_s": (figures["per_s"], "1/s"),
                "verdict_requests": (figures["n"], "count"),
            }
        else:
            roadmap_names = {
                "explain_p50_ms": (figures["p50_ms"], "ms"),
                "explain_max_ms": (figures["max_ms"], "ms"),
                "explain_requests": (figures["n"], "count"),
            }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": figures["p50_ms"],
        "ops_per_s": figures["per_s"],
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    roadmap_names["error_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
    extra = {"samples": figures["n"], "setup_samples": len(setup_s), "roadmap_names": roadmap_names}
    return tally, metrics, extra


def run_traced(w, tracing, workload, seed, seconds, sizes, work, fault):
    """Per-layer metrics. First W's own traffic untraced, then the same
    traffic traced, then every other layer once, traced."""
    tally = w.Tally()
    servers = []
    half = seconds / 2.0
    csv_path, manifest_path = w.write_corpus(work, seed, sizes)
    options = w.pipeline_options(seed, sizes)
    tracer = tracing.Tracer("bench")
    spans_path = work / "server-spans.jsonl"
    served_outcomes = []
    try:
        served = w.set_up_served(work, seed, sizes, 1, servers)
        reference = w.artifact.load_artifact(served.artifact_path)
        if workload == "pipeline":
            untraced_s, result, saved = w.run_pipeline_once(work, csv_path, manifest_path, options)
            w.check_pipeline(result, saved, tally, sizes.pipeline_reload_checks, fault)
            untraced_ms = untraced_s * 1e3
        else:
            outcomes, elapsed = _served_phase(
                w, workload, served.server.port, served.held_out, seed, half, sizes)
            served_outcomes.append(outcomes)
            untraced_ms = w.latency_figures(outcomes, elapsed)["p50_ms"]
        served.server.stop()

        tracing.instrument(tracer)
        w.artifact.save_artifact(reference, work / "traced-artifact.json")
        server = w.Server(served.artifact_path, work / "server-traced.log", spans_path)
        servers.append(server)
        server.wait_ready()
        phases = {}
        for phase in ("verdict", "explain"):
            if phase == workload:
                outcomes, elapsed = _served_phase(
                    w, phase, server.port, served.held_out, seed, half, sizes)
            else:
                count = sizes.probe_verdicts if phase == "verdict" else 1
                outcomes, elapsed = _served_phase(
                    w, phase, server.port, served.held_out, seed, 0.0, sizes, count=count)
            served_outcomes.append(outcomes)
            phases[phase] = outcomes, elapsed
        with tracer.span("bench.pipeline", request="pipeline"):
            traced_s, result, saved = w.run_pipeline_once(work, csv_path, manifest_path, options)
    finally:
        tracer.restore()
        _stop_all(servers)
    w.check_pipeline(result, saved, tally, sizes.pipeline_reload_checks, fault)
    for outcomes in served_outcomes:
        w.check_outcomes(outcomes, served.held_out, reference, tally, fault)

    server_spans = tracing.load_spans(spans_path)
    layers = tracing.verdict_layers(server_spans)
    layers.update(tracing.pipeline_layers(tracer.spans, seed, options.stability_runs))
    verdict_ok = [o.latency_s for o in phases["verdict"][0] if o.status == 200]
    http_p50_ms = statistics.median(verdict_ok) * 1e3 if verdict_ok else 0.0
    if workload == "pipeline":
        traced_ms = traced_s * 1e3
    else:
        traced_ms = w.latency_figures(*phases[workload])["p50_ms"]
    bench = tracing.SpanIndex(tracer.spans)
    save = next(s for s in bench.named("artifact.save_artifact")
                if not bench.has_ancestor(s, "bench.pipeline"))
    layers.update({
        "service.overhead_ms": http_p50_ms - layers["artifact.predict_ms"],
        "service.rejected": tally.rejected,
        "service.dropped": tally.dropped,
        "cli.serve_ready_s": served.ready_s[0],
        "artifact.bytes": served.artifact_path.stat().st_size,
        "artifact.save_ms": (save["end"] - save["start"]) * 1e3,
        "trace.overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100.0,
    })
    all_spans = sorted(tracer.spans + server_spans, key=lambda s: (s["process"], s["start"]))
    tracing.write_spans(work / "spans.jsonl", all_spans)
    extra = {"spans": len(all_spans), "untraced_op_p50_ms": untraced_ms, "traced_op_p50_ms": traced_ms}
    return tally, {name: layers[name] for name, *_ in PER_LAYER}, extra


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes for the benchmark's own test")
    parser.add_argument("--fault-check", action="store_true",
                        help="expect deliberately wrong outputs, so every check must fail")
    args = parser.parse_args(argv)

    if not (SRC / "edysec" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no edysec sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _interrupt)
    import tracing
    import workloads as w

    sizes = w.SMOKE if args.smoke else w.FULL
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = run_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    try:
        if args.trace:
            tally, metrics, extra = run_traced(
                w, tracing, args.workload, args.seed, args.seconds, sizes, work, args.fault_check)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            tally, metrics, extra = run_untraced(
                w, args.workload, args.seed, args.seconds, sizes, work, args.fault_check)
            units = dict(END_TO_END)
            for name, (value, unit) in extra["roadmap_names"].items():
                print(f"{name} {value:.6g} {unit}")
    except w.CheckFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        if (work / "spans.jsonl").exists():
            shutil.move(str(work / "spans.jsonl"), str(run_dir / "spans.jsonl"))
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, machine=info,
                  extra={k: v for k, v in extra.items() if k != "roadmap_names"})
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

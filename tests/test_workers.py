"""The worker pool: job order, one BLAS thread per worker, typed errors, no
child left behind, workers that die with their parent, and pipeline outputs
that do not depend on the number of workers."""

import dataclasses
import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import worker_jobs
from edysec import artifact as art
from edysec import cli, featsel, pipeline, workers
from edysec.dataset import FeatureColumn, generate_synthetic, load_dataset, parse_cell, save_dataset, split_dataset
from edysec.errors import BadNumeric, NonFiniteInput, WorkerDied

SRC = Path(__file__).resolve().parent.parent / "src"


def children() -> set[int]:
    """Pids of this process's children, zombies included."""
    found = set()
    listed = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if listed:
        for path in listed:
            with open(path) as fh:
                found.update(int(pid) for pid in fh.read().split())
        return found
    for stat in glob.glob("/proc/[0-9]*/stat"):  # kernels without the children files
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            found.add(int(stat.split("/")[2]))
    return found


def gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def small_options(**overrides):
    base = dict(
        epochs=2,
        models=("mlp", "nn"),
        stability_mode="seeds",
        stability_runs=2,
        explain_count=2,
        baseline=featsel.BaselineConfig(epochs=2),
        swarm=featsel.SwarmConfig(population=4, iterations=2),
    )
    base.update(overrides)
    return pipeline.PipelineOptions(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small corpus written to CSV, as the CLI reads it."""
    out = tmp_path_factory.mktemp("corpus")
    ds = generate_synthetic(160, 3, 5, kinds={"numeric": 0.5, "categorical": 0.25, "pattern": 0.25}, seed=4)
    save_dataset(ds, out / "data.csv")
    ds.manifest.save(out / "manifest.json")
    return out, load_dataset(out / "data.csv", ds.manifest)


class TestPool:
    def test_results_in_job_order_from_one_blas_thread_workers(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        with workers.Pool(8) as pool:
            assert len(pool._workers) == min(workers.usable_cpus(), 8)
            assert pool.map(os.getenv, [(name,) for name in workers.BLAS_THREAD_VARS]) == ["1", "1", "1"]
            quotients = pool.map(divmod, [(n,) for n in range(1, 8)], common=(100,))
            assert quotients == [divmod(100, n) for n in range(1, 8)]
            assert set(pool.map(os.getppid, [()] * 4)) == {os.getpid()}
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert children() == set()

    def test_workers_import_the_pipeline_before_the_first_job(self, monkeypatch):
        # the job's module is on the workers' path, and imports no edysec module
        here = str(Path(__file__).resolve().parent)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (here, os.environ.get("PYTHONPATH")) if p))
        with workers.Pool(1) as pool:
            assert pool.map(worker_jobs.loaded, [("edysec.pipeline",), ("edysec.service",)]) == [True, False]
        assert children() == set()

    def test_workers_capped_by_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        with workers.Pool(3) as pool:
            assert len(pool._workers) == 3
        with workers.Pool(0) as pool:
            assert len(pool._workers) == 1

    def test_typed_error_reaches_the_caller(self):
        column = FeatureColumn("size", "numeric", "Filetop")
        with pytest.raises(BadNumeric) as raised:
            parse_cell(column, "many", 7)
        with workers.Pool(2) as pool:
            with pytest.raises(BadNumeric) as got:  # the first error in job order
                pool.map(parse_cell, [(column, "1.5", 1), (column, "many", 7), (column, "x", 9)])
            assert pool.map(parse_cell, [(column, "2", 0)]) == [2.0]  # the pool survives a job's error
        assert str(got.value) == str(raised.value)
        assert (got.value.row, got.value.column, got.value.value) == (7, "size", "many")
        assert children() == set()

    def test_a_dead_worker_fails_the_map_and_closes_the_pool(self):
        with workers.Pool(2) as pool:
            with pytest.raises(WorkerDied, match=r"exited \(code 3\)"):
                pool.map(os._exit, [(3,), (3,)])
            assert children() == set()
            with pytest.raises(RuntimeError, match="closed"):
                pool.map(os.getpid, [()])


class TestPipelineWorkers:
    def test_outputs_do_not_depend_on_the_worker_count(self, corpus, tmp_path, monkeypatch):
        _, ds = corpus
        started = []
        original = workers._Worker.__init__

        def counted(self, env):
            started.append(1)
            original(self, env)

        monkeypatch.setattr(workers._Worker, "__init__", counted)
        trees = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            started.clear()
            result = pipeline.run_pipeline(ds, small_options())
            assert len(started) == len(cpus)
            out = tmp_path / str(len(cpus))
            pipeline.emit_reports(result, out)
            art.save_artifact(result.artifact, out / "artifact.json")
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0].keys() == trees[1].keys() and "stability.json" in trees[0]
        assert trees[0] == trees[1]

    def test_train_writes_the_pipeline_weights(self, corpus, tmp_path):
        out, ds = corpus
        options = small_options(
            models=("mlp",), stability_mode="off", epochs=3, batch_size=32, learning_rate=2e-3, seed=3
        )
        result = pipeline.run_pipeline(ds, options)
        features, model = tmp_path / "features.json", tmp_path / "model.json"
        features.write_text(json.dumps(list(result.chosen.selected)))
        assert cli.main([
            "train", "--data", str(out / "data.csv"), "--manifest", str(out / "manifest.json"),
            "--model", result.best_model, "--epochs", "3", "--batch", "32", "--lr", "2e-3", "--seed", "3",
            "--features", str(features), "--artifact", str(model),
        ]) == 0
        trained = art.load_artifact(model)
        assert trained.params.spec == result.artifact.params.spec
        assert np.array_equal(trained.params.flat, result.artifact.params.flat)

    def test_error_in_a_worker_keeps_its_class_and_message(self, corpus, tmp_path):
        # finite in the CSV; its z-score is infinite in float32, and the
        # stability runs score the test rows in the workers
        _, ds = corpus
        options = small_options(selectors=("anova", "corr"))
        chosen = pipeline.run_pipeline(ds, options).chosen
        splits = split_dataset(ds, options.ratios, options.seed)
        column = next(name for name in chosen.selected if name in ds.manifest.numeric_columns())
        row = ds.ids.index(splits.test.ids[0])
        rows = list(ds.rows)
        rows[row] = {**rows[row], column: 1e39}
        path = tmp_path / "data.csv"
        save_dataset(dataclasses.replace(ds, rows=tuple(rows)), path)
        with pytest.raises(NonFiniteInput) as raised:
            pipeline.run_pipeline(load_dataset(path, ds.manifest), options)
        assert str(raised.value) == "input row 0 is not finite in float32"
        assert any("worker process" in note for note in getattr(raised.value, "__notes__", ["worker process"]))
        assert children() == set()

    def test_no_child_is_left_after_a_return_or_an_interrupt(self, corpus, monkeypatch):
        _, ds = corpus
        pipeline.run_pipeline(ds, small_options(stability_mode="off"))
        assert children() == set()

        def interrupt(results):
            raise KeyboardInterrupt

        monkeypatch.setattr(featsel, "choose_selector", interrupt)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_pipeline(ds, small_options(stability_mode="off"))
        assert children() == set()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers follow their parent through prctl")
@pytest.mark.parametrize("busy", [False, True])
def test_a_worker_exits_within_a_second_of_its_parent(busy):
    # The parent starts two workers, prints their pids, then is killed with
    # no chance to stop them, while they are idle or in the middle of a job.
    code = (
        "import os, signal, threading, time\n"
        "from edysec import workers\n"
        "pool = workers.Pool(2)\n"
        "print(' '.join(str(w.proc.pid) for w in pool._workers), flush=True)\n"
        "threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGKILL)).start()\n"
        f"pool.map(time.sleep, [(60,), (60,)]) if {busy} else time.sleep(60)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env)
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert parent.wait(timeout=30) == -signal.SIGKILL
    parent.stdout.close()
    died = time.monotonic()
    while not all(gone(pid) for pid in pids) and time.monotonic() - died < 5.0:
        time.sleep(0.02)
    assert all(gone(pid) for pid in pids)
    assert time.monotonic() - died < 1.5


def test_importing_the_cli_loads_no_worker_machinery():
    # `edysec serve` imports edysec.cli and never starts a worker; subprocess,
    # signal and traceback would add about 0.3 MB to the service's resident memory.
    code = "import edysec.cli, sys; print([m for m in ('subprocess', 'signal', 'traceback') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

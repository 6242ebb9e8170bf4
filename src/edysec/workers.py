"""Worker processes for independent trainings.

A `Pool` starts one `python -m edysec.workers` process per usable CPU, capped
by the number of jobs it is sized for. Every worker runs with one BLAS
thread, so a training's bits do not depend on how many CPUs the host has.
Jobs and results travel as pickles over each worker's stdin and stdout, and
the calling thread alone dispatches and reads them: the pool has no helper
thread. A worker exits when its stdin closes, and at once when the thread
that started it dies.
"""

from __future__ import annotations

import os
import pickle
import select
import sys

from .errors import WorkerDied

# subprocess, signal and traceback are imported where they are used: the
# verdict service imports this module (through edysec.cli) and never starts a
# worker.

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLOSE_TIMEOUT_S = 5.0  # an idle worker exits at once on EOF; a stuck one is killed after this
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # the directory holding this edysec
_PR_SET_PDEATHSIG = 1


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dump(message, stream) -> None:
    # Streamed: a large array goes from its own buffer to the pipe, and the
    # reader's unpickler fills the new array straight from it.
    pickle.dump(message, stream, protocol=pickle.HIGHEST_PROTOCOL)
    stream.flush()


class _Worker:
    def __init__(self, env: dict):
        import subprocess

        self.proc = subprocess.Popen(
            [sys.executable, "-m", "edysec.workers", str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.fn = self.common = None  # the context it holds

    def send(self, message) -> None:
        try:
            _dump(message, self.proc.stdin)
        except BrokenPipeError:
            raise self._died() from None

    def receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise self._died() from None

    def _died(self) -> WorkerDied:
        import subprocess

        try:
            code = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            code = "unknown"
        return WorkerDied(f"worker process {self.proc.pid} exited (code {code})")


class Pool:
    """Worker processes for `map`; close it (or use it as a context manager)
    so that no worker outlives the call that needed it. Start it from the
    thread that maps and closes it: a worker dies with that thread."""

    def __init__(self, jobs: int):
        env = dict(os.environ)  # the caller's environment is left as it is
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
        self._workers: list[_Worker] = []
        try:
            for _ in range(max(1, min(usable_cpus(), jobs))):
                self._workers.append(_Worker(env))
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)

    def map(self, fn, jobs, common: tuple = ()) -> list:
        """`fn(*common, *job)` for every job, in the workers; the results in
        job order. `fn` must be importable by name. `common` is sent to a
        worker once and kept there until another map brings another
        (fn, common) pair, so it must not change between maps. When jobs
        raise, every job still runs and the first error in job order is
        raised, with its class and message."""
        if not self._workers:
            raise RuntimeError("the worker pool is closed")
        jobs = list(jobs)
        results, errors = [None] * len(jobs), {}
        todo = iter(enumerate(jobs))
        busy = {}  # worker stdout fd -> (worker, job index)

        def dispatch(worker):
            for i, job in todo:  # at most one
                if worker.fn is not fn or worker.common is not common:
                    worker.send(("context", (fn, common)))
                    worker.fn, worker.common = fn, common
                worker.send(("job", job))
                busy[worker.proc.stdout.fileno()] = worker, i
                return

        try:
            for worker in self._workers:
                dispatch(worker)
            while busy:
                ready, _, _ = select.select(list(busy), [], [])
                for fd in ready:
                    worker, i = busy.pop(fd)
                    ok, value = worker.receive()
                    if ok:
                        results[i] = value
                    else:
                        errors[i] = value
                    dispatch(worker)
        except BaseException:  # a dead worker, or an interrupt: the protocol state is lost
            self.close(kill=True)
            raise
        if errors:
            raise errors[min(errors)]
        return results

    def close(self, kill: bool = False) -> None:
        """Stop every worker and reap it: idle ones exit on end of input,
        and `kill` stops busy ones at once."""
        import subprocess

        workers, self._workers = self._workers, []
        for worker in workers:
            if kill:
                worker.proc.kill()
            try:
                worker.proc.stdin.close()
            except BrokenPipeError:  # a message cut short by the kill or by a dead worker
                pass
        for worker in workers:
            try:
                worker.proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()
            worker.proc.stdout.close()


def _portable(exc: Exception) -> Exception:
    """`exc` with the worker's traceback as a note, or, when it does not
    survive pickling, a RuntimeError that names it."""
    import traceback

    trace = traceback.format_exc()
    if hasattr(exc, "add_note"):
        exc.add_note(f"raised in worker process {os.getpid()}:\n{trace}")
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__} in worker process {os.getpid()}: {exc}\n{trace}")


def serve(parent_pid: int) -> None:
    """A worker's loop: read messages from stdin until it closes, reply on stdout."""
    import signal

    if sys.platform.startswith("linux"):  # killed when the thread that started it dies
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:  # the parent died before the signal was armed
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent takes Ctrl-C and stops its workers
    # Every function the pipeline maps is in or imported by edysec.pipeline:
    # importing it now overlaps the caller's data preparation, where the
    # first job's context would otherwise wait on it.
    import edysec.pipeline  # noqa: F401

    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, never into the replies
    requests = sys.stdin.buffer
    fn, common = None, ()
    while True:
        try:
            kind, payload = pickle.load(requests)
        except EOFError:  # the pool closed
            return
        if kind == "context":
            fn, common = payload
            continue
        try:
            reply = (True, fn(*common, *payload))
        except Exception as exc:
            reply = (False, _portable(exc))
        _dump(reply, replies)


if __name__ == "__main__":
    serve(int(sys.argv[1]))

"""Per-step profile of training on one BLAS thread, as a pipeline worker
trains: the median forward, backward and Adam time of a step, the median Adam
time of an idle step (a batch fitted within the clamp, which has no
gradients), and the mean time of a whole step, for each trained network shape.

The shapes are the `mlp` and `nn` presets at batch 16 (the pipeline's
default) and the selector baseline (featsel.BASELINE_HIDDEN_UNITS units at
featsel.BASELINE_BATCH_SIZE), each at input widths 92 (the served 17-feature
subset), 770 and 1543 (the paper's input widths). Each runs STEPS seeded
steps of `train`'s loop on random rows and random labels, after WARMUP
steps that are not timed. Adam's medians are steps without their moment
floors; the mean step includes the floor steps. STEPS idle steps follow the
busy ones, from the weights and moments those left.

With `--against <checkout>` it is an interleaved A/B of this checkout's step
and another's: the other checkout's `edysec` is loaded in the same process
under the package name `edysec_other`, both sides start from the same weights
and dropout seed and take the same seeded batch on each step, and the side
that runs first alternates from step to step. Each side's weights and Adam
moments start on a page boundary, so that no side's elementwise passes gain
or lose from where its buffers happen to land. It prints each side's figures
and their ratio, this over other, so host drift falls on both sides alike.

    PYTHONPATH=src python tests/step_profile.py              # every shape
    PYTHONPATH=src python tests/step_profile.py mlp:92 nn:770
    PYTHONPATH=src python tests/step_profile.py --against <checkout> mlp:92 nn:92

All nine shapes take about 17 s on one core, and twice that as an A/B.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import mmap  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from edysec import featsel  # noqa: E402
from edysec import neuralnet as nn  # noqa: E402

OTHER = "edysec_other"  # the package name --against loads the other checkout's edysec under
PRESETS = {  # each side builds its spec from its own neuralnet module, `net`
    "mlp": (lambda net, width: net.NetworkSpec.mlp(width), 16),
    "nn": (lambda net, width: net.NetworkSpec.nn(width), 16),
    "baseline": (lambda net, width: net.NetworkSpec(width, (net.LayerSpec(featsel.BASELINE_HIDDEN_UNITS),)),
                 featsel.BASELINE_BATCH_SIZE),
}
WIDTHS = (92, 770, 1543)
WARMUP, STEPS = 16, 400
ROWS = 1024
TIMES = ("forward", "backward", "adam", "idle", "step")


def load_other(checkout: str):
    """The `neuralnet` module of another checkout's edysec, imported as OTHER."""
    package = Path(checkout).resolve() / "src" / "edysec"
    spec = importlib.util.spec_from_file_location(OTHER, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = module  # its relative imports resolve under OTHER
    spec.loader.exec_module(module)
    return importlib.import_module(f"{OTHER}.neuralnet")


def page_aligned(values: np.ndarray) -> np.ndarray:
    """A copy of `values` that starts on a page boundary."""
    raw = np.empty(values.nbytes + mmap.PAGESIZE, dtype=np.uint8)
    start = -raw.ctypes.data % mmap.PAGESIZE
    aligned = raw[start : start + values.nbytes].view(values.dtype)
    aligned[...] = values
    return aligned


@dataclass
class Side:
    """One neuralnet module's training state and step times."""

    nn: object
    params: object
    state: object
    cfg: object
    dropout_rng: np.random.Generator
    times: dict = field(default_factory=lambda: {name: [] for name in TIMES})


def profile(preset: str, width: int, modules: list) -> list[dict]:
    """The step times of each neuralnet module in `modules` at one shape. All
    start from the same weights and dropout seed and take the same batch on
    each step; on step t the sides run in turn, starting with side t mod k."""
    make_spec, batch = PRESETS[preset]
    rng = np.random.default_rng([width, batch])
    X = rng.normal(size=(ROWS, width)).astype(nn.NETWORK_DTYPE)
    y = rng.integers(0, 2, ROWS).astype(nn.NETWORK_DTYPE)
    flat = nn.init_network(make_spec(nn, width), seed=0).flat.astype(nn.NETWORK_DTYPE)
    sides = []
    for module in modules:
        params = module.NetworkParams(make_spec(module, width), page_aligned(flat))
        state = module.AdamState(page_aligned(np.zeros_like(flat)), page_aligned(np.zeros_like(flat)))
        sides.append(Side(module, params, state, module.TrainConfig(batch_size=batch), np.random.default_rng(1)))

    def in_turn(t):
        return sides[t % len(sides):] + sides[: t % len(sides)]

    for t in range(1, WARMUP + STEPS + 1):
        idx = rng.integers(0, ROWS, batch)
        for s in in_turn(t):
            t0 = time.perf_counter()
            _, cache = s.nn.forward_batch(s.params, X[idx], train=True, rng=s.dropout_rng)
            t1 = time.perf_counter()
            grads = s.nn.backward(s.params, cache, y[idx])
            t2 = time.perf_counter()
            s.nn.adam_step(s.params, grads, s.state, t, s.cfg)
            t3 = time.perf_counter()
            if t > WARMUP:
                for name, ms in (("forward", t1 - t0), ("backward", t2 - t1), ("adam", t3 - t2), ("step", t3 - t0)):
                    s.times[name].append(ms * 1e3)
    for t in range(WARMUP + STEPS + 1, WARMUP + 2 * STEPS + 1):
        for s in in_turn(t):
            t0 = time.perf_counter()
            s.nn.adam_step(s.params, None, s.state, t, s.cfg)
            s.times["idle"].append((time.perf_counter() - t0) * 1e3)
    return [{**{name: float(np.median(s.times[name])) for name in TIMES[:-1]},
             "step": float(np.mean(s.times["step"])), "params": s.params.flat.size, "batch": batch}
            for s in sides]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="per-step training profile on one BLAS thread")
    parser.add_argument("shapes", nargs="*", help="preset:width, for example mlp:92 (default: every shape)")
    parser.add_argument("--against", metavar="CHECKOUT", help="another checkout to interleave with this one")
    args = parser.parse_args(argv)
    shapes = [(p, int(w)) for p, w in (arg.split(":") for arg in args.shapes)] or [
        (p, w) for p in PRESETS for w in WIDTHS
    ]
    modules = [nn] if args.against is None else [nn, load_other(args.against)]
    print(f"{'preset':>8} {'width':>5} {'batch':>5} {'params':>9} {'side':>5} {'forward':>8} {'backward':>8}"
          f" {'adam':>8} {'idle':>8} {'step':>8}   (ms; step is the busy mean, the others medians)")
    for preset, width in shapes:
        this, *other = profile(preset, width, modules)
        rows = [("this", this)]
        if other:
            rows = [("other", other[0]), ("this", this), ("ratio", {k: this[k] / other[0][k] for k in TIMES})]
        for side, r in rows:
            print(f"{preset:>8} {width:>5} {this['batch']:>5} {this['params']:>9} {side:>5}"
                  + "".join(f" {r[name]:>8.3f}" for name in TIMES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

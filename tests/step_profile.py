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

    PYTHONPATH=src python tests/step_profile.py              # every shape
    PYTHONPATH=src python tests/step_profile.py mlp:92 nn:770

All nine shapes take about 17 s on one core.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import time  # noqa: E402

import numpy as np  # noqa: E402

from edysec import featsel  # noqa: E402
from edysec import neuralnet as nn  # noqa: E402

PRESETS = {
    "mlp": (nn.NetworkSpec.mlp, 16),
    "nn": (nn.NetworkSpec.nn, 16),
    "baseline": (lambda width: nn.NetworkSpec(width, (nn.LayerSpec(featsel.BASELINE_HIDDEN_UNITS),)),
                 featsel.BASELINE_BATCH_SIZE),
}
WIDTHS = (92, 770, 1543)
WARMUP, STEPS = 16, 400
ROWS = 1024


def profile(preset: str, width: int) -> dict:
    make_spec, batch = PRESETS[preset]
    spec = make_spec(width)
    rng = np.random.default_rng([width, batch])
    X = rng.normal(size=(ROWS, width)).astype(nn.NETWORK_DTYPE)
    y = rng.integers(0, 2, ROWS).astype(nn.NETWORK_DTYPE)
    cfg = nn.TrainConfig(batch_size=batch)
    params = nn.NetworkParams(spec, nn.init_network(spec, cfg.seed).flat.astype(nn.NETWORK_DTYPE))
    state = nn.AdamState.zeros_like(params)
    dropout_rng = np.random.default_rng(1)
    times = {"forward": [], "backward": [], "adam": [], "step": [], "idle": []}
    for t in range(1, WARMUP + STEPS + 1):
        idx = rng.integers(0, ROWS, batch)
        t0 = time.perf_counter()
        _, cache = nn.forward_batch(params, X[idx], train=True, rng=dropout_rng)
        t1 = time.perf_counter()
        grads = nn.backward(params, cache, y[idx])
        t2 = time.perf_counter()
        nn.adam_step(params, grads, state, t, cfg)
        t3 = time.perf_counter()
        if t > WARMUP:
            for name, ms in zip(times, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                times[name].append(ms * 1e3)
    for t in range(WARMUP + STEPS + 1, WARMUP + 2 * STEPS + 1):
        t0 = time.perf_counter()
        nn.adam_step(params, None, state, t, cfg)
        times["idle"].append((time.perf_counter() - t0) * 1e3)
    out = {name: float(np.median(ms)) for name, ms in times.items() if name != "step"}
    out["step"] = float(np.mean(times["step"]))
    return {"preset": preset, "width": width, "batch": batch, "params": params.flat.size, **out}


def main(argv: list[str]) -> int:
    shapes = [(p, int(w)) for p, w in (arg.split(":") for arg in argv)] or [
        (p, w) for p in PRESETS for w in WIDTHS
    ]
    print(f"{'preset':>8} {'width':>5} {'batch':>5} {'params':>9} {'forward':>8} {'backward':>8}"
          f" {'adam':>8} {'idle':>8} {'step':>8}   (ms; step is the busy mean, the others medians)")
    for preset, width in shapes:
        r = profile(preset, width)
        print(f"{r['preset']:>8} {r['width']:>5} {r['batch']:>5} {r['params']:>9} {r['forward']:>8.3f}"
              f" {r['backward']:>8.3f} {r['adam']:>8.3f} {r['idle']:>8.3f} {r['step']:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

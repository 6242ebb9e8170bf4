"""Rounds of baseline training that the two swarms ask for, counted with a
stand-in fitness instead of trained baselines.

For BPSO and BWOA at the pipeline's default swarm (20 agents, 50
iterations) over d = 36 source features, at seeds 0-4, the fitness is the
J_FS objective of `featsel.objective` with P the share of bits that match a
planted 17-feature mask, so the planted mask is the one optimum. Like
`featsel.MaskFitness`, it caches every mask it has scored and trains only
the distinct new masks of a batch. Per run it prints:

- trainings: the distinct masks scored, each one baseline training;
- batches: the fitness calls that held at least one training;
- makespan: the trainings in sequence on two workers, ceil(new / 2) summed
  over the batches;
- found: whether the best mask is the planted one.

    PYTHONPATH=src python tests/swarm_rounds.py

All ten runs take under a second on one core.
"""

from __future__ import annotations

import math

import numpy as np

from edysec import featsel

D, PLANTED, SEEDS, WORKERS = 36, 17, range(5), 2


class StandIn:
    def __init__(self, target: np.ndarray):
        self.target = target
        self.seen: set[bytes] = set()
        self.trainings = self.batches = self.makespan = 0

    def __call__(self, masks: np.ndarray) -> np.ndarray:
        new = {np.packbits(mask).tobytes() for mask in masks} - self.seen
        self.seen |= new
        if new:
            self.trainings += len(new)
            self.batches += 1
            self.makespan += math.ceil(len(new) / WORKERS)
        p = np.mean(masks == self.target, axis=1)
        return np.array([featsel.objective(pi, int(m.sum()), D) for pi, m in zip(p, masks)])


def main() -> None:
    cfg = featsel.SwarmConfig()
    print(f"{cfg.population}x{cfg.iterations}, d = {D}, planted {PLANTED}, {WORKERS} workers")
    print(f"{'swarm':6} {'seed':>4} {'trainings':>9} {'batches':>7} {'makespan':>8}  found")
    for name, runner in (("bpso", featsel.select_bpso), ("bwoa", featsel.select_bwoa)):
        for seed in SEEDS:
            target = np.zeros(D, dtype=bool)
            target[np.random.default_rng(seed).choice(D, PLANTED, replace=False)] = True
            fitness = StandIn(target)
            run = runner(fitness, D, featsel.SwarmConfig(seed=seed))
            found = bool(np.array_equal(run.mask, target))
            print(f"{name:6} {seed:>4} {fitness.trainings:>9} {fitness.batches:>7} {fitness.makespan:>8}  {found}")


if __name__ == "__main__":
    main()

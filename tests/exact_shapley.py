"""The tests' Shapley oracle: exact Shapley values by plain enumeration of
every coalition over the whole background. It shares no code with the Kernel
SHAP it checks, only the `Attribution` it returns. A7, tests/test_explain.py
and tests/make_shapley_oracle.py use it."""

from __future__ import annotations

import math

import numpy as np

from edysec.errors import TooManyFeatures
from edysec.explain import Attribution

# 2^17 coalitions is the largest game enumerated: the served model's 17 source
# features in tests/make_shapley_oracle.py, about 4 minutes per record on 2 cores.
EXACT_LIMIT = 17
COALITIONS_PER_CALL = 32


def exact_shapley(model, x, background, groups) -> Attribution:
    """phi per group, v(empty) as `base` and v(full) as `fx`, where v(S) is the
    mean model output over the background rows with the columns of S's groups
    set to x. The model scores COALITIONS_PER_CALL coalitions per call, and
    each v(S) is averaged in the dtype of its output."""
    d = len(groups)
    if d > EXACT_LIMIT:
        raise TooManyFeatures(f"exact enumeration capped at {EXACT_LIMIT} features, got {d}")
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    width = background.shape[1]
    group_of = np.empty(width, dtype=int)
    for j, idx in enumerate(groups.values()):
        group_of[idx] = j
    codes = np.arange(1 << d)
    v = np.empty(1 << d)
    for start in range(0, 1 << d, COALITIONS_PER_CALL):
        members = (codes[start : start + COALITIONS_PER_CALL, None] >> np.arange(d) & 1).astype(bool)
        rows = np.where(members[:, group_of][:, None, :], x, background).reshape(-1, width)
        v[start : start + len(members)] = np.asarray(model(rows)).reshape(len(members), -1).mean(axis=1)
    sizes = np.array([bin(c).count("1") for c in codes])
    weight = np.array([math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d) for s in range(d)])
    phi = {}
    for j, name in enumerate(groups):
        without = codes[(codes >> j & 1) == 0]
        phi[name] = float(np.sum(weight[sizes[without]] * (v[without | 1 << j] - v[without])))
    return Attribution(phi=phi, base=float(v[0]), fx=float(v[-1]), method="exact_shapley")

"""A fixed reference computation that times how fast the host runs right now.

On a shared host the same unit's wall time drifts by 15-25% over minutes, and
no statistic over one run's units removes that. Each unit therefore times the
probe just before and just after its timed call and also reports its wall
time in probe durations (`wall_rel`), which cancels most of the drift. The
probe touches no `impact` code, so a change to the library cannot move it.

Its three parts stand for the three kinds of work the workloads do: large
float32 products (the pair learner), many small float64 products and scans
over row slices (the perceptron, moderation and attribute evaluation), and
interpreted Python (the session driver). A run slowed by other tenants of the
host slows the three by different shares, and the sum tracks the workloads
more closely than any one part: over six 30-s runs per workload, adding the
small-array part cut the spread of the probe-relative median by 5-40%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest of five runs of each part, not three: over six seeds run side by
# side on `automaton-teach`, the spread of the probe-relative median fell from
# 0.12 to 0.09. One probe call takes about 0.4 s.
REPEATS = 5


def _products(w: np.ndarray) -> None:
    for _ in range(20):
        (w @ w.T).sum()


def _scans(x: np.ndarray, v: np.ndarray) -> None:
    for i in range(0, len(x), 3):
        np.flatnonzero(x[i:] @ v > 10.0)


def _python() -> None:
    x = 0
    for i in range(150000):
        x += i * i


def _fastest(part, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t = perf_counter()
        part(*args)
        best = min(best, perf_counter() - t)
    return best


def probe_s() -> float:
    """Sum over the parts of each part's fastest of a few runs, in seconds
    (about 45 ms on a 2-vCPU x86-64 host)."""
    rng = np.random.default_rng(0)
    w = (rng.random((200, 2000)) < 0.5).astype(np.float32)
    x = rng.random((3000, 40))
    v = rng.random(40)
    return _fastest(_products, w) + _fastest(_scans, x, v) + _fastest(_python)

"""A fixed reference kernel that measures the host's speed during a run.

The benchmark runs on a small share of a busy machine.  Its speed moves
by up to 2x from one minute to the next, for every kind of work at once,
so two runs of the same code can differ by more than any useful bound.
The reference kernel is fixed work that does not touch banachlab: Python
loops over the rows of a fixed array with small numpy reductions, the mix
banachlab's own code is made of.  run.py runs it, untimed, before every
task.  A task's latency divided by the reference's latency, both taken as
the same upper quantile over one run, cancels most of the host's drift.
Normalised times are reported in seconds at the reference latency
NOMINAL_S, about what the kernel takes on the host the baseline came from.
"""

from __future__ import annotations

import time

import numpy as np

#: the reference latency that normalised times are scaled to
NOMINAL_S = 0.002

_ROWS = np.random.default_rng(0).standard_normal((64, 513))


def kernel() -> float:
    acc = 0.0
    for k in range(150):
        row = _ROWS[k % 64]
        acc += 0.5 * float(np.abs(row).max()) + float(row @ row)
        acc += sum(float(x) for x in row[:8])
    return acc


def sample() -> float:
    """One latency of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""Hot numeric kernels, vectorized in numpy.

The single operation that dominates every optimizer loop in this package is
"exact supremum of |f| over many closed subintervals of [0,1]" for a
piecewise-linear f.  It runs as ``searchsorted`` plus one ``reduceat``
(`range_reduce`) over whole arrays of intervals.
"""

from __future__ import annotations

import numpy as np

HAS_NUMBA = False  # read by the environment stamp of perfbench/run.py


def backend_name() -> str:
    return "numpy"  # read by the environment stamp of perfbench/run.py


def pl_eval(bx: np.ndarray, by: np.ndarray, t):
    """PL interpolation on breakpoint arrays; exact at breakpoints."""
    t = np.asarray(t, dtype=np.float64)
    k = np.clip(np.searchsorted(bx, t, side="right") - 1, 0, bx.shape[0] - 2)
    x0, x1 = bx[k], bx[k + 1]
    y0, y1 = by[k], by[k + 1]
    th = (t - x0) / (x1 - x0)
    out = y0 * (1.0 - th) + y1 * th
    out = np.where(t == x0, y0, out)
    out = np.where(t == x1, y1, out)
    return out


def sup_abs_many(bx, by, lo, hi):
    """Exact sup of |f| over the closure of each [lo[i], hi[i]].

    f is the piecewise-linear interpolant of (bx, by); every lo/hi must lie
    inside [bx[0], bx[-1]].  The supremum of a PL function over a closed
    interval is attained at an endpoint or an interior breakpoint.
    """
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    bx = np.ascontiguousarray(bx, dtype=np.float64)
    by = np.ascontiguousarray(by, dtype=np.float64)
    at_ends = np.maximum(np.abs(pl_eval(bx, by, lo)), np.abs(pl_eval(bx, by, hi)))
    ia = np.searchsorted(bx, lo, side="left")
    ib = np.searchsorted(bx, hi, side="right")
    return np.maximum(at_ends, range_abs_max(by[None, :], ia, ib)[0])


def range_abs_max(values, starts, ends):
    """Row-wise max of |values[:, s:e]| for each index range [s, e), where
    0 <= s and e <= values.shape[1]; 0.0 when e <= s.

    The 0.0 sentinel is safe because callers combine the result with
    endpoint magnitudes, which are nonnegative.
    """
    values = np.asarray(values, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    # |values| and the spare column of range_reduce, in one buffer
    padded = np.empty((values.shape[0], values.shape[1] + 1))
    np.abs(values, out=padded[:, :-1])
    padded[:, -1] = 0.0
    return range_reduce(np.maximum, padded, starts, ends, 0.0)


def range_reduce(ufunc, padded, starts, ends, empty):
    """``ufunc.reduce(padded[..., s:e])`` per index range [s, e), 0 <= s and
    e <= g, or ``empty`` where e <= s.  ``padded`` holds g columns and a spare
    one no range reads, as reduceat needs every index, g too, in bounds."""
    idx = np.empty(2 * starts.shape[0], dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = np.maximum(ends, starts)
    out = ufunc.reduceat(padded, idx, axis=-1)[..., 0::2]
    out[..., ends <= starts] = empty
    return out

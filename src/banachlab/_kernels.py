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


def locate(bx: np.ndarray, t):
    """Cell k and fraction th of each point t on the increasing breakpoints
    bx: bx[k] <= t < bx[k + 1], the last cell also holding bx[-1], and
    th = (t − bx[k]) / (bx[k + 1] − bx[k])."""
    k = np.clip(np.searchsorted(bx, t, side="right") - 1, 0, bx.shape[0] - 2)
    return k, (t - bx[k]) / (bx[k + 1] - bx[k])


def blend(y0, y1, th):
    """y0·(1 − th) + y1·th in place: y0 and y1 must be fresh float arrays
    (or scalars), both are overwritten, and the result is y0.  Every PL value
    between breakpoints comes from here, so every path that evaluates one
    rounds alike by construction, not by coincidence."""
    y0 *= 1.0 - th
    y1 *= th
    y0 += y1
    return y0


def zero_crossings(x, y):
    """Pieces s of the PL function with breakpoints x and values y whose ends
    have opposite signs, and the point where each one meets zero."""
    s = np.nonzero(y[:-1] * y[1:] < 0.0)[0]
    x0, x1, y0, y1 = x[s], x[s + 1], y[s], y[s + 1]
    return s, x0 + (x1 - x0) * y0 / (y0 - y1)


def pl_eval(bx: np.ndarray, by: np.ndarray, t):
    """PL interpolation on breakpoint arrays; exact at breakpoints, where it
    returns the stored value, the sign of a zero included."""
    t = np.asarray(t, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    k, th = locate(bx, t)
    out = blend(by[k], by[k + 1], th)
    out = np.where(t == bx[k], by[k], out)
    return np.where(t == bx[k + 1], by[k + 1], out)


def interval_geometry(bx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Breakpoint ranges and end cells of the closed intervals [lo, hi]:
    breakpoints ``starts:ends`` lie inside, and each end sits in cell
    ``ka``/``kb`` at fraction ``ta``/``tb`` (`locate`)."""
    starts = np.searchsorted(bx, lo, side="left")
    ends = np.searchsorted(bx, hi, side="right")
    ka, ta = locate(bx, lo)
    kb, tb = locate(bx, hi)
    return starts, ends, ka, ta, kb, tb


def sup_abs_rows(values: np.ndarray, geometry) -> np.ndarray:
    """Exact sup of |f| over each interval of an `interval_geometry`, for each
    float row f of values on its breakpoints.  No override: an end on a
    breakpoint blends to its value up to the sign of a zero, which |·| drops."""
    starts, ends, ka, ta, kb, tb = geometry
    interior = range_abs_max(values, starts, ends)
    fa = np.abs(blend(values[:, ka], values[:, ka + 1], ta))
    fb = np.abs(blend(values[:, kb], values[:, kb + 1], tb))
    return np.maximum(interior, np.maximum(fa, fb))


def sup_abs_many(bx, by, lo, hi):
    """Exact sup of |f| over the closure of each [lo[i], hi[i]].

    f is the piecewise-linear interpolant of (bx, by); every lo/hi must lie
    inside [bx[0], bx[-1]].  The supremum of a PL function over a closed
    interval is attained at an endpoint or an interior breakpoint.
    """
    by = np.asarray(by, dtype=np.float64)
    return sup_abs_rows(by[None], interval_geometry(bx, lo, hi))[0]


def min_abs_many(bx, by, lo, hi):
    """Exact min of |f| over each [lo[i], hi[i]], f the PL interpolant of
    (bx, by), by float: 0 where f changes sign there, else its smallest
    magnitude at an end or an interior breakpoint."""
    starts, ends, ka, ta, kb, tb = interval_geometry(bx, lo, hi)
    fa = blend(by[ka], by[ka + 1], ta)
    fb = blend(by[kb], by[kb + 1], tb)
    pad = np.append(by, 0.0)  # the spare column of range_reduce
    mn = np.minimum(np.minimum(fa, fb), range_reduce(np.minimum, pad, starts, ends, np.inf))
    mx = np.maximum(np.maximum(fa, fb), range_reduce(np.maximum, pad, starts, ends, -np.inf))
    return np.maximum(np.maximum(mn, -mx), 0.0)


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

"""Hot numeric kernels, vectorized in numpy.

The single operation that dominates every optimizer loop in this package is
"exact supremum of |f| over many closed subintervals of [0,1]" for a
piecewise-linear f.  ``searchsorted`` finds the nodes inside each interval,
and `range_reduce` takes the max of |f| over them from a doubling table.
It runs on two paths.  One function on its own breakpoints (`sup_abs_many`,
behind every `d_norm`) takes one row: two ``searchsorted`` calls and one
`blend` of both interval ends.  Many rows on one shared grid
(`sup_abs_rows`, behind `gridsearch`) go through in blocks whose table
stays in cache; a caller that runs many blocks on one geometry passes a
`doubling_workspace` to hold every block's table, so none is allocated per
block.  Only an interval end strictly between two nodes needs an
interpolated value: an end on a node blends to that node's own value, which
the range already holds.
"""

from __future__ import annotations

import numpy as np

HAS_NUMBA = False  # read by the environment stamp of perfbench/run.py

#: bytes of doubling table per block of rows in `sup_abs_rows`: a block's
#: table and gathers stay in cache, and far below the 4 MiB from which numpy
#: asks for huge pages
BLOCK_BYTES = 2 << 20


def backend_name() -> str:
    return "numpy"  # read by the environment stamp of perfbench/run.py


def locate(bx: np.ndarray, t):
    """Cell k and fraction th of each point t on the increasing breakpoints
    bx: bx[k] <= t < bx[k + 1], the last cell also holding bx[-1], and
    th = (t − bx[k]) / (bx[k + 1] − bx[k])."""
    return _fraction(bx, t, np.searchsorted(bx, t, side="right") - 1)


def _fraction(bx, t, k):
    """`locate` from k = searchsorted(bx, t, side="right") − 1 (np.clip costs
    more than the two ufuncs)."""
    k = np.minimum(np.maximum(k, 0), bx.shape[0] - 2)
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
    kb, tb = _fraction(bx, hi, ends - 1)
    return starts, ends, ka, ta, kb, tb


def off_node_ends(bx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Indices of the intervals [lo, hi] whose lower end, and of those whose
    upper end, is no breakpoint of bx.  Equality decides, not the fraction
    of `locate`: an end just below a breakpoint can round to fraction 1."""
    return np.nonzero(~np.isin(lo, bx))[0], np.nonzero(~np.isin(hi, bx))[0]


def _table_depth(geometry) -> int:
    """Levels of the doubling table of a geometry's ranges."""
    starts, ends = geometry[:2]
    return int(np.max(ends - starts, initial=1)).bit_length()


def block_rows(g: int, geometry) -> int:
    """Rows per block of `sup_abs_rows` on g breakpoints: the block's
    doubling table fills BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * _table_depth(geometry) * g))


def doubling_workspace(g: int, geometry) -> np.ndarray:
    """A (depth, g, block_rows) buffer that holds the doubling table of any
    block of `sup_abs_rows` on g breakpoints and this geometry; the blocks
    go through it one after another."""
    return np.empty((_table_depth(geometry), g, block_rows(g, geometry)))


def sup_abs_rows(values: np.ndarray, geometry, out=None, work=None) -> np.ndarray:
    """Exact sup of |f| over each interval of an `interval_geometry`, for each
    float row f of values on its breakpoints: the max of |f| over the
    breakpoints inside, and over the two ends.  No override: an end on a
    breakpoint blends to its value up to the sign of a zero, which |·| drops.

    A geometry may carry a seventh field, the `off_node_ends` of its
    intervals; then a block of finite rows blends only those ends.  That is
    exact: an end on a breakpoint blends to its value v as v·1 + v'·0 = v,
    and that breakpoint lies in the interval, so the range max already
    holds |v|.  A block holding a non-finite value blends every end, since
    v'·0 is NaN there.  Rows go through in blocks whose doubling table
    fills BLOCK_BYTES, or as many as the `doubling_workspace` ``work`` of
    this geometry holds, into one C-contiguous (rows, intervals) array, or
    into ``out`` of that shape."""
    starts, ends, ka, ta, kb, tb = geometry[:6]
    off = None
    if len(geometry) > 6:
        ia, ib = geometry[6]
        off = ((ia, ka[ia], ta[ia]), (ib, kb[ib], tb[ib]))
    rows = values.shape[0]
    block = block_rows(values.shape[1], geometry) if work is None else work.shape[2]
    if out is None:
        out = np.empty((rows, starts.shape[0]))
    for r in range(0, rows, block):
        v = values[r:r + block]
        o = out[r:r + block]
        interior = range_abs_max(v, starts, ends, work)
        if off is not None and np.isfinite(v).all():
            o[...] = interior
            for i, k, t in off:
                o[:, i] = np.maximum(o[:, i], np.abs(blend(v[:, k], v[:, k + 1], t)))
            continue
        fa = np.abs(blend(v[:, ka], v[:, ka + 1], ta))
        fb = np.abs(blend(v[:, kb], v[:, kb + 1], tb))
        np.maximum(interior, np.maximum(fa, fb, out=fa), out=o)
    return out


def sup_abs_many(bx, by, lo, hi):
    """Exact sup of |f| over the closure of each [lo[i], hi[i]].

    f is the piecewise-linear interpolant of (bx, by); every lo/hi must lie
    inside [bx[0], bx[-1]].  The supremum of a PL function over a closed
    interval is attained at an endpoint or an interior breakpoint.

    The one-row path: breakpoints ``starts:ends`` lie inside, and both ends
    blend in one call, lo in cell starts − 1 and hi in cell ends − 1
    (clipped).  Those are the cells of `interval_geometry` except where lo
    is a breakpoint; there lo blends to that breakpoint's value as
    v'·0 + v·1, which the range already holds, so the result equals
    ``sup_abs_rows(by[None], interval_geometry(bx, lo, hi))[0]`` bit for
    bit, for finite by.
    """
    by = np.asarray(by, dtype=np.float64)
    starts = np.searchsorted(bx, lo, side="left")
    ends = np.searchsorted(bx, hi, side="right")
    k, th = _fraction(bx, np.concatenate([lo, hi]), np.concatenate([starts, ends]) - 1)
    fa, fb = np.abs(blend(by[k], by[k + 1], th)).reshape(2, -1)
    interior = range_reduce(np.maximum, np.abs(by)[None], starts, ends, 0.0)[0]
    return np.maximum(interior, np.maximum(fa, fb, out=fa), out=fa)


def min_abs_many(bx, by, lo, hi):
    """Exact min of |f| over each [lo[i], hi[i]], f the PL interpolant of
    (bx, by), by float: 0 where f changes sign there, else its smallest
    magnitude at an end or an interior breakpoint."""
    starts, ends, ka, ta, kb, tb = interval_geometry(bx, lo, hi)
    fa = blend(by[ka], by[ka + 1], ta)
    fb = blend(by[kb], by[kb + 1], tb)
    mn = np.minimum(np.minimum(fa, fb), range_reduce(np.minimum, by[None], starts, ends, np.inf)[0])
    mx = np.maximum(np.maximum(fa, fb), range_reduce(np.maximum, by[None], starts, ends, -np.inf)[0])
    return np.maximum(np.maximum(mn, -mx), 0.0)


def range_abs_max(values, starts, ends, work=None):
    """Row-wise max of |values[:, s:e]| for each index range [s, e), where
    0 <= s and e <= values.shape[1]; 0.0 when e <= s.  ``work``, as in
    `range_reduce`.

    The 0.0 sentinel is safe because callers combine the result with
    endpoint magnitudes, which are nonnegative.
    """
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    return range_reduce(np.maximum, np.abs(values), starts, ends, 0.0, work)


def range_reduce(ufunc, values, starts, ends, empty, work=None):
    """``ufunc.reduce(values[:, s:e], axis=1)`` per index range [s, e),
    0 <= s and e <= g for the g columns of the 2-D values, or ``empty``
    where e <= s.

    A doubling (sparse) table: level j holds ufunc over 2^j consecutive
    nodes, and a range of length L is ufunc of the two level-⌊log2 L⌋
    entries at its ends, which overlap (Bender and Farach-Colton, "The LCA
    Problem Revisited", 2000).  ufunc is np.maximum or np.minimum, which
    round nothing, so the overlap changes no bit.  The table is node-major,
    so each entry read is one contiguous row of values.T.  It is built in
    ``work``, a `doubling_workspace` of these ranges that holds this many
    rows, if given; the entries no range reads keep what they held."""
    rows, g = values.shape
    length = np.maximum(ends - starts, 1)
    level = np.frexp(length)[1] - 1
    depth = int(level.max(initial=0)) + 1
    if work is None:
        table = np.empty((depth, g, rows))
    else:
        table = work.reshape(-1)[:depth * g * rows].reshape(depth, g, rows)
    table[0] = values.T
    for j in range(1, depth):
        h = 1 << (j - 1)
        m = g - 2 * h + 1
        ufunc(table[j - 1, :m], table[j - 1, h:h + m], out=table[j, :m])
    flat = table.reshape(depth * g, rows)
    first = level * g + starts
    # an empty range reads a row it then overwrites; clip keeps s = g in bounds
    out = flat.take(first, 0, mode="clip")
    out = ufunc(out, flat.take(first + length - (1 << level), 0, mode="clip"), out=out).T
    out[:, ends <= starts] = empty
    return out

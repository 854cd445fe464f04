"""Hot numeric kernels, vectorized in numpy.

The single operation that dominates every optimizer loop in this package is
"exact supremum of |f| over many closed subintervals of [0,1]" for a
piecewise-linear f.  ``searchsorted`` finds the nodes inside each interval,
and `range_reduce` takes the max of |f| over them by a `plan` of those
ranges: its reads from a table of two tiers, windows of up to 2^FINE nodes
and a doubling table over aligned blocks of 2^FINE nodes for the longer
ranges.  It runs on two paths.  One function on its own breakpoints
(`sup_abs_many`, behind every `d_norm`) takes one row and plans per call:
two ``searchsorted`` calls and one `blend` of both interval ends.  Many
rows on one shared grid (`sup_abs_rows`, behind `gridsearch`) go through
in blocks by a plan built once per geometry: it sizes the blocks so that a
block's table fills BLOCK_BYTES and stays in cache, and holds the one table
every block is built in.  Only an interval end strictly between two nodes
needs an interpolated value: an end on a node blends to that node's own
value, which the range already holds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HAS_NUMBA = False  # read by the environment stamp of perfbench/run.py

#: bytes of a `Plan`'s table per block of rows in `sup_abs_rows`: a block's
#: table and gathers stay in cache, and far below the 4 MiB from which numpy
#: asks for huge pages
BLOCK_BYTES = 2 << 20

#: the fine tier of a `Plan`'s table holds windows of up to 2^FINE nodes,
#: and its coarse tier blocks of 2^FINE nodes
FINE = 4
#: 2^j for j = 1, 2, ...: a range's level counts those within its length
_WIDTHS = 2 << np.arange(62)


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
    x0 = bx[k]
    return k, (t - x0) / (bx[k + 1] - x0)


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


class Plan(NamedTuple):
    """The reads of `range_reduce` over index ranges [s, e) of g nodes, and
    the table they read, built once per geometry (`plan`).

    The table is node-major: entry r is one contiguous row of the rows'
    values.  Its fine tier, levels j < ``depth`` of g entries each, holds
    the reduction over the 2^j nodes from each node, j up to FINE.  Its
    coarse tier, ``coarse`` levels of ``blocks`` entries from depth·g on,
    is a doubling table over the aligned blocks of 2^FINE nodes.  Every
    range takes its ``first`` read; each of ``more``, a span of ranges
    p:q with one read each, joins in, a range that needs no such read
    reading its first again."""

    g: int
    depth: int
    blocks: int
    coarse: int
    rows: int
    first: np.ndarray
    more: tuple
    empty: np.ndarray
    ends: tuple | None
    off: tuple | None
    work: np.ndarray

    def table(self, rows: int) -> np.ndarray:
        """The (entries, rows) table of a block of this many rows, in the
        plan's workspace."""
        entries = self.depth * self.g + self.coarse * self.blocks
        return self.work[:entries * rows].reshape(entries, rows)


def plan(g: int, geometry, rows: int = 0) -> Plan:
    """The `Plan` of the ranges ``starts:ends`` of a geometry on g nodes,
    for blocks of ``rows`` rows, or of as many as fill BLOCK_BYTES of table.

    The fine tier stops at level FINE where some range is longer than
    2^(FINE+1) and the whole doubling table of the rows would not fit in
    BLOCK_BYTES, as it never does for blocks sized from it.  A table that
    fits is built whole, with no coarse tier, as for one row on up to about
    17,000 nodes, where planning the coarse tier costs more than the levels
    it saves.

    A range of length L up to twice the top fine level's width reads the two
    fine entries of level min(⌊log2 L⌋, top) at its ends, which overlap,
    or one where L is a power of two.  A longer range reads the two
    level-FINE windows at its ends and the two coarse entries, which
    overlap, over the aligned blocks from ⌈s/2^FINE⌉ to ⌊e/2^FINE⌋: at
    least one, since L > 2^(FINE+1).  An empty range reads an entry it then
    overwrites.

    A full `interval_geometry` adds its end cells and fractions for
    `sup_abs_rows`: ``ends`` holds every end, and ``off`` only the
    `off_node_ends` of a seventh field, if any."""
    starts, ends = geometry[:2]
    length = ends - starts
    span = np.maximum(length, 1)
    depth = int(span.max(initial=1)).bit_length()
    if depth > FINE + 1 and (not rows or 8 * rows * g * depth > BLOCK_BYTES):
        depth = FINE + 1
    top = depth - 1
    level = _WIDTHS[:top].searchsorted(span, side="right")
    first = level * g
    first += starts
    second = first + (span - (1 << level))
    two = (second != first).nonzero()[0]
    more = [(int(two[0]), int(two[-1]) + 1, second[two[0]:two[-1] + 1])] if two.size else []
    blocks = coarse = 0
    long = (span > 2 << top).nonzero()[0]
    if long.size:
        # the span p:q of the long ranges; the others in it read their first
        p, q = int(long[0]), int(long[-1]) + 1
        wide = span[p:q] > 2 << FINE
        b0 = (starts[p:q] + ((1 << FINE) - 1)) >> FINE
        b1 = ends[p:q] >> FINE
        k = _WIDTHS.searchsorted(b1 - b0, side="right")
        blocks, coarse = g >> FINE, int(k[wide].max()) + 1
        base = k * blocks + depth * g
        for b in (b0, b1 - (1 << k)):
            more.append((p, q, np.where(wide, base + b, first[p:q])))
    entries = depth * g + coarse * blocks
    rows = rows or max(1, BLOCK_BYTES // (8 * entries))
    cells = off = None
    if len(geometry) > 2:
        ka, ta, kb, tb = geometry[2:6]
        cells = ((slice(None), ka, ta[:, None]), (slice(None), kb, tb[:, None]))
        off = cells
        if len(geometry) > 6:
            off = tuple((i, k[i], t[i]) for i, (_, k, t) in zip(geometry[6], cells))
    return Plan(g, depth, blocks, coarse, rows, first, tuple(more),
                (length <= 0).nonzero()[0], cells, off,
                np.empty(entries * rows))


def sup_abs_rows(values: np.ndarray, plan: Plan, out=None) -> np.ndarray:
    """Exact sup of |f| over each interval of the `plan` of an
    `interval_geometry`, for each float row f of values on its g nodes:
    the max of |f| over the nodes inside, and over the two ends.  No
    override: an end on a node blends to its value up to the sign of a
    zero, which |·| drops.

    Rows go through in blocks of ``plan.rows``, into one C-contiguous
    (rows, intervals) array, or into ``out`` of that shape.  Per block: one
    transposed copy into the plan's node-major table; the ends blended from
    those contiguous rows; `range_abs_max` over the plan, which takes |·|
    in place; the ends joined in; one transposed copy out.  A block of
    finite rows blends only the plan's ``off`` ends.  That is exact: an end
    on a node blends to its value v as v·1 + v'·0 = v, and that node lies
    in the interval, so the range max already holds |v|.  A block holding a
    non-finite value blends every end, since v'·0 is NaN there.  Every term
    is |·| of a value, and np.maximum rounds nothing, so the order in which
    they join changes no bit."""
    rows, g = values.shape
    if out is None:
        out = np.empty((rows, plan.first.shape[0]))
    for r in range(0, rows, plan.rows):
        v = values[r:r + plan.rows]
        nodes = plan.table(v.shape[0])[:g]
        nodes[...] = v.T
        ends = plan.off if np.isfinite(nodes).all() else plan.ends
        blended = [(i, np.abs(blend(nodes[k], nodes[k + 1], t))) for i, k, t in ends]
        interior = range_abs_max(nodes.T, plan)
        by_range = interior.T
        for i, f in blended:
            by_range[i] = np.maximum(by_range[i], f, out=f)
        out[r:r + plan.rows] = interior
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
    ``sup_abs_rows(by[None], plan(bx.size, interval_geometry(bx, lo,
    hi)))[0]`` bit for bit, for finite by.
    """
    by = np.asarray(by, dtype=np.float64)
    starts = bx.searchsorted(lo, side="left")
    ends = bx.searchsorted(hi, side="right")
    k, th = _fraction(bx, np.concatenate([lo, hi]), np.concatenate([starts, ends]) - 1)
    fa, fb = np.abs(blend(by[k], by[k + 1], th)).reshape(2, -1)
    p = plan(by.size, (starts, ends), 1)
    table = p.table(1)
    np.abs(by, out=table[:by.size, 0])
    interior = range_reduce(np.maximum, table, p, 0.0)[0]
    return np.maximum(interior, np.maximum(fa, fb, out=fa), out=fa)


def min_abs_many(bx, by, lo, hi):
    """Exact min of |f| over each [lo[i], hi[i]], f the PL interpolant of
    (bx, by), by float: 0 where f changes sign there, else its smallest
    magnitude at an end or an interior breakpoint."""
    starts, ends, ka, ta, kb, tb = interval_geometry(bx, lo, hi)
    fa = blend(by[ka], by[ka + 1], ta)
    fb = blend(by[kb], by[kb + 1], tb)
    p = plan(by.size, (starts, ends), 1)
    table = p.table(1)
    table[:by.size, 0] = by
    mn = np.minimum(np.minimum(fa, fb), range_reduce(np.minimum, table, p, np.inf)[0])
    mx = np.maximum(np.maximum(fa, fb), range_reduce(np.maximum, table, p, -np.inf)[0])
    return np.maximum(np.maximum(mn, -mx), 0.0)


def range_abs_max(values, plan: Plan):
    """Row-wise max of |values[:, s:e]| for each range [s, e) of the plan,
    0.0 where e <= s: `range_reduce` of |values|, taken into the plan's
    table, in place where values is the transposed view of that table's
    first g entries, as `sup_abs_rows` passes it.

    The 0.0 sentinel is safe because callers combine the result with
    endpoint magnitudes, which are nonnegative.
    """
    table = plan.table(values.shape[0])
    np.abs(values.T, out=table[:plan.g])
    return range_reduce(np.maximum, table, plan, 0.0)


def range_reduce(ufunc, table, plan: Plan, empty):
    """``ufunc.reduce(values[:, s:e], axis=1)`` per range [s, e) of the
    plan, or ``empty`` where e <= s, for the rows whose values fill the
    first g entries of ``table``, a `Plan.table`; a (rows, ranges) view.

    The two tiers are doubling (sparse) tables: level j holds ufunc over
    2^j consecutive entries, and 2^j entries from each end of a span cover
    it, overlapping (Bender and Farach-Colton, "The LCA Problem Revisited",
    2000).  ufunc is np.maximum or np.minimum, which round nothing, so no
    overlap, repeated read or order of reads changes a bit."""
    g, fine = plan.g, plan.depth * plan.g
    _double(ufunc, table, 0, g, plan.depth)
    if plan.blocks:
        table[fine:fine + plan.blocks] = table[FINE * g::1 << FINE][:plan.blocks]
        _double(ufunc, table, fine, plan.blocks, plan.coarse)
    # an empty range at s = g may read past the table; clip keeps it in
    # bounds, and its entry is overwritten
    out = table.take(plan.first, 0, mode="clip")
    for p, q, reads in plan.more:
        span = out[p:q]
        ufunc(span, table.take(reads, 0, mode="clip"), out=span)
    if plan.empty.size:
        out[plan.empty] = empty
    return out.T


def _double(ufunc, table, base, count, levels):
    """Levels 1 to levels − 1 of a doubling table whose level 0 holds count
    entries from table[base]: level j, count entries further on, holds
    ufunc over 2^j entries from each of its first count − 2^j + 1."""
    for j in range(1, levels):
        h = 1 << (j - 1)
        m = count - 2 * h + 1
        a = base + (j - 1) * count
        ufunc(table[a:a + m], table[a + h:a + h + m], out=table[a + count:a + count + m])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import _kernels
from banachlab._kernels import pl_eval

from conftest import random_pl


def brute_sup(f, a, b, n=20000):
    ts = np.linspace(a, b, n)
    ts = np.concatenate([ts, f.breakpoints[(f.breakpoints >= a) & (f.breakpoints <= b)]])
    return float(np.max(np.abs(f.eval(ts))))


def test_sup_abs_many_matches_brute():
    rng = np.random.default_rng(10)
    f = random_pl(rng, 40)
    lo = rng.uniform(0.0, 0.8, 64)
    hi = lo + rng.uniform(0.01, 0.2, 64)
    hi = np.minimum(hi, 1.0)
    out = _kernels.sup_abs_many(f.breakpoints, f.values, lo, hi)
    for k in range(lo.size):
        assert out[k] == pytest.approx(brute_sup(f, lo[k], hi[k]), abs=1e-6)
        assert out[k] >= brute_sup(f, lo[k], hi[k]) - 1e-12  # closure sup dominates


def test_sup_abs_endpoints_only():
    rng = np.random.default_rng(11)
    f = random_pl(rng, 5)
    # intervals containing no breakpoints
    bx = f.breakpoints
    mid = (bx[0] + bx[1]) / 2
    out = _kernels.sup_abs_many(bx, f.values, np.array([mid]), np.array([mid + 1e-9]))
    expect = max(abs(f.eval(mid)), abs(f.eval(mid + 1e-9)))
    assert out[0] == pytest.approx(expect, abs=1e-15)


def test_range_abs_max_matches_loop():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((7, 50))
    values[::2, -1] = 9.0  # the row max on the last column
    # [0, 50) and [20, 50) end at the last column with s < g-1
    starts = np.array([0, 10, 49, 20, 5, 0, 20, 50])
    ends = np.array([10, 10, 50, 45, 6, 50, 50, 50])
    out = _kernels.range_abs_max(values, _kernels.plan(50, (starts, ends), 7))
    for i in range(7):
        for j in range(starts.size):
            expect = np.max(np.abs(values[i, starts[j]:ends[j]])) if ends[j] > starts[j] else 0.0
            assert out[i, j] == expect


def ref_sup_abs_many(bx, by, lo, hi):
    """The body sup_abs_many ran before it called range_abs_max."""
    out = np.maximum(np.abs(pl_eval(bx, by, lo)), np.abs(pl_eval(bx, by, hi)))
    ia = np.searchsorted(bx, lo, side="left")
    ib = np.searchsorted(bx, hi, side="right")
    nonempty = ib > ia
    if np.any(nonempty):
        idx = np.empty(2 * lo.shape[0], dtype=np.int64)
        idx[0::2] = np.minimum(ia, bx.shape[0] - 1)
        idx[1::2] = np.minimum(np.maximum(ib, idx[0::2]), bx.shape[0] - 1)
        red = np.maximum.reduceat(np.abs(by), idx)[0::2]
        red[~nonempty] = 0.0
        out = np.maximum(out, red)
    return out


def test_sup_abs_many_matches_its_old_body():
    rng = np.random.default_rng(13)
    f = random_pl(rng, 30)
    bx, by = f.breakpoints, f.values
    gap = (bx[4] + bx[5]) / 2  # no breakpoint in [gap, gap + 1e-9]: an empty range
    cases = [
        (rng.uniform(0.0, 0.8, 40), None),
        (np.array([0.0, bx[3], gap, bx[7], 0.999]), np.array([1.0, 1.0, gap + 1e-9, bx[7], 1.0])),
        (np.array([gap, gap]), np.array([gap + 1e-9, gap])),  # only empty ranges
        (np.array([]), np.array([])),
    ]
    for lo, hi in cases:
        if hi is None:
            hi = np.minimum(lo + rng.uniform(0.0, 0.3, lo.size), 1.0)
        got = _kernels.sup_abs_many(bx, by, lo, hi)
        assert got.tolist() == ref_sup_abs_many(bx, by, lo, hi).tolist()


@st.composite
def pl_with_intervals(draw):
    """Breakpoints (2 or more) and values, signed zeros among them, and
    closed intervals whose ends sit on breakpoints, between them (a quarter
    and a half of the way, so some intervals hold no breakpoint), at 0 and
    1, or anywhere; lo == hi included."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=10))
    bx = np.unique(np.concatenate([[0.0, 1.0], inner]))
    by = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0),
                                min_size=bx.size, max_size=bx.size)))
    between = np.concatenate([0.5 * (bx[:-1] + bx[1:]), 0.75 * bx[:-1] + 0.25 * bx[1:]])
    point = (st.sampled_from(bx.tolist()) | st.sampled_from(between.tolist())
             | st.floats(0.0, 1.0))
    ends = draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))
    lo, hi = np.array([sorted(e) for e in ends]).T
    return bx, by, lo, hi


@settings(max_examples=300, deadline=None)
@given(pl_with_intervals())
def test_one_row_path_matches_the_block_path(case):
    bx, by, lo, hi = case
    ref = _kernels.sup_abs_rows(by[None], _kernels.plan(bx.size, _kernels.interval_geometry(bx, lo, hi)))[0]
    assert same_bits(_kernels.sup_abs_many(bx, by, lo, hi), ref)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_grid(rng, cells):
    """A uniform grid of `cells` cells refined by a few random points."""
    return np.union1d(np.linspace(0.0, 1.0, cells + 1), rng.uniform(0.0, 1.0, int(rng.integers(0, 6))))


def ref_pl_eval(bx, by, t):
    """pl_eval's body before it called locate and blend."""
    t = np.asarray(t, dtype=np.float64)
    k = np.clip(np.searchsorted(bx, t, side="right") - 1, 0, bx.shape[0] - 2)
    x0, x1 = bx[k], bx[k + 1]
    y0, y1 = by[k], by[k + 1]
    th = (t - x0) / (x1 - x0)
    out = y0 * (1.0 - th) + y1 * th
    out = np.where(t == x0, y0, out)
    out = np.where(t == x1, y1, out)
    return out


@pytest.mark.parametrize("cells", [1, 7, 64, 512])
def test_pl_eval_matches_its_old_body(cells):
    rng = np.random.default_rng(cells)
    for _ in range(20):
        bx = random_grid(rng, cells)
        by = rng.standard_normal(bx.size)
        by[rng.random(bx.size) < 0.3] = -0.0  # the override keeps this sign
        t = np.concatenate([bx, np.nextafter(bx, 0.5), rng.uniform(0.0, 1.0, 50)])
        assert same_bits(pl_eval(bx, by, t), ref_pl_eval(bx, by, t))
        for s in t[::7]:  # scalars, as PLFunction.eval passes them
            assert same_bits(pl_eval(bx, by, s), ref_pl_eval(bx, by, s))


# -- the doubling table against the reduceat bodies it replaced ----------------


def ref_range_reduce(ufunc, padded, starts, ends, empty):
    """range_reduce's reduceat body: ``padded`` holds g columns and a spare
    one no range reads, as reduceat needs every index, g too, in bounds."""
    idx = np.empty(2 * starts.shape[0], dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = np.maximum(ends, starts)
    out = ufunc.reduceat(padded, idx, axis=-1)[..., 0::2]
    out[..., ends <= starts] = empty
    return out


def ref_range_abs_max(values, starts, ends):
    """range_abs_max's body over ref_range_reduce."""
    values = np.asarray(values, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    padded = np.empty((values.shape[0], values.shape[1] + 1))
    np.abs(values, out=padded[:, :-1])
    padded[:, -1] = 0.0
    return ref_range_reduce(np.maximum, padded, starts, ends, 0.0)


def ref_sup_abs_rows(values, geometry):
    """sup_abs_rows' body before it went through blocks of rows, blending
    every end."""
    starts, ends, ka, ta, kb, tb = geometry[:6]
    interior = ref_range_abs_max(values, starts, ends)
    fa = np.abs(_kernels.blend(values[:, ka], values[:, ka + 1], ta))
    fb = np.abs(_kernels.blend(values[:, kb], values[:, kb + 1], tb))
    return np.maximum(interior, np.maximum(fa, fb))


def ref_min_abs_many(bx, by, lo, hi):
    """min_abs_many's body over ref_range_reduce."""
    starts, ends, ka, ta, kb, tb = _kernels.interval_geometry(bx, lo, hi)
    fa = _kernels.blend(by[ka], by[ka + 1], ta)
    fb = _kernels.blend(by[kb], by[kb + 1], tb)
    pad = np.append(by, 0.0)
    mn = np.minimum(np.minimum(fa, fb), ref_range_reduce(np.minimum, pad, starts, ends, np.inf))
    mx = np.maximum(np.maximum(fa, fb), ref_range_reduce(np.maximum, pad, starts, ends, -np.inf))
    return np.maximum(np.maximum(mn, -mx), 0.0)


BASES = [(1, 8), (2, 8), (3, 8), (4, 8), (1, 12)]
GRIDS = [1, 2, 64, 256, 512, "refined"]


@pytest.fixture(scope="module", params=BASES, ids=lambda b: f"i{b[0]}-levels{b[1]}")
def base_ctx(request):
    from banachlab.d_norm import DNormContext
    from banachlab.neighborhood_base import build_leveled

    i, levels = request.param
    return DNormContext(build_leveled(i, levels=levels))


def grid_context(ctx, cells, rng):
    """The uniform grid of `cells` cells, or 512 cells refined by a random PL."""
    from banachlab.gridsearch import GridContext

    if cells == "refined":
        return GridContext(ctx, random_pl(rng, 40), grid_cells=512)
    return GridContext(ctx, grid_cells=cells)


def awkward_rows(rng, rows, g):
    """Random rows, with NaN, ±0.0, constant, ±inf and ±1e308 rows among
    them; 1e308 − (−1e308) and (1e308)² overflow to inf."""
    values = rng.standard_normal((rows, g))
    values[1::7, rng.integers(g)] = np.nan
    values[2::7] = np.where(rng.random((values[2::7].shape)) < 0.5, -0.0, 0.0)
    values[3::7] = 0.75
    zero = rng.random(values[4::7].shape) < 0.3
    values[4::7][zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    values[5::7, rng.integers(g)] = np.inf
    values[5::7, rng.integers(g)] = -np.inf
    values[6::7] = np.copysign(1e308, values[6::7])
    return values


def edge_ranges(g):
    """Empty ranges (s = e, e < s, s = e = g), one-node ranges at both ends
    and the full grid."""
    starts = np.array([0, 1, g, g - 1, 0, g - 1, 0])
    ends = np.array([0, 0, g, g, 1, g, g])
    return starts, ends


def block_rows(g, starts, ends):
    """Rows per block of sup_abs_rows: its table fills BLOCK_BYTES, the
    fine tier's levels up to FINE over g nodes, and where some range is
    longer than 2^(FINE+1) nodes, the coarse tier's levels over the g //
    2^FINE aligned blocks, as many as the most blocks inside one range
    need."""
    fine = 1 << _kernels.FINE
    span = np.maximum(ends - starts, 1)
    entries = min(int(span.max(initial=1)).bit_length(), _kernels.FINE + 1) * g
    long = span > 2 * fine
    if long.any():
        inside = ends[long] // fine - -(-starts[long] // fine)
        entries += g // fine * int(inside.max()).bit_length()
    return max(1, _kernels.BLOCK_BYTES // (8 * entries))


def planned_reduce(ufunc, values, starts, ends, empty, rows):
    """range_reduce of the values' rows by the plan of these ranges for
    blocks of ``rows`` rows: with rows = 0, blocks sized from BLOCK_BYTES,
    whose table has two tiers wherever a range is longer than 2^(FINE+1);
    with the values' own row count, a whole doubling table where it fits."""
    g = values.shape[1]
    p = _kernels.plan(g, (starts, ends), rows)
    table = p.table(values.shape[0])
    table[:g] = values.T
    return _kernels.range_reduce(ufunc, table, p, empty)


@pytest.mark.parametrize("cells", GRIDS)
def test_range_reduce_matches_reduceat(base_ctx, cells):
    rng = np.random.default_rng(20)
    gc = grid_context(base_ctx, cells, rng)
    starts, ends = (np.concatenate(p) for p in zip(gc.stored_geometry[:2], edge_ranges(gc.size)))
    values = awkward_rows(rng, 12, gc.size)
    padded = np.concatenate([values, np.zeros((12, 1))], axis=1)
    for rows in (0, 12):
        for ufunc, empty in ((np.maximum, -np.inf), (np.minimum, np.inf)):
            got = planned_reduce(ufunc, values, starts, ends, empty, rows)
            assert np.array_equal(got, ref_range_reduce(ufunc, padded, starts, ends, empty), equal_nan=True)
        got = _kernels.range_abs_max(values, _kernels.plan(gc.size, (starts, ends), rows))
        assert same_bits(got, ref_range_abs_max(values, starts, ends))


def test_plan_builds_the_whole_table_where_it_fits(ctx8):
    # a block of rows sized from BLOCK_BYTES, and one row on 2^15 + 1 nodes,
    # take the coarse tier for the ranges longer than 2^(FINE+1); one row
    # on 513 nodes builds every level, as its table fits
    lo, hi = ctx8.interval_bounds
    for g, rows, tiers in ((513, 0, 2), ((1 << 15) + 1, 1, 2), (513, 1, 1)):
        starts, ends = _kernels.interval_geometry(np.linspace(0.0, 1.0, g), lo, hi)[:2]
        p = _kernels.plan(g, (starts, ends), rows)
        longest = int(np.max(ends - starts)).bit_length()
        assert (p.depth, p.blocks > 0) == ((_kernels.FINE + 1, True) if tiers == 2 else (longest, False))


@st.composite
def planned_ranges(draw):
    """A grid of 2 to 1100 nodes, no multiple of 2^FINE; index ranges of
    every length near 2^FINE and 2^(FINE+1), of powers of two, and of any
    length, some ending at g, and empty ones (e = s, e < s, s = g); rows of
    normal values with NaN, ±inf and ±0 among them."""
    fine = 1 << _kernels.FINE
    g = draw(st.integers(2, 1100).filter(lambda g: g % fine))
    near = [n for c in (fine, 2 * fine) for n in range(c - 2, c + 3)]
    length = st.sampled_from(near) | st.sampled_from([1 << j for j in range(11)]) | st.integers(-3, g)
    starts, ends = [], []
    for n in draw(st.lists(length, min_size=1, max_size=40)):
        n = min(n, g)
        if draw(st.booleans()):
            s = g - max(n, 0)  # ending at g; an empty range there has s = g
        else:
            s = draw(st.integers(0, g - max(n, 0)))
        starts.append(s)
        ends.append(max(s + n, 0))
    rows = draw(st.integers(1, 4))
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((rows, g))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for r, k, v in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, g - 1), special),
                                 max_size=8)):
        values[r, k] = v
    return values, np.array(starts), np.array(ends)


@settings(max_examples=300, deadline=None)
@given(planned_ranges())
def test_planned_range_reduce_matches_reduceat(case):
    values, starts, ends = case
    padded = np.concatenate([values, np.zeros((values.shape[0], 1))], axis=1)
    for rows in (0, values.shape[0]):
        for ufunc, empty in ((np.maximum, -np.inf), (np.minimum, np.inf)):
            got = planned_reduce(ufunc, values, starts, ends, empty, rows)
            assert np.array_equal(got, ref_range_reduce(ufunc, padded, starts, ends, empty), equal_nan=True)
        got = _kernels.range_abs_max(values, _kernels.plan(values.shape[1], (starts, ends), rows))
        assert same_bits(got, ref_range_abs_max(values, starts, ends))


@pytest.mark.parametrize("cells", GRIDS)
def test_sup_abs_rows_matches_reduceat(base_ctx, cells, monkeypatch):
    rng = np.random.default_rng(21)
    gc = grid_context(base_ctx, cells, rng)
    geometry = gc.stored_geometry
    block = block_rows(gc.size, *geometry[:2])
    if block > 1000:
        # a block of a 2- or 3-node grid holds 10^5 rows: a smaller
        # BLOCK_BYTES brings its edges within reach of the reference
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", _kernels.BLOCK_BYTES * 7 // block)
        block = block_rows(gc.size, *geometry[:2])
    calls = []
    traced = _kernels.range_abs_max
    monkeypatch.setattr(_kernels, "range_abs_max", lambda v, *a: calls.append(v.shape[0]) or traced(v, *a))
    counts = [1, block - 1, block, block + 1] + ([2016] if cells == 512 else [])
    for rows in filter(None, counts):
        values = awkward_rows(rng, rows, gc.size)
        calls.clear()
        # the inf and NaN rows make inf − inf and 0 · inf on purpose, in the
        # kernel and in its reference alike
        with np.errstate(invalid="ignore"):
            got = _kernels.sup_abs_rows(values, _kernels.plan(gc.size, geometry))
            ref = ref_sup_abs_rows(values, geometry)
        assert got.flags.c_contiguous
        assert same_bits(got, ref)
        assert calls == [block] * (rows // block) + [rows % block] * (rows % block > 0)


@pytest.mark.parametrize("cells", GRIDS)
def test_min_abs_many_matches_reduceat(base_ctx, cells):
    rng = np.random.default_rng(22)
    gc = grid_context(base_ctx, cells, rng)
    lo, hi = base_ctx.interval_bounds
    for by in awkward_rows(rng, 10, gc.size):
        with np.errstate(invalid="ignore"):  # inf − inf and 0 · inf on purpose
            got = _kernels.min_abs_many(gc.nodes, by, lo, hi)
            ref = ref_min_abs_many(gc.nodes, by, lo, hi)
        # equal up to the sign of a zero, which max and min may take from
        # either operand
        assert np.array_equal(got, ref, equal_nan=True)


def test_enclosures_peak_memory():
    # the blocked kernel allocates one seminorm matrix, and enclosures one
    # more for its square; the reduceat body peaked near 6 of them
    import tracemalloc

    from banachlab.d_norm import DNormContext
    from banachlab.gridsearch import GridContext
    from banachlab.neighborhood_base import build_leveled

    ctx = DNormContext(build_leveled(2, levels=8))
    gc = GridContext(ctx, grid_cells=512)
    values = np.random.default_rng(23).standard_normal((2016, gc.size))
    gc.stored_geometry  # built before the measurement
    tracemalloc.start()
    try:
        gc.enclosures(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    seminorm_bytes = 8 * values.shape[0] * ctx.interval_bounds[0].size
    assert peak <= 2 * seminorm_bytes + (4 << 20)


def ref_pair_distances(gc, rows):
    """The norm enclosure lo of each pair's difference, one dot product of
    the weights per row of the whole difference matrix's seminorms: the
    lo² that d_norm computes."""
    ia, ib = np.triu_indices(rows.shape[0], k=1)
    s = gc.seminorms(rows[ia] - rows[ib])
    return ia, ib, np.array([np.sqrt(np.dot(gc.weights, r * r)) for r in s]).reshape(ia.shape)


def check_pair_distances(ctx, gc, rng, counts):
    from banachlab.d_norm import d_norm
    from banachlab.slice_lab import _pair_distances

    for count in counts:
        rows = awkward_rows(rng, count, gc.size)
        # the same rows made finite: most blocks of differences then blend
        # only the ends off the nodes
        for values in (rows, np.where(np.isfinite(rows), rows, 1e308)):
            # the inf, NaN and 1e308 rows overflow and subtract inf from inf
            # on purpose, in the code and in its reference alike
            with np.errstate(over="ignore", invalid="ignore"):
                got = _pair_distances(gc, values)
                ref = ref_pair_distances(gc, values)
            for a, b in zip(got, ref):
                assert same_bits(a, b)
            # d_norm refuses an enclosure that is not finite
            ia, ib, lo = got
            finite = np.flatnonzero(np.isfinite(lo))
            for k in finite[::max(1, finite.size // 40)]:
                diff = gc.to_plfunction(values[ia[k]] - values[ib[k]])
                assert lo[k] == d_norm(ctx, diff).lo


@pytest.mark.parametrize("cells", GRIDS)
def test_pair_distances_match_the_difference_matrix(base_ctx, cells):
    rng = np.random.default_rng(24)
    gc = grid_context(base_ctx, cells, rng)
    check_pair_distances(base_ctx, gc, rng, (1, 2, 3, 64))


@pytest.mark.parametrize("block", [1, 7])
def test_pair_distances_across_small_blocks(base_ctx, block, monkeypatch):
    # a BLOCK_BYTES of a few rows per block puts block ends inside every
    # run of pairs, and the grid's plan sizes its blocks from it
    rng = np.random.default_rng(26)
    gc = grid_context(base_ctx, 64, rng)
    rows = gc.plan.rows
    assert rows == block_rows(gc.size, *gc.stored_geometry[:2])
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", _kernels.BLOCK_BYTES * block // rows)
    gc = grid_context(base_ctx, 64, rng)
    assert gc.plan.rows == block
    check_pair_distances(base_ctx, gc, rng, (2, 5, 9))


def test_pair_distances_peak_memory():
    # no difference matrix and no (pairs, intervals) seminorm matrix: the
    # pair indices and distances, and a few (rows, nodes) and (rows,
    # intervals) arrays of one block; the old matrices took 7.8, 15.7 and
    # 16.5 MB here
    import tracemalloc

    from banachlab.d_norm import DNormContext
    from banachlab.gridsearch import GridContext
    from banachlab.neighborhood_base import build_leveled
    from banachlab.slice_lab import _pair_distances

    for i in (1, 2, 4):
        ctx = DNormContext(build_leveled(i, levels=8))
        gc = GridContext(ctx, grid_cells=512)
        rows = np.random.default_rng(25).standard_normal((64, gc.size))
        gc.seminorms(rows[:1])  # the geometry and its plan, built before the measurement
        tracemalloc.start()
        try:
            ia, _, _ = _pair_distances(gc, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        intervals = ctx.interval_bounds[0].size
        block = block_rows(gc.size, *gc.stored_geometry[:2])
        assert ia.size == 2016
        assert peak <= 32 * ia.size + 8 * block * (4 * gc.size + 4 * intervals)
        assert peak < 8 * ia.size * intervals / 3

import numpy as np
import pytest

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
    out = _kernels.range_abs_max(values, starts, ends)
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

import numpy as np
import pytest
from hypothesis import strategies as st

from banachlab.core_model import PLFunction, pl_eval
from banachlab.d_norm import DNormContext
from banachlab.neighborhood_base import build_leveled


@pytest.fixture(scope="session")
def base8():
    return build_leveled(1, levels=8)


@pytest.fixture(scope="session")
def ctx8(base8):
    return DNormContext(base8)


def ref_abs_argmax(f, a, b):
    """The ends of [a,b] and the breakpoints of f inside, f's values there,
    and the index of the largest |f|: the per-interval body that
    `abs_argmax_many` replaced."""
    cuts = f.breakpoints[(f.breakpoints > a) & (f.breakpoints < b)]
    pts = np.concatenate([[a], cuts, [b]])
    vals = pl_eval(f.breakpoints, f.values, pts)
    return pts, vals, int(np.argmax(np.abs(vals)))


def random_pl(rng, n_interior=12, amplitude=1.0):
    xs = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n_interior)]))
    ys = amplitude * rng.uniform(-1.0, 1.0, xs.size)
    return PLFunction(xs, ys)


@st.composite
def pl_densities(draw, grid_cells=64):
    """Signed PL functions; some breakpoints sit on the k/grid_cells nodes."""
    on_grid = draw(st.lists(st.integers(1, grid_cells - 1), max_size=6))
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6))
    bx = np.unique(np.concatenate([[0.0, 1.0], np.array(on_grid) / grid_cells, free]))
    ys = draw(st.lists(st.floats(-2.0, 2.0), min_size=bx.size, max_size=bx.size))
    return PLFunction(bx, np.array(ys))


def _ref_abs_piece_integral(x0, x1, y0, y1):
    if y0 * y1 >= 0.0:
        return abs(y0 + y1) * (x1 - x0) / 2.0
    xc = x0 + (x1 - x0) * y0 / (y0 - y1)
    return (abs(y0) * (xc - x0) + abs(y1) * (x1 - xc)) / 2.0


def ref_abs_integral(f, lo, hi):
    """The scalar per-piece loop that abs_integral used to run."""
    cuts = np.union1d(f.breakpoints, np.array([lo, hi]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    vals = f.eval(cuts)
    total = 0.0
    for k in range(cuts.size - 1):
        total += _ref_abs_piece_integral(cuts[k], cuts[k + 1], vals[k], vals[k + 1])
    return total


def smooth_positive_pl(rng, coarse=8, low=0.3, high=1.0):
    xs = np.linspace(0.0, 1.0, coarse + 1)
    ys = rng.uniform(low, high, coarse + 1)
    return PLFunction(xs, ys)


def make_slice_pair(ctx, rng, eps=None):
    """A random (SliceSpec, member x, eta) triple with verified margins.

    Functionals rotate through single diracs at dyadic points, two-atom
    combinations at {0,1} (both with tight closed-form norm brackets), and
    density measures whose bracket comes from dual_norm (workable only at
    larger eps).  x is a near-extremal member nudged by a random PL
    perturbation, renormalized exactly.
    """
    import math

    from banachlab.core_model import Enclosure, Measure, lin_comb
    from banachlab.d_norm import d_norm, dirac_dual_norm, dual_norm
    from banachlab.slice_lab import SliceSpec, norming_bump

    kind = rng.integers(0, 10)
    if kind < 6:  # single dirac at a dyadic grid point
        j = int(rng.integers(2, 6))
        k = int(rng.integers(0, 2 ** j + 1))
        t = k * 2.0 ** -j
        w = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        m = Measure.dirac(t, w)
        enc = dirac_dual_norm(ctx, t)
        fn = Enclosure(abs(w) * enc.lo, abs(w) * enc.hi)
        x0 = norming_bump(ctx, t).scaled(math.copysign(1.0, w))
        eps = float(rng.uniform(0.1, 0.5)) if eps is None else eps
    elif kind < 8:  # two atoms at 0 and 1 (disjoint memberships)
        w0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        w1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        m = Measure(atoms=((0.0, w0), (1.0, w1)))
        tail = 2.0 ** -ctx.base.n_max
        wl0, wl1 = ctx.base.weight(0.0).lo, ctx.base.weight(1.0).lo
        fn = Enclosure(
            math.sqrt(w0 ** 2 / (wl0 + tail) + w1 ** 2 / (wl1 + tail)),
            math.sqrt(w0 ** 2 / wl0 + w1 ** 2 / wl1),
        )
        amp0 = abs(w0) / wl0
        amp1 = abs(w1) / wl1
        b0 = norming_bump(ctx, 0.0)
        b1 = norming_bump(ctx, 1.0)
        x0 = lin_comb(
            math.copysign(amp0 / b0.eval(0.0), w0), b0,
            math.copysign(amp1 / b1.eval(1.0), w1), b1,
        )
        x0 = x0.scaled(1.0 / (d_norm(ctx, x0).hi * (1.0 + 1e-12)))
        eps = float(rng.uniform(0.1, 0.5)) if eps is None else eps
    else:  # density functional, bracket from dual_norm
        # conservative membership divides by the certified upper bound, so
        # these slices are only populated at larger eps
        dens = smooth_positive_pl(rng)
        m = Measure(density=dens)
        br = dual_norm(ctx, m, budget=1200, seed=int(rng.integers(0, 2 ** 16)))
        fn = br.as_enclosure()
        x0 = br.witness
        eps = float(rng.uniform(0.42, 0.5)) if eps is None else max(eps, 0.42)

    S = SliceSpec(m, fn, eps)
    delta = eps / 2.0
    need = 1.0 - eps
    for alpha in (0.3 * eps, 0.1 * eps, 0.02 * eps, 0.0):
        g = random_pl(rng, 8)
        x = lin_comb(1.0, x0, alpha, g) if alpha > 0.0 else x0
        x = x.scaled(1.0 / (d_norm(ctx, x).hi * (1.0 + 1e-12)))
        val = S.value(x)
        margin = val - need
        if margin > eps / 8.0 and d_norm(ctx, x).lo > 1.0 - delta:
            eta = min((eps - delta) / 2.0, margin / 2.0)
            return S, x, eta
    raise AssertionError("pair generation failed; widen the margins")

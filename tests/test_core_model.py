import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import _kernels
from banachlab.core_model import (
    Enclosure,
    Measure,
    PLFunction,
    abs_argmax_many,
    abs_integral,
    abs_integral_cells,
    build_flip,
    function_from_dict,
    function_to_dict,
    integrate,
    integrate_many,
    lin_comb,
    measure_combine,
    measure_from_dict,
    measure_to_dict,
)
from banachlab.errors import DomainError

from conftest import pl_densities, random_pl, ref_abs_argmax, ref_abs_integral


class TestEval:
    def test_linear_interpolation(self):
        f = PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert f.eval(0.5) == 0.5

    def test_constant(self):
        assert PLFunction.constant(1.0).eval(0.3) == 1.0

    def test_midpoint_of_piece(self):
        f = PLFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert f.eval(0.25) == 0.5

    def test_exact_at_breakpoints(self):
        rng = np.random.default_rng(0)
        f = random_pl(rng)
        assert np.array_equal(f.eval(f.breakpoints), f.values)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            PLFunction.constant(1.0).eval(1.5)

    def test_invalid_breakpoints(self):
        with pytest.raises(DomainError):
            PLFunction(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            PLFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))


def sup_abs_on(f, a, b):
    """Exact sup of |f| over [a, b], from `_kernels.sup_abs_many`."""
    return float(_kernels.sup_abs_many(f.breakpoints, f.values, np.array([a]), np.array([b]))[0])


class TestSupAbsOn:
    def test_peak_inside(self):
        tent = PLFunction.tent()
        assert sup_abs_on(tent, 0.4, 0.6) == 1.0

    def test_monotone_piece_open_endpoint(self):
        tent = PLFunction.tent()
        # sup over the open interval equals the closure value at 0.25
        assert sup_abs_on(tent, 0.0, 0.25) == 0.5

    def test_absolute_value(self):
        f = PLFunction.constant(-2.0)
        assert sup_abs_on(f, 0.1, 0.9) == 2.0

    def test_grid_oracle(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 4001)
        for _ in range(25):
            f = random_pl(rng)
            a, b = sorted(rng.uniform(0.0, 1.0, 2))
            if b - a < 1e-6:
                continue
            exact = sup_abs_on(f, a, b)
            pts = grid[(grid >= a) & (grid <= b)]
            pts = np.concatenate([[a], pts, [b]])
            brute = float(np.max(np.abs(f.eval(pts))))
            assert brute <= exact + 1e-12
            assert exact <= brute + f.lipschitz_bound() * (grid[1] - grid[0])


class TestAbsArgmaxMany:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_abs_argmax_per_interval(self, seed):
        # ties come from rounded values, and ends on breakpoints, degenerate
        # intervals and intervals holding no breakpoint from the stored ends
        from banachlab.d_norm import DNormContext
        from banachlab.neighborhood_base import build_leveled

        rng = np.random.default_rng(seed)
        f = random_pl(rng, n_interior=int(rng.integers(0, 200)))
        if seed % 2:
            f = PLFunction(f.breakpoints, np.round(2.0 * f.values) / 2.0)
        lo, hi = DNormContext(build_leveled(1 + seed % 3, levels=6)).interval_bounds
        a = np.sort(rng.choice(np.concatenate([f.breakpoints, rng.uniform(0.0, 1.0, 40)]), (2, 60)),
                    axis=0)
        lo, hi = np.concatenate([lo, a[0], a[0]]), np.concatenate([hi, a[1], a[0]])
        got = abs_argmax_many(f, lo, hi)
        for k in range(lo.size):
            pts, _, j = ref_abs_argmax(f, float(lo[k]), float(hi[k]))
            assert got[k] == pts[j]

    def test_constant_takes_the_left_end(self):
        lo, hi = np.array([0.0, 0.25]), np.array([0.5, 1.0])
        assert abs_argmax_many(PLFunction.constant(-1.0), lo, hi).tolist() == [0.0, 0.25]


def ref_build_flip(x, flips):
    """`build_flip` as it scanned x's breakpoints once per flip."""
    inside = np.zeros(x.breakpoints.size, dtype=bool)
    for r, _, t in flips:
        inside |= (x.breakpoints > r) & (x.breakpoints < t)
    xs = np.union1d(x.breakpoints[~inside], np.ravel(flips))
    ys = x.eval(xs)
    mid = np.searchsorted(xs, [s for _, s, _ in flips])
    ys[mid] = -ys[mid]
    return PLFunction(xs, ys)


@pytest.mark.parametrize("seed", range(12))
def test_build_flip_matches_the_loop_per_flip(seed):
    # disjoint flips in a random order, each spanning several of x's
    # breakpoints, with ends and midpoints drawn from a pool that holds them;
    # odd seeds start each flip where the one before it ends
    rng = np.random.default_rng(seed)
    x = random_pl(rng, n_interior=int(rng.integers(0, 300)))
    pool = np.unique(np.concatenate([x.breakpoints, rng.uniform(0.0, 1.0, 60)]))
    count = int(rng.integers(1, 20))
    pts = np.sort(rng.choice(pool, 3 * count, replace=False))
    if seed % 2:
        pts = pts[:2 * count + 1]
        flips = [tuple(pts[2 * k:2 * k + 3].tolist()) for k in range(count)]
    else:
        flips = [tuple(pts[3 * k:3 * k + 3].tolist()) for k in range(count)]
    flips = [flips[k] for k in rng.permutation(count)]
    got, ref = build_flip(x, flips), ref_build_flip(x, flips)
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()
    assert build_flip(x, np.array(flips)).values.tobytes() == ref.values.tobytes()


def test_build_flip_of_no_flips_is_x():
    x = random_pl(np.random.default_rng(5))
    y = build_flip(x, [])
    assert y.breakpoints.tobytes() == x.breakpoints.tobytes()
    assert y.values.tobytes() == x.values.tobytes()


class TestIntegrate:
    def test_normalization(self):
        assert integrate(PLFunction.constant(1.0), Measure.lebesgue()) == 1.0

    def test_atom_evaluation(self):
        assert integrate(PLFunction.constant(1.0), Measure.dirac(0.5)) == 1.0

    def test_tent_area_with_riemann_oracle(self):
        tent = PLFunction.tent()
        exact = integrate(tent, Measure.lebesgue())
        assert exact == pytest.approx(0.5, abs=1e-15)
        ts = np.linspace(0.0, 1.0, 20001)
        riemann = float(np.trapezoid(tent.eval(ts), ts))
        assert exact == pytest.approx(riemann, abs=1e-6)

    def test_bilinear(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f, g = random_pl(rng), random_pl(rng)
            m1 = Measure(atoms=((0.3, 0.7),), density=random_pl(rng))
            m2 = Measure(density=random_pl(rng))
            a, b = rng.uniform(-2, 2, 2)
            left = integrate(lin_comb(a, f, b, g), m1)
            right = a * integrate(f, m1) + b * integrate(g, m1)
            assert left == pytest.approx(right, abs=1e-12)
            both = integrate(f, measure_combine(a, m1, b, m2))
            expect = a * integrate(f, m1) + b * integrate(f, m2)
            assert both == pytest.approx(expect, abs=1e-12)

    def test_partial_range_open_atoms(self):
        m = Measure(atoms=((0.5, 1.0),))
        got = integrate_many(PLFunction.constant(1.0), m, np.array([0.5, 0.4]), np.array([0.7, 0.7]))
        assert got.tolist() == [0.0, 1.0]
        # atoms at 0 and 1 count on all of [0, 1], and on no other interval
        ends = Measure(atoms=((0.0, 1.0), (1.0, 2.0)))
        got = integrate_many(PLFunction.constant(1.0), ends, np.array([0.0, 0.0]), np.array([0.5, 1.0]))
        assert got.tolist() == [0.0, 3.0] and integrate(PLFunction.constant(1.0), ends) == 3.0


class TestLinComb:
    def test_cancellation(self):
        f = PLFunction.tent()
        z = lin_comb(1.0, f, -1.0, f)
        assert z.is_zero()

    def test_constant_sum(self):
        two = lin_comb(1.0, PLFunction.constant(1.0), 1.0, PLFunction.constant(1.0))
        assert two.eval(0.77) == 2.0

    def test_two_tents_pointwise(self):
        f = PLFunction.tent(0.25)
        g = PLFunction.tent(0.75)
        h = lin_comb(0.5, f, 0.5, g)
        assert h.breakpoints.size >= 4
        ts = np.linspace(0.0, 1.0, 1001)
        assert np.allclose(h.eval(ts), 0.5 * (f.eval(ts) + g.eval(ts)), atol=1e-15)

    def test_random_exactness(self):
        rng = np.random.default_rng(3)
        f, g = random_pl(rng), random_pl(rng)
        a, b = 0.7, -1.3
        h = lin_comb(a, f, b, g)
        ts = rng.uniform(0.0, 1.0, 1000)
        assert np.max(np.abs(h.eval(ts) - (a * f.eval(ts) + b * g.eval(ts)))) < 1e-12


class TestLipschitz:
    def test_constant(self):
        assert PLFunction.constant(3.0).lipschitz_bound() == 0.0

    def test_tent(self):
        assert PLFunction.tent().lipschitz_bound() == 2.0

    def test_steepest_piece(self):
        f = PLFunction(np.array([0.0, 0.1, 1.0]), np.array([0.0, 1.0, 1.0]))
        assert f.lipschitz_bound() == pytest.approx(10.0)

    def test_oscillation_bound(self):
        rng = np.random.default_rng(4)
        f = random_pl(rng)
        lip = f.lipschitz_bound()
        ts = rng.uniform(0.0, 0.9, 200)
        d = 0.05
        assert np.all(np.abs(f.eval(ts + d) - f.eval(ts)) <= lip * d + 1e-12)


class TestMeasure:
    def test_total_variation(self):
        m = Measure(atoms=((0.2, -2.0), (0.8, 1.0)), density=PLFunction.constant(-1.0))
        assert m.total_variation() == pytest.approx(4.0)

    def test_abs_integral_splits_sign(self):
        f = PLFunction(np.array([0.0, 0.5, 1.0]), np.array([-1.0, 1.0, -1.0]))
        assert abs_integral(f) == pytest.approx(0.5)

    @pytest.mark.parametrize("atom", [(0.5, np.inf), (0.5, -np.inf), (0.5, np.nan), (np.nan, 1.0)])
    def test_non_finite_atoms_rejected(self, atom):
        with pytest.raises(DomainError):
            Measure(atoms=(atom,))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DomainError):
            Measure(atoms=((0.5, 1.0), (0.5, 2.0)))

    def test_abs_mass_open_interval(self):
        m = Measure(atoms=((0.5, -3.0),), density=PLFunction.constant(2.0))
        got = m.abs_mass_many(np.array([0.5, 0.4]), np.array([0.75, 0.75]))
        assert got.tolist() == pytest.approx([0.5, 3.0 + 0.7])


class TestJsonRoundTrip:
    def test_function_bit_exact(self):
        rng = np.random.default_rng(5)
        f = random_pl(rng)
        d = json.loads(json.dumps(function_to_dict(f)))
        g = function_from_dict(d)
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert np.array_equal(f.values, g.values)

    def test_measure_bit_exact(self):
        rng = np.random.default_rng(6)
        m = Measure(atoms=((rng.uniform(), rng.standard_normal()),), density=random_pl(rng))
        d = json.loads(json.dumps(measure_to_dict(m)))
        m2 = measure_from_dict(d)
        assert m.atoms == m2.atoms
        assert np.array_equal(m.density.values, m2.density.values)


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Enclosure(1.0, 0.5)

    def test_contains(self):
        e = Enclosure(0.9, 1.1)
        assert e.lo <= 1.0 <= e.hi and not e.lo <= 1.2 <= e.hi
        assert e.width == pytest.approx(0.2)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    t=st.floats(0, 1, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_lin_comb_pointwise_property(a, b, t, seed):
    rng = np.random.default_rng(seed)
    f, g = random_pl(rng, 6), random_pl(rng, 6)
    h = lin_comb(a, f, b, g)
    assert h.eval(t) == pytest.approx(a * f.eval(t) + b * g.eval(t), abs=1e-10)


# ---------------------------------------------------------------------------
# whole-array paths against the scalar loops they replaced: same operations
# in the same order, so results must be equal, not merely close
# ---------------------------------------------------------------------------


def ref_integrate(f, m, lo=0.0, hi=1.0):
    """The scalar per-atom and per-piece Simpson loop that integrate used to
    run, with the lo/hi range it took then."""
    full = lo == 0.0 and hi == 1.0
    total = 0.0
    for t, w in m.atoms:
        if (lo <= t <= hi) if full else (lo < t < hi):
            total += w * f.eval(t)
    rho = m.density
    if rho is not None and lo < hi:
        cuts = np.union1d(np.union1d(f.breakpoints, rho.breakpoints), np.array([lo, hi]))
        cuts = cuts[(cuts >= lo) & (cuts <= hi)]
        fv, rv = f.eval(cuts), rho.eval(cuts)
        for k in range(cuts.size - 1):
            x0, x1 = cuts[k], cuts[k + 1]
            xm = 0.5 * (x0 + x1)
            pm = f.eval(xm) * rho.eval(xm)
            total += (x1 - x0) / 6.0 * (fv[k] * rv[k] + 4.0 * pm + fv[k + 1] * rv[k + 1])
    return total


@settings(max_examples=60, deadline=None)
@given(rho=pl_densities(), extra=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_abs_integral_cells_bit_identical(rho, extra):
    edges = np.union1d(np.linspace(0.0, 1.0, 65), extra)
    cells = abs_integral_cells(rho, edges)
    ref = [ref_abs_integral(rho, a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert cells.tolist() == ref
    assert [abs_integral(rho, a, b) for a, b in zip(edges[:-1], edges[1:])] == ref


@settings(max_examples=60, deadline=None)
@given(rho=pl_densities(), lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
def test_abs_integral_bit_identical(rho, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    assert abs_integral(rho) == ref_abs_integral(rho, 0.0, 1.0)
    if lo < hi:
        assert abs_integral(rho, lo, hi) == ref_abs_integral(rho, lo, hi)


def ref_abs_mass_on(m, lo, hi):
    """|m| of (lo, hi) as Measure.abs_mass_on took it, one interval a call."""
    mass = 0.0
    for t, w in m.atoms:
        if lo < t < hi:
            mass += abs(w)
    if m.density is not None:
        mass += ref_abs_integral(m.density, max(lo, 0.0), min(hi, 1.0))
    return mass


@settings(max_examples=60, deadline=None)
@given(
    f=pl_densities(),
    rho=pl_densities(),
    atoms=st.dictionaries(st.floats(0.0, 1.0), st.floats(-2.0, 2.0), max_size=48),
    lo=st.floats(0.0, 1.0),
    hi=st.floats(0.0, 1.0),
)
def test_integrate_bit_identical(f, rho, atoms, lo, hi):
    m = Measure(tuple(atoms.items()), rho)
    lo, hi = min(lo, hi), max(lo, hi)
    assert integrate(f, m) == ref_integrate(f, m)
    assert integrate_many(f, m, np.array([lo]), np.array([hi]))[0] == ref_integrate(f, m, lo, hi)


@settings(max_examples=100, deadline=None)
@given(
    f=pl_densities(),
    rho=pl_densities() | st.none(),
    atoms=st.dictionaries(st.floats(0.0, 1.0), st.floats(-2.0, 2.0), max_size=48),
    data=st.data(),
)
def test_many_intervals_in_one_call(f, rho, atoms, data):
    # each interval is cut and summed as on its own, so the bits are equal;
    # the intervals may overlap, repeat, be points, span [0, 1], or end on a
    # breakpoint or an atom
    m = Measure(tuple(atoms.items()), rho)
    marks = [0.0, 1.0, *f.breakpoints, *atoms] + ([] if rho is None else [*rho.breakpoints])
    point = st.sampled_from(marks) | st.floats(0.0, 1.0)
    ends = data.draw(st.lists(st.tuples(point, point), max_size=8))
    lo, hi = np.array([sorted(e) for e in ends]).reshape(-1, 2).T
    ref = np.array([ref_integrate(f, m, a, b) for a, b in zip(lo, hi)], dtype=float)
    assert integrate_many(f, m, lo, hi).tobytes() == ref.tobytes()
    ref = np.array([ref_abs_mass_on(m, a, b) for a, b in zip(lo, hi)], dtype=float)
    assert m.abs_mass_many(lo, hi).tobytes() == ref.tobytes()


def test_many_intervals_outside_the_unit_interval():
    m = Measure(((0.5, 1.0),), PLFunction.constant(1.0))
    with pytest.raises(DomainError):
        integrate_many(PLFunction.tent(), m, np.array([0.2, -0.1]), np.array([0.4, 0.3]))
    with pytest.raises(DomainError):
        m.abs_mass_many(np.array([0.6]), np.array([0.4]))
    # the density's range is clamped to [0, 1]
    assert m.abs_mass_many(np.array([-1.0]), np.array([2.0])).tolist() == [ref_abs_mass_on(m, -1.0, 2.0)]

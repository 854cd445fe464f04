import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banachlab.core_model import Enclosure, Interval, Measure, PLFunction, integrate, lin_comb
from banachlab.d_norm import (
    DNormContext,
    ball_norm,
    conservative_value,
    d_norm,
    dirac_dual_norm,
    dual_norm,
    functional_bracket,
    into_unit_ball,
    seminorm,
    seminorms_all,
    sphere_norm,
    sup_norm_bounds,
    weighted_tv_upper,
)
from banachlab.errors import DomainError, HypothesisError, IndexRangeError
from banachlab.neighborhood_base import EpsilonSchedule, build_custom, build_leveled

from banachlab.gridsearch import GridContext

from conftest import pl_densities, random_pl, ref_abs_integral

SCHED = EpsilonSchedule()


class TestSeminorm:
    def test_constant(self, ctx8):
        for n in (1, 5, 100):
            assert seminorm(ctx8, PLFunction.constant(1.0), n) == 1.0

    def test_tent_on_left_quarter(self, ctx8):
        # third stored interval is [0, 0.25 + eps_3); tent slope 2
        val = seminorm(ctx8, PLFunction.tent(), 3)
        assert val == pytest.approx(2.0 * (0.25 + SCHED.eps(3)), abs=1e-15)

    def test_zero(self, ctx8):
        assert seminorm(ctx8, PLFunction.constant(0.0), 2) == 0.0

    def test_index_error(self, ctx8):
        with pytest.raises(IndexRangeError):
            seminorm(ctx8, PLFunction.constant(1.0), ctx8.base.n_max + 1)


class TestDNorm:
    def test_constant_one(self, ctx8):
        enc = d_norm(ctx8, PLFunction.constant(1.0))
        assert enc.contains(1.0)
        assert enc.hi == 1.0
        assert enc.width <= 2.0 ** (-ctx8.base.n_max / 2 + 1)

    def test_zero(self, ctx8):
        enc = d_norm(ctx8, PLFunction.constant(0.0))
        assert enc.lo == 0.0 and enc.hi == 0.0

    def test_tent_stable_under_deepening(self, ctx8):
        shallow = d_norm(ctx8, PLFunction.tent())
        assert shallow.width < 2.0 ** -4
        deep = d_norm(DNormContext(build_leveled(1, levels=14)), PLFunction.tent())
        assert abs(shallow.mid - deep.mid) < 1e-6

    def test_norm_axioms_on_random(self, ctx8):
        rng = np.random.default_rng(7)
        for _ in range(15):
            f, g = random_pl(rng), random_pl(rng)
            ef, eg = d_norm(ctx8, f), d_norm(ctx8, g)
            es = d_norm(ctx8, lin_comb(1.0, f, 1.0, g))
            slack = ef.width + eg.width + es.width + 1e-12
            assert es.mid <= ef.mid + eg.mid + slack
            c = rng.uniform(-3, 3)
            ec = d_norm(ctx8, f.scaled(c))
            assert ec.mid == pytest.approx(abs(c) * ef.mid, abs=slack + 1e-9)
            if not f.is_zero():
                assert ef.lo > 0.0  # definiteness
        assert d_norm(ctx8, PLFunction.constant(0.0)).hi == 0.0

    def test_convexity_transfer(self, ctx8):
        # if ‖x±y_k‖ → ‖x‖ then each seminorm converges too
        x = PLFunction.constant(1.0)
        sx = seminorms_all(ctx8, x)
        for k in (4, 16, 64):
            y = PLFunction.tent().scaled(1.0 / k)
            sp = seminorms_all(ctx8, lin_comb(1.0, x, 1.0, y))
            sm = seminorms_all(ctx8, lin_comb(1.0, x, -1.0, y))
            assert np.max(np.abs(sp - sx)) <= 2.0 / k
            assert np.max(np.abs(sm - sx)) <= 2.0 / k


class TestEquivalence:
    def test_upper_identity(self, ctx8):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = random_pl(rng)
            assert d_norm(ctx8, f).hi <= f.sup_abs() + 1e-12

    def test_lower_with_b(self, ctx8):
        b_lo, note = sup_norm_bounds(ctx8)
        assert b_lo > 0.0
        assert note["min_weight_lo"] == pytest.approx(b_lo * b_lo)
        rng = np.random.default_rng(9)
        for _ in range(100):
            f = random_pl(rng)
            enc = d_norm(ctx8, f)
            assert enc.lo >= b_lo * f.sup_abs() - enc.width - 1e-12


class TestDiracDual:
    def test_custom_base_exact_formula(self):
        base = build_custom([Interval(0.2, 0.4)], has_tail=False)
        enc = dirac_dual_norm(DNormContext(base), 0.3)
        assert enc.lo == enc.hi == pytest.approx(math.sqrt(2.0))

    def test_leveled_series_at_zero(self):
        ctx = DNormContext(build_leveled(1, levels=12))
        w = sum(2.0 ** -(2 ** l - 1) for l in range(1, 13))
        enc = dirac_dual_norm(ctx, 0.0)
        assert enc.lo == pytest.approx(1.0 / math.sqrt(w + 2.0 ** -ctx.base.n_max))
        assert enc.hi == pytest.approx(1.0 / math.sqrt(w))

    def test_hypothesis_failure(self, ctx8):
        with pytest.raises(HypothesisError):
            dirac_dual_norm(ctx8, 1 / 3)


class TestDualNorm:
    def test_dirac_agreement(self, ctx8):
        enc = dirac_dual_norm(ctx8, 0.0)
        br = dual_norm(ctx8, Measure.dirac(0.0), budget=600, seed=0)
        assert br.lower <= enc.hi + 1e-12
        assert enc.hi - br.lower < 1e-2

    def test_homogeneity_exact(self, ctx8):
        b1 = dual_norm(ctx8, Measure.dirac(0.25), budget=300, seed=1)
        b2 = dual_norm(ctx8, Measure.dirac(0.25, 2.0), budget=300, seed=1)
        assert b2.lower == pytest.approx(2.0 * b1.lower, rel=1e-12)
        assert b2.upper == pytest.approx(2.0 * b1.upper, rel=1e-12)

    def test_lebesgue_witnessed_by_constant(self, ctx8):
        br = dual_norm(ctx8, Measure.lebesgue(), budget=400, seed=2)
        assert br.lower >= 1.0 - 1e-9
        assert br.upper >= br.lower

    def test_zero_measure(self, ctx8):
        with pytest.raises(DomainError):
            dual_norm(ctx8, Measure(), budget=10, seed=0)

    def test_monotone_in_budget(self, ctx8):
        m = Measure(atoms=((0.0, 1.0),), density=PLFunction.tent())
        small = dual_norm(ctx8, m, budget=150, seed=3)
        big = dual_norm(ctx8, m, budget=900, seed=3)
        assert big.lower >= small.lower - 1e-12

    def test_weighted_upper_dominates_crude(self, ctx8):
        b_lo, _ = sup_norm_bounds(ctx8)
        for m in (Measure.lebesgue(), Measure(atoms=((0.5, 1.0),), density=PLFunction.tent())):
            assert weighted_tv_upper(ctx8, m) <= m.total_variation() / b_lo + 1e-12

    def test_non_finite_upper_refused(self, ctx8):
        # each weight is finite, but the bound overflows to inf
        m = Measure(atoms=((0.0, 1e308), (1.0, 1e308)))
        with pytest.raises(DomainError, match="not finite"):
            dual_norm(ctx8, m, budget=50, seed=0)

    def test_bracket_commutes_with_power_of_two_scaling(self, ctx8):
        # dual_norm brackets an exact power-of-two rescale of m, so scaling m
        # by 2^k scales the bracket's bits and leaves the witness as it is
        m = Measure(((0.3, 2.0), (0.5, -1.0)), PLFunction.tent())
        br = dual_norm(ctx8, m, budget=200, seed=1)
        for k in (-900, -3, 5, 900):
            bk = dual_norm(ctx8, m.scaled(math.ldexp(1.0, k)), budget=200, seed=1)
            assert bk.lower == math.ldexp(br.lower, k)
            assert bk.upper == math.ldexp(br.upper, k)
            assert bk.witness.values.tolist() == br.witness.values.tolist()

    def test_witness_certified_feasible(self, ctx8):
        br = dual_norm(ctx8, Measure.lebesgue(), budget=300, seed=4)
        assert d_norm(ctx8, br.witness).hi <= 1.0 + 1e-12

    def test_into_unit_ball(self, ctx8):
        inside = PLFunction.tent()
        assert into_unit_ball(ctx8, inside) is inside
        scaled = into_unit_ball(ctx8, PLFunction.constant(3.0))
        assert 1.0 - 1e-9 < d_norm(ctx8, scaled).hi <= 1.0
        assert scaled.values[0] == scaled.values[1] > 0.0


def ref_require_unit(ctx, x, tol=0.05):
    """The unit-sphere check rotundity_lab ran before sphere_norm."""
    enc = d_norm(ctx, x)
    gap = max(enc.lo - 1.0, 1.0 - enc.hi, 0.0)
    if gap > tol:
        raise DomainError(f"norm enclosure [{enc.lo}, {enc.hi}] is not within {tol} of 1")
    return enc


def ref_in_ball(ctx, x):
    """The ball test tent_flip_witness spelled out before ball_norm."""
    return not d_norm(ctx, x).hi > 1.0 + 1e-9


def _outcome(check, *args):
    try:
        return check(*args)
    except DomainError as exc:
        return str(exc)


class TestBallAndSphere:
    @pytest.mark.parametrize("levels", [8, 2])  # at levels 2 the tail parts lo from hi
    def test_checks_match_the_old_copies(self, levels):
        ctx = DNormContext(build_leveled(1, levels=levels))
        rng = np.random.default_rng(21)
        for f in [PLFunction.tent(), PLFunction.constant(1.0)] + [random_pl(rng) for _ in range(6)]:
            e = d_norm(ctx, f)
            scales = [1.0 / e.hi * r for r in (0.5, 0.94, 0.95, 0.951, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.05, 1.2)]
            scales += [1.0 / e.lo * r for r in (0.95, 0.951, 1.0, 1.049, 1.05, 1.051)]
            for a in scales:
                x = f.scaled(a)
                assert _outcome(sphere_norm, ctx, x) == _outcome(ref_require_unit, ctx, x)
                ball = _outcome(ball_norm, ctx, x)
                assert isinstance(ball, Enclosure) == ref_in_ball(ctx, x)
                if isinstance(ball, Enclosure):
                    assert ball == d_norm(ctx, x)


class TestFunctionalBracket:
    def test_isolated_dirac_takes_the_formula(self, ctx8):
        enc = dirac_dual_norm(ctx8, 0.0)
        got = functional_bracket(ctx8, Measure.dirac(0.0, -2.5), budget=100)
        assert (got.lo, got.hi) == (2.5 * enc.lo, 2.5 * enc.hi)

    @pytest.mark.parametrize("budget", [512, 64])
    def test_non_isolated_dirac_takes_dual_norm(self, ctx8, budget):
        m = Measure.dirac(1 / 3)
        got = functional_bracket(ctx8, m, budget=budget)
        ref = dual_norm(ctx8, m, budget=budget)
        assert (got.lo, got.hi) == (ref.lower, ref.upper)

    def test_density_takes_dual_norm(self, ctx8):
        m = Measure(((0.0, 1.0),), PLFunction.tent())
        got = functional_bracket(ctx8, m, budget=200)
        ref = dual_norm(ctx8, m, budget=200)
        assert (got.lo, got.hi) == (ref.lower, ref.upper)

    def test_other_errors_propagate(self):
        # isolated, but outside every stored interval: no fallback to dual_norm
        ctx = DNormContext(build_custom([Interval(0.2, 0.4)], has_tail=False))
        with pytest.raises(DomainError, match="no stored weight"):
            functional_bracket(ctx, Measure.dirac(0.8), budget=50)


def test_conservative_value_directions():
    from banachlab.core_model import Enclosure

    enc = Enclosure(2.0, 4.0)
    assert conservative_value(4.0, enc) == 1.0
    assert conservative_value(-4.0, enc) == -2.0


# ---------------------------------------------------------------------------
# the density path against the scalar loops it replaced: same operations in
# the same order, so results must be equal, not merely close
# ---------------------------------------------------------------------------


def ref_weight_cells(ctx):
    """One base.weight call per cell midpoint, as weight_cells used to do."""
    lo, hi = ctx.base.clamped_bounds
    pts = np.unique(np.concatenate([[0.0, 1.0], lo, hi]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    return pts, np.array([ctx.base.weight(float(t)).lo for t in mids])


def ref_weighted_tv_upper(ctx, cells, m):
    pts, wlo = cells
    total = 0.0
    for t, w in m.atoms:
        total += abs(w) / np.sqrt(ctx.base.weight(t).lo)
    for k in range(pts.size - 1):
        total += ref_abs_integral(m.density, float(pts[k]), float(pts[k + 1])) / np.sqrt(wlo[k])
    return float(total)


def ref_functional_coeffs(gc, m):
    """The per-cell, per-piece, per-point loop functional_coeffs used to run."""
    g = gc.nodes
    c = np.zeros(g.size)
    for t, w in m.atoms:
        k = int(np.clip(np.searchsorted(g, t, side="right") - 1, 0, g.size - 2))
        th = (t - g[k]) / (g[k + 1] - g[k])
        c[k] += w * (1.0 - th)
        c[k + 1] += w * th
    rho = m.density
    for k in range(g.size - 1):
        x0, x1 = g[k], g[k + 1]
        cuts = rho.breakpoints[(rho.breakpoints > x0) & (rho.breakpoints < x1)]
        pieces = np.concatenate([[x0], cuts, [x1]])
        h = x1 - x0
        for j in range(pieces.size - 1):
            a, b = pieces[j], pieces[j + 1]
            mid = 0.5 * (a + b)
            for t_eval, simpson_w in ((a, 1.0), (mid, 4.0), (b, 1.0)):
                rv = rho.eval(float(t_eval))
                s = (t_eval - x0) / h
                scale = (b - a) / 6.0 * simpson_w * rv
                c[k] += scale * (1.0 - s)
                c[k + 1] += scale * s
    return c


@pytest.mark.parametrize("i,levels", [(1, 8), (2, 8), (3, 8), (4, 8), (1, 9), (1, 12)])
def test_weight_cells_bit_identical(i, levels):
    ctx = DNormContext(build_leveled(i, levels=levels))
    pts, wlo = ctx.weight_cells()
    ref_pts, ref_wlo = ref_weight_cells(ctx)
    assert pts.tolist() == ref_pts.tolist()
    assert wlo.tolist() == ref_wlo.tolist()


@pytest.fixture(scope="module")
def cells8(ctx8):
    return ref_weight_cells(ctx8)


@settings(max_examples=40, deadline=None)
@given(rho=pl_densities())
def test_weighted_tv_upper_bit_identical(ctx8, cells8, rho):
    from banachlab.d_norm import _pow2_scale, _unscale

    for m in (Measure(density=rho), Measure(((0.25, -1.5), (0.5, 0.75)), rho)):
        # the sum runs on m scaled by a power of two, so that it cannot
        # underflow; unscaled it gave 0 for the density [0, 5e-324]
        scale = _pow2_scale(m)
        ref = _unscale(ref_weighted_tv_upper(ctx8, cells8, m.scaled(scale)), scale, math.inf)
        assert weighted_tv_upper(ctx8, m) == ref


@pytest.fixture(scope="module")
def grid64(ctx8):
    return GridContext(ctx8, grid_cells=64)


@settings(max_examples=40, deadline=None)
@given(rho=pl_densities())
def test_functional_coeffs_bit_identical(ctx8, grid64, rho):
    m = Measure(((0.3, 2.0), (0.5, -1.0)), rho)
    # density breakpoints inside grid cells, and on the nodes as dual_norm builds it
    for gc in (grid64, GridContext(ctx8, rho, grid_cells=64)):
        assert gc.functional_coeffs(m).tolist() == ref_functional_coeffs(gc, m).tolist()


# ---------------------------------------------------------------------------
# the dual-norm program
# ---------------------------------------------------------------------------


def ref_weight_probes(ctx):
    """One base.weight call per probe, as _weight_probes used to make."""
    pts = np.unique(np.concatenate([[0.0, 1.0], *ctx.base.clamped_bounds]))
    probes = np.unique(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))
    return probes, np.array([ctx.base.weight(float(t)).lo for t in probes])


def random_custom_base():
    rng = np.random.default_rng(12)
    lefts = rng.uniform(-0.05, 0.95, 300)
    return build_custom([Interval(a, a + rng.uniform(0.06, 0.5)) for a in lefts])


@pytest.mark.parametrize(
    "base",
    [build_leveled(i, levels=levels) for i, levels in ((1, 8), (1, 9), (1, 12), (2, 9), (2, 12), (3, 8))]
    + [random_custom_base()],
)
def test_weight_probes_bit_identical(base):
    ctx = DNormContext(base)
    probes, wlo = ctx._weight_probes
    ref_probes, ref_wlo = ref_weight_probes(ctx)
    assert probes.tobytes() == ref_probes.tobytes()
    assert wlo.tobytes() == ref_wlo.tobytes()


PROGRAM_MEASURES = [
    Measure.dirac(0.0),
    Measure(((0.0, 1.0), (1.0, 0.8))),
    Measure(((0.0, 1.0), (1.0, -1.2))),
    Measure(((0.0, 0.9), (0.25, -1.1), (0.5, 1.3), (1.0, 0.7))),
    Measure.lebesgue(),
    Measure(density=PLFunction(np.linspace(0.0, 1.0, 9),
                               np.array([0.4, 0.9, 0.5, 0.7, 0.3, 0.8, 0.6, 1.0, 0.35]))),
    Measure(((0.3, -0.6), (0.5, 1.0)), PLFunction(np.array([0.0, 0.4, 1.0]), np.array([1.0, -0.5, 0.8]))),
]


def test_program_takes_more_terms_where_the_first_leave_mass_uncovered():
    # the first 70 intervals lie inside [0, 0.445]; only the last two reach 1
    ivs = [Interval(0.005 * k, 0.005 * k + 0.1) for k in range(70)]
    ctx = DNormContext(build_custom(ivs + [Interval(0.4, 1.0), Interval(0.0, 1.0)]))
    for m in (Measure.lebesgue(), Measure.dirac(0.9, -1.0)):
        br = dual_norm(ctx, m, budget=500, seed=0)
        assert 0.0 < br.lower <= br.upper <= br.lower * (1.0 + 1e-5)
        assert br.upper <= weighted_tv_upper(ctx, m)


@pytest.fixture(scope="module")
def ctx12():
    return DNormContext(build_leveled(1, levels=12))


@pytest.mark.parametrize("k", range(len(PROGRAM_MEASURES)))
def test_program_brackets_agree_at_levels_8_and_12(ctx8, ctx12, k):
    m = PROGRAM_MEASURES[k]
    b8, b12 = dual_norm(ctx8, m, budget=500, seed=1), dual_norm(ctx12, m, budget=500, seed=1)
    assert b12.lower == pytest.approx(b8.lower, rel=1e-6)
    assert b12.upper == pytest.approx(b8.upper, rel=1e-6)
    for br in (b8, b12):
        assert br.upper <= br.lower * (1.0 + 1e-5)


def test_lebesgue_bracket_is_tight(ctx8):
    br = dual_norm(ctx8, Measure.lebesgue(), budget=500, seed=1)
    assert 1.0800 < br.lower <= br.upper < 1.0801


@pytest.mark.parametrize("ctx_name", ["ctx8", "ctx12"])
def test_isolated_dirac_brackets_close(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    for t in (0.0, 0.25, 0.375, 0.5, 0.8125, 1.0):
        for w in (1.0, -2.5, 0.7):
            m = Measure.dirac(t, w)
            br = dual_norm(ctx, m, budget=300, seed=1)
            # the upper end keeps the bits of the weighted total-variation bound
            assert br.upper == weighted_tv_upper(ctx, m)
            assert br.upper - br.lower <= 4.0 * math.ulp(br.upper)


def test_no_unit_ball_member_beats_the_upper_end(ctx8):
    rng = np.random.default_rng(11)
    for m in PROGRAM_MEASURES:
        br = dual_norm(ctx8, m, budget=500, seed=1)
        for _ in range(60):
            g = random_pl(rng)
            # random members, and witnesses nudged within the bracket's width
            for x in (g, lin_comb(1.0, br.witness, 0.01 * rng.uniform(), g)):
                x = x.scaled(1.0 / d_norm(ctx8, x).hi)
                assert integrate(x, m) <= br.upper
                assert integrate(x.scaled(-1.0), m) <= br.upper


atom_lists = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0)), max_size=4, unique_by=lambda a: a[0]
)


@settings(max_examples=40, deadline=None)
@given(rho=pl_densities(), atoms=atom_lists)
def test_program_bracket_on_random_measures(ctx8, rho, atoms):
    m = Measure(tuple(atoms), rho)
    # a norm that underflows has no positive certified lower end; the
    # subnormal range is test_subnormal_brackets_round_outward's
    assume(weighted_tv_upper(ctx8, m) >= 2.0**-1000)
    br = dual_norm(ctx8, m, budget=500, seed=1)
    assert 0.0 < br.lower <= br.upper <= weighted_tv_upper(ctx8, m) * (1.0 + 1e-12)
    assert d_norm(ctx8, br.witness).hi <= 1.0
    # the lower end is the witness's exact value
    assert integrate(br.witness, m) == pytest.approx(br.lower, rel=1e-12)


@pytest.mark.parametrize("k", [1040, 1070, 1073])
def test_subnormal_brackets_round_outward(ctx8, k):
    # m scaled by 2^-k: the same program bits, scaled back into the subnormals
    for m in (Measure.lebesgue(), Measure.dirac(1 / 3), Measure(((0.0, 1.0), (1.0, -1.0)))):
        ref = dual_norm(ctx8, m, budget=500, seed=1)
        br = dual_norm(ctx8, m.scaled(math.ldexp(1.0, -k)), budget=500, seed=1)
        assert 0.0 <= br.lower <= br.upper
        assert math.ldexp(br.lower, k) <= ref.lower
        assert math.ldexp(br.upper, k) >= ref.upper


def test_weighted_tv_upper_rounds_subnormal_measures_up(ctx8):
    # the density rising from 0 to 5e-324 is the unit ramp times 2^-1074;
    # unscaled, every term of its bound underflowed to 0
    ramp = Measure(density=PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    for m in (ramp, Measure.lebesgue(), Measure(((0.0, 1.0), (1.0, -1.0)), ramp.density)):
        ref = weighted_tv_upper(ctx8, m)
        for k in (1040, 1070, 1074):
            assert math.ldexp(weighted_tv_upper(ctx8, m.scaled(math.ldexp(1.0, -k))), k) >= ref
    zero = Measure(((0.5, 0.0),), PLFunction(np.array([0.0, 1.0]), np.array([0.0, 0.0])))
    assert weighted_tv_upper(ctx8, zero) == 0.0

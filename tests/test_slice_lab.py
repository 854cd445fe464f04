import dataclasses
import math

import numpy as np
import pytest

from banachlab.core_model import (
    Enclosure,
    Interval,
    Measure,
    PLFunction,
    integrate,
    lin_comb,
    measure_combine,
)
from banachlab.d_norm import (
    RESCALE_SAFETY,
    DNormContext,
    ball_norm,
    d_norm,
    dirac_dual_norm,
    dual_norm,
    into_unit_ball,
    seminorms_all,
)
from banachlab.errors import (
    CertificateFailure,
    DomainError,
    HypothesisError,
    ParameterError,
    SamplingError,
)
from banachlab.gridsearch import GridContext
from banachlab.neighborhood_base import NeighborhoodBase, build_custom, build_leveled
from banachlab import slice_lab
from banachlab.slice_lab import (
    BallSet,
    ComboSet,
    DiameterEstimate,
    ShellSliceSet,
    SliceSet,
    SliceSpec,
    WitnessCertificate,
    _slice_member_matrix,
    diameter_lower_bound,
    disjoint_points,
    l2_sum_slice_inclusion,
    norming_bump,
    norming_functional,
    small_diameter_combo,
    subslice,
    tent_flip_witness,
)

from conftest import make_slice_pair, random_pl, ref_abs_argmax


@pytest.fixture(scope="module")
def lam_slice(ctx8):
    br = dual_norm(ctx8, Measure.lebesgue(), budget=800, seed=3)
    return SliceSpec(Measure.lebesgue(), br.as_enclosure(), 0.45)


class TestSliceContains:
    def test_admits_matches_the_old_rules(self, ctx8, lam_slice):
        # the old exact rule S.value(x) > 1 − ε, through conservative_value,
        # and the old grid rule values / ‖m‖*.hi > 1 − ε
        from conftest import random_pl
        from banachlab.gridsearch import GridContext

        rng = np.random.default_rng(22)
        fs = [PLFunction.constant(c) for c in (-1.0, 0.0, 0.5, 0.6, 1.0)]
        fs += [random_pl(rng).scaled(0.5) for _ in range(20)]
        for S in (lam_slice, SliceSpec(Measure.dirac(0.5, -2.0), Enclosure(2.0, 2.5), 0.3)):
            for x in fs:
                assert S.admits(integrate(x, S.functional)) == (S.value(x) > 1.0 - S.epsilon)
            gc = GridContext(ctx8, S.functional, grid_cells=64)
            rows = gc.rescale_to_ball(np.vstack([gc.random_smooth(rng, 40), np.ones(gc.size)]))
            vals = rows @ gc.functional_coeffs(S.functional)
            assert S.admits(vals).tolist() == (vals / S.functional_norm.hi > 1.0 - S.epsilon).tolist()


class TestTentFlip:
    def test_constant_against_lebesgue(self, ctx8, lam_slice):
        one = PLFunction.constant(1.0)
        cert = tent_flip_witness(ctx8, lam_slice, one, delta_target=0.1, eta=0.02)
        assert cert.achieved_distance_lo > 1.8
        assert cert.achieved_functional > 1.0 - lam_slice.epsilon
        assert cert.achieved_norm_hi <= cert.x_norm_hi
        # y dips to the negated midpoint value on each flip interval
        r, s, t = cert.flip_intervals[0]
        assert cert.y.eval(s) == pytest.approx(-one.eval(s))
        cert.verify(ctx8, lam_slice, one)

    def test_atom_avoided(self, ctx8):
        S = SliceSpec(Measure.dirac(0.5), dirac_dual_norm(ctx8, 0.5), 0.3)
        one = PLFunction.constant(1.0)
        cert = tent_flip_witness(ctx8, S, one, delta_target=0.15)
        assert cert.y.eval(0.5) == 1.0  # flips avoid the atom entirely
        for r, s, t in cert.flip_intervals:
            assert not (r < 0.5 < t)

    def test_delta_not_below_eps(self, ctx8, lam_slice):
        with pytest.raises(DomainError):
            tent_flip_witness(ctx8, lam_slice, PLFunction.constant(1.0), delta_target=0.5)

    def test_flip_intervals_pairwise_disjoint(self, ctx8):
        rng = np.random.default_rng(21)
        S, x, eta = make_slice_pair(ctx8, rng, eps=0.3)
        cert = tent_flip_witness(ctx8, S, x, delta_target=0.15, eta=eta)
        ivs = sorted(cert.flip_intervals)
        for (r1, _, t1), (r2, _, t2) in zip(ivs, ivs[1:]):
            assert t1 <= r2

    def test_certificate_failure_detected(self, ctx8, lam_slice):
        one = PLFunction.constant(1.0)
        cert = tent_flip_witness(ctx8, lam_slice, one, delta_target=0.1, eta=0.02)
        forged = WitnessCertificate(
            y=PLFunction.constant(0.9),  # close to x: distance inequality must fail
            flip_intervals=cert.flip_intervals,
            N=cert.N,
            delta=cert.delta,
            eta=cert.eta,
            achieved_functional=cert.achieved_functional,
            achieved_distance_lo=cert.achieved_distance_lo,
            achieved_norm_hi=cert.achieved_norm_hi,
            x_norm_hi=cert.x_norm_hi,
        )
        with pytest.raises(CertificateFailure):
            forged.verify(ctx8, lam_slice, one)


    def test_verify_rederives_the_norm_of_x(self, ctx8, lam_slice):
        # the certificate records ‖x‖.hi, yet verify computes it again: a
        # slightly shorter x no longer dominates y
        one = PLFunction.constant(1.0)
        cert = tent_flip_witness(ctx8, lam_slice, one, delta_target=0.1, eta=0.02)
        cert.verify(ctx8, lam_slice, one)
        with pytest.raises(CertificateFailure) as exc:
            cert.verify(ctx8, lam_slice, one.scaled(1.0 - 1e-6))
        assert exc.value.inequality == "norm domination"

    def test_certificate_holds_the_old_loop_values(self, ctx8):
        # the attempt loop used to compute these before building the certificate
        from banachlab.d_norm import conservative_value

        rng = np.random.default_rng(31)
        for _ in range(4):
            S, x, eta = make_slice_pair(ctx8, rng, eps=0.3)
            cert = tent_flip_witness(ctx8, S, x, delta_target=0.15, eta=eta)
            y = cert.y
            assert cert.achieved_functional == conservative_value(
                integrate(y, S.functional), S.functional_norm
            )
            assert cert.achieved_distance_lo == d_norm(ctx8, lin_comb(1.0, x, -1.0, y)).lo
            assert cert.achieved_norm_hi == d_norm(ctx8, y).hi
            assert cert.x_norm_hi == d_norm(ctx8, x).hi

    @pytest.mark.parametrize(
        "forge",
        [
            lambda y: PLFunction.constant(0.0),
            lambda y: PLFunction.constant(0.9),
            lambda y: y.scaled(1.05),
        ],
    )
    def test_forged_y_fails_the_old_inequality(self, ctx8, lam_slice, forge):
        one = PLFunction.constant(1.0)
        cert = tent_flip_witness(ctx8, lam_slice, one, delta_target=0.1, eta=0.02)
        forged = dataclasses.replace(cert, y=forge(cert.y))
        with pytest.raises(CertificateFailure) as old:
            ref_verify(ctx8, lam_slice, one, forged)
        with pytest.raises(CertificateFailure) as new:
            forged.verify(ctx8, lam_slice, one)
        assert new.value.inequality == old.value.inequality
        assert str(new.value) == str(old.value)

    def test_failed_checks_recorded(self, ctx8, lam_slice, monkeypatch):
        # a flip that leaves x unchanged fails the distance inequality each time
        from banachlab import slice_lab
        from banachlab.errors import WitnessNotFoundError

        monkeypatch.setattr(slice_lab, "build_flip", lambda x, flips: x)
        monkeypatch.setattr(slice_lab, "FLIP_ATTEMPTS", 12)
        with pytest.raises(WitnessNotFoundError) as exc:
            tent_flip_witness(ctx8, lam_slice, PLFunction.constant(1.0), 0.1, eta=0.02)
        checks = exc.value.diagnostics["last_checks"]
        assert checks["attempt"] == 11
        assert checks["inequality"] == "flip distance lower bound"


def ref_verify(ctx, S, x, cert):
    """The body WitnessCertificate.verify ran before it shared the check."""
    fy = S.value(cert.y)
    if not fy > 1.0 - S.epsilon:
        raise CertificateFailure(
            f"functional value {fy} fails > 1-eps={1.0 - S.epsilon}",
            inequality="slice membership of y",
        )
    dist = d_norm(ctx, lin_comb(1.0, x, -1.0, cert.y)).lo
    if not dist > 2.0 - 2.0 * cert.delta:
        raise CertificateFailure(
            f"distance {dist} fails > {2.0 - 2.0 * cert.delta}",
            inequality="flip distance lower bound",
        )
    ynorm = d_norm(ctx, cert.y).hi
    xnorm = d_norm(ctx, x).hi
    if not ynorm <= xnorm:
        raise CertificateFailure(f"norm {ynorm} exceeds {xnorm}", inequality="norm domination")
    return {"functional": fy, "distance_lo": dist, "norm_hi": ynorm}


class TestDisjointPoints:
    def test_i2_endpoints(self):
        base = build_leveled(2, levels=6)
        assert disjoint_points(base) == (0.0, 1.0)

    def test_i3_disjoint_memberships(self):
        base = build_leveled(3, levels=6)
        pts = disjoint_points(base)
        assert len(pts) == 3
        masks = [base.closure_mask(t) for t in pts]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.any(masks[a] & masks[b])

    def test_i1_single_point(self):
        base = build_leveled(1, levels=4)
        assert disjoint_points(base) == (0.0,)


class TestCombo:
    @pytest.mark.parametrize("i", [2, 3])
    def test_bound_formula(self, i):
        ctx = DNormContext(build_leveled(i, levels=8))
        slices, bound, cert = small_diameter_combo(ctx, i)
        assert len(slices) == i
        assert bound == pytest.approx(math.sqrt(i + cert.slack) / i)
        assert cert.slack <= 0.15 + 1e-12
        assert cert.diameter_bound == pytest.approx(2.0 * bound)

    def test_i5_bound_near_ideal(self):
        ctx = DNormContext(build_leveled(5, levels=6))
        _, bound, cert = small_diameter_combo(ctx, 5, target_slack=0.05)
        assert bound == pytest.approx(math.sqrt(5.0) / 5.0, abs=0.01)

    def test_i1_rejected(self):
        ctx = DNormContext(build_leveled(1, levels=4))
        with pytest.raises(ParameterError):
            small_diameter_combo(ctx, 1)

    def test_eta_too_large(self):
        ctx = DNormContext(build_leveled(2, levels=6))
        with pytest.raises(ParameterError) as exc:
            small_diameter_combo(ctx, 2, eta=0.2)
        assert exc.value.max_feasible is not None

    def test_bound_decreases_like_inverse_sqrt(self):
        # i=6 sits beyond float64: the required eta drops below the ulp of 1
        bounds = []
        for i, levels in ((2, 8), (3, 8), (4, 8), (5, 6)):
            ctx = DNormContext(build_leveled(i, levels=levels))
            _, bound, _ = small_diameter_combo(ctx, i, target_slack=0.05)
            bounds.append(bound * math.sqrt(i))
        assert max(bounds) - min(bounds) < 0.25  # ~ i^{-1/2} scaling

    @pytest.mark.parametrize("emp, consistent", [(1.0, True), (1.5, False)])
    def test_sampled_diameter_checked_against_the_diameter_bound(self, monkeypatch, emp, consistent):
        # at i = 2 the radius bound is 0.7331 and the diameter bound 1.4663:
        # a sampled diameter of 1.0 exceeds the first and not the second
        ctx = DNormContext(build_leveled(2, levels=8))
        est = DiameterEstimate(emp, None, 2, 2, (emp,))
        monkeypatch.setattr(slice_lab, "diameter_lower_bound", lambda *args: est)
        _, bound, cert = small_diameter_combo(ctx, 2, budget=10, seed=1)
        assert bound < 1.0 <= 2.0 * bound < 1.5
        assert cert.empirical_diameter == emp
        assert cert.empirical_consistent is consistent


class TestL2Sum:
    def test_shell_radius_value(self):
        assert l2_sum_slice_inclusion(0.02) == pytest.approx(math.sqrt(0.0396))

    def test_limit_zero(self):
        assert l2_sum_slice_inclusion(1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            l2_sum_slice_inclusion(1.5)


class TestSubslice:
    def test_inclusion_and_containment(self, ctx8, lam_slice):
        one = PLFunction.constant(1.0)
        Ssub = subslice(ctx8, lam_slice, one, delta=0.2)
        assert Ssub.epsilon == 0.2
        assert Ssub.value(one) > 0.8

    def test_delta_must_be_smaller(self, ctx8, lam_slice):
        with pytest.raises(DomainError):
            subslice(ctx8, lam_slice, PLFunction.constant(1.0), delta=0.6)

    def test_extremal_member(self, ctx8):
        # x nearly norms the mixed functional, so integrate(x, mixed)/‖x‖.hi
        # rounded to 1.0000000000000002, above the bracket's certified 1.0
        w = 1.394929375243456
        enc = dirac_dual_norm(ctx8, 0.125)
        S = SliceSpec(Measure.dirac(0.125, w), Enclosure(w * enc.lo, w * enc.hi), 0.3)
        bump = norming_bump(ctx8, 0.125)
        x = bump.scaled(1.0 / (d_norm(ctx8, bump).hi * RESCALE_SAFETY))
        Ssub = subslice(ctx8, S, x, delta=0.1)
        assert Ssub.functional_norm == Enclosure(1.0, 1.0)
        assert Ssub.value(x) > 0.9

    def test_boundary_member_rejected(self, ctx8):
        # a function whose slice value sits exactly at the boundary is not a
        # certified member (strict inequality), so construction refuses it
        S = SliceSpec(Measure.dirac(0.0), dirac_dual_norm(ctx8, 0.0), 0.2)
        bump = norming_bump(ctx8, 0.0)
        boundary = bump.scaled((1.0 - S.epsilon) / S.value(bump))
        with pytest.raises(DomainError):
            subslice(ctx8, S, boundary, delta=0.1)


def ref_subslice(ctx, S, x, delta, samples=1000, seed=0):
    """`subslice` as it ran while 1000 sampled members of each candidate
    slice double-checked the inclusion in S."""

    def verify_inclusion(Snew):
        gc = GridContext(ctx, Snew.functional, x, grid_cells=256)
        try:
            members, _ = _slice_member_matrix(
                gc, Snew, samples, seed, anchor_v=gc.sample_function(x)
            )
        except SamplingError:
            return False
        return bool(np.all(S.admits(members @ gc.functional_coeffs(S.functional))))

    eps = S.epsilon
    if not 0.0 < delta < eps:
        raise DomainError("need 0 < delta < epsilon")
    xe = ball_norm(ctx, x)
    if not S.admits(integrate(x, S.functional)):
        raise DomainError("x must be a certified member of S")
    g = norming_functional(ctx, x)
    m_hat = S.functional.scaled(1.0 / S.functional_norm.hi)
    lam = 1.0 - delta / eps
    last = None
    for _ in range(20):
        mixed = measure_combine(1.0 - lam, m_hat, lam, g)
        fn = Enclosure(min(max(integrate(x, mixed) / xe.hi, 1e-12), 1.0), 1.0)
        Snew = SliceSpec(mixed, fn, delta)
        contains_x = Snew.admits(integrate(x, mixed))
        inclusion_ok = contains_x and verify_inclusion(Snew)
        if contains_x and inclusion_ok:
            return Snew
        last = (contains_x, inclusion_ok)
        lam *= 0.9
    raise DomainError(f"subslice construction failed (contains_x, inclusion checks): {last}")


def _subslice_inputs(ctx, monkeypatch):
    """(S, x, delta): the benchmark's witness inputs at seeds 1–3, the CLI's
    δ_0.5 slice at the constant 1, and a Lebesgue slice at its dual-norm
    witness."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WITNESS_COUNT, witness_inputs

    inputs = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 1])
        for k in range(WITNESS_COUNT):
            S, x, delta, _ = witness_inputs(ctx, rng, k)
            inputs.append((S, x, delta))
    half = Measure.dirac(0.5)
    inputs.append((SliceSpec.of(ctx, half, 0.3), PLFunction.constant(1.0), 0.1))
    br = dual_norm(ctx, Measure.lebesgue())
    inputs.append((SliceSpec(Measure.lebesgue(), br.as_enclosure(), 0.3), br.witness, 0.1))
    return inputs


def _measure_bytes(m):
    dens = None if m.density is None else (
        m.density.breakpoints.tobytes(), m.density.values.tobytes())
    return m.atoms, dens


def test_subslice_matches_the_sampled_reference(ctx8, monkeypatch):
    for S, x, delta in _subslice_inputs(ctx8, monkeypatch):
        got, ref = subslice(ctx8, S, x, delta), ref_subslice(ctx8, S, x, delta)
        assert _measure_bytes(got.functional) == _measure_bytes(ref.functional)
        assert got.functional_norm == ref.functional_norm
        assert got.epsilon == ref.epsilon


def test_subslice_premises_hold(ctx8, monkeypatch):
    # the inclusion rests on two premises: the functional mixes m̂ and g at a
    # λ ≤ 1 − δ/ε of the loop's schedule, and g has dual norm ≤ 1
    for S, x, delta in _subslice_inputs(ctx8, monkeypatch):
        Snew = subslice(ctx8, S, x, delta)
        g = norming_functional(ctx8, x)
        m_hat = S.functional.scaled(1.0 / S.functional_norm.hi)
        schedule = [1.0 - delta / S.epsilon]
        for _ in range(19):
            schedule.append(schedule[-1] * 0.9)
        mixes = [_measure_bytes(measure_combine(1.0 - lam, m_hat, lam, g)) for lam in schedule]
        assert _measure_bytes(Snew.functional) in mixes
        assert dual_norm(ctx8, g).upper <= 1.0 + 1e-5


def ref_norming_functional(ctx, x):
    """norming_functional as it took one `abs_argmax` (`ref_abs_argmax`) per
    stored index."""
    s = seminorms_all(ctx, x)
    lo = float(np.sqrt(np.dot(ctx.weights, s * s)))
    atoms = {}
    ilo, ihi = ctx.interval_bounds
    for n in range(1, min(48, ctx.n_eff) + 1):
        if s[n - 1] == 0.0:
            continue
        pts, vals, k = ref_abs_argmax(x, float(ilo[n - 1]), float(ihi[n - 1]))
        t_star = float(pts[k])
        weight = 2.0 ** -n * s[n - 1] * math.copysign(1.0, float(vals[k])) / lo
        atoms[t_star] = atoms.get(t_star, 0.0) + weight
    return Measure(tuple(atoms.items()))


def ref_near_max_component(f, a, b, tau):
    """The component of {|f| >= tau} in [a, b] around the maximizer of |f|,
    as tent_flip_witness took it with one `abs_argmax` (`ref_abs_argmax`)
    per stored index."""
    if tau <= 0.0:
        return a, b
    pts, vals, k = ref_abs_argmax(f, a, b)
    lo_idx = k
    while lo_idx > 0 and abs(vals[lo_idx - 1]) >= tau:
        lo_idx -= 1
    left = pts[lo_idx]
    if lo_idx > 0:
        left = slice_lab._abs_crossing(pts[lo_idx - 1], pts[lo_idx], vals[lo_idx - 1], vals[lo_idx], tau)
    hi_idx = k
    while hi_idx < pts.size - 1 and abs(vals[hi_idx + 1]) >= tau:
        hi_idx += 1
    right = pts[hi_idx]
    if hi_idx < pts.size - 1:
        right = slice_lab._abs_crossing(pts[hi_idx + 1], pts[hi_idx], vals[hi_idx + 1], vals[hi_idx], tau)
    return float(left), float(right)


def awkward_functions(rng):
    """The tent, a negative constant, a plateau, a function that is 0 on
    part of [0, 1], and eight random functions, half with rounded (tied)
    values."""
    xs = [PLFunction.tent(), PLFunction.constant(-0.5),
          PLFunction(np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.0, -2.0, -2.0])),
          PLFunction(np.array([0.0, 0.125, 0.25, 1.0]), np.array([1.0, -1.0, 0.0, 0.0]))]
    for k in range(8):
        f = random_pl(rng, n_interior=int(rng.integers(1, 300)))
        xs.append(PLFunction(f.breakpoints, np.round(4.0 * f.values) / 4.0) if k % 2 else f)
    return xs


@pytest.mark.parametrize("levels", [8, 12])
def test_near_max_components_match_the_loop_per_index(levels):
    # levels at a peak's own value, just below it, at the values of the
    # seminorms less a margin (as tent_flip_witness takes them), 0 and below
    ctx = DNormContext(build_leveled(1, levels=levels))
    rng = np.random.default_rng(levels + 40)
    ilo, ihi = ctx.interval_bounds
    n = min(ctx.n_eff, 300)
    for x in awkward_functions(rng):
        s = seminorms_all(ctx, x)[:n]
        for taus in (s, np.nextafter(s, 0.0), np.maximum(s - rng.uniform(0.0, 0.5, n), 0.0),
                     np.where(rng.random(n) < 0.3, -1.0, 0.5 * s)):
            got = slice_lab._near_max_components(x, ilo[:n], ihi[:n], taus)
            ref = [ref_near_max_component(x, float(a), float(b), float(tau))
                   for a, b, tau in zip(ilo[:n], ihi[:n], taus)]
            assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("levels", [8, 12])
def test_norming_functional_matches_the_loop_per_index(levels):
    # peaks on shared interval ends and ties (rounded values, a constant, a
    # plateau), signed values, and intervals where x is 0, so s_n = 0
    ctx = DNormContext(build_leveled(1, levels=levels))
    for x in awkward_functions(np.random.default_rng(levels)):
        got, ref = norming_functional(ctx, x), ref_norming_functional(ctx, x)
        assert np.array(got.atoms).tobytes() == np.array(ref.atoms).tobytes()


class TestNormingFunctional:
    def test_nearly_norms(self, ctx8):
        tent = PLFunction.tent()
        x = tent.scaled(1.0 / d_norm(ctx8, tent).hi)
        g = norming_functional(ctx8, x)
        val = integrate(x, g)
        assert val == pytest.approx(d_norm(ctx8, x).lo, abs=1e-6)

    def test_dual_bound_on_samples(self, ctx8):
        rng = np.random.default_rng(22)
        tent = PLFunction.tent()
        x = tent.scaled(1.0 / d_norm(ctx8, tent).hi)
        g = norming_functional(ctx8, x)
        from conftest import random_pl

        for _ in range(20):
            z = random_pl(rng)
            assert abs(integrate(z, g)) <= d_norm(ctx8, z).hi + 1e-9


@pytest.fixture(scope="module")
def combos():
    """The context at levels 8 and the slices of small_diameter_combo at i."""
    import functools

    @functools.cache
    def build(i):
        ctx = DNormContext(build_leveled(i, levels=8))
        return ctx, small_diameter_combo(ctx, i)[0]

    return build


class TestDiameter:
    def test_slice_reaches_beyond_1_8(self, ctx8, lam_slice):
        est = diameter_lower_bound(ctx8, SliceSet(lam_slice), budget=3000, seed=5)
        assert est.value > 1.8
        # returned pair re-verifies
        for p in est.pair:
            assert d_norm(ctx8, p).hi <= 1.0 + 1e-9
        assert d_norm(ctx8, lin_comb(1.0, est.pair[0], -1.0, est.pair[1])).lo == pytest.approx(
            est.value
        )

    def test_ball_antipodal(self, ctx8):
        est = diameter_lower_bound(ctx8, BallSet(), budget=400, seed=6)
        assert est.value <= 2.0 + 1e-9
        # the truncation term plus the float slack of the radial rescale
        assert est.value >= 2.0 - 2.0 ** (-ctx8.base.n_max / 2) - 1e-10
        # the pair is ±1 rescaled into the ball, and nothing is drawn
        one = PLFunction.constant(1.0)
        x = one.scaled(1.0 / (d_norm(ctx8, one).hi * RESCALE_SAFETY))
        assert np.array_equal(est.pair[0].values, x.values)
        assert np.array_equal(est.pair[1].values, -x.values)
        assert (est.feasible_samples, est.evaluations) == (2, 2)
        assert est.pair_distances == (est.value,) == (d_norm(ctx8, x.scaled(2.0)).lo,)

    def test_one_slice_combination_is_its_slice(self, ctx8):
        # sampling this combination's members reads 1.8998 at budget 5000
        S = SliceSpec(Measure.dirac(0.5), dirac_dual_norm(ctx8, 0.5), 0.3)
        est = diameter_lower_bound(ctx8, ComboSet((S,), (1.0,)), 5000, 1)
        ref = diameter_lower_bound(ctx8, SliceSet(S), 5000, 1)
        assert (est.feasible_samples, est.evaluations) == (2, 3)
        assert est.value == ref.value >= 2.0 - 2e-4
        for p, q in zip(est.pair, ref.pair):
            assert np.array_equal(p.breakpoints, q.breakpoints)
            assert np.array_equal(p.values, q.values)
        # a weight other than exactly 1 scales the slice, which is sampled
        est = diameter_lower_bound(ctx8, ComboSet((S,), (1.0 - 2.0 ** -45,)), 0, 1)
        assert est.feasible_samples == 8

    def test_combo_spends_nothing_on_refinement(self):
        # a combination's evaluations are its members' rescales and its pair
        # distances, however large the budget
        ctx = DNormContext(build_leveled(2, levels=8))
        slices, _, _ = small_diameter_combo(ctx, 2)
        est = diameter_lower_bound(ctx, ComboSet(slices, (0.5, 0.5)), 5000, 1)
        assert est.evaluations == 2226

    def test_each_norming_bump_built_once(self, ctx8, monkeypatch):
        # the grid and a one-atom slice's anchor share one bump per atom; a
        # combination's slices are built with theirs
        from banachlab import slice_lab

        ctx2 = DNormContext(build_leveled(2, levels=8))
        calls = []

        def counting(ctx, t):
            calls.append(t)
            return norming_bump(ctx, t)

        monkeypatch.setattr(slice_lab, "norming_bump", counting)
        S = SliceSpec(Measure.dirac(0.5, -1.0), dirac_dual_norm(ctx8, 0.5), 0.3)
        diameter_lower_bound(ctx8, SliceSet(S), budget=400, seed=1)
        assert calls == [0.5]
        calls.clear()
        combo, _, _ = small_diameter_combo(ctx2, 2)
        diameter_lower_bound(ctx2, ComboSet(combo, (0.5, 0.5)), 400, 1)
        assert calls == [t for s in combo for t, _ in s.functional.atoms]

    def test_combo_consistent_with_bound(self):
        ctx = DNormContext(build_leveled(2, levels=8))
        slices, bound, cert = small_diameter_combo(ctx, 2, budget=1500, seed=9)
        assert cert.empirical_diameter is not None
        assert cert.empirical_diameter <= bound

    def test_monotone_in_budget(self, combos):
        # only a combination's value depends on the budget: more members per
        # slice, the first ones drawn as before
        ctx, slices = combos(2)
        spec = ComboSet(slices, (0.5, 0.5))
        small = diameter_lower_bound(ctx, spec, budget=600, seed=7)
        big = diameter_lower_bound(ctx, spec, budget=2400, seed=7)
        assert big.value >= small.value - 1e-12

    @pytest.mark.parametrize("budget", [0, 500, 2000, 5000])
    @pytest.mark.parametrize("levels", [2, 4, 8])
    def test_pair_members_reverify(self, levels, budget):
        # both members re-verify in the slice and the ball, and a shell's
        # at lo ≥ 1 − τ, whichever path built the pair
        ctx = DNormContext(build_leveled(1, levels=levels))
        leb = Measure.lebesgue()
        dirac = SliceSpec(Measure.dirac(0.0), dirac_dual_norm(ctx, 0.0), 0.9)
        lebesgue = SliceSpec.of(ctx, leb, 0.3)
        sets = [SliceSet(dirac), ShellSliceSet(dirac, 0.01),
                SliceSet(lebesgue), ShellSliceSet(lebesgue, 0.2)]
        for spec in sets:
            est = diameter_lower_bound(ctx, spec, budget, 1)
            tau = getattr(spec, "tau", 1.0)
            for p in est.pair:
                e = d_norm(ctx, p)
                assert spec.slice.value(p) > 1.0 - spec.slice.epsilon
                assert e.hi <= 1.0 and e.lo >= 1.0 - tau

    @pytest.mark.parametrize("budget", [100, 500, 2000])
    @pytest.mark.parametrize("seed", range(1, 9))
    @pytest.mark.parametrize("i", [2, 3, 4])
    def test_combo_value_is_the_best_pair_distance(self, combos, i, seed, budget):
        # a combination has no refinement and no flip seed: its value is the
        # d_norm lo of the best sampled pair, which each pair distance equals
        ctx, slices = combos(i)
        spec = ComboSet(slices, (1.0 / len(slices),) * len(slices))
        est = diameter_lower_bound(ctx, spec, budget, seed)
        assert est.value == max(est.pair_distances)

    def test_shell_set(self, ctx8, lam_slice):
        est = diameter_lower_bound(
            ctx8, ShellSliceSet(lam_slice, tau=0.5), budget=1500, seed=8
        )
        assert est.value > 0.0


def ref_build_flip(x, flips):
    """The point-by-point loop `build_flip` ran before it evaluated x once."""
    inside = np.zeros(x.breakpoints.size, dtype=bool)
    for r, _, t in flips:
        inside |= (x.breakpoints > r) & (x.breakpoints < t)
    pts = set(x.breakpoints[~inside].tolist())
    flip_nodes = {}
    for r, s, t in flips:
        pts.update((r, s, t))
        flip_nodes[s] = -x.eval(s)
    xs = np.array(sorted(pts))
    ys = np.array([flip_nodes.get(p, x.eval(p)) for p in xs])
    return PLFunction(xs, ys)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_build_flip_matches_the_point_loop(seed, monkeypatch):
    # every flip built on the benchmark's witness inputs, compared by bytes
    from pathlib import Path

    from banachlab import core_model, slice_lab

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WITNESS_COUNT, make_ctx, witness_inputs

    calls = []
    real = core_model.build_flip
    monkeypatch.setattr(
        slice_lab, "build_flip", lambda x, flips: calls.append((x, flips)) or real(x, flips)
    )
    ctx = make_ctx(1, 8)
    rng = np.random.default_rng([seed, 1])
    for k in range(WITNESS_COUNT):
        S, x, delta, eta = witness_inputs(ctx, rng, k)
        tent_flip_witness(ctx, S, x, delta, eta=eta)
    assert len(calls) >= WITNESS_COUNT
    for x, flips in calls:
        got, ref = real(x, flips), ref_build_flip(x, flips)
        assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
        assert got.values.tobytes() == ref.values.tobytes()


def _mixture():
    """−0.5·δ_0.3 + (1 − 2t)dt: a signed atom on a signed density."""
    return Measure(((0.3, -0.5),), PLFunction(np.array([0.0, 1.0]), np.array([1.0, -1.0])))


ANCHOR_MEASURES = {
    "lebesgue": Measure.lebesgue(),
    "density": Measure((), PLFunction(np.array([0.0, 0.3, 1.0]), np.array([0.5, 2.0, 1.0]))),
    "two_atoms": Measure(((0.0, 1.0), (1.0, 0.7))),
    "mixture": _mixture(),
    "rising": Measure((), PLFunction(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))),
}


class TestSliceAnchor:
    """A slice whose functional is not one isolated atom is anchored at the
    dual-norm program's witness, which the member grid refines."""

    @pytest.fixture(scope="class")
    def contexts(self, ctx8):
        return {8: ctx8, 12: DNormContext(build_leveled(1, levels=12))}

    @pytest.mark.parametrize("cells", [256, 512])
    @pytest.mark.parametrize("levels", [8, 12])
    @pytest.mark.parametrize("name", list(ANCHOR_MEASURES))
    def test_anchor_nearly_norms_the_functional(self, contexts, levels, cells, name):
        ctx, m = contexts[levels], ANCHOR_MEASURES[name]
        br = dual_norm(ctx, m)
        # ε = 0.45 admits the anchor, so it is the first member
        S = SliceSpec(m, br.as_enclosure(), 0.45)
        anchor = S.anchor(ctx)
        gc = GridContext(ctx, m, anchor, grid_cells=cells)
        rows, evals = _slice_member_matrix(gc, S, 8, 1, gc.sample_function(anchor))
        assert d_norm(ctx, gc.to_plfunction(rows[0])).hi <= 1.0
        # sampled exactly, the witness loses only the rescale into the ball
        assert integrate(gc.to_plfunction(rows[0]), m) >= (1.0 - 1e-5) * br.lower
        # one evaluation for the anchor, then 8 per sampling round
        assert (evals - 1) % 8 == 0

    def test_anchor_order(self, ctx8):
        # the spec's own witness, else a signed bump, else the program's witness
        leb = ANCHOR_MEASURES["lebesgue"]
        br = dual_norm(ctx8, leb)
        given = SliceSpec(leb, br.as_enclosure(), 0.3, PLFunction.constant(0.5))
        assert given.anchor(ctx8) is given.witness
        atom = SliceSpec(Measure.dirac(0.5, -2.0), Enclosure(2.0, 2.5), 0.3)
        bump = norming_bump(ctx8, 0.5)
        assert np.array_equal(atom.anchor(ctx8).values, -bump.values)
        off = Measure.dirac(0.3)  # not isolated: no bump, so the program
        br = dual_norm(ctx8, off)
        S = SliceSpec(off, br.as_enclosure(), 0.3)
        assert np.array_equal(S.anchor(ctx8).values, br.witness.values)

    @pytest.mark.parametrize(
        "name,eps",
        [("lebesgue", 0.02), ("lebesgue", 0.05),
         ("mixture", 0.02), ("mixture", 0.1), ("mixture", 0.2)],
    )
    def test_thin_slices_have_members(self, ctx8, name, eps):
        # an anchor well below ‖m‖* lies outside a slice this thin, and no
        # perturbation of it lands inside: "no feasible slice member found"
        m = ANCHOR_MEASURES[name]
        S = SliceSpec(m, dual_norm(ctx8, m).as_enclosure(), eps)
        est = diameter_lower_bound(ctx8, SliceSet(S), budget=2000, seed=1)
        assert 0.0 < est.value <= 2.0

    @pytest.mark.parametrize(
        "name,eps",
        [(name, eps) for name in ("lebesgue", "density", "mixture") for eps in (0.01, 0.02, 0.05)]
        + [("rising", 0.01)],
    )
    def test_thin_slices_at_i2_have_members(self, name, eps):
        # the witness interpolated onto 512 uniform cells fell out of these
        # slices; sampled exactly on a grid that refines it, it stays in
        ctx = DNormContext(build_leveled(2, levels=6))
        m = ANCHOR_MEASURES[name]
        est = diameter_lower_bound(ctx, SliceSet(SliceSpec.of(ctx, m, eps)), 2000, 1)
        assert 1.98 < est.value <= 2.0


def ref_functional_bracket_witness(ctx, m, budget):
    """The bracket for ‖m‖* and its lower end's witness as
    `d_norm.functional_bracket_witness` chose them: the dirac formula with
    no witness for one isolated atom, else the `dual_norm` bracket."""
    if len(m.atoms) == 1 and m.density is None:
        t, w = m.atoms[0]
        try:
            enc = dirac_dual_norm(ctx, t)
        except HypothesisError:
            pass
        else:
            return Enclosure(abs(w) * enc.lo, abs(w) * enc.hi), None
    br = dual_norm(ctx, m, budget=budget)
    return br.as_enclosure(), br.witness


def ref_anchor(ctx, S):
    """`SliceSpec.anchor` as it made its own choice: the spec's witness,
    else the signed bump of one isolated atom, else the program's
    witness at budget 2000."""
    if S.witness is not None:
        return S.witness
    m = S.functional
    if len(m.atoms) == 1 and m.density is None:
        t, w = m.atoms[0]
        try:
            return norming_bump(ctx, t).scaled(math.copysign(1.0, w))
        except DomainError:
            pass
    return dual_norm(ctx, m).witness


CHOOSER_MEASURES = {
    "dirac_0_neg": Measure.dirac(0.0, -2.5),
    "dirac_third": Measure.dirac(1.0 / 3.0),  # not isolated: the program
    "two_atoms": ANCHOR_MEASURES["two_atoms"],
    "lebesgue": ANCHOR_MEASURES["lebesgue"],
    "tent": Measure((), PLFunction.tent()),
}


def _pl_bytes(f):
    return f.breakpoints.tobytes(), f.values.tobytes()


class TestSliceOf:
    """`SliceSpec.of` is the one chooser from a measure to its slice: the
    bracket and witness of the two choosers it replaced, bit for bit."""

    @pytest.mark.parametrize("budget", [64, 2000])
    @pytest.mark.parametrize("levels", [2, 8, 12])
    @pytest.mark.parametrize("name", list(CHOOSER_MEASURES))
    def test_matches_the_bracket_and_anchor_it_replaced(self, name, levels, budget):
        ctx = DNormContext(build_leveled(1, levels=levels))
        m = CHOOSER_MEASURES[name]
        S = SliceSpec.of(ctx, m, 0.3, budget)
        enc, witness = ref_functional_bracket_witness(ctx, m, budget)
        got = (S.functional_norm.lo.hex(), S.functional_norm.hi.hex())
        assert got == (float(enc.lo).hex(), float(enc.hi).hex())
        assert _pl_bytes(S.witness) == _pl_bytes(ref_anchor(ctx, SliceSpec(m, enc, 0.3, witness)))
        # a spec built by position with no witness anchors as before
        bare = SliceSpec(m, enc, 0.3)
        assert _pl_bytes(bare.anchor(ctx)) == _pl_bytes(ref_anchor(ctx, bare))

    @pytest.mark.parametrize("budget", [64, 2000])
    def test_uncovered_atom_raises_as_before(self, budget):
        # isolated, but outside every stored interval of a base with no tail
        ctx = DNormContext(build_custom([Interval(0.2, 0.4)], has_tail=False))
        m = Measure.dirac(0.8)
        with pytest.raises(DomainError, match="carries no stored weight"):
            ref_functional_bracket_witness(ctx, m, budget)
        with pytest.raises(DomainError, match="carries no stored weight"):
            SliceSpec.of(ctx, m, 0.3, budget)

    def test_a_dirac_diameter_tests_isolation_once(self, monkeypatch):
        # the bracket, the bump and the flip pair ask the base once
        ctx = DNormContext(build_leveled(1, levels=8))
        calls = []
        real = NeighborhoodBase._isolation_test

        def counting(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(NeighborhoodBase, "_isolation_test", counting)
        S = SliceSpec.of(ctx, Measure.dirac(0.375), 0.3, 1)
        diameter_lower_bound(ctx, SliceSet(S), 0, 1)
        diameter_lower_bound(ctx, SliceSet(SliceSpec(S.functional, S.functional_norm, 0.3)), 0, 1)
        assert calls == [0.375]


FLIP_MEASURES = {
    **{name: ANCHOR_MEASURES[name] for name in ("lebesgue", "rising", "mixture")},
    "dirac_0+dirac_1": Measure(((0.0, 1.0), (1.0, 1.0))),
    "dirac_3/16": Measure.dirac(3.0 / 16.0),
    "dirac_half_neg": Measure.dirac(0.5, -2.0),
}


def _check_members(ctx, spec, pair):
    """Both members certified in the slice, in the ball, and for a shell
    with lo ≥ 1 − τ."""
    S = spec.slice
    for p in pair:
        e = d_norm(ctx, p)
        assert S.admits(integrate(p, S.functional))
        assert e.hi <= 1.0
        if isinstance(spec, ShellSliceSet):
            assert e.lo >= 1.0 - spec.tau


class TestFlipPair:
    """A slice or shell stands on the flip pair of its anchor, pulled into
    the ball, at δ = min(ε/2, FLIP_DELTA + 1 − ‖x‖.lo)."""

    @pytest.fixture(scope="class")
    def brackets(self):
        import functools

        @functools.cache
        def build(levels_i, name):
            i, levels = levels_i
            ctx = DNormContext(build_leveled(i, levels=levels))
            return ctx, SliceSpec.of(ctx, FLIP_MEASURES[name], 0.5)

        return build

    @pytest.mark.parametrize("tau", [None, 0.2, 0.01])
    @pytest.mark.parametrize("eps", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("name", list(FLIP_MEASURES))
    @pytest.mark.parametrize("base", [(1, 8), (2, 6)])
    def test_slice_and_shell(self, brackets, base, name, eps, tau):
        from banachlab.slice_lab import FLIP_DELTA

        ctx, of = brackets(base, name)
        S = dataclasses.replace(of, epsilon=eps)
        spec = SliceSet(S) if tau is None else ShellSliceSet(S, tau)
        est = diameter_lower_bound(ctx, spec, 2000, 1)
        x = into_unit_ball(ctx, S.anchor(ctx))
        delta = min(eps / 2.0, FLIP_DELTA + (1.0 - d_norm(ctx, x).lo))
        assert est.feasible_samples == 2 and est.evaluations == 3
        assert np.array_equal(est.pair[0].values, x.values)
        dist = d_norm(ctx, lin_comb(1.0, est.pair[0], -1.0, est.pair[1])).lo
        assert est.value == dist > 2.0 - 2.0 * delta
        assert est.pair_distances == (est.value,)
        _check_members(ctx, spec, est.pair)

    def test_x_is_measured_once(self, ctx8, monkeypatch):
        # the norms of x (its pull into the ball and its δ), x − y and y
        import sys

        calls = []
        real = slice_lab.d_norm

        def counting(ctx, f):
            calls.append(f)
            return real(ctx, f)

        # slice_lab's own calls, and those of d_norm.into_unit_ball
        for module in (slice_lab, sys.modules["banachlab.d_norm"]):
            monkeypatch.setattr(module, "d_norm", counting)
        S = SliceSpec.of(ctx8, Measure.dirac(0.375), 0.3)
        est = diameter_lower_bound(ctx8, SliceSet(S), 0, 1)
        assert len(calls) == 3 and calls[0] is S.witness is est.pair[0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shell_without_a_flip_pair_samples(self, seed):
        # the anchor of δ_{3/16} at levels 2 has lo 0.988, below the shell's
        # 1 − τ: its members are sampled, and the flip from the first follows
        ctx = DNormContext(build_leveled(1, levels=2))
        m = Measure.dirac(3.0 / 16.0)
        S = SliceSpec.of(ctx, m, 0.6)
        assert d_norm(ctx, into_unit_ball(ctx, S.anchor(ctx))).lo < 0.99
        spec = ShellSliceSet(S, 0.01)
        est = diameter_lower_bound(ctx, spec, 0, seed)
        assert est.feasible_samples == 8
        # the sampled pairs alone read 1.9291 and 1.9326
        assert est.value > 1.98
        assert est.value == d_norm(ctx, lin_comb(1.0, est.pair[0], -1.0, est.pair[1])).lo
        _check_members(ctx, spec, est.pair)

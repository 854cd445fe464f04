import dataclasses
import math

import numpy as np
import pytest

from banachlab.core_model import Enclosure, Measure, PLFunction, integrate, lin_comb
from banachlab.d_norm import RESCALE_SAFETY, DNormContext, d_norm, dirac_dual_norm, dual_norm
from banachlab.errors import CertificateFailure, DomainError, ParameterError
from banachlab.neighborhood_base import build_leveled
from banachlab.slice_lab import (
    BallSet,
    ShellSliceSet,
    SliceSet,
    SliceSpec,
    WitnessCertificate,
    diameter_lower_bound,
    disjoint_points,
    l2_sum_model_check,
    l2_sum_slice_inclusion,
    norming_bump,
    norming_functional,
    small_diameter_combo,
    subslice,
    tent_flip_witness,
)

from conftest import make_slice_pair


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

        monkeypatch.setattr(slice_lab, "_build_flip", lambda x, flips: x)
        with pytest.raises(WitnessNotFoundError) as exc:
            tent_flip_witness(
                ctx8, lam_slice, PLFunction.constant(1.0), 0.1, eta=0.02, max_attempts=12
            )
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


class TestL2Sum:
    def test_shell_radius_value(self):
        assert l2_sum_slice_inclusion(0.02) == pytest.approx(math.sqrt(0.0396))

    def test_limit_zero(self):
        assert l2_sum_slice_inclusion(1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            l2_sum_slice_inclusion(1.5)

    def test_model_inclusion_monte_carlo(self, ctx8):
        S = SliceSpec(Measure.dirac(0.0), dirac_dual_norm(ctx8, 0.0), 0.1)
        rep = l2_sum_model_check(ctx8, S, delta=0.1, samples=200, seed=8)
        assert rep["violations"] == 0
        assert rep["samples"] >= 2


class TestSubslice:
    def test_inclusion_and_containment(self, ctx8, lam_slice):
        one = PLFunction.constant(1.0)
        Ssub = subslice(ctx8, lam_slice, one, delta=0.2, samples=300, seed=4)
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

    def test_combo_consistent_with_bound(self):
        ctx = DNormContext(build_leveled(2, levels=8))
        slices, bound, cert = small_diameter_combo(ctx, 2, budget=1500, seed=9)
        assert cert.empirical_diameter is not None
        assert cert.empirical_diameter <= bound

    def test_monotone_in_budget(self, ctx8, lam_slice):
        small = diameter_lower_bound(ctx8, SliceSet(lam_slice), budget=600, seed=7)
        big = diameter_lower_bound(ctx8, SliceSet(lam_slice), budget=2400, seed=7)
        assert big.value >= small.value - 1e-12

    def test_shell_set(self, ctx8, lam_slice):
        est = diameter_lower_bound(
            ctx8, ShellSliceSet(lam_slice, tau=0.5), budget=1500, seed=8
        )
        assert est.value > 0.0

import numpy as np
import pytest

from banachlab.core_model import PLFunction, lin_comb
from banachlab.d_norm import d_norm
from banachlab.errors import DomainError, PremiseError, ResolutionError
from banachlab.rotundity_lab import (
    apply_certificate,
    local_octahedral_witness,
    mlur_adversarial_search,
    mlur_certificate,
    mlur_modulus,
    non_octahedral_gap,
    seminorm_rigidity_check,
)



def unit(ctx, f):
    return f.scaled(1.0 / d_norm(ctx, f).hi)


class TestCertificate:
    def test_constant_any_delta(self, ctx8):
        cert = mlur_certificate(ctx8, PLFunction.constant(1.0), 0.1)
        assert cert.lipschitz == 0.0
        assert cert.delta * cert.lipschitz <= cert.epsilon  # any delta works
        assert cert.conclusion_bound == 0.2
        assert cert.cover == (1, 2)  # first level suffices

    def test_tent_delta_rule(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        cert = mlur_certificate(ctx8, x, 0.1)
        assert cert.delta == pytest.approx(0.1 / x.lipschitz_bound())
        assert all(b - a < cert.delta for a, b in cert.cover_bounds)

    def test_resolution_error(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        with pytest.raises(ResolutionError):
            mlur_certificate(ctx8, x, 1e-5)

    def test_non_unit_rejected(self, ctx8):
        with pytest.raises(DomainError):
            mlur_certificate(ctx8, PLFunction.constant(0.3), 0.1)


class TestApply:
    def test_zero_perturbation(self, ctx8):
        cert = mlur_certificate(ctx8, PLFunction.constant(1.0), 0.1)
        app = apply_certificate(cert, PLFunction.constant(0.0))
        assert app.premise and app.conclusion and app.implication_holds

    def test_large_perturbation_vacuous(self, ctx8):
        cert = mlur_certificate(ctx8, PLFunction.constant(1.0), 0.1)
        app = apply_certificate(cert, PLFunction.constant(3.0))
        assert not app.premise
        assert app.implication_holds

    def test_adversarial_search_finds_nothing(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        cert = mlur_certificate(ctx8, x, 0.1)
        rep = mlur_adversarial_search(ctx8, cert, samples=20000, seed=3)
        assert rep["counterexamples"] == 0
        assert rep["scanned"] == 20000

    def test_adversarial_search_refutes_forged_bound(self, ctx8):
        # sanity of the detector: a certificate claiming a conclusion
        # stronger than 2ε must be shot down immediately
        import dataclasses

        x = unit(ctx8, PLFunction.tent())
        cert = mlur_certificate(ctx8, x, 0.1)
        forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / 4.0)
        rep = mlur_adversarial_search(ctx8, forged, samples=5000, seed=4)
        assert rep["counterexamples"] > 0

    def test_adversarial_search_independent_of_block_rows(self, ctx8, monkeypatch):
        # samples are screened SCAN_BLOCK_ROWS at a time; 1024 is one block per
        # draw.  The block size must not change a report, survivors included.
        import dataclasses

        from banachlab import rotundity_lab

        x = unit(ctx8, PLFunction.tent())
        cert = mlur_certificate(ctx8, x, 0.1)
        forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / 2.0)
        reps = []
        for rows in (1024, 256, 100):
            monkeypatch.setattr(rotundity_lab, "SCAN_BLOCK_ROWS", rows)
            reps.append(mlur_adversarial_search(ctx8, forged, samples=3000, seed=8))
        assert reps[0] == reps[1] == reps[2]
        assert reps[0]["survivors_full_checked"] > reps[0]["counterexamples"] > 0


class TestModulus:
    def test_zero_epsilon(self, ctx8):
        assert mlur_modulus(ctx8, PLFunction.constant(1.0), 0.0, budget=10, seed=0) == 0.0

    def test_tent_d_norm_beats_sup_norm(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        d_val = mlur_modulus(ctx8, x, 0.4, budget=600, seed=5)
        # the control runs on the max-norm unit sphere (plain tent)
        sup_val = mlur_modulus(ctx8, PLFunction.tent(), 0.4, budget=600, seed=5, norm="sup")
        # sup-norm: flat bumps away from the peak cost exactly nothing
        assert sup_val < 1e-9
        assert d_val > max(sup_val, 1e-4)

    def test_positive_for_constant(self, ctx8):
        assert mlur_modulus(ctx8, PLFunction.constant(1.0), 0.5, budget=400, seed=6) > 0.0


class TestRigidity:
    def test_sign_flip_gives_zero(self, ctx8):
        u = unit(ctx8, PLFunction.tent())
        assert seminorm_rigidity_check(ctx8, u, u.scaled(-1.0), tol=1e-12) == 0.0

    def test_small_shift_bounded_by_oscillation(self, ctx8):
        u = unit(ctx8, PLFunction.tent())
        shift = 1e-3
        v = PLFunction(
            np.clip(u.breakpoints + np.array([0.0, shift, 0.0]), 0.0, 1.0), u.values
        )
        tol = 4.0 * shift * u.lipschitz_bound()
        got = seminorm_rigidity_check(ctx8, u, v, tol=tol)
        # 4·eps bound with eps = oscillation at the cover resolution
        lo, hi = ctx8.interval_bounds
        eps = float(np.min(hi - lo)) * max(u.lipschitz_bound(), v.lipschitz_bound())
        assert got <= 4.0 * eps + tol

    def test_premise_violation(self, ctx8):
        u = unit(ctx8, PLFunction.tent())
        v = unit(ctx8, PLFunction.constant(1.0))
        with pytest.raises(PremiseError) as exc:
            seminorm_rigidity_check(ctx8, u, v, tol=1e-6)
        assert exc.value.offending


class TestOctahedral:
    def test_constant_witness(self, ctx8):
        one = PLFunction.constant(1.0)
        y = local_octahedral_witness(ctx8, one, 0.25, budget=100, seed=6)
        assert d_norm(ctx8, lin_comb(1.0, one, 1.0, y)).lo > 1.75
        assert d_norm(ctx8, lin_comb(1.0, one, -1.0, y)).lo > 1.75

    def test_tent_witness(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        y = local_octahedral_witness(ctx8, x, 0.3, budget=100, seed=7)
        assert d_norm(ctx8, lin_comb(1.0, x, 1.0, y)).lo > 1.7

    def test_trivial_threshold(self, ctx8):
        one = PLFunction.constant(1.0)
        y = local_octahedral_witness(ctx8, one, 2.0, budget=10, seed=8)
        assert d_norm(ctx8, y).hi <= 1.0 + 1e-9

    def test_gap_probe_rejects_equal(self, ctx8):
        one = PLFunction.constant(1.0)
        with pytest.raises(DomainError):
            non_octahedral_gap(ctx8, one, one, budget=10, seed=0)

    def test_gap_estimate_below_two(self, ctx8):
        u = PLFunction.constant(1.0)
        v = unit(ctx8, PLFunction.tent())
        rep = non_octahedral_gap(ctx8, u, v, budget=600, seed=9)
        assert rep["seminorm_profile_gap"] > 0.5
        assert rep["estimate"] < 2.0 - 1e-3

    def test_gap_negativity_rejected(self, ctx8):
        u = PLFunction.constant(1.0)
        v = unit(ctx8, PLFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, -1.0, 0.0])))
        with pytest.raises(DomainError):
            non_octahedral_gap(ctx8, u, v, budget=10, seed=0)

    def test_sup_norm_control_saw_is_trivial_witness(self):
        # control experiment: in the max-norm the modulated zigzag already
        # pushes both ‖x ± y‖ to 2 for any max-norm-unit x
        from banachlab.rotundity_lab import modulated_sawtooth

        x = PLFunction.tent()  # max-norm unit
        y = modulated_sawtooth(x, scale=2.0 ** -7)
        assert y.sup_abs() <= 1.0 + 1e-12
        plus = lin_comb(1.0, x, 1.0, y).sup_abs()
        minus = lin_comb(1.0, x, -1.0, y).sup_abs()
        assert plus > 1.95 and minus > 1.95

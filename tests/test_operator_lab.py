import numpy as np
import pytest

from banachlab.core_model import Measure, PLFunction, integrate, lin_comb
from banachlab.d_norm import d_norm, dirac_dual_norm, functional_bracket
from banachlab.errors import (
    CertificateFailure,
    ConstructionError,
    DomainError,
    WitnessNotFoundError,
)
from banachlab.gridsearch import GridContext
from banachlab.operator_lab import (
    NORM_BUDGET,
    Rank1Projection,
    c0_model_control,
    i_minus_p_norm_lower,
    ld2p_plus_projection_check,
)
from banachlab.slice_lab import norming_bump

from conftest import random_pl


@pytest.fixture(scope="module")
def proj(ctx8):
    u = norming_bump(ctx8, 0.0)
    m = Measure.dirac(0.0, 1.0 / u.eval(0.0))
    return Rank1Projection(u, m)


class TestProjection:
    def test_fixes_direction(self, ctx8, proj):
        diff = lin_comb(1.0, proj.apply(proj.direction), -1.0, proj.direction)
        assert d_norm(ctx8, diff).hi < 1e-12

    def test_kernel_maps_to_zero(self, ctx8, proj):
        # a function vanishing at the atom integrates to zero
        x = PLFunction.tent()
        assert integrate(x, proj.functional) == 0.0
        assert proj.apply(x).is_zero()

    def test_idempotence(self, ctx8, proj):
        rng = np.random.default_rng(30)
        for _ in range(10):
            x = random_pl(rng)
            once = proj.apply(x)
            twice = proj.apply(once)
            assert d_norm(ctx8, lin_comb(1.0, twice, -1.0, once)).hi < 1e-10

    def test_bad_normalization_rejected(self, ctx8, proj):
        with pytest.raises(ConstructionError):
            Rank1Projection(proj.direction, Measure.dirac(0.0, 7.0))

    def test_norm_bracket_factorizes(self, ctx8, proj):
        enc = proj.norm_from(ctx8, functional_bracket(ctx8, proj.functional, NORM_BUDGET))
        ue = d_norm(ctx8, proj.direction)
        t, w = proj.functional.atoms[0]
        de = dirac_dual_norm(ctx8, t)
        assert enc.lo == pytest.approx(ue.lo * abs(w) * de.lo)
        assert enc.hi == pytest.approx(ue.hi * abs(w) * de.hi)


def ref_i_minus_p_norm_lower(ctx, P, budget, seed, extra_inits=()):
    """The ascent through the generic a·I + b·P operator it replaced,
    instantiated at I − P (a = 1, b = −1)."""
    a, b = 1.0, -1.0
    gc = GridContext(ctx, P.direction, P.functional, *extra_inits, grid_cells=512)
    coeffs = gc.functional_coeffs(P.functional)
    vu = gc.sample_function(P.direction)
    rng = np.random.default_rng(seed)
    best_ratio, best_x, evals, trajectory = -np.inf, None, 0, []
    pending = [gc.sample_function(f) for f in extra_inits]
    pending.append(np.ones(gc.size))
    while evals < budget:
        m = min(64, max(1, budget - evals))
        cands = gc.random_smooth(rng, m // 2 + 1)
        cands = np.vstack([cands, gc.random_bumps(rng, m - cands.shape[0])])[:m]
        if pending:
            cands = np.vstack([np.asarray(pending), cands])
            pending = []
        if best_x is not None:
            cands = np.vstack([cands, best_x[None, :] + 0.05 * gc.random_smooth(rng, 4)])
        _, hx = gc.enclosures(cands)
        keep = hx > 1e-12
        cands, hx = cands[keep], hx[keep]
        timg = a * cands + b * (cands @ coeffs)[:, None] * vu[None, :]
        lt, _ = gc.enclosures(timg)
        evals += 2 * cands.shape[0]
        ratios = lt / hx
        k = int(np.argmax(ratios))
        if float(ratios[k]) > best_ratio:
            best_ratio = float(ratios[k])
            best_x = cands[k].copy()
        trajectory.append(best_ratio)
    x_pl = gc.to_plfunction(best_x)
    tx = lin_comb(1.0, x_pl.scaled(a), b, P.apply(x_pl))
    exact = d_norm(ctx, tx).lo / d_norm(ctx, x_pl).hi
    return {"lower": float(exact), "evaluations": evals, "trajectory": trajectory}


class TestOperatorNorm:
    def test_monotone_in_budget(self, ctx8, proj):
        small = i_minus_p_norm_lower(ctx8, proj, budget=150, seed=4)
        big = i_minus_p_norm_lower(ctx8, proj, budget=600, seed=4)
        assert max(big["trajectory"]) >= max(small["trajectory"]) - 1e-12

    @pytest.mark.parametrize("budget,seed,with_init", [(150, 4, False), (600, 7, True), (1, 2, True)])
    def test_matches_the_generic_operator(self, ctx8, proj, budget, seed, with_init):
        P = Rank1Projection(PLFunction.constant(1.0), Measure.lebesgue())
        inits = (proj.direction, PLFunction.tent()) if with_init else ()
        for Q in (proj, P):
            got = i_minus_p_norm_lower(ctx8, Q, budget, seed, extra_inits=inits)
            ref = ref_i_minus_p_norm_lower(ctx8, Q, budget, seed, extra_inits=inits)
            assert got == ref


class TestProjectionEquation:
    def test_norm_one_rank_one_approaches_two(self, ctx8, proj):
        rep = ld2p_plus_projection_check(ctx8, proj, budget=4000, seed=11)
        assert rep["flip_seeded"]
        assert rep["lower"] >= 1.9
        assert rep["upper"] == pytest.approx(1.0 + rep["projection_norm"].hi)
        assert rep["lower"] <= rep["upper"] + 1e-9

    def test_flip_seeding_failures(self, ctx8, proj, monkeypatch):
        from banachlab import slice_lab

        def fail_with(exc):
            def flip(*a, **k):
                raise exc
            monkeypatch.setattr(slice_lab, "tent_flip_witness", flip)

        # a witness search that finds nothing only drops the seed
        fail_with(WitnessNotFoundError("none"))
        assert not ld2p_plus_projection_check(ctx8, proj, budget=64, seed=1)["flip_seeded"]
        # a failed certificate is a real error and surfaces
        fail_with(CertificateFailure("forged", inequality="flip distance lower bound"))
        with pytest.raises(CertificateFailure):
            ld2p_plus_projection_check(ctx8, proj, budget=64, seed=1)

    def test_one_dual_norm_ascent(self, ctx8, monkeypatch):
        # ‖P‖ and the seeding slice share one bracket for a non-dirac functional
        import sys

        d_norm_module = sys.modules["banachlab.d_norm"]  # the package exports d_norm()
        budgets = []
        ascent = d_norm_module.dual_norm

        def counted(ctx, m, budget=2000, **kw):
            budgets.append(budget)
            return ascent(ctx, m, budget=budget, **kw)

        monkeypatch.setattr(d_norm_module, "dual_norm", counted)
        P = Rank1Projection(PLFunction.constant(1.0), Measure.lebesgue())
        ld2p_plus_projection_check(ctx8, P, budget=64, seed=1)
        assert budgets == [1500]

    def test_trajectory_monotone(self, ctx8, proj):
        rep = ld2p_plus_projection_check(ctx8, proj, budget=2000, seed=12)
        traj = rep["trajectory"]
        assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))


class TestC0Control:
    def test_dim_two(self):
        rep = c0_model_control(2, 0.5)
        assert rep["max_distance"] == 1.0
        assert rep["i_minus_p_norm"] == 1.0
        assert rep["p_norm"] == 1.0
        assert rep["equation_gap"] == 1.0

    def test_eps_one(self):
        assert c0_model_control(4, 1.0)["max_distance"] == 1.0

    def test_degenerate_dimension(self):
        # single coordinate: every slice member is within eps, sup unattained
        rep = c0_model_control(1, 0.3)
        assert rep["max_distance"] <= 0.3 and not rep["attained"]

    def test_domain(self):
        with pytest.raises(DomainError):
            c0_model_control(2, 1.5)


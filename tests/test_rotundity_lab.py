import numpy as np
import pytest

from banachlab.core_model import PLFunction, lin_comb
from banachlab.d_norm import DNormContext, d_norm
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

    def test_smooth_rows_interpolate_the_coarse_grid(self):
        # the smooth kind looks up its coarse cell as floor(32·t); it must
        # agree with pl_eval on the cell edges k/32, just below them, and at 1
        from banachlab.core_model import pl_eval
        from banachlab.rotundity_lab import _adversarial_blocks

        k32 = np.arange(33) / 32.0
        inner = np.union1d(k32, np.nextafter(k32[1:], 0.0))
        # the end columns are overwritten by their neighbours, so 0 and 1
        # repeat there to keep them among the compared columns
        nodes = np.concatenate([[0.0], inner, [1.0]])
        m, eps2 = 64, 0.2
        rows = np.vstack(list(_adversarial_blocks(np.random.default_rng(9), nodes, m, eps2)))
        # replay the draws in _adversarial_blocks' order
        rng = np.random.default_rng(9)
        kind = rng.integers(0, 4, m)
        rng.uniform(0.0, 1.0, m)
        rng.uniform(np.log(2.0 ** -9), np.log(0.3), m)
        amps = eps2 * rng.uniform(0.8, 1.6, m)
        rng.choice([-1.0, 1.0], m)
        rng.standard_normal((int((kind == 2).sum()), nodes.size))
        coarse = rng.standard_normal((int((kind == 3).sum()), 33))
        smooth = np.nonzero(kind == 3)[0]
        assert smooth.size > 0
        for row, amp, ys in zip(smooth, amps[smooth], coarse):
            expect = amp * pl_eval(k32, ys, nodes)
            assert rows[row, 1:-1].tolist() == expect[1:-1].tolist()


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


def ref_suspects(starts, ends, size):
    """The node_to_cover loop the MLUR scan ran before it used searchsorted."""
    node_to_cover = [[] for _ in range(size)]
    for j in range(starts.size):
        for k in range(starts[j], ends[j]):
            node_to_cover[k].append(j)
    suspect = np.zeros((size, 2), dtype=np.int64)
    for k, lst in enumerate(node_to_cover):
        suspect[k, 0] = lst[0] if lst else 0
        suspect[k, 1] = lst[1] if len(lst) > 1 else suspect[k, 0]
    return suspect


def _cover_geometry(ctx, cert):
    from banachlab.gridsearch import GridContext

    gc = GridContext(ctx, cert.x, grid_cells=512)
    lo = np.array([b[0] for b in cert.cover_bounds])
    hi = np.array([b[1] for b in cert.cover_bounds])
    starts, ends = gc.interval_geometry(lo, hi)[:2]
    return starts, ends, gc.size


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_suspects_match_the_loop_on_level_covers(eps):
    from banachlab.neighborhood_base import build_leveled
    from banachlab.rotundity_lab import _suspect_intervals

    ctx = DNormContext(build_leveled(1, levels=9))
    cert = mlur_certificate(ctx, unit(ctx, PLFunction.tent()), eps)
    starts, ends, size = _cover_geometry(ctx, cert)
    got = _suspect_intervals(starts, ends, size)
    assert got.tolist() == ref_suspects(starts, ends, size).tolist()


def test_suspects_match_the_loop_on_a_triple_overlap():
    # the greedy cover keeps all three intervals, and 0.47 lies in each
    from banachlab.core_model import Interval
    from banachlab.neighborhood_base import build_custom
    from banachlab.rotundity_lab import _suspect_intervals

    ctx = DNormContext(build_custom([Interval(0.0, 0.5), Interval(0.1, 0.6), Interval(0.45, 1.0)]))
    cert = mlur_certificate(ctx, unit(ctx, PLFunction.constant(1.0)), 0.1)
    assert cert.cover == (1, 2, 3)
    starts, ends, size = _cover_geometry(ctx, cert)
    k = int(np.searchsorted(np.linspace(0.0, 1.0, 513), 0.47))
    assert all(starts[j] <= k < ends[j] for j in range(3))
    got = _suspect_intervals(starts, ends, size)
    assert got.tolist() == ref_suspects(starts, ends, size).tolist()
    rep = mlur_adversarial_search(ctx, cert, samples=2000, seed=1)
    assert rep["counterexamples"] == 0


def test_flat_bumps_match_the_loop():
    from banachlab.rotundity_lab import _flat_bumps

    rng = np.random.default_rng(6)
    for size in (3, 65, 300):
        nodes = np.linspace(0.0, 1.0, size)
        vx = rng.standard_normal(size)
        ref = []
        for k in np.argsort(np.abs(vx))[:4]:
            for width in (2.0 ** -3, 2.0 ** -5, 2.0 ** -7):
                ref.append(np.clip(1.0 - np.abs(nodes - nodes[k]) / width, 0.0, None))
        assert _flat_bumps(nodes, vx).tolist() == np.asarray(ref).tolist()

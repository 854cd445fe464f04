import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banachlab.core_model import PLFunction, lin_comb
from banachlab.d_norm import DNormContext, d_norm, seminorms_all
from banachlab.errors import (
    CertificateFailure,
    DomainError,
    PremiseError,
    ResolutionError,
    WitnessNotFoundError,
)
from banachlab.neighborhood_base import build_leveled
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

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1, 0.0])
    def test_epsilon_must_be_finite_and_positive(self, ctx8, eps):
        with pytest.raises(DomainError):
            mlur_certificate(ctx8, PLFunction.constant(1.0), eps)
        with pytest.raises(DomainError):
            local_octahedral_witness(ctx8, PLFunction.constant(1.0), eps)
        if eps != 0.0:  # the modulus at 0 is 0
            with pytest.raises(DomainError):
                mlur_modulus(ctx8, PLFunction.constant(1.0), eps, budget=10, seed=0)

    def test_verify_passes_on_the_criterion_5_certificates(self, monkeypatch):
        # the 60 certificates of criterion 5; with the Lipschitz bound
        # understated 4x the cover is too coarse and each one fails
        from banachlab.neighborhood_base import build_leveled
        from conftest import smooth_positive_pl

        ctx = DNormContext(build_leveled(1, levels=9))
        rng = np.random.default_rng(505)
        true_lip = PLFunction.lipschitz_bound
        for _ in range(20):
            f = smooth_positive_pl(rng)
            x = f.scaled(1.0 / d_norm(ctx, f).hi)
            for eps in (0.05, 0.1, 0.2):
                monkeypatch.setattr(PLFunction, "lipschitz_bound", true_lip)
                cert = mlur_certificate(ctx, x, eps)
                assert eps < cert.verify() <= cert.conclusion_bound
                monkeypatch.setattr(PLFunction, "lipschitz_bound", lambda s: true_lip(s) / 4.0)
                with pytest.raises(CertificateFailure) as exc:
                    mlur_certificate(ctx, x, eps)
                assert exc.value.inequality == "MLUR conclusion bound"

    def test_verify_refuses_a_gap_in_the_cover(self, ctx8):
        import dataclasses

        cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
        for drop in (0, len(cert.cover) // 2, len(cert.cover) - 1):
            keep = [k for k in range(len(cert.cover)) if k != drop]
            gapped = dataclasses.replace(
                cert,
                cover=tuple(cert.cover[k] for k in keep),
                cover_bounds=tuple(cert.cover_bounds[k] for k in keep),
                x_seminorms=tuple(cert.x_seminorms[k] for k in keep),
            )
            with pytest.raises(CertificateFailure) as exc:
                gapped.verify()
            assert exc.value.inequality == "cover of [0, 1]"

    def test_certificate_holds_the_old_build(self, ctx8):
        # the cover bounds, seminorms and cover arrays as mlur_certificate,
        # premise_margin, verify and the scan each rebuilt them before
        from banachlab import _kernels

        for f in (PLFunction.tent(), PLFunction.tent(0.3), PLFunction.constant(1.0)):
            x = unit(ctx8, f)
            for eps in (0.1, 0.2):
                cert = mlur_certificate(ctx8, x, eps)
                lo, hi = ctx8.base.clamped_bounds
                bounds = tuple((float(lo[n - 1]), float(hi[n - 1])) for n in cert.cover)
                blo = np.array([b[0] for b in bounds])
                bhi = np.array([b[1] for b in bounds])
                sems = _kernels.sup_abs_many(x.breakpoints, x.values, blo, bhi)
                assert cert.cover_bounds == bounds
                assert cert.x_seminorms == tuple(float(v) for v in sems)
                assert cert.cover_arrays[0].tolist() == blo.tolist()
                assert cert.cover_arrays[1].tolist() == bhi.tolist()

    def test_min_abs_matches_the_point_loop(self):
        from banachlab._kernels import min_abs_many
        from conftest import random_pl

        rng = np.random.default_rng(12)
        for _ in range(50):
            f = random_pl(rng, n_interior=int(rng.integers(0, 12)))
            # ends on breakpoints, inside pieces, and degenerate intervals
            ends = np.concatenate([f.breakpoints, rng.uniform(0.0, 1.0, 8)])
            a, b = rng.choice(ends, (2, 40))
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ref = []
            for s, e in zip(lo, hi):
                pts = np.concatenate([[s], f.breakpoints[(f.breakpoints > s) & (f.breakpoints < e)], [e]])
                v = f.eval(pts)
                ref.append(0.0 if v.min() <= 0.0 <= v.max() else float(np.min(np.abs(v))))
            assert min_abs_many(f.breakpoints, f.values, lo, hi).tolist() == ref


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
        # noise and wave samples are drawn and screened SCAN_PIECE_ROWS at a
        # time; 1024 is one piece per draw.  The piece size must not change a
        # report, survivors included.
        import dataclasses

        from banachlab import rotundity_lab

        x = unit(ctx8, PLFunction.tent())
        cert = mlur_certificate(ctx8, x, 0.1)
        forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / 2.0)
        reps = []
        for rows in (1024, 64, 7):
            monkeypatch.setattr(rotundity_lab, "SCAN_PIECE_ROWS", rows)
            reps.append(mlur_adversarial_search(ctx8, forged, samples=3000, seed=8))
        assert reps[0] == reps[1] == reps[2]
        assert reps[0]["survivors_full_checked"] > reps[0]["counterexamples"] > 0

    def test_smooth_rows_interpolate_the_coarse_grid(self):
        # the smooth kind looks up its coarse cell as floor(32·t); it must
        # agree with pl_eval on the cell edges k/32, just below them, and at 1
        from banachlab.core_model import pl_eval

        k32 = np.arange(33) / 32.0
        inner = np.union1d(k32, np.nextafter(k32[1:], 0.0))
        # the end columns are overwritten by their neighbours, so 0 and 1
        # repeat there to keep them among the compared columns
        nodes = np.concatenate([[0.0], inner, [1.0]])
        m, eps2 = 64, 0.2
        rows = full_rows(list(scan_blocks(np.random.default_rng(9), nodes, [m], eps2)), nodes)
        # replay the draws in _draw_chunk's order
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

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9])
    def test_tolerance_must_be_nonnegative(self, ctx8, tol):
        # nan passed the premise for every pair: abs(su − sv) > nan is false
        with pytest.raises(DomainError, match="tol must be >= 0"):
            seminorm_rigidity_check(ctx8, PLFunction.constant(1.0), PLFunction.tent(), tol)

    def test_matches_the_crossing_loop(self, ctx8):
        from conftest import random_pl

        rng = np.random.default_rng(14)
        for _ in range(30):
            u = random_pl(rng, n_interior=int(rng.integers(0, 10)))
            v = random_pl(rng, n_interior=int(rng.integers(0, 10)))
            # an infinite tolerance lets any pair through the premise
            assert seminorm_rigidity_check(ctx8, u, v, np.inf) == ref_rigidity_gap(u, v)


def ref_rigidity_gap(u, v):
    """The breakpoint scan and per-piece crossing loop seminorm_rigidity_check
    ran before it shared _kernels.zero_crossings."""
    from banachlab.core_model import pl_eval

    grid = np.union1d(u.breakpoints, v.breakpoints)
    du = np.abs(pl_eval(u.breakpoints, u.values, grid))
    dv = np.abs(pl_eval(v.breakpoints, v.values, grid))
    candidates = [float(np.max(np.abs(du - dv)))]
    for f, g in ((u, v), (v, u)):
        for k in range(f.breakpoints.size - 1):
            y0, y1 = f.values[k], f.values[k + 1]
            if y0 * y1 < 0.0:
                t = f.breakpoints[k] + (f.breakpoints[k + 1] - f.breakpoints[k]) * y0 / (y0 - y1)
                candidates.append(abs(abs(f.eval(float(t))) - abs(g.eval(float(t)))))
    return float(max(candidates))


#: the inputs of the flip witness: the constant, tent and ramp; a signed
#: input on the nodes k/8, whose peaks |x| = 1 at 1/8 and 3/8 are common
#: ends of adjacent stored intervals from level 2 on at i = 3; and 65 nodes
#: of a wiggle
OCTA_INPUTS = {
    "one": PLFunction.constant(1.0),
    "tent": PLFunction.tent(),
    "ramp": PLFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
    "signed": PLFunction(np.linspace(0.0, 1.0, 9),
                         np.array([0.3, -1.0, 0.5, 1.0, -0.2, 0.8, -0.9, 0.1, 0.6])),
    "wiggly": PLFunction(np.linspace(0.0, 1.0, 65),
                         1.0 + 0.5 * np.sin(40.0 * np.linspace(0.0, 1.0, 65))
                         + 0.1 * np.cos(np.arange(65.0) ** 2)),
}


@functools.cache
def leveled_ctx(i, levels):
    return DNormContext(build_leveled(i, levels=levels))


class TestOctahedral:
    def test_constant_witness(self, ctx8):
        one = PLFunction.constant(1.0)
        y, achieved = local_octahedral_witness(ctx8, one, 0.25)
        assert achieved == min(d_norm(ctx8, lin_comb(1.0, one, s, y)).lo for s in (1.0, -1.0))
        assert achieved >= 2.0 - 1e-9

    def test_tent_witness(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        y, _ = local_octahedral_witness(ctx8, x, 0.3)
        assert d_norm(ctx8, lin_comb(1.0, x, 1.0, y)).lo > 1.7

    def test_trivial_threshold(self, ctx8):
        one = PLFunction.constant(1.0)
        y, _ = local_octahedral_witness(ctx8, one, 2.0)
        assert d_norm(ctx8, y).hi <= 1.0

    def test_unmet_threshold_reports_the_value(self, ctx8):
        x = unit(ctx8, PLFunction.tent())
        with pytest.raises(WitnessNotFoundError) as exc:
            local_octahedral_witness(ctx8, x, 1e-12)
        assert exc.value.diagnostics["evaluations"] == 3
        assert 2.0 - 1e-6 < exc.value.diagnostics["best"] <= 2.0 - 1e-12

    @pytest.mark.parametrize("name", sorted(OCTA_INPUTS))
    @pytest.mark.parametrize("i, levels", [(1, 8), (1, 12), (2, 8), (3, 6)])
    def test_flips_double_every_seminorm(self, i, levels, name):
        ctx = leveled_ctx(i, levels)
        x = unit(ctx, OCTA_INPUTS[name])
        y, achieved = local_octahedral_witness(ctx, x, 0.1)
        sx = seminorms_all(ctx, x)
        for s in (1.0, -1.0):
            assert np.all(seminorms_all(ctx, lin_comb(1.0, x, s, y)) >= 2.0 * sx - 1e-6)
        assert achieved >= 2.0 - 1e-6
        assert d_norm(ctx, y).hi <= 1.0

    def test_signed_input_peaks_on_shared_ends(self):
        # the case where centres p ± 2e-9 of two adjacent intervals round to
        # less than 4e-9 apart: both flips must stay
        lo, hi = leveled_ctx(3, 6).interval_bounds
        x = OCTA_INPUTS["signed"]
        for p in (0.125, 0.375):
            assert abs(x.eval(p)) == x.sup_abs() and p in lo and p in hi

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_signed_inputs(self, data):
        # breakpoints on the nodes k/32 and values in [-1, 1] keep Lip(x) ≤
        # 64·sup|x| ≤ 128‖x‖, so clamping a centre 2e-9 off a peak costs
        # ‖x−y‖_n at most 2·128·2e-9 ≈ 5e-7
        ctx = leveled_ctx(1, 8)
        nodes = data.draw(st.lists(st.integers(1, 31), max_size=12, unique=True))
        bx = np.concatenate([[0.0, 1.0], np.array(nodes, dtype=float) / 32.0])
        bx.sort()
        vals = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=bx.size,
                                           max_size=bx.size)))
        # both signs, and no norm whose squares underflow
        assume(vals.min() < -1e-3 and vals.max() > 1e-3)
        x = unit(ctx, PLFunction(bx, vals))
        y, achieved = local_octahedral_witness(ctx, x, 0.1)
        assert achieved >= 2.0 - 1e-6
        assert d_norm(ctx, y).hi <= 1.0

    def test_spike_narrower_than_a_flip(self, ctx8):
        # the peak lasts 8e-10, less than a 2e-9 flip: the flip is narrowed
        # so that x + y keeps the spike
        x = unit(ctx8, PLFunction(np.array([0.0, 0.3, 0.3 + 4e-10, 0.3 + 8e-10, 1.0]),
                                  np.array([0.5, 0.5, 1.0, 0.5, 0.5])))
        y, achieved = local_octahedral_witness(ctx8, x, 0.5)
        assert achieved >= 1.99
        assert d_norm(ctx8, y).hi <= 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bx, vals", [
        # on (0.75, 1) the slope is about 4e-320, so 1e-6 / slope overflows
        # to inf, and the flip keeps its full half-width
        ([0.0, 0.5, 0.75, 1.0], [-1.0, 1.0, 1e-320, 0.0]),
        # the slope on (0, 1e-310) overflows; no flip sits there
        ([0.0, 1e-310, 1.0], [1.0, -1.0, -1.0]),
    ])
    def test_extreme_slopes_warn_nothing(self, ctx8, bx, vals):
        x = unit(ctx8, PLFunction(np.array(bx), np.array(vals)))
        y, achieved = local_octahedral_witness(ctx8, x, 0.1)
        assert achieved >= 2.0 - 1e-6
        assert d_norm(ctx8, y).hi <= 1.0

    def test_flip_without_room_between_floats(self, ctx8):
        # slope about 5e10: a flip narrow enough would have coincident
        # points, so even the threshold 2 − ε = 0 is not met
        x = unit(ctx8, PLFunction(np.array([0.0, 0.7, 0.7 + 1e-11, 0.7 + 2e-11, 1.0]),
                                  np.array([0.5, 0.5, 1.0, 0.5, 0.5])))
        with pytest.raises(WitnessNotFoundError):
            local_octahedral_witness(ctx8, x, 2.0)

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


def ref_holders(nodes, lo, hi):
    """The first cover interval whose closure holds each node, by a loop."""
    return [next(j for j in range(lo.size) if lo[j] <= t <= hi[j]) for t in nodes]


# the suspect interval of a node, where the scan refutes a sample peaking
# there, is its holder: the first cover interval whose closure holds it
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_suspects_match_the_loop_on_level_covers(eps):
    from banachlab.gridsearch import grid_nodes
    from banachlab.neighborhood_base import build_leveled
    from banachlab.rotundity_lab import _holders

    ctx = DNormContext(build_leveled(1, levels=9))
    cert = mlur_certificate(ctx, unit(ctx, PLFunction.tent()), eps)
    lo, hi, _ = cert.cover_arrays
    for grid_cells in (512, 300, 1):
        nodes = grid_nodes(grid_cells, cert.x)
        assert _holders(nodes, lo, hi).tolist() == ref_holders(nodes, lo, hi)


def test_suspects_match_the_loop_on_a_triple_overlap():
    # the greedy cover keeps all three intervals, and 0.47 lies in each
    from banachlab.core_model import Interval
    from banachlab.gridsearch import grid_nodes
    from banachlab.neighborhood_base import build_custom
    from banachlab.rotundity_lab import _holders

    ctx = DNormContext(build_custom([Interval(0.0, 0.5), Interval(0.1, 0.6), Interval(0.45, 1.0)]))
    cert = mlur_certificate(ctx, unit(ctx, PLFunction.constant(1.0)), 0.1)
    assert cert.cover == (1, 2, 3)
    lo, hi, _ = cert.cover_arrays
    nodes = grid_nodes(512, cert.x)
    k = int(np.searchsorted(nodes, 0.47))
    assert all(lo[j] <= nodes[k] <= hi[j] for j in range(3))
    assert _holders(nodes, lo, hi).tolist() == ref_holders(nodes, lo, hi)
    rep = mlur_adversarial_search(ctx, cert, samples=2000, seed=1)
    assert rep["counterexamples"] == rep["survivors_full_checked"] == 0


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


# -- the MLUR scan against its full-row reference ------------------------------


def scan_blocks(rng, nodes, sizes, eps2):
    """The blocks the scan screens for chunks of the given sizes, drawn on
    this thread into one reused piece buffer."""
    import itertools

    from banachlab import rotundity_lab

    buffers = itertools.repeat(np.empty((rotundity_lab.SCAN_PIECE_ROWS, nodes.size)))
    pieces = itertools.chain.from_iterable(
        rotundity_lab._draw_chunk(rng, nodes.size, m, eps2, buffers) for m in sizes)
    return rotundity_lab._adversarial_blocks(pieces, nodes, len(sizes))


def full_rows(blocks, nodes):
    """Every sample of the scan blocks as its full row, in draw order; each
    sample is in exactly one block."""
    index = np.concatenate([blk.index for blk in blocks])
    assert np.sort(index).tolist() == list(range(index.size))
    rows = [np.array([blk.row(r) for r in range(blk.index.size)]).reshape(-1, nodes.size)
            for blk in blocks]
    return np.vstack(rows)[np.argsort(index)]


def candidates(blocks, eps2):
    """The numbers of the samples the blocks' peaks name, the column of each
    one's peak, and y there."""
    peaks = [(blk.index, blk.peaks(eps2)) for blk in blocks]
    return tuple(np.concatenate(parts) for parts in zip(*[(i[c], k, y) for i, (c, k, y) in peaks]))


def ref_adversarial_blocks(rng, nodes, m, eps2, block_rows=256):
    """The full-row generator the scan used before bump and plateau samples
    were evaluated lazily."""
    from banachlab.gridsearch import hats

    kind = rng.integers(0, 4, m)
    centers = rng.uniform(0.0, 1.0, m)
    widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.3), m))
    amps = eps2 * rng.uniform(0.8, 1.6, m)
    signs = rng.choice([-1.0, 1.0], m)
    noisy = kind == 2
    noise = 0.2 * eps2 * rng.standard_normal((int(noisy.sum()), nodes.size))
    smooth = kind == 3
    wave = np.empty((0, nodes.size))
    if np.any(smooth):
        xs = np.linspace(0.0, 1.0, 33)
        coarse = rng.standard_normal((int(smooth.sum()), 33))
        pos = np.minimum((32.0 * nodes).astype(np.int64), 31)
        th = (nodes - xs[pos]) / (xs[pos + 1] - xs[pos])
        wave = amps[smooth][:, None] * (
            coarse[:, pos] * (1.0 - th)[None, :] + coarse[:, pos + 1] * th[None, :]
        )
    sa = (signs * amps)[:, None]
    noise_row, wave_row = np.cumsum(noisy) - 1, np.cumsum(smooth) - 1
    for a in range(0, m, block_rows):
        blk = slice(a, a + block_rows)
        bump = hats(nodes, centers[blk], widths[blk])
        out = sa[blk] * bump
        plateau = kind[blk] == 1
        out[plateau] = sa[blk][plateau] * np.clip(2.0 * bump[plateau], 0.0, 1.0)
        nz, sm = noisy[blk], smooth[blk]
        out[nz] += noise[noise_row[blk][nz]]
        out[sm] = wave[wave_row[blk][sm]]
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, -2]
        yield out


def assert_scan_matches_reference(ctx, cert, samples, seed, grid_cells):
    """The scan's rows equal the full-row generator's; its candidates, and
    |y| at each one's peak, equal the full rows' max|y|; and its
    counterexamples equal an exact check of every candidate, with no screen.
    A certificate that passes verify leaves no survivor."""
    from banachlab.gridsearch import grid_nodes

    nodes = grid_nodes(grid_cells, cert.x)
    eps2 = cert.conclusion_bound
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    counterexamples = 0
    for a in range(0, samples, 1024):
        m = min(1024, samples - a)
        new = list(scan_blocks(rng_new, nodes, [m], eps2))
        ref = np.vstack(list(ref_adversarial_blocks(rng_ref, nodes, m, eps2)))
        assert full_rows(new, nodes).tolist() == ref.tolist()
        cands, cols, y = candidates(new, eps2)
        sup = np.max(np.abs(ref), axis=1)
        assert np.sort(cands).tolist() == np.nonzero(sup > eps2)[0].tolist()
        assert np.abs(y).tolist() == sup[cands].tolist()
        assert y.tolist() == ref[cands, cols].tolist()
        for row in ref[cands]:
            app = apply_certificate(cert, PLFunction(nodes, row))
            counterexamples += app.premise and not app.conclusion
    report = mlur_adversarial_search(ctx, cert, samples=samples, seed=seed, grid_cells=grid_cells)
    assert report["scanned"] == samples
    assert report["counterexamples"] == counterexamples
    assert report["survivors_full_checked"] >= counterexamples
    try:
        cert.verify()
    except CertificateFailure:
        return report
    assert report["survivors_full_checked"] == 0
    return report


@pytest.mark.parametrize("grid_cells", [512, 300, 64, 1])
@pytest.mark.parametrize("divisor", [2.0, 4.0])
def test_lazy_scan_matches_full_rows_on_forged_bounds(ctx8, grid_cells, divisor):
    import dataclasses

    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / divisor)
    # fewer samples where the forged bound leaves many survivors to check
    samples = int(6000 / divisor)
    rep = assert_scan_matches_reference(ctx8, forged, samples, 8, grid_cells)
    assert rep["survivors_full_checked"] > 0


@pytest.mark.parametrize("grid_cells", [512, 300, 64, 1])
def test_lazy_scan_matches_full_rows(ctx8, grid_cells):
    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    rep = assert_scan_matches_reference(ctx8, cert, 3000, 5, grid_cells)
    assert rep["counterexamples"] == 0


@pytest.mark.parametrize("divisor", [1.0, 2.0])
def test_lazy_scan_on_the_two_node_grid(ctx8, divisor):
    # a constant x adds no breakpoint, so one cell gives the nodes 0 and 1,
    # and both end columns read node 1
    import dataclasses

    cert = mlur_certificate(ctx8, PLFunction.constant(1.0), 0.1)
    forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / divisor)
    assert_scan_matches_reference(ctx8, forged, 3000, 2, 1)


def test_lazy_scan_on_near_tied_nodes(ctx8):
    # breakpoints one ulp below the grid nodes k/512 put pairs of nodes whose
    # hats round alike; np.argmax takes the first of each tie
    import dataclasses

    bx = np.concatenate([[0.0], np.nextafter(np.arange(1, 512) / 512.0, 0.0), [1.0]])
    x = unit(ctx8, PLFunction(bx, 0.8 + 0.2 * np.sin(6.0 * bx)))
    cert = mlur_certificate(ctx8, x, 0.1)
    for divisor in (1.0, 2.0):
        forged = dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / divisor)
        assert_scan_matches_reference(ctx8, forged, 3000, 11, 512)


def test_lazy_scan_on_a_triple_overlap():
    from banachlab.core_model import Interval
    from banachlab.neighborhood_base import build_custom

    ctx = DNormContext(build_custom([Interval(0.0, 0.5), Interval(0.1, 0.6), Interval(0.45, 1.0)]))
    cert = mlur_certificate(ctx, unit(ctx, PLFunction.constant(1.0)), 0.1)
    assert_scan_matches_reference(ctx, cert, 2000, 1, 512)


@pytest.mark.parametrize("grid_cells", [1, 64, 300, 512])
def test_blocks_match_the_floor_rule_on_random_grids(grid_cells):
    # ref_adversarial_blocks finds a node's coarse cell as floor(32·t)
    from banachlab.gridsearch import grid_nodes
    from conftest import random_pl

    rng = np.random.default_rng(grid_cells)
    for _ in range(3):
        nodes = grid_nodes(grid_cells, random_pl(rng, n_interior=int(rng.integers(0, 12))))
        seed = int(rng.integers(1 << 30))
        got = full_rows(list(scan_blocks(np.random.default_rng(seed), nodes, [1024], 0.2)), nodes)
        ref = np.vstack(list(ref_adversarial_blocks(np.random.default_rng(seed), nodes, 1024, 0.2)))
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_screen_matches_the_premise_path():
    # the scan screens a sample by max(|x(k) + y(k)|, |x(k) − y(k)|) at one
    # node k: those are the bits of x ± y at k on the exact premise path,
    # whose sup over k's holder, or any interval holding k, is at least that
    from banachlab._kernels import sup_abs_many
    from banachlab.gridsearch import grid_nodes
    from banachlab.neighborhood_base import build_leveled
    from banachlab.rotundity_lab import _holders
    from conftest import smooth_positive_pl

    ctx = DNormContext(build_leveled(1, levels=9))
    rng = np.random.default_rng(21)
    cert = mlur_certificate(ctx, unit(ctx, smooth_positive_pl(rng)), 0.1)
    lo, hi, _ = cert.cover_arrays
    nodes = grid_nodes(300, cert.x)  # cover ends mostly between nodes
    vx = cert.x.eval(nodes)
    holder = _holders(nodes, lo, hi)
    y = 0.3 * rng.standard_normal((8, nodes.size))
    y[4:] = rng.uniform(-8.0, 8.0, (4, 1)) * (nodes - rng.uniform(0.0, 1.0, (4, 1)))
    for row in y:
        yf = PLFunction(nodes, row)
        for sign, node_values in ((1.0, vx + row), (-1.0, vx - row)):
            f = lin_comb(1.0, cert.x, sign, yf)
            assert f.breakpoints.tolist() == nodes.tolist()
            assert f.values.tolist() == node_values.tolist()
            assert np.all(sup_abs_many(f.breakpoints, f.values, lo, hi)[holder] >= np.abs(node_values))


def test_scan_checks_a_sample_on_the_premise_bound(ctx8, monkeypatch):
    # a plateau of height ε on a constant x meets the premise with equality
    # at its peak, so under a bound forged below ε it is a counterexample
    # that the scan must check, not refute
    import dataclasses

    from banachlab import rotundity_lab

    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.constant(1.0)), 0.1)
    forged = dataclasses.replace(cert, conclusion_bound=0.05)

    def one_plateau(pieces, nodes, chunks):
        index, sa, centers, widths = np.array([0]), np.array([0.1]), np.array([0.5]), np.array([0.2])
        yield rotundity_lab._HatRows(nodes, index, sa, centers, widths, np.array([True]))

    monkeypatch.setattr(rotundity_lab, "_adversarial_blocks", one_plateau)
    rep = mlur_adversarial_search(ctx8, forged, samples=1, seed=0)
    assert rep == {"scanned": 1, "counterexamples": 1, "survivors_full_checked": 1}


# -- the draw thread ------------------------------------------------------------


def forged_tent(ctx8):
    import dataclasses

    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    return dataclasses.replace(cert, conclusion_bound=cert.conclusion_bound / 2.0)


# (counterexamples, survivors_full_checked) of the one-thread scan at seed 8
ONE_THREAD_REPORTS = {1: (1, 1), 1023: (148, 314), 1024: (142, 310), 1025: (142, 310),
                      2049: (293, 613), 3000: (438, 891)}


def assert_threaded_scan_builds_the_reference_rows(ctx8, monkeypatch, samples):
    """The rows the scan itself screens, recorded as it builds them, equal the
    full-row generator's on one stream drawn 1024 samples at a time, and so
    do its candidates, their peaks and its report."""
    from banachlab import rotundity_lab
    from banachlab.gridsearch import grid_nodes

    forged = forged_tent(ctx8)
    nodes, eps2 = grid_nodes(512, forged.x), forged.conclusion_bound
    blocks = []
    build = rotundity_lab._adversarial_blocks

    def recording(pieces, nodes, chunks):
        for blk in build(pieces, nodes, chunks):
            blocks.append(blk)
            yield blk

    monkeypatch.setattr(rotundity_lab, "_adversarial_blocks", recording)
    rep = mlur_adversarial_search(ctx8, forged, samples=samples, seed=8)
    rng = np.random.default_rng(8)
    ref = np.vstack([blk for a in range(0, samples, 1024)
                     for blk in ref_adversarial_blocks(rng, nodes, min(1024, samples - a), eps2)])
    got = full_rows(blocks, nodes)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    cands, cols, y = candidates(blocks, eps2)
    assert np.sort(cands).tolist() == np.nonzero(np.max(np.abs(ref), axis=1) > eps2)[0].tolist()
    assert y.tobytes() == ref[cands, cols].tobytes()
    expect = ONE_THREAD_REPORTS[samples]
    assert rep == {"scanned": samples, "counterexamples": expect[0],
                   "survivors_full_checked": expect[1]}


@pytest.mark.parametrize("samples", sorted(ONE_THREAD_REPORTS))
def test_threaded_scan_builds_the_reference_rows(ctx8, monkeypatch, samples):
    assert_threaded_scan_builds_the_reference_rows(ctx8, monkeypatch, samples)


@pytest.mark.parametrize("piece_rows", [1, 7])
@pytest.mark.parametrize("samples", sorted(ONE_THREAD_REPORTS))
def test_any_piece_size_builds_the_reference_rows(ctx8, monkeypatch, samples, piece_rows):
    # pieces that end anywhere in a chunk's noise or wave samples
    from banachlab import rotundity_lab

    monkeypatch.setattr(rotundity_lab, "SCAN_PIECE_ROWS", piece_rows)
    assert_threaded_scan_builds_the_reference_rows(ctx8, monkeypatch, samples)


def test_a_failed_draw_raises_in_the_caller(ctx8, monkeypatch):
    # the second chunk's draw fails between two of its noise pieces
    import threading

    from banachlab import rotundity_lab

    calls = []
    draw = rotundity_lab._draw_chunk

    def second_fails(rng, n, m, eps2, buffers):
        calls.append(m)
        for i, piece in enumerate(draw(rng, n, m, eps2, buffers)):
            if len(calls) == 2 and i == 2:  # after the head and one noise piece
                raise RuntimeError("second draw failed")
            yield piece

    monkeypatch.setattr(rotundity_lab, "_draw_chunk", second_fails)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="second draw failed"):
        mlur_adversarial_search(ctx8, forged_tent(ctx8), samples=3000, seed=8)
    assert calls == [1024, 1024]
    assert threading.active_count() == before


def test_a_failed_screen_leaves_no_draw_thread(ctx8, monkeypatch):
    # the forged bound sends a sample of the first chunk to the exact check,
    # which raises while the draw thread is ahead of the screen
    import threading

    from banachlab import rotundity_lab

    def fails(cert, y):
        raise RuntimeError("exact check failed")

    monkeypatch.setattr(rotundity_lab, "apply_certificate", fails)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="exact check failed"):
        mlur_adversarial_search(ctx8, forged_tent(ctx8), samples=3000, seed=8)
    assert threading.active_count() == before


def test_one_draw_thread_per_call(ctx8, monkeypatch):
    import threading

    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    rep = mlur_adversarial_search(ctx8, cert, samples=0, seed=8)
    assert rep == {"scanned": 0, "counterexamples": 0, "survivors_full_checked": 0}
    assert started == []
    mlur_adversarial_search(ctx8, cert, samples=3000, seed=8)
    assert len(started) == 1 and not started[0].is_alive()


@pytest.mark.parametrize("queue_pieces", [1, 4])
def test_the_draw_runs_at_most_the_queue_bound_ahead(ctx8, monkeypatch, queue_pieces):
    # behind a slow screen the draw thread fills the queue and holds one
    # more piece: it never has more than SCAN_QUEUE_PIECES + 1 pieces drawn
    # beyond those taken, so its SCAN_QUEUE_PIECES + 2 buffers suffice, and
    # the report stays the one-thread report
    import time

    from banachlab import rotundity_lab

    monkeypatch.setattr(rotundity_lab, "SCAN_QUEUE_PIECES", queue_pieces)
    drawn, ahead = [0], []
    draw, build = rotundity_lab._draw_chunk, rotundity_lab._adversarial_blocks

    def counting(rng, n, m, eps2, buffers):
        for piece in draw(rng, n, m, eps2, buffers):
            drawn[0] += 1
            yield piece

    def slow(pieces, nodes, chunks):
        def taken():
            count = 0
            while True:
                piece = next(pieces)
                count += 1
                time.sleep(0.005)
                ahead.append(drawn[0] - count)
                yield piece

        yield from build(taken(), nodes, chunks)

    monkeypatch.setattr(rotundity_lab, "_draw_chunk", counting)
    monkeypatch.setattr(rotundity_lab, "_adversarial_blocks", slow)
    rep = mlur_adversarial_search(ctx8, forged_tent(ctx8), samples=3000, seed=8)
    assert rep == {"scanned": 3000, "counterexamples": ONE_THREAD_REPORTS[3000][0],
                   "survivors_full_checked": ONE_THREAD_REPORTS[3000][1]}
    assert 0 < max(ahead) <= queue_pieces + 1


def reorder(cert, perm):
    """cert with its cover listed in the order perm."""
    import dataclasses

    fields = ("cover", "cover_bounds", "x_seminorms")
    return dataclasses.replace(cert, **{f: tuple(getattr(cert, f)[i] for i in perm) for f in fields})


@pytest.mark.parametrize("order", ["rising", "reversed", "shuffled"])
def test_scan_on_unsorted_covers(ctx8, order):
    # verify accepts a cover in any order, and so must the scan: each node's
    # holder is the first listed interval whose closure holds it
    from banachlab.gridsearch import grid_nodes
    from banachlab.rotundity_lab import _holders

    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    n = len(cert.cover)
    perm = {"rising": np.arange(n), "reversed": np.arange(n)[::-1],
            "shuffled": np.random.default_rng(7).permutation(n)}[order]
    moved = reorder(cert, perm)
    assert moved.verify() == cert.verify()
    lo, hi, _ = moved.cover_arrays
    nodes = grid_nodes(512, moved.x)
    holder = _holders(nodes, lo, hi)
    held = (lo[:, None] <= nodes) & (nodes <= hi[:, None])
    assert np.all(held[holder, np.arange(nodes.size)])
    assert holder.tolist() == ref_holders(nodes, lo, hi)
    if order == "rising":  # the rule of rising covers: the first interval ending past k
        ends = np.searchsorted(nodes, hi, side="right")
        assert holder.tolist() == np.searchsorted(ends, np.arange(nodes.size), side="right").tolist()
    rep = assert_scan_matches_reference(ctx8, moved, 3000, 5, 512)
    assert rep["counterexamples"] == 0


def test_scan_checks_samples_in_a_cover_gap(ctx8):
    # no interval of a gapped cover holds the nodes in the gap, so the
    # premise bounds nothing there: a sample peaking in the gap is not
    # refuted but checked exactly
    cert = mlur_certificate(ctx8, unit(ctx8, PLFunction.tent()), 0.1)
    lo, hi, _ = cert.cover_arrays
    gapped = reorder(cert, np.nonzero((hi < 0.4) | (lo > 0.6))[0])
    with pytest.raises(CertificateFailure, match="gap"):
        gapped.verify()
    rep = assert_scan_matches_reference(ctx8, gapped, 3000, 5, 512)
    assert rep["counterexamples"] > 0

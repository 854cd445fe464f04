"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Stated tolerances are
pinned here; timing assertions measure wall time.
"""

import json
import math
import time

import numpy as np
import pytest

from banachlab.cli import dispatch
from banachlab.core_model import Measure, PLFunction, dump_function, dump_measure
from banachlab.d_norm import DNormContext, d_norm, dirac_dual_norm, dual_norm, sup_norm_bounds
from banachlab.neighborhood_base import build_leveled
from banachlab.nested_sum_space import (
    ExponentSchedule,
    identity_operator_norm,
    large_slice_check,
    product_condition,
)
from banachlab.operator_lab import Rank1Projection, c0_model_control, ld2p_plus_projection_check
from banachlab.rotundity_lab import mlur_adversarial_search, mlur_certificate
from banachlab.slice_lab import norming_bump, small_diameter_combo, tent_flip_witness

from conftest import make_slice_pair, random_pl, smooth_positive_pl


def _report(n, detail):
    print(f"\n[criterion {n}] PASS: {detail}")


def test_criterion_1_norm_normalization():
    one = PLFunction.constant(1.0)
    for i, levels in ((1, 4), (1, 8), (2, 6), (3, 5)):
        ctx = DNormContext(build_leveled(i, levels=levels))
        enc = d_norm(ctx, one)
        assert enc.lo <= 1.0 <= enc.hi
        assert enc.width <= 2.0 ** (-ctx.base.n_max / 2 + 1)
    t0 = time.perf_counter()
    ctx12 = DNormContext(build_leveled(1, levels=12))
    enc = d_norm(ctx12, one)
    dt = time.perf_counter() - t0
    assert enc.lo <= 1.0 <= enc.hi
    assert enc.width < 1e-1
    assert abs(enc.mid - 1.0) < 1e-3
    assert dt < 1.0
    _report(1, f"levels=12 enclosure [{enc.lo}, {enc.hi}], width {enc.width:g}, {dt:.3f}s")


def test_criterion_2_equivalence_inequalities(ctx8):
    rng = np.random.default_rng(202)
    b_lo = sup_norm_bounds(ctx8)
    t0 = time.perf_counter()
    worst_upper = -np.inf
    worst_lower = np.inf
    for _ in range(1000):
        f = random_pl(rng, n_interior=int(rng.integers(2, 20)), amplitude=rng.uniform(0.1, 3.0))
        enc = d_norm(ctx8, f)
        sup = f.sup_abs()
        worst_upper = max(worst_upper, enc.hi - sup)
        worst_lower = min(worst_lower, enc.lo - (b_lo * sup - enc.width))
        assert enc.hi <= sup + 1e-12
        assert enc.lo >= b_lo * sup - enc.width - 1e-12
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(2, f"1000 functions, max(hi−sup)={worst_upper:.2e}, "
               f"min slack of lower bound {worst_lower:.3f}, {dt:.2f}s")


def test_criterion_3_dirac_agreement():
    ctx = DNormContext(build_leveled(1, levels=12))
    t0 = time.perf_counter()
    details = []
    for t in (0.0, 1.0):
        enc = dirac_dual_norm(ctx, t)
        br = dual_norm(ctx, Measure.dirac(t), budget=10 ** 4, seed=33)
        assert br.lower <= enc.hi + 1e-12
        assert enc.hi - br.lower < 1e-2
        details.append(f"t={t}: lower {br.lower:.6f} vs enclosure [{enc.lo:.6f}, {enc.hi:.6f}]")
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(3, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_4_witness_suite(ctx8):
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    successes = 0
    min_dist_margin = np.inf
    for k in range(50):
        S, x, eta = make_slice_pair(ctx8, rng)
        delta = S.epsilon / 2.0
        cert = tent_flip_witness(ctx8, S, x, delta_target=delta, eta=eta)
        cert.verify(ctx8, S, x)  # exact re-verification of all inequalities
        assert cert.achieved_functional > 1.0 - S.epsilon
        assert cert.achieved_distance_lo > 2.0 - 2.0 * delta
        assert cert.achieved_norm_hi <= cert.x_norm_hi
        min_dist_margin = min(
            min_dist_margin, cert.achieved_distance_lo - (2.0 - 2.0 * delta)
        )
        successes += 1
    dt = time.perf_counter() - t0
    assert successes == 50
    assert dt < 120.0
    _report(4, f"50/50 witnesses verified, min distance margin {min_dist_margin:.4f}, {dt:.1f}s")


def test_criterion_5_mlur_soundness():
    ctx = DNormContext(build_leveled(1, levels=9))
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    total = 0
    for k in range(20):
        f = smooth_positive_pl(rng)
        x = f.scaled(1.0 / d_norm(ctx, f).hi)
        for eps in (0.05, 0.1, 0.2):
            cert = mlur_certificate(ctx, x, eps)
            rep = mlur_adversarial_search(ctx, cert, samples=10 ** 5, seed=1000 + k)
            # zero by proof: |y(k)| > 2ε ≥ verify() ≥ ‖x‖_m + ε − |x(k)|
            assert rep["counterexamples"] == rep["survivors_full_checked"] == 0
            total += rep["scanned"]
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(5, f"{total} adversarial perturbations over 60 certificates, "
               f"zero counterexamples, {dt:.1f}s")


def test_criterion_6_small_diameter_combinations():
    t0 = time.perf_counter()
    details = []
    bounds = []
    for i in (2, 3, 4):
        ctx = DNormContext(build_leveled(i, levels=8))
        slices, bound, cert = small_diameter_combo(ctx, i, budget=10 ** 4, seed=66)
        assert cert.slack <= 0.2
        assert bound == pytest.approx(math.sqrt(i + cert.slack) / i)
        assert cert.empirical_diameter is not None
        assert cert.empirical_diameter <= bound
        if i == 2:
            assert bound <= 0.75
        bounds.append(bound)
        details.append(f"i={i}: bound {bound:.4f}, sampled {cert.empirical_diameter:.4f}")
    dt = time.perf_counter() - t0
    # headline contrast: slices certify distances > 1.8 (criterion 4) while
    # these combinations stay below 1
    assert all(b < 1.0 for b in bounds)
    _report(6, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_7_projection_equation(ctx8):
    t0 = time.perf_counter()
    u = norming_bump(ctx8, 0.0)
    m = Measure.dirac(0.0, 1.0 / u.eval(0.0))
    P = Rank1Projection(u, m)
    rep = ld2p_plus_projection_check(ctx8, P, budget=10 ** 5, seed=77)
    assert rep["lower"] >= 1.9
    assert rep["upper"] == pytest.approx(1.0 + rep["projection_norm"].hi)
    c0 = c0_model_control(2, 0.5)
    assert c0["i_minus_p_norm"] == 1.0
    assert c0["p_norm"] == 1.0
    assert c0["equation_gap"] == 1.0
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(7, f"‖I−P‖ lower {rep['lower']:.4f} (target 2), "
               f"sequence-model gap {c0['equation_gap']}, {dt:.1f}s")


def test_criterion_8_nested_space():
    t0 = time.perf_counter()
    for p in (1.0, 1.5, 2.0, 4.0, 8.0):
        vertices = [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)]
        brute = max((abs(a) ** p + abs(b) ** p) ** (1.0 / p) for a, b in vertices)
        assert abs(identity_operator_norm(p) - brute) < 1e-12
    sched = ExponentSchedule.geometric(2.0, 4.0, 12)
    prod, holds = product_condition(sched)
    assert prod == math.sqrt(2.0) and holds
    rep = large_slice_check(sched, m=8, epsilon=0.3)
    assert rep["best_distance"] > 1.8
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(8, f"identity norms exact, product √2, slice distance "
               f"{rep['best_distance']:.4f} at depth K=12, {dt:.1f}s")


def test_criterion_9_determinism(tmp_path):
    d = tmp_path
    ctx = DNormContext(build_leveled(1, levels=8))
    dump_measure(Measure.dirac(0.0), str(d / "dirac0.json"))
    dump_function(PLFunction.constant(1.0), str(d / "one.json"))
    tent = PLFunction.tent()
    dump_function(tent.scaled(1.0 / d_norm(ctx, tent).hi), str(d / "tent.json"))
    (d / "set.json").write_text(json.dumps({"kind": "slice", "dirac": 0.5, "eps": 0.3}))
    commands = {
        "dual-norm": ["--seed", "5", "--budget", "400", "dual-norm",
                      "--measure", str(d / "dirac0.json")],
        "diam": ["--seed", "9", "--budget", "400", "diam", "--set", str(d / "set.json")],
        "combo-diam": ["--seed", "7", "--budget", "400", "combo-diam", "--i", "2"],
        "mlur-modulus": ["--seed", "3", "--budget", "200", "mlur-modulus",
                         "--fn", str(d / "one.json"), "--eps", "0.5"],
        "op-check": None,  # assembled below
        "octa-gap": ["--seed", "4", "--budget", "150", "octa-gap",
                     "--fn", str(d / "one.json"), "--fn2", str(d / "tent.json")],
    }
    u = norming_bump(ctx, 0.0)
    dump_function(u, str(d / "u.json"))
    dump_measure(Measure.dirac(0.0, 1.0 / u.eval(0.0)), str(d / "m.json"))
    (d / "proj.json").write_text(json.dumps({"u": str(d / "u.json"), "m": str(d / "m.json")}))
    commands["op-check"] = ["--seed", "11", "--budget", "400", "op-check",
                            "--proj", str(d / "proj.json")]
    for name, argv in commands.items():
        payloads = []
        for run_idx in (0, 1):
            out = d / f"{name}-{run_idx}.json"
            assert dispatch(["--out", str(out)] + argv) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"{name} not byte-reproducible"
    _report(9, f"{len(commands)} stochastic subcommands byte-identical on rerun")

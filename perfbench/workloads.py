"""The four benchmark workloads and the quality panel.

Each workload's `setup(seed, workdir)` builds bases, `DNormContext`s
with their lazy caches filled, and every input from the seed alone, and
returns the task list of one pass.  A task's `run` is what gets timed;
`finish` (untimed) turns its raw result into the payload that is hashed
and checked, and `check` returns the payload's failed correctness
conditions.  Every task is deterministic at its inputs, so each pass of
a run repeats the same outputs byte for byte.

The program only ever sees the generated inputs: functions, measures,
slice specifications, search seeds and CLI argument lists.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from banachlab.cli import dispatch
from banachlab.core_model import (
    Enclosure,
    Measure,
    PLFunction,
    dump_function,
    dump_measure,
    integrate,
    lin_comb,
)
from banachlab.d_norm import DNormContext, d_norm, dirac_dual_norm, dual_norm
from banachlab.neighborhood_base import build_leveled
from banachlab.operator_lab import Rank1Projection, ld2p_plus_projection_check
from banachlab.rotundity_lab import mlur_adversarial_search, mlur_certificate
from banachlab.slice_lab import (
    ComboSet,
    ShellSliceSet,
    SliceSet,
    SliceSpec,
    diameter_lower_bound,
    norming_bump,
    small_diameter_combo,
    subslice,
    tent_flip_witness,
)

#: search budget: a quarter of the CLI default 2000, so that a dual-bracket
#: pass takes about 2 s and a run makes about ten of them
BUDGET = 500
#: samples per MLUR scan task (criterion 5 scans 10^5 per certificate);
#: few enough that an mlur-scan pass takes about 1 s
MLUR_SAMPLES = 2_500
#: `nested --op slice` budget: the slowest CLI task, yet under half a pass
NESTED_SLICE_BUDGET = 600


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[dict], list[str]]
    finish: Callable[[object], dict] = field(default=lambda raw: raw)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], list[Task]]


def _problems(*conds: tuple[bool, str]) -> list[str]:
    return [msg for ok, msg in conds if not ok]


def make_ctx(i: int, levels: int) -> DNormContext:
    """A context with every lazy cache the tasks read already filled."""
    ctx = DNormContext(build_leveled(i, levels=levels))
    ctx.min_weight()
    ctx.interval_bounds
    ctx.weights
    ctx.tail_weight
    return ctx


def unit(ctx: DNormContext, f: PLFunction) -> PLFunction:
    """f rescaled so its certified norm enclosure sits just inside the ball."""
    return f.scaled(1.0 / (d_norm(ctx, f).hi * (1.0 + 1e-12)))


def smooth_positive(rng: np.random.Generator, nodes: int = 9) -> PLFunction:
    return PLFunction(np.linspace(0.0, 1.0, nodes), rng.uniform(0.3, 1.0, nodes))


def dyadic_point(rng: np.random.Generator) -> float:
    j = int(rng.integers(2, 5))
    return int(rng.integers(1, 2 ** j)) * 2.0 ** -j


# ---------------------------------------------------------------------------
# dual-norm brackets
# ---------------------------------------------------------------------------

def dual_measures(rng: np.random.Generator) -> list[tuple[str, Measure]]:
    """δ0, δ0+δ1, δ0−δ1, four atoms, Lebesgue and a smooth density.  The
    seed moves weights and density values, never the atom count or
    positions, so every seed costs the same."""
    w = rng.uniform(0.5, 1.5, 4)
    return [
        ("dirac0", Measure.dirac(0.0)),
        ("dirac0+dirac1", Measure(atoms=((0.0, 1.0), (1.0, float(w[0]))))),
        ("dirac0-dirac1", Measure(atoms=((0.0, 1.0), (1.0, -float(w[1]))))),
        ("four-atoms", Measure(atoms=((0.0, float(w[0])), (0.25, -float(w[1])),
                                      (0.5, float(w[2])), (1.0, float(w[3]))))),
        ("lebesgue", Measure.lebesgue()),
        ("density", Measure(density=smooth_positive(rng))),
    ]


def _bracket_payload(br):
    return {"lower": br.lower, "upper": br.upper, "evaluations": br.evaluations,
            "witness": br.witness}


def dual_tasks(ctx: DNormContext, levels: int, seed: int) -> list[Task]:
    rng = np.random.default_rng([seed, levels])
    tasks = []
    for k, (label, m) in enumerate(dual_measures(np.random.default_rng(seed))):
        search_seed = int(rng.integers(0, 2 ** 31))

        def run(m=m, s=search_seed):
            return dual_norm(ctx, m, budget=BUDGET, seed=s)

        def check(p, m=m):
            out = _problems((0.0 < p["lower"] <= p["upper"], "lower <= upper"))
            if len(m.atoms) == 1 and m.density is None:
                t, w = m.atoms[0]
                closed = dirac_dual_norm(ctx, t)
                rel = 1e-12
                out += _problems(
                    (p["lower"] <= abs(w) * closed.hi * (1 + rel)
                     and p["upper"] >= abs(w) * closed.lo * (1 - rel),
                     "dirac bracket contains 1/sqrt(w(t))"))
            return out

        tasks.append(Task(f"dual/L{levels}/{label}", run, check, _bracket_payload))
    return tasks


def setup_dual_bracket(seed: int, workdir: str) -> list[Task]:
    return [t for levels in (8, 12) for t in dual_tasks(make_ctx(1, levels), levels, seed)]


# ---------------------------------------------------------------------------
# exact certificate path
# ---------------------------------------------------------------------------

#: slice depths cycled over the flip-witness tasks; fixed so the smallest
#: certified margin (set by the smallest eps) is comparable across seeds
WITNESS_EPS = (0.1, 0.2, 0.3, 0.4)
WITNESS_COUNT = 24


def _dirac_slice(ctx, rng, eps):
    t = dyadic_point(rng)
    w = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    enc = dirac_dual_norm(ctx, t)
    S = SliceSpec(Measure.dirac(t, w), Enclosure(abs(w) * enc.lo, abs(w) * enc.hi), eps)
    return S, norming_bump(ctx, t).scaled(math.copysign(1.0, w))


def _two_atom_slice(ctx, rng, eps):
    """δ0 and δ1 have disjoint memberships, so the bracket is closed-form."""
    w0, w1 = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)) for _ in range(2))
    tail = 2.0 ** -ctx.base.n_max
    wl0, wl1 = ctx.base.weight(0.0).lo, ctx.base.weight(1.0).lo
    fn = Enclosure(math.sqrt(w0 ** 2 / (wl0 + tail) + w1 ** 2 / (wl1 + tail)),
                   math.sqrt(w0 ** 2 / wl0 + w1 ** 2 / wl1))
    b0, b1 = norming_bump(ctx, 0.0), norming_bump(ctx, 1.0)
    x0 = lin_comb(math.copysign(abs(w0) / wl0 / b0.eval(0.0), w0), b0,
                  math.copysign(abs(w1) / wl1 / b1.eval(1.0), w1), b1)
    S = SliceSpec(Measure(atoms=((0.0, w0), (1.0, w1))), fn, eps)
    return S, unit(ctx, x0)


def witness_inputs(ctx, rng, k):
    """A slice, a certified member x near its norming point, delta and eta."""
    eps = WITNESS_EPS[k % len(WITNESS_EPS)]
    make = _two_atom_slice if k % 3 == 0 else _dirac_slice
    for _ in range(20):
        S, x0 = make(ctx, rng, eps)
        delta = eps / 2.0
        for alpha in (0.3 * eps, 0.1 * eps, 0.02 * eps, 0.0):
            xs = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 8)]))
            g = PLFunction(xs, rng.uniform(-1.0, 1.0, xs.size))
            x = unit(ctx, lin_comb(1.0, x0, alpha, g) if alpha > 0.0 else x0)
            margin = S.value(x) - (1.0 - eps)
            if margin > eps / 8.0 and d_norm(ctx, x).lo > 1.0 - delta:
                return S, x, delta, min((eps - delta) / 2.0, margin / 2.0)
    raise RuntimeError(f"no certified slice member for witness input {k}")


def witness_tasks(ctx: DNormContext, seed: int) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for k in range(WITNESS_COUNT):
        S, x, delta, eta = witness_inputs(ctx, rng, k)

        def run(S=S, x=x, delta=delta, eta=eta):
            cert = tent_flip_witness(ctx, S, x, delta, eta=eta)
            return cert, cert.verify(ctx, S, x)

        def finish(raw, S=S):
            cert, verified = raw
            return {"N": cert.N, "delta": cert.delta, "eta": cert.eta, "y": cert.y,
                    "flip_intervals": cert.flip_intervals,
                    "achieved_distance_lo": cert.achieved_distance_lo,
                    "achieved_functional": cert.achieved_functional,
                    "achieved_norm_hi": cert.achieved_norm_hi,
                    "x_norm_hi": cert.x_norm_hi, "verify": verified,
                    "epsilon": S.epsilon}

        def check(p):
            return _problems(
                (p["verify"]["distance_lo"] > 2.0 - 2.0 * p["delta"], "distance > 2-2delta"),
                (p["verify"]["functional"] > 1.0 - p["epsilon"], "y stays in the slice"),
                (p["verify"]["norm_hi"] <= p["x_norm_hi"], "norm domination"))

        tasks.append(Task(f"witness/{k:02d}", run, check, finish))
    return tasks


def _diam_payload(est):
    return {"value": est.value, "pair": est.pair, "feasible_samples": est.feasible_samples,
            "evaluations": est.evaluations, "pair_distances": est.pair_distances}


def diam_tasks(ctx: DNormContext, seed: int) -> list[Task]:
    """Diameter lower bounds on a slice and a shell; a subset of the unit
    ball has diameter at most 2, so a larger certified bound is unsound."""
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for kind in ("slice", "shell"):
        t = dyadic_point(rng)
        S = SliceSpec(Measure.dirac(t), dirac_dual_norm(ctx, t), 0.3)
        spec = SliceSet(S) if kind == "slice" else ShellSliceSet(S, 0.2)
        search_seed = int(rng.integers(0, 2 ** 31))
        tasks.append(Task(
            f"diam/{kind}",
            lambda spec=spec, s=search_seed: diameter_lower_bound(ctx, spec, BUDGET, s),
            lambda p: _problems((0.0 < p["value"] <= 2.0, "0 < diameter bound <= 2")),
            _diam_payload))
    return tasks


def _cert_payload(cert):
    return {"points": cert.points, "eta": cert.eta, "slack": cert.slack,
            "radius_bound": cert.radius_bound, "diameter_bound": cert.diameter_bound,
            "empirical_diameter": cert.empirical_diameter,
            "empirical_consistent": cert.empirical_consistent}


def setup_slice_certify(seed: int, workdir: str) -> list[Task]:
    ctx = make_ctx(1, 8)
    combo_ctx = {i: make_ctx(i, 8) for i in (2, 3, 4)}
    rng = np.random.default_rng([seed, 3])
    tasks = witness_tasks(ctx, seed) + diam_tasks(ctx, seed)

    slices, _, cert2 = small_diameter_combo(combo_ctx[2], 2)
    combo = ComboSet(slices, (0.5, 0.5))
    s = int(rng.integers(0, 2 ** 31))
    tasks.append(Task(
        "diam/combo",
        lambda: diameter_lower_bound(combo_ctx[2], combo, BUDGET, s),
        lambda p: _problems((0.0 < p["value"] <= cert2.diameter_bound,
                             "combo diameter within its certified bound")),
        _diam_payload))

    for i, cctx in combo_ctx.items():
        s = int(rng.integers(0, 2 ** 31))
        tasks.append(Task(
            f"combo/i{i}",
            lambda cctx=cctx, i=i, s=s: small_diameter_combo(cctx, i, budget=BUDGET, seed=s)[2],
            lambda p: _problems((p["empirical_diameter"] <= p["radius_bound"],
                                 "empirical diameter <= bound")),
            _cert_payload))

    for k in (1, 2):
        S, x, delta, _ = witness_inputs(ctx, rng, k)
        s = int(rng.integers(0, 2 ** 31))

        def check(p, x=x, delta=delta):
            Snew = SliceSpec(p["functional"], p["functional_norm"], p["epsilon"])
            return _problems((p["epsilon"] == delta, "depth is delta"),
                             (Snew.value(x) > 1.0 - delta, "x stays in the subslice"))

        tasks.append(Task(
            f"subslice/{k}",
            lambda S=S, x=x, delta=delta, s=s: subslice(ctx, S, x, delta, seed=s),
            check,
            lambda Snew: {"functional": Snew.functional,
                          "functional_norm": Snew.functional_norm,
                          "epsilon": Snew.epsilon}))

    for k in range(2):
        t = dyadic_point(rng)
        m = Measure.dirac(t)
        u = smooth_positive(rng)
        P = Rank1Projection(u.scaled(1.0 / integrate(u, m)), m)
        s = int(rng.integers(0, 2 ** 31))
        tasks.append(Task(
            f"op-check/{k}",
            lambda P=P, s=s: ld2p_plus_projection_check(ctx, P, BUDGET, s),
            lambda p: _problems(
                (p["upper"] == 1.0 + p["projection_norm"].hi, "upper == 1 + |P|.hi"),
                (p["lower"] <= p["upper"], "lower <= upper"))))
    return tasks


# ---------------------------------------------------------------------------
# MLUR soundness scan
# ---------------------------------------------------------------------------

def _mlur_payload(raw):
    cert, scan = raw
    return {"delta": cert.delta, "cover": cert.cover, "lipschitz": cert.lipschitz,
            "conclusion_bound": cert.conclusion_bound, "scan": scan}


def setup_mlur_scan(seed: int, workdir: str) -> list[Task]:
    ctx = make_ctx(1, 9)
    rng = np.random.default_rng([seed, 4])
    tasks = []
    for k in range(8):
        x = unit(ctx, smooth_positive(rng))
        for eps in (0.05, 0.1, 0.2):
            s = int(rng.integers(0, 2 ** 31))

            def run(x=x, eps=eps, s=s):
                cert = mlur_certificate(ctx, x, eps)
                return cert, mlur_adversarial_search(ctx, cert, MLUR_SAMPLES, s)

            tasks.append(Task(
                f"mlur/{k}/eps{eps}", run,
                lambda p: _problems(
                    (p["scan"]["counterexamples"] == 0, "no MLUR counterexample"),
                    (p["scan"]["scanned"] == MLUR_SAMPLES, "every sample scanned")),
                _mlur_payload))
    return tasks


# ---------------------------------------------------------------------------
# every CLI subcommand, in process
# ---------------------------------------------------------------------------

def _report_checks(sub: str, res: dict) -> list[str]:
    if sub == "dual-norm":
        return _problems((res["lower"] <= res["upper"], "lower <= upper"))
    if sub == "slice-witness":
        return _problems((res["achieved_distance_lo"] > 2.0 - 2.0 * res["delta"],
                          "distance > 2-2delta"))
    if sub == "diam":
        return _problems((0.0 < res["value"] <= 2.0, "0 < diameter bound <= 2"))
    if sub == "combo-diam":
        return _problems((res["empirical_diameter"] <= res["bound"],
                          "empirical diameter <= bound"))
    if sub == "op-check":
        return _problems((res["upper"] == 1.0 + res["projection_norm"]["hi"],
                          "upper == 1 + |P|.hi"))
    if sub == "nested.slice":
        return _problems((res["best_distance"] > 1.8, "best_distance > 1.8"))
    return []


def setup_cli_suite(seed: int, workdir: str) -> list[Task]:
    rng = np.random.default_rng([seed, 5])
    ctx = make_ctx(1, 8)  # the CLI's default base, used to scale inputs to the sphere

    def path(name):
        return os.path.join(workdir, name)

    f = smooth_positive(rng)
    fu = unit(ctx, f)
    dump_function(PLFunction.constant(1.0), path("one.json"))
    dump_function(f, path("f.json"))
    dump_function(f.scaled(-1.0), path("f_neg.json"))
    dump_function(fu, path("f_unit.json"))
    dump_function(unit(ctx, smooth_positive(rng)), path("g_unit.json"))
    t = dyadic_point(rng)
    dump_measure(Measure.dirac(t), path("dirac.json"))
    # the constant 1 is a certified member of the eps=0.3 slice of δ_t only
    # where w(t) > 0.49, as at t = 1/2
    dump_measure(Measure.dirac(0.5), path("dirac_half.json"))
    dump_measure(Measure(atoms=((0.0, 1.0), (1.0, float(rng.uniform(0.5, 1.5))))),
                 path("two_atoms.json"))
    with open(path("slice_set.json"), "w", encoding="utf-8") as fh:
        json.dump({"kind": "slice", "dirac": dyadic_point(rng), "eps": 0.3}, fh)
    u = smooth_positive(rng)
    dump_function(u.scaled(1.0 / integrate(u, Measure.dirac(t))), path("u.json"))
    with open(path("proj.json"), "w", encoding="utf-8") as fh:
        json.dump({"u": path("u.json"), "m": path("dirac.json")}, fh)
    vec = json.dumps([round(float(v), 6) for v in rng.uniform(-1.0, 1.0, 5)])

    def s():
        return ["--seed", str(int(rng.integers(0, 2 ** 31)))]

    invocations = [
        ("norm", ["norm", "--fn", path("f.json")]),
        ("seminorms", ["seminorms", "--fn", path("f.json")]),
        ("dual-norm", s() + ["dual-norm", "--measure", path("two_atoms.json")]),
        ("slice-witness", s() + ["slice-witness", "--measure", path("dirac_half.json"),
                                 "--fn", path("one.json"), "--eps", "0.3", "--delta", "0.15"]),
        ("diam", s() + ["diam", "--set", path("slice_set.json")]),
        ("combo-diam", s() + ["combo-diam", "--i", "2"]),
        ("subslice", s() + ["subslice", "--measure", path("dirac_half.json"),
                            "--fn", path("one.json"), "--eps", "0.3", "--delta", "0.1"]),
        ("mlur-cert", ["mlur-cert", "--fn", path("f_unit.json"), "--eps", "0.1"]),
        ("mlur-modulus", s() + ["mlur-modulus", "--fn", path("f_unit.json"), "--eps", "0.1"]),
        ("octa-local", s() + ["octa-local", "--fn", path("f_unit.json"), "--eps", "0.1"]),
        ("octa-gap", s() + ["octa-gap", "--fn", path("f_unit.json"),
                            "--fn2", path("g_unit.json")]),
        ("rigidity", ["rigidity", "--fn", path("f.json"), "--fn2", path("f_neg.json")]),
        ("op-check", s() + ["op-check", "--proj", path("proj.json")]),
        ("c0-control", ["c0-control", "--dim", "2", "--eps", "0.5"]),
        ("nested.norm", ["nested", "--op", "norm", "--vec", vec]),
        ("nested.product", ["nested", "--op", "product"]),
        ("nested.wur", ["nested", "--op", "wur"]),
        ("nested.slice", s() + ["--budget", str(NESTED_SLICE_BUDGET),
                                "nested", "--op", "slice"]),
    ]
    tasks = []
    for sub, argv in invocations:
        out = path(f"report_{sub}.json")

        def finish(code, out=out):
            text = ""
            if code == 0:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            return {"exit": code, "report": text}

        def check(p, sub=sub):
            if p["exit"] != 0:
                return [f"exit code {p['exit']}"]
            return _report_checks(sub, json.loads(p["report"])["results"])

        tasks.append(Task(f"cli/{sub}", lambda argv=["--out", out] + argv: dispatch(argv),
                          check, finish))
    return tasks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dual-bracket", setup_dual_bracket),
        Workload("slice-certify", setup_slice_certify),
        Workload("mlur-scan", setup_mlur_scan),
        Workload("cli-suite", setup_cli_suite),
    )
}


# ---------------------------------------------------------------------------
# quality panel
# ---------------------------------------------------------------------------

def quality_tasks(seed: int) -> list[Task]:
    """The tasks the three quality metrics are computed over: the levels-8
    dual brackets of dual-bracket and the witnesses and slice/shell
    diameters of slice-certify, at the same seed.  Same names, same
    inputs, so a workload that already ran one reuses its output."""
    ctx = make_ctx(1, 8)
    return dual_tasks(ctx, 8, seed) + witness_tasks(ctx, seed) + diam_tasks(ctx, seed)


def quality_metrics(payloads: dict[str, dict]) -> dict[str, float]:
    ratios = [p["upper"] / p["lower"] for n, p in payloads.items() if n.startswith("dual/")]
    margins = [p["achieved_distance_lo"] - (2.0 - 2.0 * p["delta"])
               for n, p in payloads.items() if n.startswith("witness/")]
    diams = [p["value"] for n, p in payloads.items()
             if n in ("diam/slice", "diam/shell")]
    return {
        "dual_ratio_gmean": float(np.exp(np.mean(np.log(ratios)))),
        "witness_margin_min": float(min(margins)),
        "diam_lo_gmean": float(np.exp(np.mean(np.log(diams)))),
    }

"""Command-line front end with deterministic JSON/CSV reports.

Exit codes separate engineering failures from mathematical ones: 0 on
success, 1 for usage/configuration/domain errors, 2 when a certified
inequality fails re-verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import _kernels, reports
from .core_model import (
    Measure,
    function_to_dict,
    json_array,
    json_key,
    json_number,
    json_numbers,
    json_object,
    load_function,
    load_measure,
    measure_from_dict,
    read_json,
)
from .d_norm import DNormContext, d_norm, dual_norm
from .errors import BanachLabError, CertificateFailure, ConfigError, WitnessNotFoundError
from .neighborhood_base import parse_base_spec
from .nested_sum_space import (
    ExponentSchedule,
    large_slice_check,
    nested_norm,
    product_condition,
    wur_difference_extraction,
)
from .operator_lab import Rank1Projection, c0_model_control, ld2p_plus_projection_check
from .rotundity_lab import (
    local_octahedral_witness,
    mlur_certificate,
    mlur_modulus,
    non_octahedral_gap,
    seminorm_rigidity_check,
)
from .slice_lab import (
    BallSet,
    ComboSet,
    ShellSliceSet,
    SliceSet,
    SliceSpec,
    diameter_lower_bound,
    small_diameter_combo,
    subslice,
    tent_flip_witness,
)

#: largest --grid: 128 times the default, and far below the cell count
#: whose node arrays would exhaust memory
MAX_GRID_CELLS = 1 << 16

STOCHASTIC = {
    "diam",
    "combo-diam",
    "mlur-modulus",
    "octa-gap",
    "op-check",
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="banachlab", description=__doc__)
    p.add_argument("--base", default="leveled:i=1,levels=8", help="base spec string")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=512, help="uniform grid cells for searches")
    p.add_argument("--out", default=None, help="report path (stdout when omitted)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("norm")
    s.add_argument("--fn", required=True)
    s = sub.add_parser("seminorms")
    s.add_argument("--fn", required=True)
    s.add_argument("--max-n", type=int, default=32)
    s = sub.add_parser("dual-norm")
    s.add_argument("--measure", required=True)
    s = sub.add_parser("slice-witness")
    s.add_argument("--measure", required=True)
    s.add_argument("--fn", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--eta", type=float, default=None)
    s = sub.add_parser("diam")
    s.add_argument("--set", dest="set_spec", required=True, help="JSON file describing the set")
    s = sub.add_parser("combo-diam")
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--eta", type=float, default=None)
    s.add_argument("--levels", type=int, default=8)
    s = sub.add_parser("subslice")
    s.add_argument("--measure", required=True)
    s.add_argument("--fn", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--delta", type=float, required=True)
    s = sub.add_parser("mlur-cert")
    s.add_argument("--fn", required=True)
    s.add_argument("--eps", type=float, required=True)
    s = sub.add_parser("mlur-modulus")
    s.add_argument("--fn", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--norm", choices=["d", "sup"], default="d")
    s = sub.add_parser("octa-local")
    s.add_argument("--fn", required=True)
    s.add_argument("--eps", type=float, required=True)
    s = sub.add_parser("octa-gap")
    s.add_argument("--fn", required=True)
    s.add_argument("--fn2", required=True)
    s = sub.add_parser("rigidity")
    s.add_argument("--fn", required=True)
    s.add_argument("--fn2", required=True)
    s.add_argument("--pair-tol", type=float, default=1e-9)
    s = sub.add_parser("op-check")
    s.add_argument("--proj", required=True, help='JSON: {"u": file, "m": file}')
    s = sub.add_parser("c0-control")
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--eps", type=float, default=0.5)
    s = sub.add_parser("nested")
    s.add_argument("--p", default="geometric:base=2,start=4,count=12")
    s.add_argument("--op", choices=["norm", "product", "wur", "slice"], required=True)
    s.add_argument("--vec", default=None, help="JSON array for --op norm")
    s.add_argument("--m", type=int, default=8)
    s.add_argument("--eps", type=float, default=0.3)
    return p


@functools.lru_cache(maxsize=8)
def _context(spec: str) -> DNormContext:
    """A built-in base's context, built once per process: all it caches
    depends on the frozen base alone."""
    return DNormContext(parse_base_spec(spec))


def _base_context(spec: str) -> DNormContext:
    # a custom:@file base is read again on every call: the file may change
    if spec.partition(":")[0].strip().lower() == "custom":
        return DNormContext(parse_base_spec(spec))
    return _context(spec)


def _parse_schedule(spec: str) -> ExponentSchedule:
    head, _, rest = spec.partition(":")
    try:
        if head == "geometric":
            kw = dict(part.split("=") for part in rest.split(",") if part)
            if unknown := set(kw) - {"base", "start", "count"}:
                raise ValueError(f"unknown key {min(unknown)!r}")
            return ExponentSchedule.geometric(
                base=float(kw.get("base", 2)),
                start=float(kw.get("start", 4)),
                count=int(kw.get("count", 12)),
            )
        if head == "list":
            return ExponentSchedule(tuple(float(v) for v in rest.split(",")))
    except ValueError as exc:  # malformed numbers and keys, and DomainError from the schedule
        raise ConfigError(f"bad schedule spec {spec!r}: {exc}") from None
    raise BanachLabError(f"unknown schedule spec {spec!r}")


def _parse_vec(text: str | None) -> np.ndarray:
    if text is None:
        raise ConfigError("nested --op norm needs --vec")
    try:
        items = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nested too deep to parse
        raise ConfigError(f"--vec must be a JSON array of numbers, got {text!r}") from None
    vec = json_numbers(items, "--vec")
    if not (vec.size and np.all(np.isfinite(vec))):
        raise ConfigError("--vec must be non-empty, with finite entries")
    return vec


def _set_from_json(ctx, path: str, budget: int):
    spec = json_object(read_json(path), "a set file")
    kind = spec.get("kind", "slice")

    def one_slice(d):
        d = json_object(d, "a slice")
        for key in ("norm_lo", "norm_hi"):
            if key in d:
                raise ConfigError(f"{key}: a slice's ‖m‖* bracket is computed, never read")
        if "measure" in d:
            m = measure_from_dict(json_key(d, "measure", "a slice"))
        else:
            m = Measure.dirac(json_number(json_key(d, "dirac", "a slice"), "dirac"))
        eps = json_number(json_key(d, "eps", "a slice"), "eps")
        return SliceSpec.of(ctx, m, eps, budget)

    if kind == "ball":
        return BallSet()
    if kind == "slice":
        return SliceSet(one_slice(spec))
    if kind == "shell":
        tau = json_number(json_key(spec, "tau", "a shell set"), "tau")
        return ShellSliceSet(one_slice(spec), tau)
    if kind == "combo":
        items = json_array(json_key(spec, "slices", "a combo set"), "slices")
        slices = tuple(one_slice(d) for d in items)
        if not slices:
            raise ConfigError("a combo set needs at least one slice")
        weights = spec.get("weights", [1.0 / len(slices)] * len(slices))
        return ComboSet(slices, tuple(json_numbers(weights, "weights").tolist()))
    raise BanachLabError(f"unknown set kind {kind!r}")


def _run(args) -> tuple[dict | str, str]:
    """Returns (report payload or CSV text, format)."""
    ctx = _base_context(args.base)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError("--tol must be finite and positive")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if args.budget < 0:
        raise ConfigError("--budget must be non-negative")
    if args.grid < 1:
        raise ConfigError("grid_cells must be >= 1")
    if args.grid > MAX_GRID_CELLS:
        raise ConfigError(f"--grid must be at most {MAX_GRID_CELLS} cells")
    cfg = {key: getattr(args, key) for key in ("base", "tol", "budget", "seed", "grid")}

    if args.cmd == "norm":
        f = load_function(args.fn)
        enc = d_norm(ctx, f)
        res = {"lo": enc.lo, "hi": enc.hi, "tolerance_met": enc.width <= args.tol}
    elif args.cmd == "seminorms":
        if args.max_n < 1:
            raise ConfigError("--max-n must be >= 1")
        f = load_function(args.fn)
        top = min(args.max_n, ctx.base.n_max)
        # one kernel call for indices 1..top: `d_norm.seminorms_all`'s bits at each
        lo, hi = (b[:top] for b in ctx.base.clamped_bounds)
        values = _kernels.sup_abs_many(f.breakpoints, f.values, lo, hi)
        res = {"values": [{"n": n, "value": float(v)} for n, v in enumerate(values, 1)]}
    elif args.cmd == "dual-norm":
        m = load_measure(args.measure)
        br = dual_norm(ctx, m, budget=args.budget)
        res = {"lower": br.lower, "upper": br.upper, "evaluations": br.evaluations}
    elif args.cmd == "slice-witness":
        m = load_measure(args.measure)
        x = load_function(args.fn)
        S = SliceSpec.of(ctx, m, args.eps, args.budget)
        cert = tent_flip_witness(ctx, S, x, args.delta, eta=args.eta)
        res = {
            "N": cert.N,
            "delta": cert.delta,
            "eta": cert.eta,
            "flip_intervals": [list(f) for f in cert.flip_intervals],
            "achieved_functional": cert.achieved_functional,
            "achieved_distance_lo": cert.achieved_distance_lo,
            "achieved_norm_hi": cert.achieved_norm_hi,
            "x_norm_hi": cert.x_norm_hi,
            "functional_norm": S.functional_norm,
        }
    elif args.cmd == "diam":
        sp = _set_from_json(ctx, args.set_spec, args.budget)
        est = diameter_lower_bound(ctx, sp, args.budget, args.seed, grid_cells=args.grid)
        if args.format == "csv":
            rows = [[i, v] for i, v in enumerate(est.pair_distances)]
            return reports.rows_to_csv(["pair_index", "distance_lo"], rows), "csv"
        res = {
            "value": est.value,
            "feasible_samples": est.feasible_samples,
            "evaluations": est.evaluations,
        }
    elif args.cmd == "combo-diam":
        cctx = _context(f"leveled:i={args.i},levels={args.levels}")
        slices, bound, cert = small_diameter_combo(
            cctx, args.i, eta=args.eta, budget=args.budget, seed=args.seed
        )
        res = {
            "points": list(cert.points),
            "eta": cert.eta,
            "slack": cert.slack,
            "bound": bound,
            "diameter_bound": cert.diameter_bound,
            "empirical_diameter": cert.empirical_diameter,
            "empirical_consistent": cert.empirical_consistent,
        }
    elif args.cmd == "subslice":
        m = load_measure(args.measure)
        x = load_function(args.fn)
        S = SliceSpec.of(ctx, m, args.eps, args.budget)
        Snew = subslice(ctx, S, x, args.delta)
        res = {
            "functional": Snew.functional,
            "functional_norm": Snew.functional_norm,
            "epsilon": Snew.epsilon,
        }
    elif args.cmd == "mlur-cert":
        x = load_function(args.fn)
        cert = mlur_certificate(ctx, x, args.eps)
        res = {
            "delta": cert.delta,
            "cover": list(cert.cover),
            "lipschitz": cert.lipschitz,
            "conclusion_bound": cert.conclusion_bound,
        }
    elif args.cmd == "mlur-modulus":
        x = load_function(args.fn)
        val = mlur_modulus(ctx, x, args.eps, args.budget, args.seed, norm=args.norm,
                           grid_cells=args.grid)
        res = {"modulus_upper": val, "norm": args.norm}
    elif args.cmd == "octa-local":
        x = load_function(args.fn)
        try:
            y, achieved = local_octahedral_witness(ctx, x, args.eps)
            res = {"found": True, "achieved_lo": achieved, "witness": function_to_dict(y)}
        except WitnessNotFoundError as exc:
            res = {"found": False, "diagnostics": exc.diagnostics}
    elif args.cmd == "octa-gap":
        u = load_function(args.fn)
        v = load_function(args.fn2)
        res = non_octahedral_gap(ctx, u, v, args.budget, args.seed)
    elif args.cmd == "rigidity":
        u = load_function(args.fn)
        v = load_function(args.fn2)
        res = {"max_pointwise_gap": seminorm_rigidity_check(ctx, u, v, args.pair_tol)}
    elif args.cmd == "op-check":
        pd = json_object(read_json(args.proj), "a projection file")
        u, m = (json_key(pd, key, "a projection file") for key in ("u", "m"))
        if type(u) is not str or type(m) is not str:
            raise ConfigError('a projection file names its "u" and "m" files by strings')
        P = Rank1Projection(load_function(u), load_measure(m))
        res = ld2p_plus_projection_check(ctx, P, args.budget, args.seed)
    elif args.cmd == "c0-control":
        res = c0_model_control(args.dim, args.eps)
    elif args.cmd == "nested":
        sched = _parse_schedule(args.p)
        if args.op == "norm":
            res = {"norm": nested_norm(sched, _parse_vec(args.vec))}
        elif args.op == "product":
            prod, holds = product_condition(sched)
            res = {"product": prod, "holds": holds}
        elif args.op == "wur":
            n = 12
            e1 = np.eye(1, sched.capacity)[0]
            xs = [e1] * n
            ys = [(1.0 - 1.0 / (k + 1)) * e1 for k in range(n)]
            res = wur_difference_extraction(sched, xs, ys, tol=0.25)
        else:
            res = large_slice_check(sched, args.m, args.eps)
            del res["pair"]
    else:  # pragma: no cover - argparse guards
        raise BanachLabError(f"unknown subcommand {args.cmd}")
    return reports.build_report(args.cmd, cfg, res), "json"


def dispatch(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.cmd in STOCHASTIC and args.seed is None:
        print(f"error: --seed is mandatory for {args.cmd}", file=sys.stderr)
        return 1
    if args.format == "csv" and args.cmd != "diam":
        print("error: --format csv is only available for the diam subcommand", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        payload, fmt = _run(args)
    except CertificateFailure as exc:
        print(f"certificate failure [{exc.inequality}]: {exc}", file=sys.stderr)
        return 2
    except (BanachLabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = payload if fmt == "csv" else reports.canonical_json(payload)
    try:
        reports.emit_report(text, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[{args.cmd}] done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()

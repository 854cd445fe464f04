"""Rank-1 projections and the norm equation ‖I − P‖ = 1 + ‖P‖.

A rank-1 projection P = m ⊗ u (with ∫u dm = 1) has ‖P‖ = ‖u‖·‖m‖*, and
the flip machinery supplies near-optimal witnesses for ‖I − P‖: a slice
member y far from u makes ‖y − m(y)u‖ approach 2.  The finite sup-norm
sequence model provides the exact control where the equation fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import Enclosure, Measure, PLFunction, integrate, lin_comb
from .d_norm import DNormContext, d_norm, functional_bracket
from .errors import ConstructionError, DomainError
from .gridsearch import GridContext
from .slice_lab import SliceSpec, flip_from_point


#: dual_norm budget of the functional bracket behind ‖P‖
NORM_BUDGET = 1500

#: depth of the slice of P's functional whose flip witness seeds the ascent
SEED_EPSILON = 0.04


@dataclass(frozen=True, eq=False)
class Rank1Projection:
    """P x = (∫x dm)·u with the normalization ∫u dm = 1."""

    direction: PLFunction
    functional: Measure

    def __post_init__(self):
        pairing = integrate(self.direction, self.functional)
        if abs(pairing - 1.0) > 1e-10:
            raise ConstructionError(
                f"∫u dm = {pairing} must equal 1 for a projection"
            )

    def apply(self, x: PLFunction) -> PLFunction:
        return self.direction.scaled(integrate(x, self.functional))

    def norm_from(self, ctx: DNormContext, functional_norm: Enclosure) -> Enclosure:
        """‖P‖ from a bracket for ‖m‖*: rank-1 norms factor as ‖u‖·‖m‖*."""
        ue = d_norm(ctx, self.direction)
        return Enclosure(ue.lo * functional_norm.lo, ue.hi * functional_norm.hi)


def i_minus_p_norm_lower(
    ctx: DNormContext,
    P: Rank1Projection,
    budget: int,
    seed: int,
    extra_inits: tuple[PLFunction, ...] = (),
) -> dict:
    """Certified lower bound on ‖I − P‖ from a seeded multistart ascent.

    Maximizes ‖x − Px‖.lo/‖x‖.hi over grid candidates; the best witness is
    re-evaluated through the exact norm path before being reported.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    gc = GridContext(ctx, P.direction, P.functional, *extra_inits)
    coeffs = gc.functional_coeffs(P.functional)
    vu = gc.sample_function(P.direction)
    rng = np.random.default_rng(seed)
    best_ratio = -np.inf
    best_x = None
    evals = 0
    trajectory = []
    chunk = 64
    pending = [gc.sample_function(f) for f in extra_inits]
    pending.append(np.ones(gc.size))
    while evals < budget:
        m = min(chunk, max(1, budget - evals))
        cands = gc.random_smooth(rng, m // 2 + 1)
        cands = np.vstack([cands, gc.random_bumps(rng, m - cands.shape[0])])[:m]
        if pending:
            cands = np.vstack([np.asarray(pending), cands])
            pending = []
        if best_x is not None:
            jitter = best_x[None, :] + 0.05 * gc.random_smooth(rng, 4)
            cands = np.vstack([cands, jitter])
        _, hx = gc.enclosures(cands)
        keep = hx > 1e-12
        cands, hx = cands[keep], hx[keep]
        lt, _ = gc.enclosures(cands - (cands @ coeffs)[:, None] * vu[None, :])
        evals += 2 * cands.shape[0]
        ratios = lt / hx
        k = int(np.argmax(ratios))
        if float(ratios[k]) > best_ratio:
            best_ratio = float(ratios[k])
            best_x = cands[k].copy()
        trajectory.append(best_ratio)
    x_pl = gc.to_plfunction(best_x)
    exact = d_norm(ctx, lin_comb(1.0, x_pl, -1.0, P.apply(x_pl))).lo / d_norm(ctx, x_pl).hi
    return {
        "lower": float(exact),
        "evaluations": evals,
        "trajectory": trajectory,
    }


def ld2p_plus_projection_check(
    ctx: DNormContext,
    P: Rank1Projection,
    budget: int,
    seed: int,
) -> dict:
    """Probe the projection equation ‖I − P‖ = 1 + ‖P‖.

    The triangle inequality pins the upper side at 1 + ‖P‖.hi; the lower
    estimate comes from the ascent seeded with a flip witness of the
    direction u inside the slice of the projection's functional.  The gap
    (1 + ‖P‖.lo) − lower should shrink with budget on spaces where every
    slice reaches diameter 2.
    """
    # one bracket for ‖m‖* serves ‖P‖ and the seeding slice
    mb = functional_bracket(ctx, P.functional, NORM_BUDGET)
    pe = P.norm_from(ctx, mb)
    S = SliceSpec(P.functional, mb, SEED_EPSILON)
    flip = flip_from_point(ctx, S, P.direction, SEED_EPSILON / 2.0)
    seeds = () if flip is None else (flip[1].y,)
    res = i_minus_p_norm_lower(ctx, P, budget, seed, extra_inits=seeds)
    upper = 1.0 + pe.hi
    lower = res["lower"]
    return {
        "projection_norm": pe,
        "upper": upper,
        "lower": lower,
        "gap": (1.0 + pe.lo) - lower,
        "trajectory": res["trajectory"],
        "flip_seeded": bool(seeds),
    }


# ---------------------------------------------------------------------------
# finite sup-norm sequence model (exact control experiment)
# ---------------------------------------------------------------------------


def c0_model_control(dim: int = 2, eps: float = 0.5) -> dict:
    """Exact slice geometry of the coordinate projection in (R^d, ‖·‖_∞).

    In the slice {y : y_1 > 1 − eps} every point is within distance 1 of
    e_1 (first coordinate pinched, others bounded by 1), so the equation
    ‖I − P‖ = 1 + ‖P‖ fails by gap 1 for P = e_1* ⊗ e_1.
    """
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise DomainError("eps must lie in (0, 1]")
    if dim == 1:
        return {
            "dim": 1,
            "max_distance": eps,
            "attained": False,
            "i_minus_p_norm": 0.0,
            "p_norm": 1.0,
            "equation_gap": 2.0,
            "note": "degenerate: I = P in one dimension",
        }
    # max ‖e_1 − y‖_∞ over the slice is 1 exactly: |1 − y_1| < eps ≤ 1, and
    # |y_j| ≤ 1 for j ≥ 2, with equality at y_j = ±1
    # ‖I-P‖ exactly: sup over the ball of max_{j>=2} |y_j| = 1
    i_minus_p = 1.0
    p_norm = 1.0
    return {
        "dim": dim,
        "max_distance": 1.0,
        "attained": True,
        "i_minus_p_norm": i_minus_p,
        "p_norm": p_norm,
        "equation_gap": (1.0 + p_norm) - i_minus_p,
    }

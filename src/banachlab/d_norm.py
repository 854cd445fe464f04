"""The weighted-ℓ² aggregation norm over a neighborhood base, with duals.

For a base (D_n) the seminorms are ‖f‖_n = sup_{D_n} |f| and the norm is
(Σ 2^-n ‖f‖_n²)^(1/2).  Truncation is handled by enclosures: every unseen
seminorm is bounded by ‖f‖_∞, giving a tail of width 2^-N.  Dual norms of
measures come either from the closed dirac formula 1/sqrt(w(t)) or from a
seeded projected-ascent lower bound paired with a certified upper bound;
`functional_bracket` picks between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core_model import Enclosure, Measure, PLFunction, abs_integral_cells, integrate
from .errors import CertificateFailure, DomainError, HypothesisError, IndexRangeError
from .neighborhood_base import NeighborhoodBase

#: multiplicative safety applied when rescaling candidates into the unit
#: ball, so float rounding cannot tip a certified membership
RESCALE_SAFETY = 1.0 + 1e-12

#: tolerances of the unit-ball and unit-sphere checks below
BALL_TOL = 1e-9
SPHERE_TOL = 0.05


class DNormContext:
    """A base; caches the arrays every norm evaluation needs."""

    def __init__(self, base: NeighborhoodBase):
        self.base = base

    @cached_property
    def n_eff(self) -> int:
        return self.base.n_effective

    @cached_property
    def weights(self) -> np.ndarray:
        """2^-n for the effective stored indices (exact dyadic floats)."""
        return np.ldexp(1.0, -np.arange(1, self.n_eff + 1))

    @cached_property
    def interval_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.base.clamped_bounds
        return lo[: self.n_eff].copy(), hi[: self.n_eff].copy()

    @cached_property
    def tail_weight(self) -> float:
        """Mass available to unseen seminorm terms beyond the effective cut."""
        if self.base.has_tail or self.n_eff < self.base.n_max:
            return 2.0 ** -self.n_eff
        return 0.0

    # -- weight landscape (piecewise constant in t) ----------------------

    @cached_property
    def _cell_edges(self) -> np.ndarray:
        """0, 1 and every stored endpoint: the weight is constant between them."""
        lo, hi = self.base.clamped_bounds
        return np.unique(np.concatenate([[0.0, 1.0], lo, hi]))

    @cached_property
    def _weight_probes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell edges and midpoints with the (lo) weight at each: the landscape."""
        pts = self._cell_edges
        mids = 0.5 * (pts[:-1] + pts[1:])
        probes = np.unique(np.concatenate([pts, mids]))
        wlo = np.array([self.base.weight(float(t)).lo for t in probes])
        return probes, wlo

    def min_weight(self) -> tuple[float, float]:
        probes, wlo = self._weight_probes
        k = int(np.argmin(wlo))
        return float(wlo[k]), float(probes[k])

    def weight_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive cells [p_k, p_k+1] with the (lo) weight on each interior.

        Every cell midpoint is a probe, so the weights are read from the
        landscape rather than recomputed.
        """
        pts = self._cell_edges
        probes, wlo = self._weight_probes
        return pts, wlo[np.searchsorted(probes, 0.5 * (pts[:-1] + pts[1:]))]


def seminorm(ctx: DNormContext, f: PLFunction, n: int) -> float:
    """‖f‖_n: exact sup of |f| over the n-th stored interval."""
    if not 1 <= n <= ctx.base.n_max:
        raise IndexRangeError(f"seminorm index {n} outside 1..{ctx.base.n_max}")
    lo, hi = ctx.base.clamped_bounds
    out = _kernels.sup_abs_many(
        f.breakpoints, f.values, np.array([lo[n - 1]]), np.array([hi[n - 1]])
    )
    return float(out[0])


def seminorms_all(ctx: DNormContext, f: PLFunction) -> np.ndarray:
    """All effective seminorms of f (indices whose weight is a nonzero float)."""
    lo, hi = ctx.interval_bounds
    return _kernels.sup_abs_many(f.breakpoints, f.values, lo, hi)


def d_norm(ctx: DNormContext, f: PLFunction) -> Enclosure:
    """Certified enclosure of the norm of f.

    lo² sums the stored terms; hi² adds 2^-N·‖f‖_∞², which dominates every
    unseen term because each seminorm is at most the max-norm.
    """
    s = seminorms_all(ctx, f)
    lo2 = float(np.dot(ctx.weights, s * s))
    sup = f.sup_abs()
    hi2 = lo2 + ctx.tail_weight * sup * sup
    return Enclosure(float(np.sqrt(lo2)), float(np.sqrt(hi2)))


def ball_norm(ctx: DNormContext, x: PLFunction) -> Enclosure:
    """The norm enclosure of x, which must certify x in the unit ball."""
    enc = d_norm(ctx, x)
    if enc.hi > 1.0 + BALL_TOL:
        raise DomainError("x is not a certified ball member")
    return enc


def sphere_norm(ctx: DNormContext, x: PLFunction) -> Enclosure:
    """The norm enclosure of x, which must lie within SPHERE_TOL of 1."""
    enc = d_norm(ctx, x)
    if max(enc.lo - 1.0, 1.0 - enc.hi, 0.0) > SPHERE_TOL:
        raise DomainError(f"norm enclosure [{enc.lo}, {enc.hi}] is not within {SPHERE_TOL} of 1")
    return enc


def into_unit_ball(ctx: DNormContext, f: PLFunction) -> PLFunction:
    """f, or f radially rescaled so its exact norm enclosure hi is <= 1."""
    hi = d_norm(ctx, f).hi
    return f.scaled(1.0 / (hi * RESCALE_SAFETY)) if hi > 1.0 else f


def sup_norm_bounds(ctx: DNormContext) -> tuple[float, dict]:
    """Certified lower equivalence constant b_lo with ‖·‖_D ≥ b_lo·‖·‖_∞.

    At a maximizer t* of |f| we have ‖f‖_D² ≥ w(t*)‖f‖_∞², so the square
    root of the minimum stored weight works; the weight is piecewise
    constant between stored interval endpoints, making the scan exact.
    The upper inequality ‖f‖_D ≤ ‖f‖_∞ holds identically since Σ2^-n = 1.
    """
    wmin, argmin_t = ctx.min_weight()
    if wmin <= 0.0:
        raise DomainError("stored intervals do not cover [0,1]; no positive bound")
    b_lo = float(np.sqrt(wmin))
    note = {
        "min_weight_lo": wmin,
        "argmin_t": argmin_t,
        "upper": "d_norm(f).hi <= sup|f| holds identically",
    }
    return b_lo, note


def dirac_dual_norm(ctx: DNormContext, t: float) -> Enclosure:
    """Dual norm of the point evaluation at t via 1/sqrt(w(t)).

    Requires the isolation hypothesis: every interval not containing t
    keeps its closure away from t; otherwise the formula is not certified.
    """
    check = ctx.base.isolated_at(t)
    if not check.ok:
        raise HypothesisError(f"isolation fails at t={t}: {check.reason}")
    w = ctx.base.weight(t)
    if w.lo <= 0.0:
        raise DomainError(f"t={t} carries no stored weight")
    return Enclosure(1.0 / np.sqrt(w.hi), 1.0 / np.sqrt(w.lo))


def weighted_tv_upper(ctx: DNormContext, m: Measure) -> float:
    """Certified upper bound for the dual norm of a measure.

    Pointwise |x(t)| ≤ ‖x‖_D / sqrt(w_lo(t)), so |∫x dm| ≤ ∫ d|m| / sqrt(w_lo).
    Exact because w_lo is piecewise constant and |density| integrates in
    closed form.  Always at least as tight as total_variation / b_lo.
    """
    total = 0.0
    for t, w in m.atoms:
        wt = ctx.base.weight(t).lo
        if wt <= 0.0:
            raise DomainError("atom outside the stored cover")
        total += abs(w) / np.sqrt(wt)
    if m.density is not None:
        pts, wlo = ctx.weight_cells()
        if np.any(wlo <= 0.0):
            raise DomainError("uncovered cell in the stored base")
        terms = abs_integral_cells(m.density, pts) / np.sqrt(wlo)
        # np.cumsum adds left to right, continuing the atom sum
        total = np.cumsum(np.concatenate(([total], terms)))[-1]
    return float(total)


def conservative_value(raw: float, functional_norm: Enclosure) -> float:
    """Certified lower bound of raw/‖m‖* given an enclosure for ‖m‖*."""
    if raw >= 0.0:
        return raw / functional_norm.hi
    if functional_norm.lo > 0.0:
        return raw / functional_norm.lo
    return -np.inf


@dataclass(frozen=True, eq=False)
class DualNormBracket:
    """Two-sided bracket for ‖m‖* with the feasible witness of the lower bound."""

    lower: float
    upper: float
    witness: PLFunction
    evaluations: int

    def as_enclosure(self) -> Enclosure:
        return Enclosure(self.lower, self.upper)


def dual_norm(
    ctx: DNormContext,
    m: Measure,
    budget: int = 2000,
    seed: int = 0,
    grid_cells: int = 512,
) -> DualNormBracket:
    """Bracket sup{∫x dm : ‖x‖_D ≤ 1} for a measure m.

    The lower bound is the best value of a seeded multistart ascent over
    grid PL functions, radially rescaled through the norm enclosure's hi so
    every reported witness is certified feasible.  The upper bound is the
    weighted total-variation bound.  Both are computed for m scaled by the
    power of two that puts its largest weight or density value in [1/2, 1):
    every step is linear and the scaling exact, so the bits are m's own
    wherever those neither overflow nor underflow.
    """
    if m.is_zero():
        raise DomainError("dual norm of the zero measure")
    peaks = [abs(w) for _, w in m.atoms]
    if m.density is not None:
        peaks.append(float(np.max(np.abs(m.density.values))))
    # a finite scale (exponent >= -1022); dividing by it overflows to inf
    scale = math.ldexp(1.0, -max(math.frexp(max(peaks))[1], -1022))
    ms = m.scaled(scale)
    upper = weighted_tv_upper(ctx, ms) / scale
    if not np.isfinite(upper):
        raise DomainError(f"dual norm upper bound is not finite ({upper})")
    from .gridsearch import GridContext, maximize_linear_functional

    gc = GridContext(ctx, ms, grid_cells=grid_cells)
    coeffs = gc.functional_coeffs(ms)
    # the pointwise bound |x(t)| <= ‖x‖/sqrt(w(t)) is tight at the optimum,
    # so the sign-matched inverse-sqrt-weight profile is a strong start
    wp = np.maximum(gc.weight_profile(), 1e-30)
    profile = np.where(coeffs >= 0.0, 1.0, -1.0) / np.sqrt(wp)
    value, v_best, used = maximize_linear_functional(
        gc, coeffs, budget, seed, extra_inits=(profile,)
    )
    # re-certify on the exact path: rescale so the exact hi is inside the ball
    witness = into_unit_ball(ctx, gc.to_plfunction(v_best))
    lower = float(integrate(witness, ms)) / scale
    if lower > upper + 1e-12:
        raise CertificateFailure(
            f"feasible value {lower} exceeds certified upper bound {upper}",
            inequality="dual norm bracket consistency",
        )
    return DualNormBracket(float(min(lower, upper)), float(upper), witness, used)


def functional_bracket(
    ctx: DNormContext, m: Measure, budget: int, seed: int, grid_cells: int = 512
) -> Enclosure:
    """Certified bracket for ‖m‖*: |w| times the dirac formula for one
    isolated atom, the dual_norm bracket for anything else."""
    if len(m.atoms) == 1 and m.density is None:
        t, w = m.atoms[0]
        try:
            enc = dirac_dual_norm(ctx, t)
        except HypothesisError:
            pass
        else:
            return Enclosure(abs(w) * enc.lo, abs(w) * enc.hi)
    return dual_norm(ctx, m, budget=budget, seed=seed, grid_cells=grid_cells).as_enclosure()

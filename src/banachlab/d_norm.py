"""The weighted-ℓ² aggregation norm over a neighborhood base, with duals.

For a base (D_n) the seminorms are ‖f‖_n = sup_{D_n} |f| and the norm is
(Σ 2^-n ‖f‖_n²)^(1/2).  Truncation is handled by enclosures: every unseen
seminorm is bounded by ‖f‖_∞, giving a tail of width 2^-N.  Dual norms of
measures come either from the closed dirac formula 1/sqrt(w(t)) or from a
finite split program over the first stored terms, whose split certifies the
upper end and whose dual point, made a PL function, the lower;
`slice_lab.SliceSpec.of` picks between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core_model import Enclosure, Measure, PLFunction, abs_integral_cells, integrate
from .errors import CertificateFailure, DomainError, HypothesisError
from .neighborhood_base import NeighborhoodBase

#: multiplicative safety applied when rescaling candidates into the unit
#: ball, so float rounding cannot tip a certified membership
RESCALE_SAFETY = 1.0 + 1e-12

#: tolerances of the unit-ball and unit-sphere checks below
BALL_TOL = 1e-9
SPHERE_TOL = 0.05

#: stored terms the dual-norm program keeps; doubled while some cell of the
#: measure's mass has no member among them
PROGRAM_TERMS = 64
#: relative duality gap at which the program's sweeps stop
PROGRAM_GAP = 1e-6
#: width of the ramps of the program witness, at most a quarter of a cell's
WITNESS_RAMP = 1e-6


def _closure_weights(base: NeighborhoodBase, points: np.ndarray) -> np.ndarray:
    """``base.weight(t).lo`` at each of the increasing points, bit for bit.

    A point's terms 2^-n, n ascending over its closure members, make one row
    of a (points × count) array per member count, and one ``np.sum`` along
    the rows adds each as ``base.weight``'s ``np.sum`` adds its 1-d array.
    """
    lo, hi = base.clamped_bounds
    starts = np.searchsorted(points, lo, side="left")
    counts = np.searchsorted(points, hi, side="right") - starts
    # one (point, n) pair per member, sorted by point and then by n
    at = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    order = np.argsort(at, kind="stable")
    terms = np.ldexp(1.0, -np.repeat(np.arange(1, lo.size + 1), counts)[order])
    members = np.bincount(at, minlength=points.size)
    first = np.cumsum(members) - members
    out = np.zeros(points.size)
    for k in np.unique(members[members > 0]):
        rows = np.flatnonzero(members == k)
        out[rows] = terms[first[rows, None] + np.arange(k)].sum(axis=1)
    return out


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
    def _landscape(self) -> tuple[np.ndarray, np.ndarray]:
        """0, 1 and every stored endpoint, between which the weight is
        constant, and the (lo) weight at each cell's midpoint."""
        lo, hi = self.base.clamped_bounds
        pts = np.unique(np.concatenate([[0.0, 1.0], lo, hi]))
        return pts, _closure_weights(self.base, 0.5 * (pts[:-1] + pts[1:]))

    def min_weight(self) -> float:
        """The least (lo) weight on [0,1]: the least cell weight, since every
        closure that holds a cell's interior holds both of its edges, so no
        edge weighs less than the cells beside it."""
        return float(self._landscape[1].min())

    def weight_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive cells [p_k, p_k+1] with the (lo) weight on each
        interior, read at its midpoint."""
        return self._landscape


def seminorms_all(ctx: DNormContext, f: PLFunction) -> np.ndarray:
    """All effective seminorms of f (indices whose weight is a nonzero float)."""
    lo, hi = ctx.interval_bounds
    return _kernels.sup_abs_many(f.breakpoints, f.values, lo, hi)


def d_norm(ctx: DNormContext, f: PLFunction) -> Enclosure:
    """Certified enclosure of the norm of f: `norm_enclosure` of its
    effective seminorms and its max-norm."""
    return norm_enclosure(ctx, seminorms_all(ctx, f), f.sup_abs())


def norm_enclosure(ctx: DNormContext, s: np.ndarray, sup: float) -> Enclosure:
    """Certified enclosure of the norm of a function whose effective
    seminorms are s (`seminorms_all`) and whose max-norm is sup.

    lo² sums the stored terms; hi² adds 2^-N·sup², which dominates every
    unseen term because each seminorm is at most the max-norm.  Where sup
    lies outside [2^-200, 2^200] the squares would under- or overflow, so the
    sums run on s and sup scaled by `_pow2`, and the ends scale back rounded
    outward.
    """
    if 2.0 ** -200 <= sup <= 2.0 ** 200:
        return Enclosure(*_root_sums(ctx, s, sup))
    scale = _pow2(sup)
    lo, hi = _root_sums(ctx, s * scale, sup * scale)
    return Enclosure(_unscale(lo, scale, 0.0), _unscale(hi, scale, math.inf))


def _root_sums(ctx: DNormContext, s: np.ndarray, sup: float) -> tuple[float, float]:
    """sqrt(Σ 2^-n s_n²), and the same with 2^-N·sup² added."""
    lo2 = float(np.dot(ctx.weights, s * s))
    hi2 = lo2 + ctx.tail_weight * sup * sup
    return float(np.sqrt(lo2)), float(np.sqrt(hi2))


def ball_norm(ctx: DNormContext, x: PLFunction) -> Enclosure:
    """The norm enclosure of x, which must certify x in the unit ball."""
    return ball_member(d_norm(ctx, x))


def ball_member(enc: Enclosure) -> Enclosure:
    """enc, the norm enclosure of some x, which must certify x in the unit
    ball."""
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


def sup_norm_bounds(ctx: DNormContext) -> float:
    """Certified lower equivalence constant b_lo with ‖·‖_D ≥ b_lo·‖·‖_∞.

    At a maximizer t* of |f| we have ‖f‖_D² ≥ w(t*)‖f‖_∞², so the square
    root of the least stored weight works; the weight is constant on each
    cell between stored interval endpoints and no less at its edges, so the
    cells give the minimum exactly.  The upper inequality ‖f‖_D ≤ ‖f‖_∞
    holds identically since Σ2^-n = 1.
    """
    wmin = ctx.min_weight()
    if wmin <= 0.0:
        raise DomainError("stored intervals do not cover [0,1]; no positive bound")
    return float(np.sqrt(wmin))


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


def _pow2_scale(m: Measure) -> float:
    """`_pow2` of m's largest weight or density value."""
    peaks = [abs(w) for _, w in m.atoms]
    if m.density is not None:
        peaks.append(float(np.max(np.abs(m.density.values))))
    return _pow2(max(peaks, default=0.0))


def _pow2(peak: float) -> float:
    """The power of two that puts peak in [1/2, 1); at most 2^1022, as
    2^1074 for the least subnormal overflows."""
    return math.ldexp(1.0, -max(math.frexp(peak)[1], -1022))


def weighted_tv_upper(ctx: DNormContext, m: Measure) -> float:
    """Certified upper bound for the dual norm of a measure.

    Pointwise |x(t)| ≤ ‖x‖_D / sqrt(w_lo(t)), so |∫x dm| ≤ ∫ d|m| / sqrt(w_lo).
    Exact because w_lo is piecewise constant and |density| integrates in
    closed form.  Always at least as tight as total_variation / b_lo.
    Computed for m scaled by `_pow2_scale`, as `dual_norm` is, and rounded
    up where the scaling back underflows.
    """
    scale = _pow2_scale(m)
    m = m.scaled(scale)
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
    return _unscale(float(total), scale, math.inf)


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


def _program_cells(ctx: DNormContext, m: Measure, terms: int):
    """Cells of the dual-norm program over the first `terms` stored closures.

    The edges are 0, 1, the closures' ends, the atoms and the points where
    the density changes sign.  Returns the edges, the closure-member
    matrices of the open cells between them and of the edges, the |m| mass
    of each open cell and the atom weight at each edge (0 where none is).
    A closed cell lies in a closure exactly when both of its edges do.
    """
    lo, hi = (b[:terms] for b in ctx.base.clamped_bounds)
    rho = m.density
    points = [np.array([0.0, 1.0]), lo, hi, np.array([t for t, _ in m.atoms])]
    if rho is not None:
        points += [_kernels.zero_crossings(rho.breakpoints, rho.values)[1],
                   rho.breakpoints[rho.values == 0.0]]
    edges = np.unique(np.concatenate(points))
    edge_in = (lo <= edges[:, None]) & (edges[:, None] <= hi)
    cell_in = edge_in[:-1] & edge_in[1:]
    cell_mass = np.zeros(edges.size - 1) if rho is None else abs_integral_cells(rho, edges)
    edge_w = np.zeros(edges.size)
    for t, w in m.atoms:
        edge_w[np.searchsorted(edges, t)] = w
    return edges, cell_in, edge_in, cell_mass, edge_w


def _water_fill(mass: float, rest: list, terms: list) -> tuple[list, float]:
    """The shares of `mass` over the stored terms n = k + 1 of `terms`, whose
    other loads are `rest`, that minimise Σ 2^n (rest + share)², and their
    level: every loaded term ends at the level of 2^n·load, and no unloaded
    one below it.  Plain floats: a class has too few members for numpy."""
    price = [math.ldexp(r, k + 1) for r, k in zip(rest, terms)]
    order = sorted(range(len(terms)), key=price.__getitem__)
    carried, width = mass, 0.0
    for j, i in enumerate(order):
        carried += rest[i]
        width += math.ldexp(1.0, -terms[i] - 1)
        level = carried / width
        if j + 1 == len(order) or level <= price[order[j + 1]]:
            break
    return [max(math.ldexp(level, -k - 1) - r, 0.0) for r, k in zip(rest, terms)], level


def _member_classes(held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the bool matrix `held` and each row's index
    among them, as np.unique(held, axis=0, return_inverse=True) gives them.

    Each row is packed into one void key, most significant bit first, so
    that byte order on the keys is np.unique's lexicographic order on the
    rows and one 1-D sort replaces a sort over one field per column.
    """
    packed = np.packbits(held, axis=1)
    key = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return held[first], inverse


def _split_program(ctx: DNormContext, m: Measure, budget: int):
    """The dual-norm program of m over the first PROGRAM_TERMS stored terms,
    or more while some cell or atom of m's mass has no member among them.

    Returns a certified upper bound for ‖m‖*, the PL witness of the lower
    end (not yet in the ball) and the sweeps spent.
    """
    terms = min(PROGRAM_TERMS, ctx.n_eff)
    while True:
        edges, cell_in, edge_in, cell_mass, edge_w = _program_cells(ctx, m, terms)
        members = np.vstack([cell_in, edge_in])
        mass = np.concatenate([cell_mass, np.abs(edge_w)])
        covered = members[mass > 0.0].any(axis=1).all()
        if covered or terms == ctx.n_eff:
            break
        terms = min(2 * terms, ctx.n_eff)
    if not covered:
        raise DomainError("mass outside the stored cover")
    # classes: the mass cells and atoms with one closure-member set, the
    # heaviest first, which is the order the sweeps converge fastest in.
    # Classes of equal mass keep the order _member_classes gives them, so it
    # must be np.unique's: the sweep order, and so every bit of the bracket
    # and the witness, depends on it
    sets, cls = _member_classes(members[mass > 0.0])
    mu = np.bincount(cls, weights=mass[mass > 0.0])
    # the sweeps square the masses: scaled, as the peak was, by the power
    # of two that puts the largest in [1/2, 1), tiny ones cannot underflow
    mscale = _pow2(mu.max())
    mu *= mscale
    heavy = np.argsort(-mu, kind="stable")
    sets, mu = sets[heavy], mu[heavy]
    pc, pk = np.nonzero(sets)  # (class, term) pairs, by class and then term
    first = np.searchsorted(pc, np.arange(mu.size))
    spans = list(zip(first.tolist(), np.append(first[1:], pc.size).tolist()))
    class_terms = [pk[a:b].tolist() for a, b in spans]
    shares = [[0.0] * len(k) for k in class_terms]
    n = np.arange(1, terms + 1)
    load = [0.0] * terms
    levels = np.zeros(mu.size)
    for sweep in range(1, budget + 1):
        # Gauss–Seidel: each class in turn re-splits its mass over its terms
        for c, k in enumerate(class_terms):
            rest = [max(load[i] - x, 0.0) for i, x in zip(k, shares[c])]
            shares[c], levels[c] = _water_fill(float(mu[c]), rest, k)
            for i, r, x in zip(k, rest, shares[c]):
                load[i] = r + x
        share = np.array([x for row in shares for x in row])
        loads = np.bincount(pk, weights=share, minlength=terms)
        # the dual point: each term at the highest level of its classes,
        # the least s with min over each class's terms at its level, scaled
        # onto the sphere.  A class's level is the lowest price 2^n·T_n of
        # its terms when it was last water-filled.
        s = np.zeros(terms)
        np.maximum.at(s, pk, levels[pc])
        s /= math.sqrt(np.dot(np.ldexp(s, -n), s))
        primal = math.sqrt(np.dot(np.ldexp(loads, n), loads))
        dual = float(np.dot(mu, np.minimum.reduceat(s[pk], first)))
        if primal - dual <= PROGRAM_GAP * primal:
            break
        load = loads.tolist()  # re-summed, so no rounding drift builds up
    # certify: each class's shares carry at least its mass (a deficit goes to
    # its first term), then round up by 8 ulps per term of every sum the
    # masses and loads took, far above their float error
    deficit = np.maximum(mu - np.add.reduceat(share, first), 0.0)
    load = np.bincount(np.concatenate([pk, pk[first]]), np.concatenate([share, deficit]), terms)
    pieces = edges.size + terms + (0 if m.density is None else m.density.breakpoints.size)
    slack = 1.0 + 8.0 * math.ulp(1.0) * pieces
    upper = _unscale(math.sqrt(np.dot(np.ldexp(load, n), load)) * slack, mscale, math.inf)
    return upper, _program_witness(m, s, edges, cell_in, edge_in, edge_w), sweep


def _program_witness(m, s, edges, cell_in, edge_in, edge_w) -> PLFunction:
    """x = sign(m)·min over the closure members of s, as a PL function: each
    edge takes its own members' minimum, and each cell holds its value
    between ramps of WITNESS_RAMP, or of a quarter of its width where that
    is less, wherever the plateau's two ends are distinct floats inside it."""

    def lowest(members):
        v = np.where(members, s, np.inf).min(axis=1)
        return np.where(np.isinf(v), 0.0, v)

    a, b = edges[:-1], edges[1:]
    rho = m.density
    sign = np.zeros(a.size) if rho is None else np.sign(rho.eval(0.5 * (a + b)))
    # an edge takes the sign of its signed cells, and 0 between opposite
    # signs, whose sum is 0; an atom's edge takes the atom's sign
    left, right = np.append(sign[:1], sign), np.append(sign, sign[-1:])
    edge_sign = np.where(edge_w != 0.0, np.sign(edge_w), np.sign(left + right))
    ramp = np.minimum(WITNESS_RAMP, (b - a) / 4.0)
    up, down = a + ramp, b - ramp
    wide = (a < up) & (up < down) & (down < b)
    inner = (sign * lowest(cell_in))[wide]
    bx = np.concatenate([edges, up[wide], down[wide]])
    by = np.concatenate([edge_sign * lowest(edge_in), inner, inner])
    o = np.argsort(bx, kind="stable")
    return PLFunction(bx[o], by[o])


def _unscale(value: float, scale: float, toward: float) -> float:
    """value / scale, moved one ulp toward `toward` when the quotient
    underflows into the subnormals and rounds the other way."""
    q = value / scale
    back = q * scale  # exact: a power of two takes q back into the normal range
    if (back < value and toward > q) or (back > value and toward < q):
        q = math.nextafter(q, toward)
    return q


def dual_norm(
    ctx: DNormContext,
    m: Measure,
    budget: int = 2000,
    seed: int = 0,
) -> DualNormBracket:
    """Bracket sup{∫x dm : ‖x‖_D ≤ 1} for a measure m.

    Over the first PROGRAM_TERMS stored terms (more, until every cell of m's
    mass has a member), |∫x dm| ≤ Σ_c |m|(c)·min_{n: cl D_n ⊇ c} ‖x‖_n for
    the cells c cut at the closures' ends, the atoms and the density's sign
    changes.  Splitting each cell's mass over its members into loads T_n
    gives ‖m‖* ≤ sqrt(Σ 2^n T_n²) by Cauchy–Schwarz; Gauss–Seidel sweeps of
    water-filling, one class of cells with one member set at a time,
    minimise it until the relative duality gap is at most PROGRAM_GAP or
    `budget` sweeps are spent.  `evaluations` counts the sweeps.

    The upper end is the smaller of that bound, rounded outward, and the
    weighted total-variation bound.  The lower end is ∫x dm, computed
    exactly, for the program's dual point x made a PL function and put in
    the unit ball through its exact norm enclosure.  Both are computed for
    m scaled by the power of two that puts its largest weight or density
    value in [1/2, 1), and the program, which squares its masses, scales
    them again so that the largest lies there: every step is linear and
    the scaling exact, so the bits are m's own wherever those neither
    overflow nor underflow.  Where the scaling back underflows, both ends
    are rounded outward.  The ends must agree to a relative 1e-12.  `seed`
    changes nothing; it stays only because the benchmark's dual-bracket
    workload (`perfbench/workloads.py`) passes it.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if m.is_zero():
        raise DomainError("dual norm of the zero measure")
    scale = _pow2_scale(m)
    ms = m.scaled(scale)
    program, x, sweeps = _split_program(ctx, ms, budget)
    upper = min(weighted_tv_upper(ctx, m), _unscale(program, scale, math.inf))
    if not np.isfinite(upper):
        raise DomainError(f"dual norm upper bound is not finite ({upper})")
    witness = into_unit_ball(ctx, x)
    lower = _unscale(float(integrate(witness, ms)), scale, -math.inf)
    if lower > upper * (1.0 + 1e-12):
        raise CertificateFailure(
            f"feasible value {lower} exceeds certified upper bound {upper}",
            inequality="dual norm bracket consistency",
        )
    return DualNormBracket(float(min(lower, upper)), float(upper), witness, sweeps)


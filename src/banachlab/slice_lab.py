"""Slices of the unit ball: flip witnesses, diameters, small combinations.

The flip witness replaces a near-norming x on finitely many packed
subintervals by the PL path through the negated midpoint value; exact
re-evaluation of the three certificate inequalities (slice membership,
distance > 2−2δ, norm domination) is the only thing trusted.  Convex
combinations of dirac slices at membership-disjoint points get a certified
norm bound sqrt(i+slack)/i from three tail estimates.  A subslice mixes the
normalized functional m̂ with one nearly norming x at weight λ ≤ 1 − δ/ε;
since both have dual norm ≤ 1, mixed(y) > 1−δ ⇒ m̂(y) > 1 − δ/(1−λ) ≥ 1 − ε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core_model import (
    Enclosure,
    Measure,
    PLFunction,
    abs_argmax,
    build_flip,
    integrate,
    integrate_many,
    lin_comb,
    measure_combine,
)
from .d_norm import (
    RESCALE_SAFETY,
    DNormContext,
    ball_member,
    ball_norm,
    conservative_value,
    d_norm,
    dirac_dual_norm,
    dual_norm,
    into_unit_ball,
    norm_enclosure,
    seminorms_all,
    sup_norm_bounds,
)
from .errors import (
    CertificateFailure,
    DomainError,
    ParameterError,
    ResolutionError,
    SamplingError,
    WitnessNotFoundError,
)
from .gridsearch import GridContext

#: largest cross-term slack `small_diameter_combo` certifies
COMBO_MAX_SLACK = 1.0
#: depth of a slice diameter's flip, beyond the anchor's own norm deficit
FLIP_DELTA = 1e-4


@dataclass(frozen=True, eq=False)
class SliceSpec:
    """A slice {x in the ball : ∫x dm / ‖m‖* > 1 − ε} with a norm bracket.

    Membership divides by the bracket's hi, so only certified members pass.
    A bracket from the dual-norm program may bring the witness of its lower
    end, which `anchor` then returns without solving the program again.
    """

    functional: Measure
    functional_norm: Enclosure
    epsilon: float
    witness: PLFunction | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0,1)")
        if self.functional_norm.lo <= 0.0:
            raise DomainError("functional norm bracket must be positive")

    def value(self, x: PLFunction) -> float:
        """Conservative normalized functional value of x."""
        return conservative_value(integrate(x, self.functional), self.functional_norm)

    def admits(self, raw):
        """Membership of ball points with ∫x dm = raw (a float or an array):
        raw / ‖m‖*.hi > 1 − ε, which only certified members pass."""
        return raw / self.functional_norm.hi > 1.0 - self.epsilon

    def anchor(self, ctx: DNormContext) -> PLFunction:
        """The norming element a diameter's flip pair starts from and its
        sampled members perturb: the witness the spec was built with, else
        the norming bump of one isolated atom, signed like its weight, else
        the dual-norm program's witness."""
        if self.witness is not None:
            return self.witness
        m = self.functional
        if len(m.atoms) == 1 and m.density is None:
            t, w = m.atoms[0]
            try:
                return norming_bump(ctx, t).scaled(math.copysign(1.0, w))
            except DomainError:
                pass
        return dual_norm(ctx, m).witness


# ---------------------------------------------------------------------------
# extremal bumps and norming functionals
# ---------------------------------------------------------------------------


def norming_bump(ctx: DNormContext, t: float) -> PLFunction:
    """The unit-norm spike at an isolated point t.

    Supported inside half the isolation margin, so every stored interval
    avoiding t sees zero; its norm enclosure is [c√w_lo, c√(w_lo+tail)]
    with the height c chosen to put hi at 1.
    """
    iso = ctx.base.isolated_at(t)
    if not iso.ok:
        raise DomainError(f"no isolation margin at t={t}: {iso.reason}")
    w = ctx.base.weight(t)
    c = 1.0 / math.sqrt(w.lo + ctx.tail_weight)
    r = iso.margin / 2.0
    pts = {0.0: 0.0, 1.0: 0.0}
    if t - r > 0.0:
        pts[t - r] = 0.0
    if t + r < 1.0:
        pts[t + r] = 0.0
    pts[t] = c
    xs = np.array(sorted(pts))
    ys = np.array([pts[x] for x in xs])
    return PLFunction(xs, ys)


def norming_functional(ctx: DNormContext, x: PLFunction) -> Measure:
    """An atomic functional of dual norm ≤ 1 nearly norming x.

    Takes weight 2^-n·‖x‖_n at a maximizer of |x| in the n-th interval with
    the sign of x there, scaled by 1/‖x‖_lo; Cauchy-Schwarz certifies the
    dual bound, and the value at x is the truncated norm square over the
    norm.
    """
    s = seminorms_all(ctx, x)
    lo = float(np.sqrt(np.dot(ctx.weights, s * s)))
    if lo <= 0.0:
        raise DomainError("cannot norm the zero function")
    atoms: dict[float, float] = {}
    ilo, ihi = ctx.interval_bounds
    for n in range(1, min(48, ctx.n_eff) + 1):
        if s[n - 1] == 0.0:
            continue
        pts, vals, k = abs_argmax(x, float(ilo[n - 1]), float(ihi[n - 1]))
        t_star = float(pts[k])
        weight = 2.0 ** -n * s[n - 1] * math.copysign(1.0, float(vals[k])) / lo
        atoms[t_star] = atoms.get(t_star, 0.0) + weight
    return Measure(tuple(atoms.items()))


# ---------------------------------------------------------------------------
# the flip witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """A verified flip witness: y stays in the slice, sits 2−2δ away from x,
    and its norm enclosure never exceeds x's."""

    y: PLFunction
    flip_intervals: tuple[tuple[float, float, float], ...]
    N: int
    delta: float
    eta: float
    achieved_functional: float
    achieved_distance_lo: float
    achieved_norm_hi: float
    x_norm_hi: float

    def verify(self, ctx: DNormContext, S: SliceSpec, x: PLFunction) -> dict:
        """Re-derive every certified inequality by exact arithmetic, x's
        norm included."""
        fy, dist, ynorm = _flip_inequalities(ctx, S, x, self.y, self.delta, d_norm(ctx, x).hi)
        return {"functional": fy, "distance_lo": dist, "norm_hi": ynorm}


def _flip_inequalities(ctx, S: SliceSpec, x: PLFunction, y: PLFunction, delta: float,
                       xnorm: float):
    """The three flip-witness inequalities by exact arithmetic, in order,
    xnorm the norm hi of x; raises CertificateFailure naming the first that
    fails.  Returns (functional value of y, distance lo, norm hi of y)."""
    fy = S.value(y)
    if not fy > 1.0 - S.epsilon:
        raise CertificateFailure(
            f"functional value {fy} fails > 1-eps={1.0 - S.epsilon}",
            inequality="slice membership of y",
        )
    dist = d_norm(ctx, lin_comb(1.0, x, -1.0, y)).lo
    if not dist > 2.0 - 2.0 * delta:
        raise CertificateFailure(
            f"distance {dist} fails > {2.0 - 2.0 * delta}",
            inequality="flip distance lower bound",
        )
    ynorm = d_norm(ctx, y).hi
    if not ynorm <= xnorm:
        raise CertificateFailure(f"norm {ynorm} exceeds {xnorm}", inequality="norm domination")
    return fy, dist, ynorm


def _near_max_component(
    f: PLFunction, a: float, b: float, tau: float
) -> tuple[float, float]:
    """Exact connected component of {|f| >= tau} within [a,b] around a
    maximizer of |f|."""
    if tau <= 0.0:
        return a, b
    pts, vals, k = abs_argmax(f, a, b)
    lo_idx = k
    while lo_idx > 0 and abs(vals[lo_idx - 1]) >= tau:
        lo_idx -= 1
    left = pts[lo_idx]
    if lo_idx > 0:
        left = _abs_crossing(pts[lo_idx - 1], pts[lo_idx], vals[lo_idx - 1], vals[lo_idx], tau)
    hi_idx = k
    while hi_idx < pts.size - 1 and abs(vals[hi_idx + 1]) >= tau:
        hi_idx += 1
    right = pts[hi_idx]
    if hi_idx < pts.size - 1:
        right = _abs_crossing(pts[hi_idx + 1], pts[hi_idx], vals[hi_idx + 1], vals[hi_idx], tau)
    return float(left), float(right)


def _abs_crossing(x_out, x_in, v_out, v_in, tau):
    """Point between x_out and x_in where |linear| first reaches tau coming
    from the inside point (|v_in| >= tau > |v_out| is not required: if the
    outside value also clears tau the whole segment qualifies)."""
    if abs(v_out) >= tau:
        return x_out
    # walk from x_in toward x_out: f linear, target level sign(v_in)*tau
    target = math.copysign(tau, v_in) if v_in != 0.0 else tau
    denom = v_out - v_in
    if denom == 0.0:
        return x_in
    s = (target - v_in) / denom
    s = min(max(s, 0.0), 1.0)
    return x_in + s * (x_out - x_in)


def _free_gaps(lo, hi, used, atoms):
    """Open subintervals of (lo, hi) clear of used closed intervals and atoms."""
    events = [(lo, lo)]
    for r, t in used:
        if t > lo and r < hi:
            events.append((max(r, lo), min(t, hi)))
    events.sort()
    gaps = []
    cursor = lo
    for r, t in events:
        if r > cursor:
            gaps.append((cursor, r))
        cursor = max(cursor, t)
    if hi > cursor:
        gaps.append((cursor, hi))
    out = []
    for g0, g1 in gaps:
        inner = [a for a in atoms if g0 < a < g1]
        splits = [g0] + sorted(inner) + [g1]
        for j in range(len(splits) - 1):
            if splits[j + 1] > splits[j]:
                out.append((splits[j], splits[j + 1]))
    return out


def tent_flip_witness(
    ctx: DNormContext,
    S: SliceSpec,
    x: PLFunction,
    delta_target: float,
    eta: float | None = None,
    max_attempts: int = 48,
) -> WitnessCertificate:
    """Construct and certify the flip witness for x inside the slice S.

    Chooses a truncation depth N whose partial norm clears 1−δ, finds for
    each of the first N intervals the near-max region of |x|, packs
    pairwise-disjoint flip intervals into those regions away from the
    functional's atoms, shrinks until the mass conditions hold, builds the
    flipped y, and verifies the certificate by exact arithmetic.  x's
    seminorms are read once: they give its norm, as `d_norm` does, and the
    depth N.  Each attempt integrates over all its flips in one call.
    """
    eps = S.epsilon
    delta = float(delta_target)
    if not 0.0 < delta < eps:  # nan compares false
        raise DomainError("delta must lie in (0, epsilon)")
    if eta is None:
        eta = (eps - delta) / 2.0
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError("eta must be finite and positive")
    s_all = seminorms_all(ctx, x)
    xe = ball_member(norm_enclosure(ctx, s_all, x.sup_abs()))
    if not xe.lo > 1.0 - delta:
        raise DomainError(f"norm lower bound {xe.lo} fails > 1-delta={1.0 - delta}")
    raw_total = integrate(x, S.functional)
    if not S.admits(raw_total):
        raise DomainError("x is not a certified member of the slice")

    cum = np.cumsum(ctx.weights * s_all * s_all)
    target = (1.0 - delta) ** 2
    above = np.nonzero(cum > target)[0]
    if above.size == 0:
        raise DomainError("truncated norm never clears 1-delta at this depth")
    n0 = int(above[0]) + 1
    full_room = math.sqrt(cum[-1]) - (1.0 - delta)
    n_pick = n0
    while n_pick < ctx.n_eff and math.sqrt(cum[n_pick - 1]) - (1.0 - delta) < 0.5 * full_room:
        n_pick += 1
    big_n = n_pick
    room = math.sqrt(cum[big_n - 1]) - (1.0 - delta)
    tol_n = (room / 2.0) / math.sqrt(big_n) * np.sqrt(2.0 ** np.arange(1, big_n + 1))
    taus = np.maximum(s_all[:big_n] - tol_n, 0.0)

    b_lo, _ = sup_norm_bounds(ctx)
    atoms = sorted(t for t, _ in S.functional.atoms)
    ilo, ihi = ctx.interval_bounds
    components = [
        _near_max_component(x, float(ilo[n]), float(ihi[n]), float(taus[n]))
        for n in range(big_n)
    ]

    diag: dict = {"N": big_n, "room": room}
    for attempt in range(max_attempts):
        shrink = 2.0 ** -attempt
        used: list[tuple[float, float]] = []
        flips: list[tuple[float, float, float]] = []
        ok = True
        for n in range(big_n):
            gaps = _free_gaps(components[n][0], components[n][1], used, atoms)
            if not gaps:
                ok = False
                break
            g0, g1 = max(gaps, key=lambda g: (g[1] - g[0], -g[0]))
            h = shrink * (g1 - g0) / 4.0
            s_mid = 0.5 * (g0 + g1)
            r, t = s_mid - h, s_mid + h
            if not r < s_mid < t:
                ok = False
                break
            used.append((r, t))
            flips.append((r, s_mid, t))
        if not ok:
            diag["packing_failed_at_attempt"] = attempt
            continue

        r, _, t = np.array(flips).T
        # Python's sum of the per-flip values, in flip order
        mass_hat = sum(S.functional.abs_mass_many(r, t).tolist()) / S.functional_norm.lo
        raw_on_e = sum(integrate_many(x, S.functional, r, t).tolist())
        rest_value = conservative_value(raw_total - raw_on_e, S.functional_norm)
        if not (mass_hat / b_lo < eta and rest_value - eta > 1.0 - eps):
            diag["mass_condition"] = {
                "attempt": attempt,
                "mass_over_b": mass_hat / b_lo,
                "eta": eta,
                "rest_value": rest_value,
            }
            continue

        y = build_flip(x, flips)
        try:
            fy, dist, ye_hi = _flip_inequalities(ctx, S, x, y, delta, xe.hi)
        except CertificateFailure as exc:
            diag["last_checks"] = {
                "attempt": attempt, "inequality": exc.inequality, "detail": str(exc)
            }
            continue
        return WitnessCertificate(
            y=y,
            flip_intervals=tuple(flips),
            N=big_n,
            delta=delta,
            eta=eta,
            achieved_functional=fy,
            achieved_distance_lo=dist,
            achieved_norm_hi=ye_hi,
            x_norm_hi=xe.hi,
        )
    raise WitnessNotFoundError(
        "flip construction failed within the iteration cap "
        "(eta may exceed the slice margin of x)",
        diagnostics=diag,
    )


def flip_from_point(ctx: DNormContext, S: SliceSpec, x: PLFunction, delta: float):
    """(x', certificate) for the flip witness of x' = x pulled into the unit
    ball, with η half of the slice margin of x'; None when x' lies outside
    the slice or no witness is found.  A CertificateFailure surfaces."""
    try:
        x = into_unit_ball(ctx, x)
        margin = S.value(x) - (1.0 - S.epsilon)
        if not margin > 0.0:
            return None
        return x, tent_flip_witness(ctx, S, x, delta, eta=margin / 2.0)
    except (DomainError, WitnessNotFoundError):
        return None


# ---------------------------------------------------------------------------
# membership-disjoint points and small combinations
# ---------------------------------------------------------------------------


def disjoint_points(base) -> tuple[float, ...]:
    """i dyadic points whose stored membership sets are pairwise disjoint.

    For the base starting at level i, grid points at scale i−1 work: at
    every stored level the containing slots of two distinct points differ
    by at least 2, so not even adjacent overlapping intervals are shared.
    """
    if base.kind != "leveled":
        raise ResolutionError("membership-disjoint points need a leveled base")
    i = base.param_i
    if i == 1:
        pts = (0.0,)
    else:
        slots = 2 ** (i - 1)
        ks = sorted({round(m * slots / (i - 1)) for m in range(i)})
        pts = tuple(k * 2.0 ** -(i - 1) for k in ks)
    masks = [base.closure_mask(t) for t in pts]
    for a in range(len(pts)):
        if not base.isolated_at(pts[a]).ok:
            raise ResolutionError(f"point {pts[a]} not certified isolated at this depth")
        for b in range(a + 1, len(pts)):
            if np.any(masks[a] & masks[b]):
                raise ResolutionError(
                    f"membership sets of {pts[a]} and {pts[b]} overlap at this depth"
                )
    return pts


@dataclass(frozen=True)
class ComboCertificate:
    """Certified norm bound for a convex combination of dirac slices."""

    points: tuple[float, ...]
    eta: float
    sup_norm_bound: float          # M: certified sup-norm radius of the ball
    slack: float
    radius_bound: float            # sqrt(i+slack)/i: norm of every combo point
    diameter_bound: float          # 2·radius_bound
    empirical_diameter: float | None = None
    empirical_consistent: bool | None = None


def combo_slack(i: int, eta: float, m_bound: float) -> float:
    """Total cross-term slack of the i-point combination estimate.

    Every slice member spends at most a(η)=2η−η² of weighted seminorm mass
    off its own membership set; each ordered pair of distinct components
    then contributes at most M√a + M√a·(swap) ... grouped here as
    i(i−1)·(2M√a + a) via Cauchy-Schwarz on the three index regions.
    """
    a = 2.0 * eta - eta * eta
    return i * (i - 1) * (2.0 * m_bound * math.sqrt(a) + a)


def max_feasible_eta(i: int, m_bound: float, slack_cap: float) -> float:
    s = -m_bound + math.sqrt(m_bound * m_bound + slack_cap / (i * (i - 1)))
    a = min(s * s, 1.0)
    return 1.0 - math.sqrt(1.0 - a)


def small_diameter_combo(
    ctx: DNormContext,
    i: int,
    eta: float | None = None,
    budget: int = 0,
    seed: int = 0,
    target_slack: float = 0.15,
):
    """Slices at membership-disjoint points whose average has small norm.

    Returns (slices, bound, certificate) where bound = sqrt(i+slack)/i
    certifies the norm of every point of the combination (so its diameter
    is at most twice that), with slack from the instantiated tail
    estimates.  Optionally cross-checks with a sampled diameter bound.
    """
    base = ctx.base
    if base.kind != "leveled" or base.param_i != i:
        raise ParameterError(f"context base must be leveled with parameter i={i}")
    if i < 2:
        raise ParameterError("the combination construction needs i >= 2")
    pts = disjoint_points(base)
    b_lo, _ = sup_norm_bounds(ctx)
    m_bound = 1.0 / b_lo
    if eta is None:
        eta = max_feasible_eta(i, m_bound, target_slack)
    if not 0.0 < eta < 1.0:  # the slack takes the square root of 2η − η²
        raise DomainError("eta must lie in (0, 1)")
    slack = combo_slack(i, eta, m_bound)
    if slack > COMBO_MAX_SLACK:
        raise ParameterError(
            f"eta={eta} gives slack {slack} > {COMBO_MAX_SLACK}",
            max_feasible=max_feasible_eta(i, m_bound, COMBO_MAX_SLACK),
        )
    slices = tuple(
        SliceSpec(Measure.dirac(t), dirac_dual_norm(ctx, t), eta) for t in pts
    )
    bound = math.sqrt(i + slack) / i
    emp = None
    consistent = None
    if budget > 0:
        est = diameter_lower_bound(
            ctx, ComboSet(slices, tuple(1.0 / i for _ in range(i))), budget, seed
        )
        emp = est.value
        consistent = emp <= bound
    cert = ComboCertificate(
        points=pts,
        eta=eta,
        sup_norm_bound=m_bound,
        slack=slack,
        radius_bound=bound,
        diameter_bound=2.0 * bound,
        empirical_diameter=emp,
        empirical_consistent=consistent,
    )
    return slices, bound, cert


# ---------------------------------------------------------------------------
# ℓ²-sum slice inclusion
# ---------------------------------------------------------------------------


def l2_sum_slice_inclusion(delta: float) -> float:
    """Shell radius sqrt(2δ−δ²) of the complementary component.

    In X ⊕₂ Y, a member of the slice cut by (x*,0) at depth δ has x-part of
    norm > 1−δ, leaving at most 2δ−δ² of squared norm for the y-part.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0,1)")
    return math.sqrt(2.0 * delta - delta * delta)


# ---------------------------------------------------------------------------
# subslices
# ---------------------------------------------------------------------------


def subslice(
    ctx: DNormContext,
    S: SliceSpec,
    x: PLFunction,
    delta: float,
    seed: int = 0,
) -> SliceSpec:
    """A depth-δ slice containing x whose membership implies membership in S.

    Mixes m̂ = m/‖m‖*.hi with the atomic functional g nearly norming x as
    mixed = (1−λ)·m̂ + λ·g.  Two premises prove the inclusion: m̂ and g have
    dual norm ≤ 1, and λ ≤ 1 − δ/ε.  For y in the ball, g(y) ≤ 1, so
    mixed(y) > 1−δ ⇒ m̂(y) > 1 − δ/(1−λ) ≥ 1 − ε.  λ starts at 1 − δ/ε and
    shrinks by 0.9 until the mixed slice certifiably contains x.  Nothing is
    sampled; `seed` changes nothing and stays only because the benchmark's
    slice-certify workload (`perfbench/workloads.py`) passes it.
    """
    eps = S.epsilon
    if not 0.0 < delta < eps:
        raise DomainError("need 0 < delta < epsilon")
    xe = ball_norm(ctx, x)
    if not S.admits(integrate(x, S.functional)):
        raise DomainError("x must be a certified member of S")
    g = norming_functional(ctx, x)
    m_hat = S.functional.scaled(1.0 / S.functional_norm.hi)
    lam = 1.0 - delta / eps
    for _ in range(20):
        mixed = measure_combine(1.0 - lam, m_hat, lam, g)
        # both parts have dual norm ≤ 1, so 1.0 is certified; the ratio can
        # round above it when x is nearly normed, and the clamp stays sound
        value = integrate(x, mixed)
        fn = Enclosure(min(max(value / xe.hi, 1e-12), 1.0), 1.0)
        Snew = SliceSpec(mixed, fn, delta)
        if Snew.admits(value):
            return Snew
        lam *= 0.9
    raise DomainError(
        f"subslice construction failed: no mixed slice of depth {delta} certifiably contains x"
    )


# ---------------------------------------------------------------------------
# diameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSet:
    slice: SliceSpec


@dataclass(frozen=True)
class ShellSliceSet:
    slice: SliceSpec
    tau: float


@dataclass(frozen=True)
class ComboSet:
    slices: tuple[SliceSpec, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class BallSet:
    pass


@dataclass(frozen=True, eq=False)
class DiameterEstimate:
    """A certified diameter lower bound with its witnessing pair."""

    value: float
    pair: tuple[PLFunction, PLFunction]
    feasible_samples: int
    evaluations: int
    pair_distances: tuple[float, ...] = ()


def _slice_member_matrix(
    gc: GridContext,
    S: SliceSpec,
    count: int,
    seed: int,
    anchor_v: np.ndarray,
):
    """Sample certified slice members as grid rows; returns (matrix, evals).

    Members perturb the anchor row, such as `SliceSpec.anchor` sampled on a
    grid that refines it; the one rescale below counts as the anchor's
    evaluation."""
    coeffs = gc.functional_coeffs(S.functional)
    anchor_v = gc.rescale_to_ball(anchor_v)[0]
    evals = 1
    members = []
    if S.admits(float(coeffs @ anchor_v)):
        members.append(anchor_v)
    rng = np.random.default_rng(seed + 17)
    # perturbations must survive the functional-value drop after radial
    # rescale, which scales like alpha^2 for near-extremal anchors
    alpha = min(0.5, 2.0 * math.sqrt(S.epsilon))
    per_round = max(8, count // 4)
    for _ in range(12):  # sampling rounds
        if len(members) >= count:
            break
        noise = gc.random_smooth(rng, per_round, coarse=32) + gc.random_bumps(
            rng, per_round
        )
        batch = gc.rescale_to_ball(anchor_v[None, :] + alpha * noise)
        evals += per_round
        good = batch[S.admits(batch @ coeffs)]
        members.extend(good)
        if good.shape[0] < per_round // 4:
            alpha *= 0.5
    if not members:
        raise SamplingError("no feasible slice member found")
    return np.array(members[:count]), evals


def _pair_distances(gc: GridContext, rows: np.ndarray):
    """Pairs a < b of the rows and the norm enclosure lo of rows[a] − rows[b].

    One kernel block of differences at a time goes through `gc.seminorms`
    into one reused block buffer, is squared in place and weighed row by
    row: each row's product with the weights is one dot product, whose bits
    are those of the lo² that `d_norm` computes, whatever the block size or
    the BLAS thread count.  So each distance is `d_norm`'s lo of the
    difference, and nothing the size of pairs × intervals is built."""
    ia, ib = np.triu_indices(rows.shape[0], k=1)
    lo2 = np.empty(ia.size)
    step = _kernels.block_rows(gc.size, gc.stored_geometry)
    block = np.empty((min(step, ia.size), gc.weights.size))
    w = gc.weights[:, None]
    for p in range(0, ia.size, step):
        a, b = ia[p:p + step], ib[p:p + step]
        s = block[:a.size]
        gc.seminorms(rows[a] - rows[b], out=s)
        s *= s
        # a stack of (1, n) @ (n, 1) products, one dot product per row; it
        # gives the bits of np.vecdot, which needs numpy 2
        lo2[p:p + step] = (s[:, None, :] @ w)[:, 0, 0]
    return ia, ib, np.sqrt(lo2)


def diameter_lower_bound(
    ctx: DNormContext,
    set_spec,
    budget: int,
    seed: int,
    grid_cells: int = 512,
) -> DiameterEstimate:
    """A certified lower bound on the set's diameter, with its pair.

    The ball's pair is ±x, x the constant 1 rescaled as `rescale_to_ball`
    does: lo(a − b) ≤ lo(a) + lo(b) ≤ 2·lo(x) for a, b in the ball, so
    nothing is drawn (2 samples, 2 evaluations; a random row can read 2 ulps
    more on a 4-interval custom base).  A slice or shell is the flip pair of
    x = `into_unit_ball(S.anchor(ctx))` at δ = min(ε/2, FLIP_DELTA + 1 −
    ‖x‖.lo), certified more than 2 − 2δ apart, a shell's members keeping
    lo ≥ 1 − τ (2 samples, 3 evaluations: the norms of x, y and x − y).
    A combination of one slice at weight 1.0 is that slice.  Any other
    combination, and a slice or shell with no such pair, samples
    max(8, min(64, budget / (4 · slices))) members per slice around each
    anchor on a grid that refines it and reports its best pair; a slice
    then keeps the flip from its first member where that is farther.
    """
    if isinstance(set_spec, BallSet):
        one = PLFunction.constant(1.0)
        x = one.scaled(1.0 / (d_norm(ctx, one).hi * RESCALE_SAFETY))
        value = d_norm(ctx, x.scaled(2.0)).lo
        return DiameterEstimate(value, (x, x.scaled(-1.0)), 2, 2, (value,))

    shell_tau = None
    if isinstance(set_spec, ShellSliceSet):
        if not 0.0 < set_spec.tau <= 1.0:  # nan compares false
            raise DomainError("tau must lie in (0, 1]")
        shell_tau = set_spec.tau
    single = isinstance(set_spec, (SliceSet, ShellSliceSet))
    if single:
        sets, weights = [set_spec.slice], [1.0]
    elif isinstance(set_spec, ComboSet):
        sets = list(set_spec.slices)
        weights = list(set_spec.weights)
        if len(weights) != len(sets):
            raise DomainError("a combination needs one weight per slice")
        if abs(sum(weights) - 1.0) > 1e-12 or any(w <= 0 for w in weights):
            raise DomainError("combination weights must be positive and sum to 1")
        single = weights == [1.0]
    else:
        raise DomainError(f"unknown set spec {set_spec!r}")

    anchors = [s.anchor(ctx) for s in sets]
    if single:
        flip = _flip_pair(ctx, sets[0], anchors[0], shell_tau)
        if flip is not None:
            return DiameterEstimate(flip[0], flip[1], 2, 3, (flip[0],))

    # each slice's members perturb its anchor, and the grid refines the
    # anchors, so they are sampled exactly
    gc = GridContext(ctx, *(s.functional for s in sets), *anchors, grid_cells=grid_cells)

    per_slice = max(8, min(64, budget // (4 * len(sets))))
    evals = 0
    component_members = []
    for j, (s, a) in enumerate(zip(sets, anchors)):
        rows, used = _slice_member_matrix(gc, s, per_slice, seed + 101 * j, gc.sample_function(a))
        evals += used
        component_members.append(rows)

    count = min(r.shape[0] for r in component_members)
    rows = sum(
        w * r[:count] for w, r in zip(weights, component_members)
    )
    if shell_tau is not None:
        lo, _ = gc.enclosures(rows)
        evals += rows.shape[0]
        rows = rows[lo >= 1.0 - shell_tau]
        if rows.shape[0] < 2:
            raise SamplingError("fewer than two shell members sampled")
    if rows.shape[0] < 2:
        raise SamplingError("fewer than two feasible points sampled")
    ia, ib, lo = _pair_distances(gc, rows)
    evals += lo.size
    k = int(np.argmax(lo))
    pair = (gc.to_plfunction(rows[ia[k]]), gc.to_plfunction(rows[ib[k]]))
    value = d_norm(ctx, lin_comb(1.0, pair[0], -1.0, pair[1])).lo
    if single:
        flip = _flip_pair(ctx, sets[0], gc.to_plfunction(rows[0]), shell_tau)
        if flip is not None and flip[0] > value:
            value, pair = flip
    return DiameterEstimate(value, pair, count, evals, tuple(float(v) for v in lo))


def _flip_pair(ctx, S, x, shell_tau):
    """(distance lo, (x', y)) for the flip pair of x' = x pulled into the
    ball at δ = min(ε/2, FLIP_DELTA + 1 − ‖x'‖.lo); None where it is not
    certified, or where a member of a shell's pair has lo below 1 − τ."""
    x = into_unit_ball(ctx, x)
    delta = min(S.epsilon / 2.0, FLIP_DELTA + (1.0 - d_norm(ctx, x).lo))
    flip = flip_from_point(ctx, S, x, delta)
    if flip is None:
        return None
    x, cert = flip
    if shell_tau is not None and min(d_norm(ctx, p).lo for p in (x, cert.y)) < 1.0 - shell_tau:
        return None
    return cert.achieved_distance_lo, (x, cert.y)

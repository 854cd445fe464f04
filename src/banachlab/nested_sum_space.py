"""Finite truncations of the nested variable-exponent sequence space.

Coordinates fold up through increasing exponents: the norm of (v_1..v_K)
is N_1 where N_K = |v_K| and N_j = (|v_j|^p_j + N_{j+1}^p_j)^(1/p_j).
When the exponents grow fast enough that the formal-identity norm product
2^(Σ 1/p_i) stays below 2, unit vectors keep sup-norm-like geometry: the
space is uniformly rotund in the weak sense yet coordinate slices stay
wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, ResolutionError

#: float64 values per block of pair differences in `large_slice_check`'s
#: screen: 1 MiB a block, however many pairs there are
_SCREEN_FLOATS = 2**17
#: screened distances within this relative gap of the screened maximum are
#: re-ranked with the exact fold; the screen agrees with it to about 1e-15
_RERANK_REL = 1e-9
_TINY = np.finfo(np.float64).smallest_subnormal
#: most exponents a geometric schedule may hold; the tuple is built in full
MAX_GEOMETRIC_COUNT = 10_000


@dataclass(frozen=True)
class ExponentSchedule:
    """Strictly increasing exponents > 1, plus an optional analytic bound on
    the reciprocal tail Σ_{i>K} 1/p_i for truncated infinite schedules."""

    exponents: tuple[float, ...]
    tail_inv_sum: float = 0.0

    def __post_init__(self):
        p = tuple(float(q) for q in self.exponents)
        if not p:
            raise DomainError("schedule needs at least one exponent")
        # an inf exponent is the sup-norm limit; nan compares false and would pass
        if any(math.isnan(q) for q in p):
            raise DomainError("exponents must not be nan")
        if p[0] <= 1.0 or any(b <= a for a, b in zip(p, p[1:])):
            raise DomainError("exponents must be strictly increasing and > 1")
        if not 0.0 <= self.tail_inv_sum < math.inf:
            raise DomainError("tail bound must be finite and nonnegative")
        object.__setattr__(self, "exponents", p)

    @staticmethod
    def geometric(base: float = 2.0, start: float = 4.0, count: int = 12) -> "ExponentSchedule":
        """p_i = start·base^(i-1); the reciprocal tail sums in closed form."""
        if not (base > 1.0 and start > 1.0 and count >= 1):
            raise DomainError("need base > 1, start > 1, count >= 1")
        if count > MAX_GEOMETRIC_COUNT:
            raise DomainError(f"count {count} exceeds {MAX_GEOMETRIC_COUNT}")
        try:
            p = tuple(start * base**i for i in range(count))
            if not math.isfinite(p[-1]):
                raise OverflowError
        except OverflowError:
            msg = f"geometric exponents overflow: start·base^{count - 1} is not finite"
            raise DomainError(msg) from None
        tail = 1.0 / (p[-1] * (base - 1.0))
        return ExponentSchedule(p, tail_inv_sum=tail)

    @property
    def capacity(self) -> int:
        """Longest vector the truncation can norm: one more than exponents."""
        return len(self.exponents) + 1

    def inv_sum(self, start: int = 1) -> float:
        """Σ 1/p_i over stored i ≥ start, plus the analytic tail."""
        return sum(1.0 / p for p in self.exponents[start - 1 :]) + self.tail_inv_sum


def nested_norm(sched: ExponentSchedule, v) -> float:
    """The folded norm N_1 of a coordinate vector of length ≤ capacity."""
    w = np.asarray(v, dtype=np.float64).ravel()
    if w.size == 0:
        raise DomainError("empty vector")
    if w.size > sched.capacity:
        raise DomainError(f"vector longer than truncation capacity {sched.capacity}")
    acc = abs(float(w[-1]))
    for j in range(w.size - 2, -1, -1):
        p = sched.exponents[j]
        a = abs(float(w[j]))
        m = max(a, acc)
        if m == 0.0:
            acc = 0.0
        else:
            # scale out the max so the huge exponents never overflow
            acc = m * ((a / m) ** p + (acc / m) ** p) ** (1.0 / p)
    return acc


def _fold_columns(sched: ExponentSchedule, block: np.ndarray) -> np.ndarray:
    """Folded norms of the columns of a (dim, k) block, one coordinate at a time.

    Each step is hi·(1 + (lo/hi)^p)^(1/p) with hi, lo the larger and smaller
    of |v_j| and the running norm: the same max-scaling as `nested_norm`, but
    its last bits may differ, so the result only screens.
    """
    acc = np.abs(block[-1])
    for j in range(block.shape[0] - 2, -1, -1):
        p = sched.exponents[j]
        a = np.abs(block[j])
        hi = np.maximum(a, acc)
        lo = np.minimum(a, acc, out=a)
        # the smallest subnormal leaves every positive hi as it is and turns 0/0 into 0
        ratio = lo / np.maximum(hi, _TINY)
        acc = hi * (1.0 + ratio**p) ** (1.0 / p)
    return acc


def _near_max_pairs(sched: ExponentSchedule, members: list) -> list[tuple[int, int]]:
    """Row-major (i, j), i < j, of the member pairs whose screened distance is
    within `_RERANK_REL` of the screened maximum.

    Pairs are numbered row-major and screened in blocks of at most
    `_SCREEN_FLOATS` coordinates, so no array grows with the number of pairs.
    """
    cols = np.array(members).T.copy()  # (dim, n): one coordinate per row
    dim, n = cols.shape
    rows = np.arange(n)
    starts = rows * (n - 1) - rows * (rows - 1) // 2  # pairs before row i
    total = n * (n - 1) // 2
    step = max(1, _SCREEN_FLOATS // dim)
    top = -np.inf
    near = []
    for lo in range(0, total, step):
        lin = np.arange(lo, min(lo + step, total))
        i = np.searchsorted(starts, lin, side="right") - 1
        j = lin - starts[i] + i + 1
        d = _fold_columns(sched, cols[:, i] - cols[:, j])
        top = max(top, float(d.max()))
        # a pair near the final maximum is near the running one too
        keep = d >= top * (1.0 - _RERANK_REL)
        near.append((i[keep], j[keep], d[keep]))
    cut = top * (1.0 - _RERANK_REL)
    return [
        (int(a), int(b))
        for i, j, d in near
        for a, b in zip(i[d >= cut], j[d >= cut])
    ]


def identity_operator_norm(p: float) -> float:
    """‖I : ℓ_∞(2) → ℓ_p(2)‖ = 2^(1/p), attained at (1, 1)."""
    if p < 1.0:
        raise DomainError("p must be at least 1")
    return 2.0 ** (1.0 / p)


def product_condition(sched: ExponentSchedule) -> tuple[float, bool]:
    """(product, holds) for the formal-identity norm product 2^(Σ 1/p_i).

    The reciprocal sum includes the schedule's declared tail; the condition
    holds when the full sum stays below 1.
    """
    s = sum(1.0 / p for p in sched.exponents) + sched.tail_inv_sum
    return 2.0 ** s, s < 1.0


def wur_difference_extraction(sched: ExponentSchedule, xs, ys, tol: float) -> dict:
    """Coordinate-difference extraction along ‖x_n + y_n‖ → 2.

    Implements the inductive split: at each level the two-dimensional
    uniform convexity forces front-coordinate and tail-norm differences to
    vanish whenever the summed norms approach 2; the report carries the
    per-level residuals of the supplied sequences, flagging a vacuous pass
    when the premise never engages.
    """
    xs = [np.asarray(x, dtype=np.float64).ravel() for x in xs]
    ys = [np.asarray(y, dtype=np.float64).ravel() for y in ys]
    if len(xs) != len(ys) or len(xs) < 4:
        raise DataError("need matched sequences with at least 4 terms")
    dim = xs[0].size
    if any(x.size != dim for x in xs) or any(y.size != dim for y in ys):
        raise DataError("all vectors must share one length")
    for v in xs + ys:
        if nested_norm(sched, v) > 1.0 + tol:
            raise DomainError("sequence members must lie in the unit ball")
    tail_cut = max(2, len(xs) * 3 // 4)
    sum_norms = np.array([nested_norm(sched, x + y) for x, y in zip(xs, ys)])
    premise_gap = float(np.max(2.0 - sum_norms[tail_cut:]))
    premise_holds = premise_gap <= tol
    levels = []
    for k in range(dim):
        res = np.array([abs(x[k] - y[k]) for x, y in zip(xs, ys)])
        tail_res = float(np.max(res[tail_cut:]))
        levels.append(
            {
                "coordinate": k + 1,
                "tail_residual": tail_res,
                "vanishes": tail_res <= tol,
            }
        )
    passed = (not premise_holds) or all(lvl["vanishes"] for lvl in levels)
    return {
        "premise_gap": premise_gap,
        "premise_holds": premise_holds,
        "vacuous": not premise_holds,
        "levels": levels,
        "passed": passed,
    }


def large_slice_check(
    sched: ExponentSchedule,
    m: int,
    epsilon: float,
    budget: int = 200,
    seed: int = 0,
) -> dict:
    """Best distance between members of the coordinate slice {v_m > 1−ε}.

    Requires the tail from m to be (1+ε/4)-close to the sup-norm model,
    i.e. 2^(Σ_{i≥m} 1/p_i) ≤ 1 + ε/4.  The deterministic witness pair
    a·e_m ± c·e_K already achieves 2c with c = (1 − a^{p_m})^{1/p_m}, and
    a random search tries to do better.  Every pair of members is screened
    whole-array; the near-best ones are ranked by the exact `nested_norm`.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1)")
    if budget < 0:
        raise DomainError("budget must be >= 0 (0 keeps the deterministic pair only)")
    if not 1 <= m <= sched.capacity:
        raise DomainError(f"coordinate index m={m} outside 1..{sched.capacity}")
    tail_product = 2.0 ** sched.inv_sum(start=m)
    if tail_product > 1.0 + epsilon / 4.0:
        raise ResolutionError(
            f"tail product {tail_product} exceeds 1+eps/4; increase m or deepen the schedule"
        )
    dim = sched.capacity
    a = (1.0 - epsilon) * (1.0 + 1e-12) + 1e-15
    p_m = sched.exponents[m - 1] if m < dim else sched.exponents[-1]
    c = (1.0 - a ** p_m) ** (1.0 / p_m) if m < dim else 0.0
    x = np.zeros(dim)
    y = np.zeros(dim)
    x[m - 1] = a
    y[m - 1] = a
    if m < dim:
        x[-1] = c
        y[-1] = -c
    best = nested_norm(sched, x - y)
    best_pair = (x.copy(), y.copy())
    if nested_norm(sched, x) > 1.0 or nested_norm(sched, y) > 1.0:
        raise DomainError("deterministic witness left the ball; epsilon too extreme")
    rng = np.random.default_rng(seed)
    members = [x, y]
    for _ in range(budget):
        cand = rng.standard_normal(dim)
        cand[m - 1] = abs(cand[m - 1]) + 1.0
        nrm = nested_norm(sched, cand)
        cand = cand / (nrm * (1.0 + 1e-12))
        if cand[m - 1] > 1.0 - epsilon:
            members.append(cand)
    # the screen only nominates pairs; the exact fold ranks them in row-major
    # order, so the strict `>` keeps the first of any tie.  No two members of
    # the unit ball are more than 2 apart, so a deterministic pair at that
    # ceiling ends the search
    pairs = _near_max_pairs(sched, members) if best < 2.0 else ()
    for i, j in pairs:
        d = nested_norm(sched, members[i] - members[j])
        if d > best:
            best = d
            best_pair = (members[i].copy(), members[j].copy())
    return {
        "best_distance": float(best),
        "pair": best_pair,
        "tail_product": tail_product,
        "members": len(members),
        "target": 2.0 / (1.0 + epsilon / 3.0),
    }

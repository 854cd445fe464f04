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


def large_slice_check(sched: ExponentSchedule, m: int, epsilon: float) -> dict:
    """Two members of the coordinate slice {v_m > 1−ε}, 2c apart.

    Requires the tail from m to be (1+ε/4)-close to the sup-norm model,
    i.e. 2^(Σ_{i≥m} 1/p_i) ≤ 1 + ε/4.  The pair is a·e_m ± c·e_k with a
    just above 1−ε and c = (1 − a^p)^(1/p): k = K (the last coordinate) and
    p = p_m for m < K, and k = K−1 and p = p_{K−1} at m = K.  Both members
    have norm 1, up to rounding that is checked to stay inside the ball, and
    x − y = 2c·e_k, so the distance is exactly 2c.  c → 1 as p grows, so on
    a fast-growing schedule the pair is nearly 2 apart, the most that two
    members of the unit ball can be.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1)")
    if not 1 <= m <= sched.capacity:
        raise DomainError(f"coordinate index m={m} outside 1..{sched.capacity}")
    tail_product = 2.0 ** sched.inv_sum(start=m)
    if tail_product > 1.0 + epsilon / 4.0:
        raise ResolutionError(
            f"tail product {tail_product} exceeds 1+eps/4; increase m or deepen the schedule"
        )
    dim = sched.capacity
    a = (1.0 - epsilon) * (1.0 + 1e-12) + 1e-15
    # k is the 0-based coordinate that carries ±c, folded in with exponent p
    k, p = (dim - 1, sched.exponents[m - 1]) if m < dim else (dim - 2, sched.exponents[-1])
    c = (1.0 - a**p) ** (1.0 / p)
    x = np.zeros(dim)
    x[m - 1] = a
    x[k] = c
    y = x.copy()
    y[k] = -c
    if nested_norm(sched, x) > 1.0 or nested_norm(sched, y) > 1.0:
        raise DomainError("deterministic witness left the ball; epsilon too extreme")
    return {
        "best_distance": nested_norm(sched, x - y),
        "pair": (x, y),
        "tail_product": tail_product,
        "members": 2,
        "target": 2.0 / (1.0 + epsilon / 3.0),
    }

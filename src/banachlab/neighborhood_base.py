"""Leveled neighborhood bases of [0,1] and their exact queries.

A leveled base stacks dyadic levels: level l carries 2^l open intervals
(k·2^-l − ε, (k+1)·2^-l + ε') that overlap only their immediate neighbors,
half-closed at 0 and 1.  The base with parameter i starts at level i.  All
quantities over unstored deeper levels are bracketed (weights) or refused
(covers); nothing about the tail is ever guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import (
    Enclosure,
    Interval,
    json_array,
    json_bool,
    json_key,
    json_number,
    json_object,
    read_json,
)
from .errors import ConfigError, DomainError, ResolutionError

#: weights 2^-n underflow to exact float zero beyond this index; terms past
#: it cannot change any double-precision sum, so queries may skip them as
#: long as enclosure tails are anchored at the skip point.
MAX_EFFECTIVE_INDEX = 1074

#: most intervals a leveled base may hold; levels=14 from i=1 (32,766) fits,
#: and levels=40 (about 2^41) is refused before anything is allocated
MAX_LEVELED_INTERVALS = 1 << 16


@dataclass(frozen=True)
class EpsilonSchedule:
    """Overlap widths ε_n = eps1 · ratio^(n-1), indexed by level-1 position."""

    eps1: float = 2.0 ** -6
    ratio: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.eps1 < 0.25):
            raise ConfigError("eps1 must lie in (0, 0.25)")
        if not (0.0 < self.ratio < 1.0):
            raise ConfigError("ratio must lie in (0, 1)")

    def eps(self, n: int) -> float:
        return self.eps1 * self.ratio ** (n - 1)

    def validate_level(self, level: int) -> None:
        """Overlap constraint: at level l every ε_n must stay below 2^-(l+2)."""
        first = 2 ** level - 1
        if not self.eps(first) < 2.0 ** -(level + 2):
            raise ConfigError(
                f"schedule violates the overlap constraint at level {level}: "
                f"eps({first}) = {self.eps(first)} >= {2.0 ** -(level + 2)}"
            )

    def is_dyadic(self) -> bool:
        l1 = math.log2(self.eps1)
        l2 = math.log2(self.ratio)
        return l1 == int(l1) and l2 == int(l2)


@dataclass(frozen=True)
class IsolationCheck:
    """Result of the closure-separation test behind the dirac norm formula."""

    ok: bool
    margin: float
    reason: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class NeighborhoodBase:
    """A finitely truncated interval base of [0,1] with tail metadata.

    Stored interval endpoints are float roundings of the construction; at
    deep levels the overlap width drops below the endpoint's ulp, so open
    float comparisons can misclassify points that sit exactly on a rounded
    endpoint.  Weight enclosures therefore count *closure* members (sound
    on both sides for float points), and the isolation test resolves
    boundary touches exactly in rational arithmetic when the schedule is
    dyadic.
    """

    intervals: tuple[Interval, ...]
    kind: str = "custom"                 # "leveled" | "custom"
    param_i: int = 0                     # starting level (leveled only)
    level_of: tuple[int, ...] = ()       # per-index level (leveled only)
    slot_of: tuple[int, ...] = ()        # per-index slot within its level
    eps_index: tuple[int, ...] = ()      # per-index level-1 enumeration index
    schedule: EpsilonSchedule | None = None
    has_tail: bool = True                # custom bases are exact finite families

    def __post_init__(self):
        if not self.intervals:
            raise ConfigError("a base needs at least one interval")
        for iv in self.intervals:
            a, b = iv.clamped()
            if a >= b:
                raise ConfigError("base intervals must meet [0,1] with positive length")

    @property
    def n_max(self) -> int:
        return len(self.intervals)

    @property
    def n_effective(self) -> int:
        return min(self.n_max, MAX_EFFECTIVE_INDEX)

    @cached_property
    def _arrays(self):
        lefts = np.array([iv.left for iv in self.intervals])
        rights = np.array([iv.right for iv in self.intervals])
        lopen = np.array([iv.left_open for iv in self.intervals])
        ropen = np.array([iv.right_open for iv in self.intervals])
        return lefts, rights, lopen, ropen

    @cached_property
    def clamped_bounds(self):
        """Closure bounds intersected with [0,1], as two arrays (lo, hi)."""
        lo = np.maximum(self._arrays[0], 0.0)
        hi = np.minimum(self._arrays[1], 1.0)
        return lo, hi

    # -- queries -------------------------------------------------------

    def membership_mask(self, t: float) -> np.ndarray:
        lefts, rights, lopen, ropen = self._arrays
        left_ok = (lefts < t) | (~lopen & (lefts == t))
        right_ok = (t < rights) | (~ropen & (t == rights))
        return left_ok & right_ok

    def closure_mask(self, t: float) -> np.ndarray:
        lo, hi = self.clamped_bounds
        return (lo <= t) & (t <= hi)

    def membership(self, t: float) -> tuple[int, ...]:
        """J(t): the 1-based stored indices whose interval contains t."""
        if not 0.0 <= t <= 1.0:
            raise DomainError("t outside [0,1]")
        return tuple(int(k) + 1 for k in np.nonzero(self.membership_mask(t))[0])

    def weight(self, t: float) -> Enclosure:
        """w(t) = Σ_{n∈J(t)} 2^-n bracketed by the unseen-tail mass 2^-N.

        Counts closure members: the stored seminorm over a closure
        containing t dominates |x(t)| (lower side), and every exact member
        interval's float closure contains the float t (upper side).
        """
        if not 0.0 <= t <= 1.0:
            raise DomainError("t outside [0,1]")
        idx = np.nonzero(self.closure_mask(t))[0] + 1
        lo = float(np.sum(np.ldexp(1.0, -idx.astype(np.int64)))) if idx.size else 0.0
        tail = 2.0 ** -self.n_max if self.has_tail else 0.0
        return Enclosure(lo, lo + tail)

    def level_indices(self, level: int) -> tuple[int, ...]:
        if self.kind != "leveled":
            raise ConfigError("level_indices requires a leveled base")
        return tuple(
            n + 1 for n, l in enumerate(self.level_of) if l == level
        )

    @property
    def stored_levels(self) -> tuple[int, ...]:
        if self.kind != "leveled":
            return ()
        return tuple(sorted(set(self.level_of)))

    def cover_for(self, delta: float) -> tuple[int, ...]:
        """A stored subfamily covering [0,1] with every length < delta."""
        if delta <= 0.0:
            raise DomainError("delta must be positive")
        if self.kind == "leveled":
            for level in self.stored_levels:
                idx = self.level_indices(level)
                if len(idx) != 2 ** level:
                    continue  # partial level cannot be certified as a cover
                if max(self.intervals[n - 1].length for n in idx) < delta:
                    return idx
            needed = 1
            while 2.0 ** -needed + 2.0 * (
                self.schedule.eps(2 ** needed - 1) if self.schedule else 0.0
            ) >= delta:
                needed += 1
            raise ResolutionError(
                f"no stored level has lengths < {delta}; deepen the base to level {needed}",
                required_level=needed,
            )
        # custom: greedy left-to-right sweep over short-enough intervals
        short = [
            (iv.left, iv.right, n + 1)
            for n, iv in enumerate(self.intervals)
            if iv.length < delta
        ]
        short.sort()
        chosen: list[int] = []
        reach = 0.0
        for left, right, n in short:
            if left > reach or (left == reach and reach > 0.0):
                break
            if right > reach:
                chosen.append(n)
                reach = right
            if reach >= 1.0:
                return tuple(chosen)
        if reach >= 1.0:
            return tuple(chosen)
        raise ResolutionError(f"stored intervals of length < {delta} do not cover [0,1]")

    def _exact_relation(self, n: int, t: float) -> str:
        """Exact position of t relative to stored interval n (1-based) in the
        unrounded construction: 'inside', 'boundary', or 'outside'.

        Only possible for leveled bases with a dyadic schedule, where every
        quantity is a dyadic rational and Fraction arithmetic is exact.
        """
        from fractions import Fraction

        if self.kind != "leveled" or self.schedule is None or not self.schedule.is_dyadic():
            return "boundary"  # cannot certify: treat as the worst case
        level = self.level_of[n - 1]
        slot = self.slot_of[n - 1]
        g = self.eps_index[n - 1]
        eps = Fraction(self.schedule.eps1) * Fraction(self.schedule.ratio) ** (g - 1)
        width = Fraction(1, 2 ** level)
        tf = Fraction(t)
        left = Fraction(0) if slot == 0 else slot * width - eps
        right = Fraction(1) if slot == 2 ** level - 1 else (slot + 1) * width + eps
        if left < tf < right or (slot == 0 and tf == 0) or (slot == 2 ** level - 1 and tf == 1):
            return "inside"
        if tf == left or tf == right:
            return "boundary"
        return "outside"

    def isolated_at(self, t: float) -> IsolationCheck:
        """Whether every interval not containing t keeps its closure away from t.

        Stored intervals are checked exactly (boundary touches of rounded
        endpoints are resolved in rational arithmetic).  For the unstored
        tail of a leveled base the guarantee is structural: t = 0, t = 1,
        or t a dyadic grid point of a stored level, where deeper closures
        sit at distance 2^-l − ε_n > 0 and a dyadic-width schedule cannot
        hit a dyadic point exactly.
        """
        if not 0.0 <= t <= 1.0:
            raise DomainError("t outside [0,1]")
        open_mask = self.membership_mask(t)
        closed_mask = self.closure_mask(t)
        lo, hi = self.clamped_bounds
        dist = np.maximum(lo - t, t - hi)
        outside = dist[~closed_mask]
        margin = float(np.min(outside)) if outside.size else 1.0
        # closure touches where the open interval misses t: either t sits on
        # a true boundary (hypothesis fails) or rounding collapsed a true
        # member; resolve exactly
        for k in np.nonzero(closed_mask & ~open_mask)[0]:
            rel = self._exact_relation(int(k) + 1, t)
            if rel != "inside":
                return IsolationCheck(
                    False, 0.0, f"t touches the closure of stored interval {int(k) + 1}"
                )
        if not self.has_tail:
            return IsolationCheck(True, margin, "finite base, all intervals checked")
        if t in (0.0, 1.0):
            return IsolationCheck(True, margin, "endpoint: deeper levels stay clear structurally")
        if self.kind == "leveled" and self.schedule is not None and self.schedule.is_dyadic():
            deepest = max(self.stored_levels)
            for level in range(1, deepest + 1):
                scaled = t * 2.0 ** level
                if scaled == round(scaled):
                    return IsolationCheck(
                        True,
                        margin,
                        f"dyadic grid point of level {level}: deeper closures stay clear",
                    )
        return IsolationCheck(False, margin, "cannot certify unstored levels for this point")

    def truncated(self, n: int) -> "NeighborhoodBase":
        """First n stored intervals (tail metadata preserved)."""
        if not 1 <= n <= self.n_max:
            raise DomainError("truncation length out of range")
        return NeighborhoodBase(
            self.intervals[:n],
            kind=self.kind,
            param_i=self.param_i,
            level_of=self.level_of[:n],
            slot_of=self.slot_of[:n],
            eps_index=self.eps_index[:n],
            schedule=self.schedule,
            has_tail=self.has_tail,
        )


def build_leveled(
    i: int,
    schedule: EpsilonSchedule | None = None,
    levels: int = 8,
) -> NeighborhoodBase:
    """The leveled base starting at level ``i`` with ``levels`` stored levels.

    Level l contributes 2^l intervals; slot k keeps the overlap width ε_g of
    its level-1 enumeration index g = 2^l − 1 + k, while weights downstream
    use the re-indexed position inside this base.
    """
    if i < 1 or levels < 1:
        raise ConfigError("i and levels must be positive")
    # 2^(i+levels) - 2^i intervals, at least 2^(i+levels-1): the first test
    # spares computing a huge power
    n = i + levels
    if n > MAX_LEVELED_INTERVALS.bit_length() or 2**n - 2**i > MAX_LEVELED_INTERVALS:
        raise ConfigError(
            f"leveled base i={i}, levels={levels} exceeds {MAX_LEVELED_INTERVALS} intervals"
        )
    sched = schedule or EpsilonSchedule()
    intervals: list[Interval] = []
    level_of: list[int] = []
    slot_of: list[int] = []
    eps_index: list[int] = []
    for level in range(i, i + levels):
        sched.validate_level(level)
        count = 2 ** level
        width = 2.0 ** -level
        for k in range(count):
            g = count - 1 + k
            e = sched.eps(g)
            if k == 0:
                iv = Interval(0.0, width + e, left_open=False, right_open=True)
            elif k == count - 1:
                iv = Interval(k * width - e, 1.0, left_open=True, right_open=False)
            else:
                iv = Interval(k * width - e, (k + 1) * width + e)
            intervals.append(iv)
            level_of.append(level)
            slot_of.append(k)
            eps_index.append(g)
    return NeighborhoodBase(
        tuple(intervals),
        kind="leveled",
        param_i=i,
        level_of=tuple(level_of),
        slot_of=tuple(slot_of),
        eps_index=tuple(eps_index),
        schedule=sched,
        has_tail=True,
    )


def build_custom(intervals, has_tail: bool = False) -> NeighborhoodBase:
    return NeighborhoodBase(tuple(intervals), kind="custom", has_tail=has_tail)


def parse_base_spec(spec: str) -> NeighborhoodBase:
    """CLI base specs: ``leveled:i=1,levels=8[,eps1=..,ratio=..]`` or
    ``custom:@file.json`` (a JSON list of interval objects).  ``dyadic:``
    is accepted as an alias of ``leveled:`` with the default schedule."""
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head in ("leveled", "dyadic"):
        kw: dict[str, float] = {}
        for part in filter(None, (p.strip() for p in rest.split(","))):
            key, _, val = part.partition("=")
            try:
                kw[key.strip()] = float(val)
            except ValueError:
                raise ConfigError(f"base spec {spec!r}: {key.strip()} needs a number") from None
        for key in ("i", "levels"):
            if key in kw and not kw[key].is_integer():
                raise ConfigError(f"base spec {spec!r}: {key} must be a whole number")
        sched = EpsilonSchedule(
            eps1=kw.get("eps1", 2.0 ** -6), ratio=kw.get("ratio", 0.25)
        )
        return build_leveled(
            int(kw.get("i", 1)), schedule=sched, levels=int(kw.get("levels", 8))
        )
    if head == "custom":
        if not rest.startswith("@"):
            raise ConfigError("custom base spec must point at a JSON file: custom:@file.json")
        ivs = []
        for d in json_array(read_json(rest[1:]), "a custom base"):
            d = json_object(d, "an interval")
            ivs.append(Interval(
                json_number(json_key(d, "left", "an interval"), "an interval's left"),
                json_number(json_key(d, "right", "an interval"), "an interval's right"),
                left_open=json_bool(d.get("left_open", True), "an interval's left_open"),
                right_open=json_bool(d.get("right_open", True), "an interval's right_open"),
            ))
        return build_custom(ivs, has_tail=False)
    raise ConfigError(f"unknown base spec {spec!r}")

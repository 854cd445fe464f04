"""Exact piecewise-linear functions and atom+density measures on [0,1].

Everything in this module is closed-form arithmetic over machine floats:
suprema of a PL function are attained at breakpoints, a product of two PL
functions integrates exactly per merged piece from its two ends' values,
and |PL| splits pieces at zero crossings.  No grids and no tolerances enter
here; downstream certificates rely on that.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import pl_eval
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class Enclosure:
    """A certified two-sided bracket [lo, hi] for a truncated quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo <= self.hi):
            raise DomainError(f"invalid enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class PLFunction:
    """A continuous piecewise-linear function on [0,1].

    ``breakpoints`` is strictly increasing, starts at 0 and ends at 1;
    ``values`` has the same length.  Instances are immutable.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bx = np.ascontiguousarray(self.breakpoints, dtype=np.float64)
        by = np.ascontiguousarray(self.values, dtype=np.float64)
        if bx.ndim != 1 or by.ndim != 1 or bx.shape != by.shape or bx.size < 2:
            raise DomainError("breakpoints/values must be 1-d arrays of equal length >= 2")
        if bx[0] != 0.0 or bx[-1] != 1.0:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if not np.all(np.diff(bx) > 0):
            raise DomainError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bx)) and np.all(np.isfinite(by))):
            raise DomainError("breakpoints/values must be finite")
        bx.setflags(write=False)
        by.setflags(write=False)
        object.__setattr__(self, "breakpoints", bx)
        object.__setattr__(self, "values", by)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: float) -> "PLFunction":
        return PLFunction(np.array([0.0, 1.0]), np.array([float(c), float(c)]))

    @staticmethod
    def tent(peak: float = 0.5) -> "PLFunction":
        """Zero at 0 and 1, linear up to 1 at ``peak``."""
        if not 0.0 < peak < 1.0:
            raise DomainError("tent peak must be interior")
        return PLFunction(np.array([0.0, peak, 1.0]), np.array([0.0, 1.0, 0.0]))

    # -- evaluation ---------------------------------------------------

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t):
        ta = np.asarray(t, dtype=np.float64)
        if np.any(ta < 0.0) or np.any(ta > 1.0):
            raise DomainError("evaluation point outside [0,1]")
        out = pl_eval(self.breakpoints, self.values, ta)
        return float(out) if np.isscalar(t) or ta.ndim == 0 else out

    def sup_abs(self) -> float:
        """Max-norm; exact, attained at a breakpoint."""
        return float(np.max(np.abs(self.values)))

    def lipschitz_bound(self) -> float:
        slopes = np.diff(self.values) / np.diff(self.breakpoints)
        return float(np.max(np.abs(slopes)))

    def scaled(self, a: float) -> "PLFunction":
        return PLFunction(self.breakpoints, a * self.values)

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))


@dataclass(frozen=True)
class Interval:
    """An interval in [0,1]; openness flags matter only for membership."""

    left: float
    right: float
    left_open: bool = True
    right_open: bool = True

    def __post_init__(self):
        if not self.left < self.right:
            raise DomainError(f"degenerate interval [{self.left}, {self.right}]")

    @property
    def length(self) -> float:
        return self.right - self.left

    def clamped(self) -> tuple[float, float]:
        return max(self.left, 0.0), min(self.right, 1.0)


def lin_comb(a: float, f: PLFunction, b: float, g: PLFunction) -> PLFunction:
    """a·f + b·g on the merged breakpoint set; exact at every breakpoint."""
    bx = np.union1d(f.breakpoints, g.breakpoints)
    by = a * pl_eval(f.breakpoints, f.values, bx) + b * pl_eval(
        g.breakpoints, g.values, bx
    )
    return PLFunction(bx, by)


def abs_argmax_many(f: PLFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per interval [lo[k], hi[k]], an exact maximizer of |f| on it: the
    first of lo[k], the breakpoints strictly inside and hi[k] where |f| is
    largest (`abs_peaks`)."""
    return abs_peaks(f, lo, hi)[0]


def abs_peaks(f: PLFunction, lo: np.ndarray, hi: np.ndarray):
    """`abs_argmax_many`'s maximizers, with what a walk from each one needs:
    the breakpoints strictly inside each interval, bx[first:stop], and the
    (2, intervals) values of f at lo and at hi.  One pass over every
    interval, with no array of intervals × breakpoints."""
    bx, av = f.breakpoints, np.abs(f.values)
    n = bx.size
    first = bx.searchsorted(lo, side="right")
    stop = bx.searchsorted(hi, side="left")
    inside = first < stop
    # the even entries reduce av[first:stop]; an empty range reads one value
    top = np.maximum.reduceat(av, np.minimum(np.column_stack([first, stop]).ravel(), n - 1))[::2]
    # the first position in [first, stop) holding top: the least key at or
    # above (rank of top, first), with keys ordered by |f|, then position
    uniq, rank = np.unique(av, return_inverse=True)
    keys = np.sort(rank * n + np.arange(n))
    at = keys.searchsorted(uniq.searchsorted(top) * n + first)
    arg = keys[np.minimum(at, n - 1)] % n
    ends = pl_eval(bx, f.values, np.concatenate([lo, hi])).reshape(2, -1)
    end_lo, end_hi = np.abs(ends)
    out = np.where(end_hi > end_lo, hi, lo)
    mid = inside & (top > end_lo) & (top >= end_hi)
    out[mid] = bx[arg[mid]]
    return out, first, stop, ends


def build_flip(x: PLFunction, flips) -> PLFunction:
    """x on its breakpoints outside the flips and on each flip's three
    points, with the value at each midpoint negated.  The flips (r, s, t)
    are disjoint, with r < s < t inside [0, 1], in any order."""
    flips = np.asarray(flips, dtype=np.float64).reshape(-1, 3)
    r, s, t = flips[np.argsort(flips[:, 0])].T
    # the disjoint flips can hold a breakpoint only in the last one that
    # starts before it: its end follows the count of such starts
    inside = x.breakpoints < np.append(-np.inf, t)[np.searchsorted(r, x.breakpoints)]
    xs = np.union1d(x.breakpoints[~inside], flips.ravel())
    ys = x.eval(xs)
    mid = np.searchsorted(xs, s)
    ys[mid] = -ys[mid]
    return PLFunction(xs, ys)


def _left_to_right_sums(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum of x[first[k]:first[k+1]] per segment (the last runs to the end).

    Each segment is added left to right, as a scalar ``+=`` loop would, so
    results are bit-identical to one; ``np.cumsum`` keeps that order where
    ``np.sum`` and ``np.add.reduceat`` sum pairwise.  Loops over whichever
    is fewer: segments, or positions within the longest segment.
    """
    counts = np.diff(np.append(first, x.size))
    longest = int(counts.max(initial=0))
    if first.size < longest:
        return np.array([np.cumsum(x[a : a + n])[-1] for a, n in zip(first, counts)])
    out = x[first]
    for j in range(1, longest):
        live = np.nonzero(counts > j)[0]
        out[live] += x[first[live] + j]
    return out


def _interval_points(bx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Every interval lo[k] < hi[k] cut at lo[k], the points of bx strictly
    inside and hi[k].  Returns the cuts of all intervals, one interval after
    another, and the index of each lo[k] among them."""
    inner = np.searchsorted(bx, lo, side="right")
    counts = np.searchsorted(bx, hi, side="left") - inner + 2
    first = np.cumsum(counts) - counts
    # position p of interval k holds bx[inner[k] + p − first[k] − 1]; the
    # two ends read a neighbour that is overwritten
    at = np.arange(counts.sum()) - np.repeat(first - inner + 1, counts)
    cuts = bx[np.minimum(at, bx.size - 1)]
    cuts[first] = lo
    cuts[first + counts - 1] = hi
    return cuts, first


def _interval_sums(pieces: np.ndarray, first: np.ndarray, start) -> np.ndarray:
    """Per interval of `_interval_points`, its start added to its pieces left
    to right.  pieces[i] belongs to the piece from cut i to cut i + 1, so
    each start takes the place of the piece that joins the interval before."""
    terms = np.empty(pieces.size + 1)
    terms[1:] = pieces
    terms[first] = start
    return _left_to_right_sums(terms, first)


def _abs_pieces(cuts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Exact ∫|f| over each piece between consecutive cuts, f linear there
    with the values vals at the cuts: a piece that changes sign splits at
    its zero crossing."""
    x0, x1, y0, y1 = cuts[:-1], cuts[1:], vals[:-1], vals[1:]
    piece = np.abs(y0 + y1) * (x1 - x0) / 2.0
    s, xc = _kernels.zero_crossings(cuts, vals)  # one interior sign change
    piece[s] = (np.abs(y0[s]) * (xc - x0[s]) + np.abs(y1[s]) * (x1[s] - xc)) / 2.0
    return piece


def abs_integral_cells(f: PLFunction, edges: np.ndarray) -> np.ndarray:
    """Exact ∫|f| over every cell [edges[k], edges[k+1]].

    ``edges`` is strictly increasing inside [0,1].  A piece of f that
    changes sign splits at its zero crossing; each cell adds its pieces left
    to right, exactly as ``abs_integral`` on that cell does.
    """
    edges = np.asarray(edges, dtype=np.float64)
    cuts = np.union1d(f.breakpoints, edges)
    cuts = cuts[(cuts >= edges[0]) & (cuts <= edges[-1])]
    piece = _abs_pieces(cuts, pl_eval(f.breakpoints, f.values, cuts))
    return _left_to_right_sums(piece, np.searchsorted(cuts, edges[:-1]))


def abs_integral(f: PLFunction, lo: float = 0.0, hi: float = 1.0) -> float:
    """Exact ∫|f| over [lo, hi] ⊆ [0,1]."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError("integration range must sit inside [0,1]")
    if lo == hi:
        return 0.0
    return float(abs_integral_cells(f, np.array([lo, hi]))[0])


@dataclass(frozen=True, eq=False)
class Measure:
    """Finitely many atoms plus a signed piecewise-linear density.

    This family is closed under the constructions used downstream: dirac
    functionals, Lebesgue measure, and finite combinations all live here,
    and the Lebesgue decomposition is immediate (atoms vs density).
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: PLFunction | None = None

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        locs = [t for t, _ in atoms]
        if len(set(locs)) != len(locs):
            raise DomainError("atom locations must be pairwise distinct")
        for t, w in atoms:
            if not 0.0 <= t <= 1.0:  # also refuses nan and inf locations
                raise DomainError("atom location outside [0,1]")
            if not math.isfinite(w):
                raise DomainError("atom weights must be finite")
        object.__setattr__(self, "atoms", atoms)

    # -- constructors -------------------------------------------------

    @staticmethod
    def dirac(t: float, w: float = 1.0) -> "Measure":
        return Measure(atoms=((t, w),))

    @staticmethod
    def lebesgue() -> "Measure":
        return Measure(density=PLFunction.constant(1.0))

    # -- exact quantities ----------------------------------------------

    def total_variation(self) -> float:
        tv = sum(abs(w) for _, w in self.atoms)
        if self.density is not None:
            tv += abs_integral(self.density)
        return tv

    def abs_mass_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """|m| of every open interval (lo[k], hi[k]) in one call: the |w| of
        the atoms strictly inside, added in the atoms' order, plus the exact
        ∫|density| over the interval clamped to [0, 1], cut at its ends and
        the density's breakpoints inside, with its pieces added left to right
        and a piece that changes sign split at its zero crossing."""
        lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
        mass = np.zeros(lo.shape)
        for t, w in self.atoms:
            mass[(lo < t) & (t < hi)] += abs(w)
        rho = self.density
        if rho is not None:
            a, b = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
            _check_ranges(a, b)
            span = np.nonzero(a < b)[0]
            cuts, first = _interval_points(rho.breakpoints, a[span], b[span])
            pieces = _abs_pieces(cuts, pl_eval(rho.breakpoints, rho.values, cuts))
            mass[span] += _interval_sums(pieces, first, 0.0)
        return mass

    def scaled(self, a: float) -> "Measure":
        d = None if self.density is None else self.density.scaled(a)
        return Measure(tuple((t, a * w) for t, w in self.atoms), d)

    def is_zero(self) -> bool:
        dens_zero = self.density is None or self.density.is_zero()
        return dens_zero and all(w == 0.0 for _, w in self.atoms)


def measure_combine(a: float, m1: Measure, b: float, m2: Measure) -> Measure:
    """a·m1 + b·m2: atom weights merge at shared locations, densities add."""
    atoms: dict[float, float] = {}
    for t, w in m1.atoms:
        atoms[t] = atoms.get(t, 0.0) + a * w
    for t, w in m2.atoms:
        atoms[t] = atoms.get(t, 0.0) + b * w
    if m1.density is None and m2.density is None:
        dens = None
    elif m1.density is None:
        dens = m2.density.scaled(b)
    elif m2.density is None:
        dens = m1.density.scaled(a)
    else:
        dens = lin_comb(a, m1.density, b, m2.density)
    return Measure(tuple(sorted(atoms.items())), dens)


def integrate(f: PLFunction, m: Measure) -> float:
    """Exact ∫ f dm over [0, 1]: `integrate_many` over the one interval
    [0, 1], so atoms at 0 and 1 count."""
    return float(integrate_many(f, m, np.zeros(1), np.ones(1))[0])


def integrate_many(f: PLFunction, m: Measure, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact ∫ f dm over every interval [lo[k], hi[k]] ⊆ [0, 1] in one call.

    First the atoms inside, each w·f(t), added in the atoms' order; an atom
    on an end counts only where the interval is all of [0, 1].  Then the
    density part, cut at the ends and at the breakpoints of f and of the
    density strictly inside: on each piece [a, b] both are linear, so its
    integral is (b − a)/6·(f(a)(2ρ(a) + ρ(b)) + f(b)(ρ(a) + 2ρ(b))), from its
    two ends alone, and the pieces are added left to right.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    _check_ranges(lo, hi)
    total = np.zeros(lo.shape)
    if m.atoms:
        t, w = np.array(m.atoms).T
        whole = (lo == 0.0) & (hi == 1.0)
        for tj, cj in zip(t.tolist(), (w * pl_eval(f.breakpoints, f.values, t)).tolist()):
            total[whole | ((lo < tj) & (tj < hi))] += cj
    rho = m.density
    if rho is not None:
        span = np.nonzero(lo < hi)[0]
        bx = np.union1d(f.breakpoints, rho.breakpoints)
        cuts, first = _interval_points(bx, lo[span], hi[span])
        fv = pl_eval(f.breakpoints, f.values, cuts)
        rv = pl_eval(rho.breakpoints, rho.values, cuts)
        fa, fb, ra, rb = fv[:-1], fv[1:], rv[:-1], rv[1:]
        pieces = np.diff(cuts) / 6.0 * (fa * (2.0 * ra + rb) + fb * (ra + 2.0 * rb))
        total[span] = _interval_sums(pieces, first, total[span])
    return total


def _check_ranges(lo: np.ndarray, hi: np.ndarray) -> None:
    if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)):
        raise DomainError("integration range must sit inside [0,1]")


# ---------------------------------------------------------------------------
# JSON round trip (file formats used by the CLI)
# ---------------------------------------------------------------------------


def function_to_dict(f: PLFunction) -> dict:
    return {"breakpoints": f.breakpoints.tolist(), "values": f.values.tolist()}


def function_from_dict(d: dict) -> PLFunction:
    d = json_object(d, "a function")
    return PLFunction(json_numbers(json_key(d, "breakpoints", "a function"), "breakpoints"),
                      json_numbers(json_key(d, "values", "a function"), "values"))


def measure_to_dict(m: Measure) -> dict:
    out: dict = {"atoms": [{"t": t, "w": w} for t, w in m.atoms]}
    out["density"] = None if m.density is None else function_to_dict(m.density)
    return out


def measure_from_dict(d: dict) -> Measure:
    d = json_object(d, "a measure")
    atoms = []
    for a in json_array(d.get("atoms", []), "atoms"):
        a = json_object(a, "an atom")
        atoms.append((json_number(json_key(a, "t", "an atom"), "an atom's t"),
                      json_number(json_key(a, "w", "an atom"), "an atom's w")))
    dens = d.get("density")
    return Measure(tuple(atoms), None if dens is None else function_from_dict(dens))


# Checks on parsed JSON input: each returns its argument, or raises a
# ConfigError naming it by `what`.


def json_object(d, what: str) -> dict:
    if type(d) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(d)}")
    return d


def json_key(d: dict, key: str, what: str):
    """The value under key of the JSON object d, which `what` names."""
    if key not in d:
        raise ConfigError(f'{what} has no "{key}" key')
    return d[key]


def json_array(v, what: str) -> list:
    if type(v) is not list:
        raise ConfigError(f"{what} must be a JSON array, got {reprlib.repr(v)}")
    return v


def json_number(v, what: str) -> float:
    """v as a float; it must be a JSON number within the float range."""
    # exact types: json gives bool for true/false, and bool is an int subclass
    if type(v) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {reprlib.repr(v)}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{what} lies beyond the float range") from None


def json_bool(v, what: str) -> bool:
    """v; it must be a JSON true or false."""
    if type(v) is not bool:
        raise ConfigError(f"{what} must be true or false, got {reprlib.repr(v)}")
    return v


def json_numbers(v, what: str) -> np.ndarray:
    """v as a float64 array; it must be a JSON array of numbers."""
    return np.array([json_number(x, what) for x in json_array(v, what)], dtype=np.float64)


def read_json(path: str):
    """The parsed JSON file; nesting too deep to parse is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply to parse") from None


def load_function(path: str) -> PLFunction:
    return function_from_dict(read_json(path))


def load_measure(path: str) -> Measure:
    return measure_from_dict(read_json(path))


def dump_function(f: PLFunction, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(function_to_dict(f), fh)


def dump_measure(m: Measure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(m), fh)

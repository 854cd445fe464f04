"""Batched norm machinery for PL functions living on a shared node grid.

Optimizers and samplers work on value vectors over a fixed grid; the grid
contains every breakpoint of the functions involved, so grid arithmetic is
exact PL arithmetic.  Seminorms of whole batches reduce to one range-max
kernel call plus two endpoint interpolations, which is what makes budgets
of 10^4..10^5 norm evaluations cheap.
"""

from __future__ import annotations

import numpy as np

from .core_model import Measure, PLFunction, pl_eval
from .d_norm import RESCALE_SAFETY, DNormContext
from .errors import DomainError
from . import _kernels


class GridContext:
    """Precomputed seminorm geometry of a base against a node grid.

    The uniform grid is refined by the breakpoints of every object passed: a
    PLFunction's breakpoints, a Measure's atoms and density breakpoints.
    """

    def __init__(self, ctx: DNormContext, *objects, grid_cells: int = 512):
        if grid_cells < 1:
            raise DomainError("grid_cells must be >= 1")
        self.ctx = ctx
        points = []
        for obj in objects:
            if isinstance(obj, Measure):
                points.extend(t for t, _ in obj.atoms)
                if obj.density is not None:
                    points.extend(obj.density.breakpoints.tolist())
            else:
                points.extend(obj.breakpoints.tolist())
        self.nodes = np.union1d(np.linspace(0.0, 1.0, grid_cells + 1), points)
        self.starts, self.ends, self._ka, self._ta, self._kb, self._tb = (
            self.interval_geometry(*ctx.interval_bounds)
        )
        self.weights = ctx.weights
        self.tail_weight = ctx.tail_weight
        self.size = self.nodes.size

    def interval_geometry(self, lo: np.ndarray, hi: np.ndarray):
        """Node ranges and endpoint cells of the intervals [lo, hi]: nodes
        ``starts:ends`` lie inside, and each end sits in cell ``ka``/``kb``
        at fraction ``ta``/``tb``."""
        starts = np.searchsorted(self.nodes, lo, side="left")
        ends = np.searchsorted(self.nodes, hi, side="right")
        ka, ta = self._endpoint_data(lo)
        kb, tb = self._endpoint_data(hi)
        return starts, ends, ka, ta, kb, tb

    def _endpoint_data(self, t: np.ndarray):
        k = np.clip(np.searchsorted(self.nodes, t, side="right") - 1, 0, self.nodes.size - 2)
        th = (t - self.nodes[k]) / (self.nodes[k + 1] - self.nodes[k])
        return k, th

    # -- batched norms ---------------------------------------------------

    def _endpoint_values(self, v2d: np.ndarray, k: np.ndarray, th: np.ndarray):
        return v2d[:, k] * (1.0 - th) + v2d[:, k + 1] * th

    def seminorms(self, v2d: np.ndarray) -> np.ndarray:
        """Exact seminorm matrix [n_funcs, n_intervals] for grid PL rows."""
        v2d = np.atleast_2d(v2d)
        interior = _kernels.range_abs_max(v2d, self.starts, self.ends)
        fa = np.abs(self._endpoint_values(v2d, self._ka, self._ta))
        fb = np.abs(self._endpoint_values(v2d, self._kb, self._tb))
        return np.maximum(interior, np.maximum(fa, fb))

    def enclosures(self, v2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Norm enclosure endpoints (lo, hi) for each row."""
        v2d = np.atleast_2d(v2d)
        s = self.seminorms(v2d)
        lo2 = (s * s) @ self.weights
        sup = np.max(np.abs(v2d), axis=1)
        hi2 = lo2 + self.tail_weight * sup * sup
        return np.sqrt(lo2), np.sqrt(hi2)

    def rescale_to_ball(self, v2d: np.ndarray) -> np.ndarray:
        """Radial rescale of each row so its norm enclosure hi is ≤ 1."""
        v2d = np.atleast_2d(v2d)
        _, hi = self.enclosures(v2d)
        factor = np.where(hi > 0.0, 1.0 / (hi * RESCALE_SAFETY), 1.0)
        return v2d * factor[:, None]

    # -- conversions -------------------------------------------------------

    def to_plfunction(self, v: np.ndarray) -> PLFunction:
        return PLFunction(self.nodes, np.asarray(v, dtype=np.float64))

    def sample_function(self, f: PLFunction) -> np.ndarray:
        """Node values of f; exact when the grid refines f's breakpoints."""
        return np.asarray(f.eval(self.nodes), dtype=np.float64)

    def functional_coeffs(self, m: Measure) -> np.ndarray:
        """Coefficient vector c with c·v = ∫ v dm exactly for grid PL v."""
        g = self.nodes
        c = np.zeros(g.size)
        if m.atoms:
            # interleaved k0, k0+1, k1, k1+1, ...: each atom in turn, as a loop adds
            t, w = np.array(m.atoms).T
            k, th = self._endpoint_data(t)
            np.add.at(c, np.stack([k, k + 1], axis=1).ravel(),
                      np.stack([w * (1.0 - th), w * th], axis=1).ravel())
        rho = m.density
        if rho is not None:
            # Simpson's rule on every piece between consecutive grid nodes and
            # density breakpoints; each piece sends its a, mid, b terms to
            # its cell's two nodes, added in that order by np.add.at
            edges = np.union1d(g, rho.breakpoints)
            a, b = edges[:-1], edges[1:]
            k = np.searchsorted(g, a, side="right") - 1
            x0 = g[k][:, None]
            h = g[k + 1][:, None] - x0
            t = np.stack([a, 0.5 * (a + b), b], axis=1)
            rv = pl_eval(rho.breakpoints, rho.values, t)
            s = (t - x0) / h
            scale = (b - a)[:, None] / 6.0 * np.array([1.0, 4.0, 1.0]) * rv
            kk = np.broadcast_to(k[:, None], t.shape)
            idx = np.stack([kk, kk + 1], axis=2)
            np.add.at(c, idx.ravel(), np.stack([scale * (1.0 - s), scale * s], axis=2).ravel())
        return c

    # -- candidate generators ----------------------------------------------

    def random_smooth(self, rng: np.random.Generator, count: int, coarse: int = 16):
        """Batch of smooth-ish random grid functions with values O(1)."""
        xs = np.linspace(0.0, 1.0, coarse + 1)
        ys = rng.standard_normal((count, coarse + 1))
        out = np.empty((count, self.nodes.size))
        for i in range(count):
            out[i] = np.interp(self.nodes, xs, ys[i])
        return out

    def weight_profile(self) -> np.ndarray:
        """Stored weight w_lo at every node (closure membership)."""
        lo, hi = self.ctx.base.clamped_bounds
        inside = (lo[:, None] <= self.nodes[None, :]) & (self.nodes[None, :] <= hi[:, None])
        w = np.ldexp(1.0, -np.arange(1, lo.size + 1, dtype=np.int64))
        return w @ inside

    def random_bumps(self, rng: np.random.Generator, count: int, amp: float = 1.0):
        """Batch of single hat bumps at random positions/widths/signs."""
        out = np.zeros((count, self.nodes.size))
        centers = rng.uniform(0.02, 0.98, count)
        widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.2), count))
        signs = rng.choice([-1.0, 1.0], count)
        amps = amp * rng.uniform(0.2, 1.0, count)
        for i in range(count):
            out[i] = signs[i] * amps[i] * np.clip(
                1.0 - np.abs(self.nodes - centers[i]) / widths[i], 0.0, None
            )
        return out


def maximize_linear_functional(
    gc: GridContext,
    coeffs: np.ndarray,
    budget: int,
    seed: int,
    extra_inits: tuple[np.ndarray, ...] = (),
) -> tuple[float, np.ndarray, int]:
    """Maximize c·v over the unit ball by projected ascent with multistart.

    The objective is linear, so each step moves along the fixed objective
    direction and retracts radially onto the ball (valid for any norm).
    Deterministic in (budget, seed); returns best value, witness, and the
    number of norm evaluations spent.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    cn = float(np.linalg.norm(coeffs))
    if cn == 0.0:
        raise DomainError("zero functional")
    d = coeffs / np.max(np.abs(coeffs))
    rng = np.random.default_rng(seed)
    inits = [coeffs.copy(), np.ones(gc.size)]
    inits.extend(np.asarray(e, dtype=np.float64) for e in extra_inits)
    n_random = max(0, min(4, budget // 50 - len(inits)))
    if n_random:
        inits.extend(gc.random_smooth(rng, n_random))
    evals = 0
    best_val = -np.inf
    best_v = inits[0]
    per_start = max(1, budget // max(1, len(inits)))
    for v0 in inits:
        if evals >= budget:
            break
        v = gc.rescale_to_ball(v0)[0]
        evals += 1
        val = float(coeffs @ v)
        if val > best_val:
            best_val, best_v = val, v.copy()
        step0 = 0.25 * (1.0 + np.max(np.abs(v)))
        it = 0
        while it < per_start and evals < budget:
            step = step0 / np.sqrt(1.0 + it)
            v = gc.rescale_to_ball(v + step * d)[0]
            evals += 1
            val = float(coeffs @ v)
            if val > best_val:
                best_val, best_v = val, v.copy()
            it += 1
    return best_val, best_v, evals

"""Batched norm machinery for PL functions living on a shared node grid.

Optimizers and samplers work on value vectors over a fixed grid; the grid
contains every breakpoint of the functions involved, so grid arithmetic is
exact PL arithmetic.  Seminorms of whole batches go through
`_kernels.sup_abs_rows` in cache-sized blocks of rows: per block, one range
max from a two-tier table, plus an interpolation only at the interval ends
that fall strictly between grid nodes (an end on a node blends to that
node's value, which the range max already holds), which is what makes
budgets of 10^4..10^5 norm evaluations cheap.  The grid plans its stored
geometry once (`GridContext.plan`, a `_kernels.plan`): each range's reads,
the rows per block, sized so that a block's table fills
`_kernels.BLOCK_BYTES`, and the one table every block is built in, so a
batch of any size plans nothing and allocates no table per block.  A
slice's anchor, its norming element, is no search:
`slice_lab.SliceSpec.anchor` names it, and a grid built with the anchor
among its objects samples it exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core_model import Measure, PLFunction, pl_eval
from .d_norm import RESCALE_SAFETY, DNormContext, dual_norm
from .errors import DomainError
from . import _kernels


def grid_nodes(grid_cells: int, *objects) -> np.ndarray:
    """The uniform grid of grid_cells cells refined by every object's points:
    a PLFunction's breakpoints, a Measure's atoms and density breakpoints."""
    if grid_cells < 1:
        raise DomainError("grid_cells must be >= 1")
    points = []
    for obj in objects:
        if isinstance(obj, Measure):
            points.extend(t for t, _ in obj.atoms)
            if obj.density is not None:
                points.extend(obj.density.breakpoints.tolist())
        else:
            points.extend(obj.breakpoints.tolist())
    return np.union1d(np.linspace(0.0, 1.0, grid_cells + 1), points)


def hat_at(t, centers, widths):
    """Unit hats at the points t, peaked at each center and 0 beyond its
    width; the arguments broadcast, and each value is computed alone."""
    return np.maximum(1.0 - np.abs(t - centers) / widths, 0.0)


def hats(nodes: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Unit hat rows on the nodes, one per center and width."""
    return hat_at(nodes[None, :], centers[:, None], widths[:, None])


class GridContext:
    """Precomputed seminorm geometry of a base against the grid of `grid_nodes`."""

    def __init__(self, ctx: DNormContext, *objects, grid_cells: int = 512):
        self.ctx = ctx
        self.nodes = grid_nodes(grid_cells, *objects)
        self.weights = ctx.weights
        self.tail_weight = ctx.tail_weight
        self.size = self.nodes.size

    @cached_property
    def stored_geometry(self):
        """interval_geometry of the stored intervals and their
        `off_node_ends`, the only ends `sup_abs_rows` blends for finite rows;
        built on first use: the MLUR scan, which builds a grid only for its
        cover, never needs it."""
        bounds = self.ctx.interval_bounds
        return (*_kernels.interval_geometry(self.nodes, *bounds),
                _kernels.off_node_ends(self.nodes, *bounds))

    @cached_property
    def plan(self) -> _kernels.Plan:
        """The `_kernels.plan` of the stored geometry: every block of
        `seminorms` reads by it, and is built in its one table."""
        return _kernels.plan(self.size, self.stored_geometry)

    # -- batched norms ---------------------------------------------------

    def seminorms(self, v2d: np.ndarray, out=None) -> np.ndarray:
        """Exact seminorm matrix [n_funcs, n_intervals] for grid PL rows,
        written into ``out`` if given."""
        return _kernels.sup_abs_rows(np.atleast_2d(v2d), self.plan, out)

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
            k, th = _kernels.locate(g, t)
            np.add.at(c, np.stack([k, k + 1], axis=1).ravel(),
                      np.stack([w * (1.0 - th), w * th], axis=1).ravel())
        rho = m.density
        if rho is not None:
            # Simpson's rule on every piece between consecutive grid nodes and
            # density breakpoints; each piece sends its a, mid, b terms to the
            # two nodes of the cell holding each point, added in that order by
            # np.add.at.  A piece end b on a node lands in the next cell at
            # fraction 0: the node gets the same term, the node after it +0.0
            edges = np.union1d(g, rho.breakpoints)
            a, b = edges[:-1], edges[1:]
            t = np.stack([a, 0.5 * (a + b), b], axis=1)
            kk, s = _kernels.locate(g, t)
            rv = pl_eval(rho.breakpoints, rho.values, t)
            scale = (b - a)[:, None] / 6.0 * np.array([1.0, 4.0, 1.0]) * rv
            idx = np.stack([kk, kk + 1], axis=2)
            np.add.at(c, idx.ravel(), np.stack([scale * (1.0 - s), scale * s], axis=2).ravel())
        return c

    # -- candidate generators ----------------------------------------------

    def random_smooth(self, rng: np.random.Generator, count: int, coarse: int = 16):
        """Batch of smooth-ish random grid functions with values O(1): each
        row interpolates coarse + 1 normal draws on the uniform coarse grid
        in np.interp's own form, so bit for bit as np.interp: the value at
        a coarse node, 1 included, and slope·(x − xs[k]) + ys[k] in cell k
        elsewhere."""
        xs = np.linspace(0.0, 1.0, coarse + 1)
        ys = rng.standard_normal((count, coarse + 1))
        j = xs.searchsorted(self.nodes, side="right") - 1
        k = np.minimum(j, coarse - 1)
        slope = (ys[:, 1:] - ys[:, :-1]) / (xs[1:] - xs[:-1])
        out = slope[:, k] * (self.nodes - xs[k]) + ys[:, k]
        on = self.nodes == xs[j]
        out[:, on] = ys[:, j[on]]
        return out

    def random_bumps(self, rng: np.random.Generator, count: int):
        """Batch of single hat bumps at random positions/widths/signs."""
        centers = rng.uniform(0.02, 0.98, count)
        widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.2), count))
        signs = rng.choice([-1.0, 1.0], count)
        amps = rng.uniform(0.2, 1.0, count)
        return (signs * amps)[:, None] * hats(self.nodes, centers, widths)


def maximize_linear_functional(gc: GridContext, m: Measure) -> np.ndarray:
    """The node values of the witness of `dual_norm`'s lower end, a norming
    element of m in the unit ball; exact only on a grid that refines it.
    Nothing in the package calls it: slices take their anchor from
    `SliceSpec.anchor`.  It stays only because the benchmark's tracer
    (`perfbench/tracing.py`) names it."""
    return gc.sample_function(dual_norm(gc.ctx, m).witness)

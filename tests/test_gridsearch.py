import numpy as np
import pytest

from banachlab.core_model import Measure, PLFunction
from banachlab.d_norm import DNormContext
from banachlab.errors import DomainError
from banachlab.gridsearch import GridContext
from banachlab.neighborhood_base import build_leveled

from conftest import random_pl


def ref_interval_geometry(nodes, lo, hi):
    """The hand-built arrays the MLUR scan used before it shared the grid's."""
    starts = np.searchsorted(nodes, lo, side="left")
    ends = np.searchsorted(nodes, hi, side="right")
    ka = np.clip(np.searchsorted(nodes, lo, side="right") - 1, 0, nodes.size - 2)
    ta = (lo - nodes[ka]) / (nodes[ka + 1] - nodes[ka])
    kb = np.clip(np.searchsorted(nodes, hi, side="right") - 1, 0, nodes.size - 2)
    tb = (hi - nodes[kb]) / (nodes[kb + 1] - nodes[kb])
    return starts, ends, ka, ta, kb, tb


class TestNodes:
    def test_plain_grid(self, ctx8):
        assert GridContext(ctx8, grid_cells=64).nodes.tolist() == np.linspace(0, 1, 65).tolist()

    def test_objects_refine_the_grid(self, ctx8):
        rng = np.random.default_rng(3)
        f, g, rho = random_pl(rng), random_pl(rng), random_pl(rng)
        atoms = Measure(((0.3, 2.0), (1.0 / 7.0, -1.0)))
        dens = Measure(((0.55, 1.0),), rho)
        lin = np.linspace(0.0, 1.0, 33)
        cases = [
            ((f,), f.breakpoints),
            ((f, g), np.concatenate([f.breakpoints, g.breakpoints])),
            ((atoms,), [0.3, 1.0 / 7.0]),
            ((dens,), np.concatenate([[0.55], rho.breakpoints])),
            ((f, atoms, dens), np.concatenate([f.breakpoints, [0.3, 1.0 / 7.0, 0.55], rho.breakpoints])),
        ]
        for objects, points in cases:
            gc = GridContext(ctx8, *objects, grid_cells=32)
            assert gc.nodes.tolist() == np.union1d(lin, points).tolist()
            assert gc.size == gc.nodes.size

    @pytest.mark.parametrize("cells", [0, -3])
    def test_refuses_empty_grid(self, ctx8, cells):
        with pytest.raises(DomainError, match="grid_cells must be >= 1"):
            GridContext(ctx8, grid_cells=cells)


class TestIntervalGeometry:
    def test_stored_intervals(self, ctx8):
        f = PLFunction(np.array([0.0, 0.3141, 1.0]), np.array([0.0, 1.0, 0.0]))
        gc = GridContext(ctx8, f, grid_cells=100)
        ref = ref_interval_geometry(gc.nodes, *ctx8.interval_bounds)
        got = (gc.starts, gc.ends, gc._ka, gc._ta, gc._kb, gc._tb)
        for a, b in zip(got, ref):
            assert a.tolist() == b.tolist()

    def test_cover_beyond_n_eff(self):
        # level 10 of i=1, levels=12 holds indices 1023..2046, past n_eff = 1074
        ctx = DNormContext(build_leveled(1, levels=12))
        idx = np.array(ctx.base.level_indices(10))
        assert idx.max() > ctx.n_eff
        lo, hi = ctx.base.clamped_bounds
        lo, hi = lo[idx - 1], hi[idx - 1]
        x = random_pl(np.random.default_rng(5))
        gc = GridContext(ctx, x, grid_cells=512)
        for a, b in zip(gc.interval_geometry(lo, hi), ref_interval_geometry(gc.nodes, lo, hi)):
            assert a.tolist() == b.tolist()


def test_atom_coeffs_match_the_loop(ctx8):
    # atoms sharing cells and nodes, and at both ends: added in the loop's order
    m = Measure(((0.0, 1.5), (0.3, 2.0), (0.301, -1.0), (0.3125, 0.7), (1.0, -0.25)))
    gc = GridContext(ctx8, grid_cells=32)
    g, ref = gc.nodes, np.zeros(gc.size)
    for t, w in m.atoms:
        k = int(np.clip(np.searchsorted(g, t, side="right") - 1, 0, g.size - 2))
        th = (t - g[k]) / (g[k + 1] - g[k])
        ref[k] += w * (1.0 - th)
        ref[k + 1] += w * th
    assert gc.functional_coeffs(m).tolist() == ref.tolist()

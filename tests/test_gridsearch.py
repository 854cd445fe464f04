import numpy as np
import pytest
from hypothesis import given, settings

from banachlab import _kernels
from banachlab.core_model import Measure, PLFunction, pl_eval
from banachlab.d_norm import DNormContext
from banachlab.errors import DomainError
from banachlab.gridsearch import GridContext
from banachlab.neighborhood_base import build_leveled

from conftest import pl_densities, random_pl


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
        assert "stored_geometry" not in vars(gc)  # built on first use only
        gc.seminorms(gc.sample_function(f))
        assert "stored_geometry" in vars(gc)
        ref = ref_interval_geometry(gc.nodes, *ctx8.interval_bounds)
        for a, b in zip(gc.stored_geometry, ref):
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
        got = _kernels.interval_geometry(gc.nodes, lo, hi)
        for a, b in zip(got, ref_interval_geometry(gc.nodes, lo, hi)):
            assert a.tolist() == b.tolist()


def ref_seminorms(gc, v2d):
    """The body seminorms ran before it shared _kernels.sup_abs_rows, with its
    _endpoint_values blend."""
    starts, ends, ka, ta, kb, tb = ref_interval_geometry(gc.nodes, *gc.ctx.interval_bounds)
    interior = _kernels.range_abs_max(v2d, _kernels.plan(gc.size, (starts, ends), v2d.shape[0]))
    fa = np.abs(v2d[:, ka] * (1.0 - ta) + v2d[:, ka + 1] * ta)
    fb = np.abs(v2d[:, kb] * (1.0 - tb) + v2d[:, kb + 1] * tb)
    return np.maximum(interior, np.maximum(fa, fb))


@pytest.mark.parametrize("cells", [1, 64, 300, 512])
def test_seminorms_match_the_old_blend(ctx8, cells):
    rng = np.random.default_rng(cells)
    for _ in range(5):
        gc = GridContext(ctx8, random_pl(rng), grid_cells=cells)
        v2d = rng.standard_normal((6, gc.size))
        v2d[0] = gc.sample_function(random_pl(rng))
        got, ref = gc.seminorms(v2d), ref_seminorms(gc, v2d)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_every_block_table_is_built_in_the_grid_workspace(ctx8, monkeypatch):
    # seminorms, enclosures and rescale_to_ball reuse one plan and its one
    # table, and give the bits of a plan built afresh
    gc = GridContext(ctx8, random_pl(np.random.default_rng(7)), grid_cells=512)
    rows = np.random.default_rng(8).standard_normal((130, gc.size))
    assert "plan" not in vars(gc)  # built on first use only
    seen = []
    traced = _kernels.range_abs_max
    monkeypatch.setattr(_kernels, "range_abs_max",
                        lambda v, plan: seen.append((v.shape[0], plan)) or traced(v, plan))
    got = gc.seminorms(rows)
    gc.enclosures(rows[:5])
    gc.rescale_to_ball(rows[:1])
    block = gc.plan.rows
    assert [n for n, _ in seen] == [block] * (130 // block) + [130 % block] * (130 % block > 0) + [5, 1]
    assert all(plan is gc.plan for _, plan in seen)
    monkeypatch.undo()
    fresh = _kernels.plan(gc.size, gc.stored_geometry)
    assert got.tobytes() == _kernels.sup_abs_rows(rows, fresh).tobytes()


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


def ref_random_bumps(gc, rng, count):
    """The per-row loop random_bumps ran before it shared hats."""
    out = np.zeros((count, gc.nodes.size))
    centers = rng.uniform(0.02, 0.98, count)
    widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.2), count))
    signs = rng.choice([-1.0, 1.0], count)
    amps = rng.uniform(0.2, 1.0, count)
    for i in range(count):
        out[i] = signs[i] * amps[i] * np.clip(
            1.0 - np.abs(gc.nodes - centers[i]) / widths[i], 0.0, None
        )
    return out


@pytest.mark.parametrize("count", [0, 1, 7, 64])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_random_bumps_match_the_loop(ctx8, count, seed):
    gc = GridContext(ctx8, random_pl(np.random.default_rng(seed)), grid_cells=100)
    got = gc.random_bumps(np.random.default_rng(seed), count)
    ref = ref_random_bumps(gc, np.random.default_rng(seed), count)
    assert got.shape == ref.shape and got.tolist() == ref.tolist()


def ref_density_coeffs(gc, rho):
    """The density path functional_coeffs ran before it shared _endpoint_data:
    all three Simpson points of a piece go to the piece's own cell."""
    g = gc.nodes
    c = np.zeros(g.size)
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


@settings(max_examples=40, deadline=None)
@given(rho=pl_densities())
def test_density_coeffs_match_the_piece_cells(ctx8, rho):
    # pl_densities puts some breakpoints on the k/64 nodes, where a piece ends
    for gc in (GridContext(ctx8, grid_cells=64), GridContext(ctx8, rho, grid_cells=64)):
        got = gc.functional_coeffs(Measure(density=rho))
        assert got.tolist() == ref_density_coeffs(gc, rho).tolist()


def ref_random_smooth(nodes, ys, coarse):
    """random_smooth's body before it went vectorised: one np.interp per row."""
    xs = np.linspace(0.0, 1.0, coarse + 1)
    out = np.empty((ys.shape[0], nodes.size))
    for i in range(ys.shape[0]):
        out[i] = np.interp(nodes, xs, ys[i])
    return out


class ScaledNormals:
    """A generator whose normal draws come scaled, up to 1e±300."""

    def __init__(self, seed, scale):
        self.rng, self.scale = np.random.default_rng(seed), scale

    def standard_normal(self, size):
        return self.scale * self.rng.standard_normal(size)


@pytest.mark.parametrize("coarse", [1, 5, 16, 32])
def test_random_smooth_matches_the_interp_loop(ctx8, coarse):
    # grids of 2 to 1025 uniform nodes refined by a few random points, some
    # nodes on the coarse grid and some off it, and draws at scales 1e±300
    rng = np.random.default_rng(coarse)
    for trial in range(100):
        gc = GridContext(ctx8, random_pl(rng, int(rng.integers(0, 5))),
                         grid_cells=int(rng.integers(1, 1025)))
        count = int(rng.integers(1, 9))
        scale = 10.0 ** float(rng.choice([-300, -1, 0, 300]))
        got = gc.random_smooth(ScaledNormals(trial, scale), count, coarse)
        ys = ScaledNormals(trial, scale).standard_normal((count, coarse + 1))
        assert got.tobytes() == ref_random_smooth(gc.nodes, ys, coarse).tobytes()
    # the generator's own draws, in the order the loop took them
    got = gc.random_smooth(np.random.default_rng(9), 64, coarse)
    ys = np.random.default_rng(9).standard_normal((64, coarse + 1))
    assert got.tobytes() == ref_random_smooth(gc.nodes, ys, coarse).tobytes()

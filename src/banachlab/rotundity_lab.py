"""Quantitative rotundity and octahedrality experiments.

The midpoint-rotundity certificate packages the oscillation argument: a
cover by intervals shorter than ε over the Lipschitz bound of x turns the
seminorm premise ‖x±y‖_m ≤ ‖x‖_m + ε into the uniform conclusion
‖y‖_∞ ≤ 2ε, for every y whatsoever.  The adversarial scan hunts for
counterexamples; the remaining operations are seeded searches that report
what they achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core_model import PLFunction, lin_comb, pl_eval
from .d_norm import DNormContext, d_norm, seminorms_all
from .errors import DomainError, PremiseError, WitnessNotFoundError
from .gridsearch import GridContext, grid_nodes, hats

#: scan samples built and screened at once: on a grid of a few hundred nodes
#: a block stays under the 4 MiB from which numpy asks for huge pages, which
#: made the scan's peak memory jump ~4 MB from run to run
SCAN_BLOCK_ROWS = 256


def _require_unit(ctx: DNormContext, x: PLFunction, tol: float = 0.05):
    enc = d_norm(ctx, x)
    gap = max(enc.lo - 1.0, 1.0 - enc.hi, 0.0)
    if gap > tol:
        raise DomainError(f"norm enclosure [{enc.lo}, {enc.hi}] is not within {tol} of 1")
    return enc


@dataclass(frozen=True, eq=False)
class MLURCertificate:
    """Premise-to-conclusion certificate at a unit-sphere point x.

    For every y: if ‖x±y‖_m ≤ ‖x‖_m + ε on the whole cover, then
    ‖y‖_∞ ≤ 2ε.  Self-contained: carries the cover intervals and the
    seminorms of x over them.
    """

    x: PLFunction
    epsilon: float
    delta: float
    cover: tuple[int, ...]
    cover_bounds: tuple[tuple[float, float], ...]
    x_seminorms: tuple[float, ...]
    lipschitz: float
    conclusion_bound: float

    def premise_margin(self, y: PLFunction) -> float:
        """min over the cover of (‖x‖_m + ε) − max(‖x+y‖_m, ‖x−y‖_m);
        the premise holds iff this is ≥ 0."""
        lo = np.array([b[0] for b in self.cover_bounds])
        hi = np.array([b[1] for b in self.cover_bounds])
        plus = lin_comb(1.0, self.x, 1.0, y)
        minus = lin_comb(1.0, self.x, -1.0, y)
        sp = _kernels.sup_abs_many(plus.breakpoints, plus.values, lo, hi)
        sm = _kernels.sup_abs_many(minus.breakpoints, minus.values, lo, hi)
        allowed = np.array(self.x_seminorms) + self.epsilon
        return float(np.min(allowed - np.maximum(sp, sm)))


def mlur_certificate(ctx: DNormContext, x: PLFunction, epsilon: float) -> MLURCertificate:
    """Build the oscillation certificate for a unit-sphere x at level ε."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    _require_unit(ctx, x)
    lip = x.lipschitz_bound()
    # zero oscillation: any cover works, take the coarsest stored level
    delta = 1.0 if lip == 0.0 else epsilon / max(lip, 1.0)
    cover = ctx.base.cover_for(delta)
    lo, hi = ctx.base.clamped_bounds
    bounds = tuple((float(lo[n - 1]), float(hi[n - 1])) for n in cover)
    sems = _kernels.sup_abs_many(
        x.breakpoints,
        x.values,
        np.array([b[0] for b in bounds]),
        np.array([b[1] for b in bounds]),
    )
    return MLURCertificate(
        x=x,
        epsilon=epsilon,
        delta=delta,
        cover=tuple(cover),
        cover_bounds=bounds,
        x_seminorms=tuple(float(s) for s in sems),
        lipschitz=lip,
        conclusion_bound=2.0 * epsilon,
    )


@dataclass(frozen=True)
class CertificateApplication:
    premise: bool
    conclusion: bool

    @property
    def implication_holds(self) -> bool:
        return (not self.premise) or self.conclusion


def apply_certificate(cert: MLURCertificate, y: PLFunction) -> CertificateApplication:
    """Exact premise and conclusion flags for one perturbation y."""
    premise = cert.premise_margin(y) >= 0.0
    conclusion = y.sup_abs() <= cert.conclusion_bound
    return CertificateApplication(premise, conclusion)


def mlur_adversarial_search(
    ctx: DNormContext,
    cert: MLURCertificate,
    samples: int,
    seed: int,
    grid_cells: int = 512,
) -> dict:
    """Hunt for a premise-true, conclusion-false perturbation.

    Candidates live on a shared grid refining x's breakpoints, so premise
    seminorms are exact.  Candidates already satisfying the conclusion are
    skipped; the rest are refuted fast at the cover interval holding their
    max, with a full exact scan for anything that survives.
    """
    gc = GridContext(ctx, cert.x, grid_cells=grid_cells)
    nodes = gc.nodes
    vx = gc.sample_function(cert.x)
    lo = np.array([b[0] for b in cert.cover_bounds])
    hi = np.array([b[1] for b in cert.cover_bounds])
    # cover indices can pass n_eff, so the geometry comes from the bounds
    starts, ends, ka, ta, kb, tb = gc.interval_geometry(lo, hi)
    allowed = np.array(cert.x_seminorms) + cert.epsilon
    suspect = _suspect_intervals(starts, ends, nodes.size)
    width = int(np.max(ends - starts))
    offsets = np.arange(width)

    rng = np.random.default_rng(seed)
    eps2 = cert.conclusion_bound
    chunk = 1024  # samples drawn at once; this fixes the stream of samples
    scanned = 0
    counterexamples = 0
    survivors_checked = 0
    while scanned < samples:
        m = min(chunk, samples - scanned)
        scanned += m
        for vy in _adversarial_blocks(rng, nodes, m, eps2):
            sup_y = np.max(np.abs(vy), axis=1)
            cands = np.nonzero(sup_y > eps2)[0]
            if cands.size == 0:
                continue
            argmax_nodes = np.argmax(np.abs(vy[cands]), axis=1)
            alive = cands
            nodes_alive = argmax_nodes
            for which in (0, 1):
                if alive.size == 0:
                    break
                j = suspect[nodes_alive, which]
                idx = np.minimum(starts[j][:, None] + offsets[None, :], nodes.size - 1)
                valid = idx < ends[j][:, None]
                vx_g = vx[idx]
                vy_g = vy[alive[:, None], idx]
                sup_pm = np.zeros(alive.size)
                for sign in (1.0, -1.0):
                    v = np.abs(vx_g + sign * vy_g)
                    v[~valid] = 0.0
                    interior = v.max(axis=1)
                    ea = np.abs(
                        (vx[ka[j]] + sign * vy[alive, ka[j]]) * (1.0 - ta[j])
                        + (vx[ka[j] + 1] + sign * vy[alive, ka[j] + 1]) * ta[j]
                    )
                    eb = np.abs(
                        (vx[kb[j]] + sign * vy[alive, kb[j]]) * (1.0 - tb[j])
                        + (vx[kb[j] + 1] + sign * vy[alive, kb[j] + 1]) * tb[j]
                    )
                    sup_pm = np.maximum(sup_pm, np.maximum(interior, np.maximum(ea, eb)))
                keep = sup_pm <= allowed[j]  # premise not yet refuted there
                alive = alive[keep]
                nodes_alive = nodes_alive[keep]
            for row in alive:
                survivors_checked += 1
                y_pl = PLFunction(nodes, vy[row])
                app = apply_certificate(cert, y_pl)
                if app.premise and not app.conclusion:
                    counterexamples += 1
    return {
        "scanned": scanned,
        "counterexamples": counterexamples,
        "survivors_full_checked": survivors_checked,
    }


def _suspect_intervals(starts: np.ndarray, ends: np.ndarray, size: int) -> np.ndarray:
    """Per node, the first cover interval holding it, then the next if that
    holds it too, else the first again.  Interval j holds nodes
    starts[j]:ends[j]; both rise with j, so node k's intervals are first..last."""
    k = np.arange(size)
    first = np.searchsorted(ends, k, side="right")
    last = np.searchsorted(starts, k, side="right") - 1
    return np.stack([first, np.minimum(first + 1, last)], axis=1)


def _adversarial_blocks(rng, nodes, m, eps2):
    """Mixture of near-threshold bumps, plateaus and noise, sized around 2ε:
    m samples drawn at once, their rows yielded SCAN_BLOCK_ROWS at a time."""
    kind = rng.integers(0, 4, m)
    centers = rng.uniform(0.0, 1.0, m)
    widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.3), m))
    amps = eps2 * rng.uniform(0.8, 1.6, m)
    signs = rng.choice([-1.0, 1.0], m)
    noisy = kind == 2
    noise = 0.2 * eps2 * rng.standard_normal((int(noisy.sum()), nodes.size))
    smooth = kind == 3
    wave = np.empty((0, nodes.size))
    if np.any(smooth):
        xs = np.linspace(0.0, 1.0, 33)
        coarse = rng.standard_normal((int(smooth.sum()), 33))
        # linear interpolation of all rows at once; xs[k] = k/32 exactly, so
        # the coarse cell of a node is floor(32·t)
        pos = np.minimum((32.0 * nodes).astype(np.int64), 31)
        th = (nodes - xs[pos]) / (xs[pos + 1] - xs[pos])
        wave = amps[smooth][:, None] * (
            coarse[:, pos] * (1.0 - th)[None, :] + coarse[:, pos + 1] * th[None, :]
        )
    sa = (signs * amps)[:, None]
    # the row of a noisy (smooth) sample in noise (wave)
    noise_row, wave_row = np.cumsum(noisy) - 1, np.cumsum(smooth) - 1
    for a in range(0, m, SCAN_BLOCK_ROWS):
        blk = slice(a, a + SCAN_BLOCK_ROWS)
        bump = hats(nodes, centers[blk], widths[blk])
        out = sa[blk] * bump
        plateau = kind[blk] == 1
        out[plateau] = sa[blk][plateau] * np.clip(2.0 * bump[plateau], 0.0, 1.0)
        nz, sm = noisy[blk], smooth[blk]
        out[nz] += noise[noise_row[blk][nz]]
        out[sm] = wave[wave_row[blk][sm]]
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, -2]
        yield out


def mlur_modulus(
    ctx: DNormContext,
    x: PLFunction,
    epsilon: float,
    budget: int,
    seed: int,
    norm: str = "d",
    grid_cells: int = 512,
) -> float:
    """Search upper bound on inf{max(‖x+y‖, ‖x−y‖) − 1 : ‖y‖ = ε}.

    Candidates rescale radially onto the sphere of radius ε; the reported
    number is the best objective found, an upper bound on the modulus.
    With norm="sup" the same search runs in the max-norm as a control,
    where flat perturbations away from maximizers drive it to 0.
    """
    if epsilon < 0.0:
        raise DomainError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return 0.0
    gc = GridContext(ctx, x, grid_cells=grid_cells)
    vx = gc.sample_function(x)

    def norms(v2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if norm == "d":
            lo, hi = gc.enclosures(v2d)
            return lo, hi
        sup = np.max(np.abs(np.atleast_2d(v2d)), axis=1)
        return sup, sup

    rng = np.random.default_rng(seed)
    best = np.inf
    evals = 0
    chunk = 64
    flats = _flat_bumps(gc.nodes, vx)
    while evals < budget:
        m = min(chunk, budget - evals)
        cands = np.vstack(
            [gc.random_bumps(rng, m // 2 + 1), gc.random_smooth(rng, m // 2 + 1)]
        )[:m]
        if flats is not None:
            cands = np.vstack([flats, cands])
            flats = None
        lo, _ = norms(cands)
        keep = lo > 1e-12
        cands = cands[keep] * (epsilon / lo[keep])[:, None]
        evals += m
        # candidates sit on ‖y‖_lo = ε (feasible side); the objective takes
        # the certified hi side
        _, hp = norms(vx[None, :] + cands)
        _, hm = norms(vx[None, :] - cands)
        evals += 2 * cands.shape[0]
        vals = np.maximum(hp, hm) - 1.0
        if vals.size:
            best = min(best, float(np.min(vals)))
    return float(max(best, 0.0))


def _flat_bumps(nodes: np.ndarray, vx: np.ndarray) -> np.ndarray:
    """Deterministic bumps parked where |x| is smallest.

    In the max-norm these perturbations cost nothing as long as they stay
    under the global maximum, which is exactly the mechanism that defeats
    midpoint rotundity there.
    """
    order = np.argsort(np.abs(vx))[:4]
    widths = np.array([2.0 ** -3, 2.0 ** -5, 2.0 ** -7])
    return hats(nodes, np.repeat(nodes[order], widths.size), np.tile(widths, order.size))


def seminorm_rigidity_check(
    ctx: DNormContext, u: PLFunction, v: PLFunction, tol: float
) -> float:
    """max_t ||u(t)| − |v(t)|| under the hypothesis of matching seminorms.

    Requires |‖u‖_n − ‖v‖_n| ≤ tol on every stored index; the return value
    is then bounded by 2·osc + tol ≤ 4ε + tol at the stored resolution ε.
    """
    su = seminorms_all(ctx, u)
    sv = seminorms_all(ctx, v)
    bad = np.nonzero(np.abs(su - sv) > tol)[0]
    if bad.size:
        raise PremiseError(
            f"seminorms differ by more than {tol} at indices {tuple(int(b) + 1 for b in bad[:8])}",
            offending=tuple(int(b) + 1 for b in bad),
        )
    grid = np.union1d(u.breakpoints, v.breakpoints)
    du = np.abs(pl_eval(u.breakpoints, u.values, grid))
    dv = np.abs(pl_eval(v.breakpoints, v.values, grid))
    # | |u|-|v| | is PL on the merged grid refined by zero crossings; its
    # max over [0,1] is attained at a merged breakpoint or a crossing,
    # where one of the two terms vanishes and the other is linear, so the
    # breakpoint scan plus crossing scan below is exact
    candidates = [float(np.max(np.abs(du - dv)))]
    for f, g in ((u, v), (v, u)):
        for k in range(f.breakpoints.size - 1):
            y0, y1 = f.values[k], f.values[k + 1]
            if y0 * y1 < 0.0:
                t = f.breakpoints[k] + (f.breakpoints[k + 1] - f.breakpoints[k]) * y0 / (y0 - y1)
                candidates.append(abs(abs(f.eval(float(t))) - abs(g.eval(float(t)))))
    return float(max(candidates))


def modulated_sawtooth(x: PLFunction, scale: float, grid_cells: int = 2048) -> PLFunction:
    """x modulated by a fast ±1 zigzag, sampled on a uniform grid.

    On every interval longer than a few teeth, the result attains both
    +|x| and −|x| near any point, which is what drives ‖x±y‖ toward
    ‖x‖_n + ‖y‖_n on every seminorm simultaneously.
    """
    nodes = grid_nodes(grid_cells, x)
    saw = _zigzag(nodes, scale)
    vals = np.asarray(pl_eval(x.breakpoints, x.values, nodes)) * saw
    return PLFunction(nodes, vals)


def _zigzag(t: np.ndarray, scale: float) -> np.ndarray:
    phase = np.mod(t / scale, 2.0)
    return np.where(phase < 1.0, 2.0 * phase - 1.0, 3.0 - 2.0 * phase)


def local_octahedral_witness(
    ctx: DNormContext,
    x: PLFunction,
    epsilon: float,
    budget: int,
    seed: int,
) -> PLFunction:
    """Find y on the sphere with both ‖x ± y‖ certified above 2 − ε.

    The seed is x modulated by a zigzag finer than the deepest stored
    interval: both signs of x are matched near every seminorm maximizer,
    so each ‖x±y‖_n approaches 2‖x‖_n.  Random refinement follows.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    xe = _require_unit(ctx, x)
    lo, hi = ctx.interval_bounds
    min_len = float(np.min(hi - lo))
    rng = np.random.default_rng(seed)
    best_y = None
    best_val = -np.inf
    evals = 0
    for scale_div in (4.0, 8.0, 16.0):
        scale = min_len / scale_div
        cells = min(int(8.0 / scale), 1 << 15)
        y = modulated_sawtooth(x, scale, grid_cells=cells)
        ye = d_norm(ctx, y)
        if ye.hi > 0:
            y = y.scaled(1.0 / ye.hi)
        val = min(
            d_norm(ctx, lin_comb(1.0, x, 1.0, y)).lo,
            d_norm(ctx, lin_comb(1.0, x, -1.0, y)).lo,
        )
        evals += 3
        if val > best_val:
            best_val, best_y = val, y
        if evals >= budget:
            break
    if best_val > 2.0 - epsilon:
        return best_y
    raise WitnessNotFoundError(
        f"best achieved min(‖x±y‖) = {best_val} <= {2.0 - epsilon}",
        diagnostics={"best": best_val, "evaluations": evals},
    )


def non_octahedral_gap(
    ctx: DNormContext,
    u: PLFunction,
    v: PLFunction,
    budget: int,
    seed: int,
) -> dict:
    """Empirical sup_y min(‖u+y‖, ‖v+y‖) over the unit ball.

    For nonnegative distinct u, v the matching-seminorm rigidity forbids
    the sup from reaching 2; the report records the best value found and
    the seminorm profile gap, never a refutation certificate.
    """
    if np.any(u.values < 0.0) or np.any(v.values < 0.0):
        raise DomainError("u and v must be nonnegative")
    if (
        u.breakpoints.shape == v.breakpoints.shape
        and np.array_equal(u.breakpoints, v.breakpoints)
        and np.array_equal(u.values, v.values)
    ):
        raise DomainError("u and v must be distinct")
    _require_unit(ctx, u)
    _require_unit(ctx, v)
    su = seminorms_all(ctx, u)
    sv = seminorms_all(ctx, v)
    profile_gap = float(np.max(np.abs(su - sv)))

    gc = GridContext(ctx, u, v, grid_cells=1024)
    vu = gc.sample_function(u)
    vv = gc.sample_function(v)
    rng = np.random.default_rng(seed)
    seeds = []
    lo_all, hi_all = ctx.interval_bounds
    scale = float(np.min(hi_all - lo_all)) / 4.0
    for f in (u, v, lin_comb(0.5, u, 0.5, v)):
        y = modulated_sawtooth(f, scale, grid_cells=min(int(8.0 / scale), 1 << 14))
        seeds.append(gc.sample_function(y))
    best = -np.inf
    evals = 0
    chunk = 32
    first = True
    while evals < budget:
        m = min(chunk, max(1, budget - evals))
        cands = gc.random_smooth(rng, m)
        if first:
            cands = np.vstack([np.asarray(seeds), cands])
            first = False
        cands = gc.rescale_to_ball(cands)
        lo_p, _ = gc.enclosures(vu[None, :] + cands)
        lo_m, _ = gc.enclosures(vv[None, :] + cands)
        evals += 3 * cands.shape[0]
        vals = np.minimum(lo_p, lo_m)
        k = int(np.argmax(vals))
        if float(vals[k]) > best:
            best = float(vals[k])
    return {
        "estimate": best,
        "seminorm_profile_gap": profile_gap,
        "evaluations": evals,
    }

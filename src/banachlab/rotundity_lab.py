"""Quantitative rotundity and octahedrality experiments.

The midpoint-rotundity certificate packages the oscillation argument: a
cover by intervals shorter than ε over the Lipschitz bound of x turns the
seminorm premise ‖x±y‖_m ≤ ‖x‖_m + ε into the uniform conclusion
‖y‖_∞ ≤ 2ε, for every y whatsoever.  The adversarial scan hunts for
counterexamples, and refutes each sample y with sup|y| > 2ε at the node k
where |y| peaks, against the first cover interval m whose closure holds k.
As |y(k)| > 2ε ≥ verify() ≥ ‖x‖_m + ε − |x(k)|, no sample survives that
node on a verified certificate.  The remaining operations are seeded
searches that report what they achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core_model import PLFunction, lin_comb, pl_eval
from .d_norm import DNormContext, d_norm, seminorms_all, sphere_norm
from .errors import CertificateFailure, DomainError, PremiseError, WitnessNotFoundError
from .gridsearch import GridContext, grid_nodes, hat_at, hats

#: scan samples built and refuted at once: on a grid of a few hundred nodes
#: a block stays under the 4 MiB from which numpy asks for huge pages, which
#: made the scan's peak memory jump ~4 MB from run to run
SCAN_BLOCK_ROWS = 256


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

    @cached_property
    def cover_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per cover interval m, as arrays: its ends, and the premise bound ‖x‖_m + ε."""
        lo, hi = np.array(self.cover_bounds, dtype=np.float64).reshape(-1, 2).T.copy()
        return lo, hi, np.array(self.x_seminorms) + self.epsilon

    def premise_margin(self, y: PLFunction) -> float:
        """min over the cover of (‖x‖_m + ε) − max(‖x+y‖_m, ‖x−y‖_m);
        the premise holds iff this is ≥ 0."""
        lo, hi, allowed = self.cover_arrays
        plus = lin_comb(1.0, self.x, 1.0, y)
        minus = lin_comb(1.0, self.x, -1.0, y)
        sp = _kernels.sup_abs_many(plus.breakpoints, plus.values, lo, hi)
        sm = _kernels.sup_abs_many(minus.breakpoints, minus.values, lo, hi)
        return float(np.min(allowed - np.maximum(sp, sm)))

    def verify(self) -> float:
        """Re-derive the conclusion from the premise by exact arithmetic.

        On a cover interval m the premise gives |x(t)| + |y(t)| ≤ ‖x‖_m + ε,
        so ‖y‖_∞ ≤ ε + max_m (‖x‖_m − min_m |x|) once the cover reaches all
        of [0, 1].  Returns that bound; raises CertificateFailure if the cover
        leaves a gap or the bound exceeds conclusion_bound.
        """
        lo, hi, _ = self.cover_arrays
        order = np.argsort(lo, kind="stable")
        reach = np.maximum.accumulate(hi[order])
        if lo[order[0]] > 0.0 or reach[-1] < 1.0 or np.any(lo[order[1:]] > reach[:-1]):
            raise CertificateFailure("the cover intervals leave a gap in [0, 1]",
                                     inequality="cover of [0, 1]")
        bound = self.epsilon + float(np.max(np.array(self.x_seminorms) - _kernels.min_abs_many(
            self.x.breakpoints, self.x.values, lo, hi)))
        if not bound <= self.conclusion_bound:
            raise CertificateFailure(f"conclusion {bound} exceeds {self.conclusion_bound}",
                                     inequality="MLUR conclusion bound")
        return bound


def mlur_certificate(ctx: DNormContext, x: PLFunction, epsilon: float) -> MLURCertificate:
    """Build the oscillation certificate for a unit-sphere x at level ε,
    checked by `MLURCertificate.verify`."""
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError("epsilon must be finite and positive")
    sphere_norm(ctx, x)
    lip = x.lipschitz_bound()
    # zero oscillation: any cover works, take the coarsest stored level
    delta = 1.0 if lip == 0.0 else epsilon / max(lip, 1.0)
    cover = ctx.base.cover_for(delta)
    lo, hi = (b[np.asarray(cover) - 1] for b in ctx.base.clamped_bounds)
    sems = _kernels.sup_abs_many(x.breakpoints, x.values, lo, hi)
    cert = MLURCertificate(
        x=x,
        epsilon=epsilon,
        delta=delta,
        cover=tuple(cover),
        cover_bounds=tuple(zip(lo.tolist(), hi.tolist())),
        x_seminorms=tuple(sems.tolist()),
        lipschitz=lip,
        conclusion_bound=2.0 * epsilon,
    )
    cert.verify()
    return cert


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
    seminorms are exact.  Samples come from `_adversarial_blocks`: noise and
    wave samples as full node rows, bump and plateau samples (half the draw)
    as hat parameters.  A sample with sup|y| ≤ 2ε meets the conclusion.  Any
    other is refuted at the node k where |y| peaks: k lies in the closure of
    cover interval m, the first one listed that holds it, so the premise
    asks max(|x(k) + y(k)|, |x(k) − y(k)|) ≤ ‖x‖_m + ε, with the bits the
    exact path gets there.  A certificate that passes `verify` leaves no
    survivor, as |y(k)| > 2ε ≥ verify() ≥ ‖x‖_m + ε − |x(k)|; a survivor of
    a forged bound or cover gets its full row and an exact check.
    """
    nodes = grid_nodes(grid_cells, cert.x)
    vx = cert.x.eval(nodes)
    lo, hi, allowed = cert.cover_arrays
    # the premise bounds no node outside the cover: +inf sends its samples
    # to the exact check
    limit = np.append(allowed, np.inf)[_holders(nodes, lo, hi)]

    rng = np.random.default_rng(seed)
    eps2 = cert.conclusion_bound
    chunk = 1024  # samples drawn at once; this fixes the stream of samples
    scanned = 0
    counterexamples = 0
    survivors_checked = 0
    while scanned < samples:
        m = min(chunk, samples - scanned)
        scanned += m
        for rows in _adversarial_blocks(rng, nodes, m, eps2):
            cands, k, y = rows.peaks(eps2)
            keep = np.maximum(np.abs(vx[k] + y), np.abs(vx[k] - y)) <= limit[k]
            for row in cands[keep]:
                survivors_checked += 1
                app = apply_certificate(cert, PLFunction(nodes, rows.row(row)))
                if app.premise and not app.conclusion:
                    counterexamples += 1
    return {
        "scanned": scanned,
        "counterexamples": counterexamples,
        "survivors_full_checked": survivors_checked,
    }


def _holders(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per node, the first listed cover interval whose closure holds it, in
    any cover order; lo.size for a node that none holds."""
    held = (lo <= nodes[:, None]) & (nodes[:, None] <= hi)
    return np.where(held.any(axis=1), np.argmax(held, axis=1), lo.size)


def _adversarial_blocks(rng, nodes, m, eps2):
    """Mixture of near-threshold bumps, plateaus and noise, sized around 2ε:
    m samples drawn at once, yielded as `_ScanRows` of SCAN_BLOCK_ROWS each.
    Only noise and wave samples get full rows, built one block at a time."""
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
        # linear interpolation of all rows at once, in place
        pos, th = _kernels.locate(xs, nodes)
        wave = _kernels.blend(coarse[:, pos], coarse[:, pos + 1], th)
        wave *= amps[smooth][:, None]
    sa = signs * amps
    # noisy (smooth) samples before each sample: their rows in noise (wave)
    noise_row = np.concatenate([[0], np.cumsum(noisy)])
    wave_row = np.concatenate([[0], np.cumsum(smooth)])
    # the node each column reads: the end columns repeat their neighbours
    # (on a two-node grid both read node 1)
    col_nodes = nodes[np.maximum(np.minimum(np.arange(nodes.size), nodes.size - 2), 1)]
    for a in range(0, m, SCAN_BLOCK_ROWS):
        b = min(a + SCAN_BLOCK_ROWS, m)
        nz = noisy[a:b]
        k = noise_row[b] - noise_row[a]
        out = np.empty((k + wave_row[b] - wave_row[a], nodes.size))
        np.multiply(sa[a:b][nz][:, None], hats(nodes, centers[a:b][nz], widths[a:b][nz]), out=out[:k])
        out[:k] += noise[noise_row[a]:noise_row[b]]
        out[k:] = wave[wave_row[a]:wave_row[b]]
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, -2]
        yield _ScanRows(col_nodes, kind[a:b], sa[a:b], centers[a:b], widths[a:b], out)


class _ScanRows:
    """One block of scan samples.  Noise and wave samples are stored as full
    rows; a bump or plateau sample is kept as its hat and evaluated only at
    the columns asked for, with `hat_at`, the expression of `hats`, so every
    value has the bits of its full row."""

    def __init__(self, col_nodes, kind, sa, centers, widths, full):
        self.col_nodes = col_nodes
        self.sa, self.centers, self.widths = sa, centers, widths
        self.plateau = kind == 1
        self.lazy = kind <= 1
        # full holds the noise samples' rows, then the wave samples'
        noisy, smooth = kind == 2, kind == 3
        self.slot = np.where(noisy, np.cumsum(noisy), noisy.sum() + np.cumsum(smooth)) - 1
        self.full = full

    def _hat_values(self, rows, cols) -> np.ndarray:
        """Bump or plateau samples rows at columns cols, broadcast together."""
        h = hat_at(self.col_nodes[cols], self.centers[rows], self.widths[rows])
        return self.sa[rows] * np.where(self.plateau[rows], np.clip(2.0 * h, 0.0, 1.0), h)

    def row(self, r: int) -> np.ndarray:
        if self.lazy[r]:
            return self._hat_values(r, np.arange(self.col_nodes.size))
        return self.full[self.slot[r]]

    def peaks(self, eps2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Samples with sup|y| > eps2, a column where each one's |y| peaks,
        and y there.

        A noise or wave row peaks at its np.argmax.  A hat does not decrease
        in its node up to the centre, nor increase after it, and rounding
        keeps that order.  So a bump or plateau peaks at column `left`, the
        last one reading a node at or left of the centre, or at left+1."""
        col = np.empty(self.lazy.size, dtype=np.int64)
        y = np.empty(self.lazy.size)
        fr = np.nonzero(~self.lazy)[0]
        slot = self.slot[fr]
        col[fr] = np.argmax(np.abs(self.full), axis=1)[slot]
        y[fr] = self.full[slot, col[fr]]
        lz = np.nonzero(self.lazy)[0]
        left = np.clip(np.searchsorted(self.col_nodes, self.centers[lz], side="right") - 1,
                       0, self.col_nodes.size - 2)
        pair = self._hat_values(lz[:, None], np.stack([left, left + 1], axis=1))
        right = np.abs(pair[:, 1]) > np.abs(pair[:, 0])
        col[lz] = left + right
        y[lz] = np.where(right, pair[:, 1], pair[:, 0])
        cands = np.nonzero(np.abs(y) > eps2)[0]
        return cands, col[cands], y[cands]


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
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError("epsilon must be finite and nonnegative")
    if budget < 1:
        raise DomainError("budget must be >= 1")
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
    if not tol >= 0.0:  # nan compares false, and would pass every pair
        raise DomainError("tol must be >= 0")
    su = seminorms_all(ctx, u)
    sv = seminorms_all(ctx, v)
    bad = np.nonzero(np.abs(su - sv) > tol)[0]
    if bad.size:
        raise PremiseError(
            f"seminorms differ by more than {tol} at indices {tuple(int(b) + 1 for b in bad[:8])}",
            offending=tuple(int(b) + 1 for b in bad),
        )
    # | |u|-|v| | is PL on the merged grid refined by zero crossings; its
    # max over [0,1] is attained at a merged breakpoint or a crossing,
    # where one of the two terms vanishes and the other is linear, so
    # evaluating at those points is exact
    t = np.concatenate([np.union1d(u.breakpoints, v.breakpoints)]
                       + [_kernels.zero_crossings(f.breakpoints, f.values)[1] for f in (u, v)])
    return float(np.max(np.abs(np.abs(u.eval(t)) - np.abs(v.eval(t)))))


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
) -> PLFunction:
    """Find y on the sphere with both ‖x ± y‖ certified above 2 − ε.

    y is x modulated by a zigzag finer than the deepest stored interval:
    both signs of x are matched near every seminorm maximizer, so each
    ‖x±y‖_n approaches 2‖x‖_n.  Zigzags of 1/4, 1/8 and 1/16 of the
    shortest stored interval are tried in turn, 3 norm evaluations each,
    until the budget is spent; nothing is drawn at random.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError("epsilon must be finite and positive")
    sphere_norm(ctx, x)
    lo, hi = ctx.interval_bounds
    min_len = float(np.min(hi - lo))
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
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if np.any(u.values < 0.0) or np.any(v.values < 0.0):
        raise DomainError("u and v must be nonnegative")
    if (
        u.breakpoints.shape == v.breakpoints.shape
        and np.array_equal(u.breakpoints, v.breakpoints)
        and np.array_equal(u.values, v.values)
    ):
        raise DomainError("u and v must be distinct")
    sphere_norm(ctx, u)
    sphere_norm(ctx, v)
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

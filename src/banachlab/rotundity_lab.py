"""Quantitative rotundity and octahedrality experiments.

The midpoint-rotundity certificate packages the oscillation argument: a
cover by intervals shorter than ε over the Lipschitz bound of x turns the
seminorm premise ‖x±y‖_m ≤ ‖x‖_m + ε into the uniform conclusion
‖y‖_∞ ≤ 2ε, for every y whatsoever.  The adversarial scan hunts for
counterexamples, and refutes each sample y with sup|y| > 2ε at the node k
where |y| peaks, against the first cover interval m whose closure holds k.
As |y(k)| > 2ε ≥ verify() ≥ ‖x‖_m + ε − |x(k)|, no sample survives that
node on a verified certificate.  One draw thread per scan draws the samples
piece by piece, at most SCAN_QUEUE_PIECES pieces ahead, and the scan screens
each piece as it arrives; the samples are those of a one-thread draw, bit for
bit.  The remaining operations are seeded searches that report what they
achieve.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core_model import PLFunction, abs_argmax_many, build_flip, lin_comb, pl_eval
from .d_norm import RESCALE_SAFETY, DNormContext, d_norm, seminorms_all, sphere_norm
from .errors import CertificateFailure, DomainError, PremiseError, WitnessNotFoundError
from .gridsearch import GridContext, grid_nodes, hat_at, hats

#: noise rows drawn, and full scan rows built and refuted, at once: on a grid
#: of a few hundred nodes a piece stays far under the 4 MiB from which numpy
#: asks for huge pages, which made the scan's peak memory jump ~4 MB from run
#: to run
SCAN_PIECE_ROWS = 64

#: pieces the scan's draw thread may queue ahead of the screen
SCAN_QUEUE_PIECES = 4

#: largest half-width of a flip of the local octahedral witness
FLIP_HALF_WIDTH = 1e-9


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
    if not (np.isfinite(2.0 * epsilon) and epsilon > 0.0):  # 2ε is the conclusion bound
        raise DomainError("epsilon must be positive, with 2·epsilon finite")
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
    seminorms are exact.  Samples are drawn 1024 at a time by `_draw_chunk`,
    whose pieces come from one draw thread through a queue at most
    SCAN_QUEUE_PIECES long, and are screened as they arrive; they are those
    of a one-thread draw, bit for bit, and no draw thread outlives the call.
    `_adversarial_blocks` gives bump and plateau samples (half the draw) as
    hat parameters, as soon as a chunk's first piece lands, then noise
    samples as full node rows, SCAN_PIECE_ROWS at a time, then wave samples.
    A sample with sup|y| ≤ 2ε meets the conclusion.  Any other is refuted at
    the node k where |y| peaks: k lies in the closure of cover interval m,
    the first one listed that holds it, so the premise asks
    max(|x(k) + y(k)|, |x(k) − y(k)|) ≤ ‖x‖_m + ε, with the bits the exact
    path gets there.  A certificate that passes `verify` leaves no survivor,
    as |y(k)| > 2ε ≥ verify() ≥ ‖x‖_m + ε − |x(k)|; a survivor of a forged
    bound or cover gets its full row and an exact check.
    """
    nodes = grid_nodes(grid_cells, cert.x)
    eps2 = cert.conclusion_bound
    chunk = 1024  # samples drawn at once; this fixes the stream of samples
    sizes = [min(chunk, samples - a) for a in range(0, samples, chunk)]
    # only the draw thread touches the generator
    draw = _ChunkDraw(np.random.default_rng(seed), nodes.size, sizes, eps2) if sizes else None
    counterexamples = 0
    survivors_checked = 0
    try:
        vx = cert.x.eval(nodes)
        lo, hi, allowed = cert.cover_arrays
        # the premise bounds no node outside the cover: +inf sends its
        # samples to the exact check
        limit = np.append(allowed, np.inf)[_holders(nodes, lo, hi)]
        for rows in _adversarial_blocks(draw, nodes, len(sizes)):
            cands, k, y = rows.peaks(eps2)
            keep = np.maximum(np.abs(vx[k] + y), np.abs(vx[k] - y)) <= limit[k]
            for row in cands[keep]:
                survivors_checked += 1
                app = apply_certificate(cert, PLFunction(nodes, rows.row(row)))
                if app.premise and not app.conclusion:
                    counterexamples += 1
    finally:
        if draw is not None:
            draw.close()
    return {
        "scanned": sum(sizes),
        "counterexamples": counterexamples,
        "survivors_full_checked": survivors_checked,
    }


def _holders(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per node, the first listed cover interval whose closure holds it, in
    any cover order; lo.size for a node that none holds."""
    held = (lo <= nodes[:, None]) & (nodes[:, None] <= hi)
    return np.where(held.any(axis=1), np.argmax(held, axis=1), lo.size)


class _ChunkDraw(threading.Thread):
    """The pieces of `_draw_chunk` for chunks of the given sizes, in order,
    drawn on a thread of its own at most SCAN_QUEUE_PIECES pieces ahead of
    the caller, who takes them with next() and gets what the draw raised in
    their place.  close() stops and joins the thread."""

    def __init__(self, rng, n, sizes, eps2):
        super().__init__(daemon=True)
        # the caller is done with a piece when it takes the next one, and at
        # most SCAN_QUEUE_PIECES + 1 are drawn ahead of the one it reads:
        # SCAN_QUEUE_PIECES + 2 buffers are never overwritten unread.  They
        # come from the caller's heap, which keeps them from call to call; a
        # draw thread's heap gave them back, to fault them in again next call
        buffers = itertools.cycle(np.empty((SCAN_QUEUE_PIECES + 2, SCAN_PIECE_ROWS, n)))
        self._draw_args = (rng, n, sizes, eps2, buffers)
        self._queue = queue.Queue(SCAN_QUEUE_PIECES)
        self._closed = threading.Event()
        self.start()

    def run(self):
        rng, n, sizes, eps2, buffers = self._draw_args
        try:
            for m in sizes:
                for piece in _draw_chunk(rng, n, m, eps2, buffers):
                    if not self._put(piece):
                        return
        except BaseException as exc:  # raised in the caller by next()
            self._put(exc)

    def _put(self, item) -> bool:
        """Queue item, unless the caller has closed the draw.  Every put
        follows a look at the flag, so at most one comes after close() sets
        it, and close() empties the queue for that one."""
        if self._closed.is_set():
            return False
        self._queue.put(item)
        return True

    def __next__(self):
        item = self._queue.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self):
        self._closed.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self.join()


def _draw_chunk(rng, n, m, eps2, buffers):
    """Every draw of m scan samples on n nodes, in stream order, piece by
    piece: the head (kind, centers, widths, amps, signs); the noise rows,
    SCAN_PIECE_ROWS at a time, each drawn into the next array of buffers;
    then the wave samples' coarse rows.  A mixture of near-threshold bumps,
    plateaus and noise, sized around 2ε.  Numpy only.

    Row pieces of `standard_normal`, scaled in place, have the bits of one
    draw of every row, so the pieces do not change a sample."""
    kind = rng.integers(0, 4, m)
    centers = rng.uniform(0.0, 1.0, m)
    widths = np.exp(rng.uniform(np.log(2.0 ** -9), np.log(0.3), m))
    amps = eps2 * rng.uniform(0.8, 1.6, m)
    signs = rng.choice([-1.0, 1.0], m)
    yield kind, centers, widths, amps, signs
    rows = int(np.sum(kind == 2))
    for a in range(0, rows, SCAN_PIECE_ROWS):
        piece = rng.standard_normal(out=next(buffers)[:min(SCAN_PIECE_ROWS, rows - a)])
        piece *= 0.2 * eps2
        yield piece
    yield rng.standard_normal((int(np.sum(kind == 3)), 33))


def _adversarial_blocks(pieces, nodes, chunks):
    """The samples of the first `chunks` chunks of pieces, an iterator over
    `_draw_chunk`'s pieces, as `_HatRows` and `_FullRows`, each block built
    as soon as the piece it needs is taken: a chunk's bump and plateau
    samples from its head alone, its noise samples one piece at a time, then
    its wave samples SCAN_PIECE_ROWS at a time.  A piece is read before the
    next one is taken."""
    # the node each column reads: the end columns repeat their neighbours
    # (on a two-node grid both read node 1)
    col_nodes = nodes[np.maximum(np.minimum(np.arange(nodes.size), nodes.size - 2), 1)]
    pos, th = _kernels.locate(np.linspace(0.0, 1.0, 33), nodes)
    start = 0
    for _ in range(chunks):
        kind, centers, widths, amps, signs = next(pieces)
        sa = signs * amps
        lazy = np.nonzero(kind <= 1)[0]
        yield _HatRows(col_nodes, start + lazy, sa[lazy], centers[lazy], widths[lazy],
                       kind[lazy] == 1)
        noisy = np.nonzero(kind == 2)[0]
        a = 0
        while a < noisy.size:
            piece = next(pieces)
            r = noisy[a:a + piece.shape[0]]
            a += r.size
            out = hats(nodes, centers[r], widths[r])
            out *= sa[r][:, None]
            out += piece
            yield _FullRows(start + r, out)
        coarse = next(pieces)
        smooth = np.nonzero(kind == 3)[0]
        for a in range(0, smooth.size, SCAN_PIECE_ROWS):
            c = coarse[a:a + SCAN_PIECE_ROWS]
            r = smooth[a:a + c.shape[0]]
            # linear interpolation of the block's coarse rows
            out = _kernels.blend(c[:, pos], c[:, pos + 1], th)
            out *= amps[r][:, None]
            yield _FullRows(start + r, out)
        start += kind.size


class _FullRows:
    """Noise or wave samples, numbered index in the scan, as full node rows;
    each peaks at its np.argmax."""

    def __init__(self, index, full):
        # the end columns repeat their neighbours, as `col_nodes` reads
        full[:, 0] = full[:, 1]
        full[:, -1] = full[:, -2]
        self.index, self.full = index, full

    def row(self, r: int) -> np.ndarray:
        return self.full[r]

    def peaks(self, eps2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Samples with sup|y| > eps2, a column where each one's |y| peaks,
        and y there."""
        col = np.argmax(np.abs(self.full), axis=1)
        y = self.full[np.arange(col.size), col]
        cands = np.nonzero(np.abs(y) > eps2)[0]
        return cands, col[cands], y[cands]


class _HatRows:
    """Bump and plateau samples, numbered index in the scan, kept as their
    hats and evaluated only at the columns asked for, with `hat_at`, the
    expression of `hats`, so every value has the bits of its full row."""

    def __init__(self, col_nodes, index, sa, centers, widths, plateau):
        self.col_nodes, self.index = col_nodes, index
        self.sa, self.centers, self.widths, self.plateau = sa, centers, widths, plateau

    def _hat_values(self, rows, cols) -> np.ndarray:
        """Samples rows at columns cols, broadcast together."""
        h = hat_at(self.col_nodes[cols], self.centers[rows], self.widths[rows])
        return self.sa[rows] * np.where(self.plateau[rows], np.clip(2.0 * h, 0.0, 1.0), h)

    def row(self, r: int) -> np.ndarray:
        return self._hat_values(r, np.arange(self.col_nodes.size))

    def peaks(self, eps2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_FullRows.peaks` without the rows.  A hat does not decrease in
        its node up to the centre, nor increase after it, and rounding keeps
        that order.  So a sample peaks at column `left`, the last one reading
        a node at or left of the centre, or at left+1."""
        left = np.clip(np.searchsorted(self.col_nodes, self.centers, side="right") - 1,
                       0, self.col_nodes.size - 2)
        pair = self._hat_values(np.arange(left.size)[:, None], np.stack([left, left + 1], axis=1))
        right = np.abs(pair[:, 1]) > np.abs(pair[:, 0])
        y = np.where(right, pair[:, 1], pair[:, 0])
        cands = np.nonzero(np.abs(y) > eps2)[0]
        return cands, (left + right)[cands], y[cands]


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
    where flat perturbations away from maximizers drive it to 0.  ε lies
    in [0, 2], the diameter of the unit ball.
    """
    if not 0.0 <= epsilon <= 2.0:  # nan compares false
        raise DomainError("epsilon must lie in [0, 2]")
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
) -> tuple[PLFunction, float]:
    """y in the unit ball with min(‖x+y‖, ‖x−y‖) certified above 2 − ε,
    and that certified value.

    y is x flipped once per stored interval D_n: an exact maximizer of |x|
    on cl D_n, clamped 2·FLIP_HALF_WIDTH inside D_n, becomes the centre of
    a flip (`build_flip`), and y is scaled into the ball.  A flip's
    half-width is FLIP_HALF_WIDTH, or 1e-6 over the steeper slope of x at
    its centre if that is less, so x moves under 1e-6 across it even on a
    narrow spike.  Away from the flips x + y = 2x, and at each centre
    x − y = 2x, so every ‖x±y‖_n is within a few 1e-6 of 2‖x‖_n.  Three
    norm evaluations; nothing is searched or drawn.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError("epsilon must be finite and positive")
    sphere_norm(ctx, x)
    lo, hi = ctx.interval_bounds
    h = FLIP_HALF_WIDTH
    centres = np.unique(np.clip(abs_argmax_many(x, lo, hi), lo + 2.0 * h, hi - 2.0 * h))
    # a peak at the common end p of two intervals gives the centres p ± 2h,
    # which may round to less than 4h apart: merging only below 3h keeps
    # both, and the kept flips disjoint
    kept = [centres[0]]
    for t in centres[1:]:
        if t - kept[-1] >= 3.0 * h:
            kept.append(t)
    c = np.array(kept)
    # a half-width of at most 1e-6 over the steeper of x's two pieces at the
    # centre keeps x within 1e-6 of x(centre) across the flip, however narrow
    # the peak is.  Each centre lies strictly inside (0, 1), so both pieces
    # exist; they are one piece unless the centre is a breakpoint.  A slope
    # may overflow to inf, and 1e-6 over a subnormal one too
    with np.errstate(divide="ignore", over="ignore"):
        slope = np.abs(np.diff(x.values) / np.diff(x.breakpoints))
        s = np.maximum(slope[np.searchsorted(x.breakpoints, c) - 1],
                       slope[np.searchsorted(x.breakpoints, c, side="right") - 1])
        w = np.minimum(h, 1e-6 / s)
    if not np.all((c - w < c) & (c < c + w)):
        raise WitnessNotFoundError(
            "a flip narrowed to 1e-6 / slope has no room between floats",
            diagnostics={"evaluations": 1},
        )
    y = build_flip(x, np.column_stack([c - w, c, c + w]))
    y = y.scaled(1.0 / (d_norm(ctx, y).hi * RESCALE_SAFETY))
    val = min(
        d_norm(ctx, lin_comb(1.0, x, 1.0, y)).lo,
        d_norm(ctx, lin_comb(1.0, x, -1.0, y)).lo,
    )
    if val > 2.0 - epsilon:
        return y, val
    raise WitnessNotFoundError(
        f"achieved min(‖x±y‖) = {val} <= {2.0 - epsilon}",
        diagnostics={"best": val, "evaluations": 3},
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
    if lin_comb(1.0, u, -1.0, v).is_zero():  # equal on different breakpoints too
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

"""Deterministic block substreams and the one Monte-Carlo channel pass.

Randomness is derived from (seed, block index) for fixed-size blocks of
samples, never from the thread layout, so results are bit-identical for
any thread count and extending a sample budget leaves earlier draws
unchanged.  Each block yields sent input indices, in the model's canonical
order, plus unit-variance noise; scaling it by sigma makes runs with matched
seeds share their draws across noise levels (common random numbers).

`channel_pass` draws each block once for a whole sigma grid and a whole
stack of matrices, scores each row against the point that was sent, for the
capacity and the BER estimators or for either alone, and keeps only each
block's statistics, so memory does not grow with the budget.  The mean of
the per-row capacity terms is the sum capacity at every sigma that
`_check_sigma` accepts.  Sent and decoded inputs stay indices throughout: a
row's bit errors are the popcount of their XOR.  Two kernels give the
densities, the same one for every caller at a given size, so the `capacity`
criterion equals `estimate` bit for bit: `_factored`, over two half
constellations, at 2**n >= _FACTORED_POINTS within its guards, and
`_density`, points-major, for everything else.  The ML decode is `_scan`'s,
run only on the rows that no certificate settles: a row provably decodes to
its sent point when its noise lies well inside half the distance to that
point's nearest neighbour, or when its own density leaves every other
point's term below the sent one's.  Each sigma of a block is scored on its
own, in the caller's order.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .model import _check_sigma, _points

BLOCK = 4096

# Matrix-points per row (P * 2**n) from which a pass takes threads: on 2 vCPUs a second thread
# saved no time at 256 (1x4x8) but cost 5-7 MiB, and cut 6x12 to 8x16 passes by 40-45 %.
_MIN_THREADED_POINTS = 1 << 10

_SLAB = 512
_TILE = 1 << 17  # float64s in one tile's (rows, slab) buffer: 1 MiB, which stays in L2
_EXP_FLOOR = -700.0  # np.exp leaves its vector path below about -708
_EXP_CEIL = 690.0  # `_density`'s ceiling: 2**16 terms of e^690 still sum below the largest double
_FOLD_SCALE = 1e150  # up to this 1/(2 sigma^2), `_density` folds it into [2z, -||z||^2] (|.| <= n^2)
_LN2 = math.log(2.0)
# `_factored` from 2**n = 256, while n / (2 sigma^2) <= 1200 and H* <= 300 at n = 8, 350 above:
# past these, with the decode, it lost to `_scan` (BENCH_factored_density.json,
# BENCH_sweep_grid.json), as products of tiny factors go subnormal and rows fail the range test
_FACTORED_POINTS, _FACTORED_SCALE, _FACTORED_SPREAD, _FACTORED_RANGE = 256, 1200.0, (300, 350), -600.0
# largest 2**n whose nearest-neighbour table a decoding pass builds (BENCH_certified_decode.json)
_CERT_POINTS = 1 << 10
# the certificates' margins: relative, and per chip times (n + sigma ||u||)^2, a bound on the
# scan's rounding of ||y - z_i||^2 - ||y - z_s||^2 that (m + 1) 2^-51 (n + sigma ||u||)^2 covers
_CERT_REL, _CERT_ERR = 1e-9, 1e-12


def draw_block(seed: int, block: int, n_users: int, m_chips: int, rows: int = BLOCK):
    """First `rows` of one block: uniform input indices (rows,), bit k for user k, unit noise (rows, m).

    A cut block skips the bits it does not read: numpy draws each from one 32-bit half of a
    PCG64 output, so the noise starts ceil(BLOCK n / 2) outputs in, whatever `rows` is.
    """
    rng = np.random.default_rng([int(seed), int(block)])
    sent = rng.integers(0, 2, size=(rows, n_users)) @ (1 << np.arange(n_users))
    rng.bit_generator.advance((BLOCK * n_users + 1) // 2 - (rows * n_users + 1) // 2)
    return sent, rng.standard_normal((rows, m_chips))


def _threads(points: int, n_blocks: int) -> int:
    """1 below _MIN_THREADED_POINTS, else one per CPU in the affinity mask, up to one per block."""
    if points < _MIN_THREADED_POINTS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_blocks)


def map_blocks(fn, threads: int) -> list:
    """[fn(t) for t in range(threads)], one thread each if several; perfbench/tracer.py wraps it."""
    if threads == 1:
        return [fn(0)]
    from concurrent.futures import ThreadPoolExecutor  # here: a serial pass never loads it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(threads)))


def _scan(points: np.ndarray, ys: np.ndarray, work=None) -> np.ndarray:
    """Nearest index into the (2**n, m) points for each row of ys, ties to the lowest index.

    One GEMM per slab, e = [y, 1] @ [2 z, -||z||^2]^T = ||y||^2 - ||y - z||^2, into one reused
    buffer; decode is its row argmax, first in a slab and updated only on a strict > across
    slabs.  The slabs run over tiles of rows whose buffer holds about _TILE float64s, so it stays
    in cache; a row's bits do not depend on its tile, unless the tile is one row: numpy runs that
    product as GEMV, not GEMM, so a lone last row is scanned beside a copy of itself.  work, if
    given, is a (_TILE,) float64 array to hold the buffer, as for the two kernels below.
    """
    width = min(_SLAB, len(points))
    tile_rows = min(len(ys), _TILE // width)
    if (len(ys) - 1) % tile_rows == 0:  # the last tile holds one row
        return _scan(points, np.concatenate([ys, ys[-1:]]), work)[:-1]
    y1 = np.column_stack([ys, np.ones(len(ys))])
    z1 = np.column_stack([2.0 * points, -np.einsum("ij,ij->i", points, points)])
    best_i = np.empty(len(ys), dtype=np.int64)
    buffer = (np.empty(_TILE) if work is None else work)[: tile_rows * width].reshape(tile_rows, width)
    for lo in range(0, len(ys), tile_rows):
        e = buffer[: len(ys) - lo]  # the last tile may be short
        tile = slice(lo, lo + len(e))
        rows, best = np.arange(len(e)), best_i[tile]
        for start in range(0, len(points), width):
            np.matmul(y1[tile], z1[start : start + width].T, out=e)
            if start == 0:  # the first slab sets the decode outright
                e.argmax(axis=1, out=best)
                top = e[rows, best] if width < len(points) else None
                continue
            j = e.argmax(axis=1)
            e_max = e[rows, j]
            np.copyto(best, start + j, where=e_max > top)
            np.maximum(top, e_max, out=top)
    return best_i


def _density(points: np.ndarray, sigma: float, noise: np.ndarray, sent: np.ndarray, work=None):
    """(P, rows) information densities of rows points[p, sent] + noise, with no decode.

    One batched GEMM of C-contiguous operands fills a (matrices, points, rows) chunk with
    e = [2 z, -||z||^2] @ [y, 1]^T = ||y||^2 - ||y - z||^2, so the shift and the sum over the
    points are whole-row ops.  Each row is shifted by its sent point's own entry e_s: the sent
    point and any point equal to it, as `_points` makes coincident ones, count exactly 1 at every
    sigma.  Every other exponent is at most |Pu|^2 / 2, Pu the unit noise's part in the span of
    z - z_s, so only rounding reaches the ceiling of the clip to [_EXP_FLOOR, _EXP_CEIL]; the
    clip keeps exp off its slow underflow path and that rounding off overflow.  Past _SLAB
    points the points run in slabs, and the sum runs relative to the running row maximum and
    ends on e_s: the sent point and its equals count 1 whenever it is that maximum, as it is
    wherever rounding could matter.  1/(2 sigma^2) is folded into the GEMM operand up to
    _FOLD_SCALE, else applied after the clip.
    """
    sigma = float(sigma)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    fold = inv2s2 <= _FOLD_SCALE
    bounds = (_EXP_FLOOR, _EXP_CEIL) if fold else (_EXP_FLOOR / inv2s2, _EXP_CEIL / inv2s2)
    scale = 1.0 if fold else inv2s2  # from the units of e to those of an exponent
    count, width, m = points.shape
    slab = min(width, _SLAB)
    z1 = np.concatenate([2.0 * points, -np.einsum("pij,pij->pi", points, points)[..., None]], 2)
    z1 *= inv2s2 if fold else 1.0
    zt = np.ascontiguousarray(points.swapaxes(1, 2))  # (P, m, 2**n): sent rows gather contiguously
    tile_rows = min(len(sent), _TILE // slab)
    step = max(1, _TILE // ((slab + m + 1) * tile_rows))  # e and y1t together fill a tile
    e_buf = np.empty(_TILE) if work is None else work
    y_buf = np.empty(step * (m + 1) * tile_rows)
    log_sum = np.empty((count, len(sent)))
    slabs = range(0, width, slab)
    for lo in range(0, len(sent), tile_rows):
        s, tile = sent[lo : lo + tile_rows], slice(lo, lo + tile_rows)
        col = s % slab if width > slab else s
        at = (np.arange(step)[:, None] * slab + col) * len(s) + np.arange(len(s))  # e_s in e
        for p in range(0, count, step):
            k, chunk = min(step, count - p), slice(p, p + step)
            y1t = y_buf[: k * (m + 1) * len(s)].reshape(k, m + 1, len(s))
            np.add(np.take(zt[chunk], s, axis=2), noise[tile].T, out=y1t[:, :m])
            y1t[:, m] = 1.0
            e = e_buf[: k * slab * len(s)].reshape(k, slab, len(s))
            if width == slab:
                e -= np.take(np.matmul(z1[chunk], y1t, out=e), at[:k])[:, None]
                np.clip(e, *bounds, out=e)
                if not fold:
                    e *= inv2s2
                log_sum[chunk, tile] = np.log(np.exp(e, out=e).sum(axis=1))
                continue
            top, total, e_s = np.full((k, len(s)), -np.inf), np.zeros((k, len(s))), np.empty((k, len(s)))
            for start in slabs:
                np.matmul(z1[chunk, start : start + slab], y1t, out=e)
                np.copyto(e_s, np.take(e, at[:k]), where=s // slab == start // slab)
                raised = np.maximum(top, e.max(axis=1))
                total *= np.exp(np.maximum(top - raised, bounds[0]) * scale)
                e -= raised[:, None]
                np.maximum(e, bounds[0], out=e)
                if not fold:
                    e *= inv2s2
                total += np.exp(e, out=e).sum(axis=1)
                top = raised
            log_sum[chunk, tile] = np.log(total) + (top - e_s) * scale
    log_sum /= _LN2
    return np.subtract(width.bit_length() - 1, log_sum, out=log_sum)


def _factored(halves, points, sigma, noise, sent, work=None):
    """Densities of the rows points[sent] + noise of a matrix with `_halves` u, w, or None past the
    guards above.

    With z_ab = u_a + w_b over the low ceil(n/2) users and the rest, scores T_ab = f_a + g_b +
    H_ab, H_ab = -u_a.w_b / sigma^2 for all rows, sum to e^(F + G + H*) alpha^T K beta with
    alpha = e^(f - F), beta = e^(g - G), K = e^(H - H*): 2**ceil(n/2) + 2**floor(n/2) exps and
    one matrix product a row.  The factors, clamped at e^_EXP_FLOOR, move no bit of log S while
    the sent point's term e^(T_s - F - G - H*) is >= e^_FACTORED_RANGE; other rows are `_density`'s.
    Points-major, so a half's max and the final sum over points are whole-row ops.
    """
    inv2s2 = 1.0 / (2.0 * float(sigma) ** 2)
    (u, w), m, n = halves, points.shape[1], len(points).bit_length() - 1
    spread = _FACTORED_SPREAD[n > 8]  # the scale test first: past it h may not be finite
    if n * inv2s2 > _FACTORED_SCALE or (h := (u @ w.T) * (-2.0 * inv2s2)).max() > spread:
        return None
    h -= h.max()
    k = np.exp(np.maximum(h, _EXP_FLOOR))
    a_s, b_s = np.divmod(sent, len(u))[::-1]
    halves = [np.column_stack([2.0 * z, -np.einsum("ij,ij->i", z, z)]) * inv2s2 for z in (u, w)]
    sizes = (m + 1, len(u), len(w), len(u))  # [y, 1], f, g and K beta: one tile's rows each
    step = min(len(sent), _TILE // sum(sizes))
    buffer, info = np.empty(_TILE) if work is None else work, np.empty(len(sent))
    zt = np.ascontiguousarray(points.T)  # (m, 2**n): sent rows gather contiguously
    for lo in range(0, len(sent), step):
        tile = slice(lo, lo + step)  # the last may be short
        cut = np.cumsum((0,) + sizes) * len(info[tile])
        y1, f, g, s = (buffer[i:j].reshape(-1, len(info[tile])) for i, j in zip(cut, cut[1:]))
        np.take(zt, sent[tile], axis=1, out=y1[:m])
        y1[:m] += noise[tile].T
        y1[m] = 1.0
        d, cols = h[a_s[tile], b_s[tile]], np.arange(len(info[tile]))
        for e, z1, sent_half in ((f, halves[0], a_s[tile]), (g, halves[1], b_s[tile])):
            np.matmul(z1, y1, out=e)  # (||y||^2 - ||y - z||^2) / 2 sigma^2, as in `_density`
            e -= e.max(axis=0)
            d += e[sent_half, cols]
            np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
        np.multiply(np.matmul(k, g, out=s), f, out=s)
        log_sum = np.log(s.sum(axis=0)) - d
        info[tile] = np.where(d >= _FACTORED_RANGE, n - log_sum / _LN2, np.nan)
    # `_density` gives a row the bits it has among the others unless its tile is that one row,
    # which numpy runs as a matrix-vector product: a lone last row is redone beside a copy
    redo = np.flatnonzero(np.isnan(info))
    if len(redo):
        lone = (len(redo) - 1) % (_TILE // min(len(points), _SLAB)) == 0
        rows = np.append(redo, redo[-1]) if lone else redo
        info[redo] = _density(points[None], sigma, noise[rows], sent[rows], work)[0][: len(redo)]
    return info


def _halves(a: np.ndarray):
    """The points u of the low ceil(n/2) users of an (m, n) matrix a and the points w of the rest."""
    n = a.shape[1]
    return _points(a[:, : n - n // 2]), _points(a[:, n - n // 2 :])


def _nearest(points: np.ndarray) -> np.ndarray:
    """(P, 2**n) squared distance from each point of a (P, 2**n, m) stack to its nearest other one.

    In Gram form, ||z_s||^2 + min_i (||z_i||^2 - 2 z_s.z_i), over chunks of about _TILE values, so
    no (2**n, 2**n, m) difference array is made.  Its rounding, below (m + 2) 2^-51 n^2, leaves a
    point with an exact twin far below the certificates' margin.
    """
    count, width, _ = points.shape
    norm2 = np.einsum("pij,pij->pi", points, points)
    step = max(1, _TILE // (count * width))
    gram = np.empty((count, min(step, width), width))
    near2 = np.empty((count, width))
    for lo in range(0, width, step):
        rows = slice(lo, lo + step)  # the last chunk may be short
        own = np.arange(width)[rows]
        d2 = np.matmul(-2.0 * points[:, rows], points.swapaxes(1, 2), out=gram[:, : len(own)])
        d2 += norm2[:, None, :]
        d2[:, own - lo, own] = np.inf
        np.add(d2.min(axis=2), norm2[:, rows], out=near2[:, rows])
    return near2


def channel_pass(pop: np.ndarray, sigmas, rows: int, seed: int, decode=True, density=True):
    """Per-block statistics of the capacity terms and ML bit errors of a (P, m, n) stack at each sigma.

    A row's term is its information density plus (||u||^2 - m) / (2 ln 2) for its unit noise
    u: that equals -log2 f_Y(y) - h(N), so the terms average to the sum capacity.  Rows come
    in order from the blocks draw_block(seed, b, n, m, rows_b), each cut to the rows_b =
    min(BLOCK, rows - b BLOCK) it gives and shared by every sigma and all P matrices.  terms
    (blocks, sigmas, 3, P) holds each block's row count, mean and M2 (sum of squared deviations
    from that mean) of its terms, errors, in int64, the sum, sum of squares and nonzero count
    of its bit errors, both in the caller's sigma order.

    The densities come from `_factored` within its guards, else from `_density`.  A block scores
    each sigma on its own, and `_scan` decodes only the rows that neither of two certificates
    settles.  Each bounds the gap ||y - z_i||^2 - ||y - z_s||^2 to every other point z_i from
    below by more than the scan's rounding, which err = slack (n + t)^2 bounds, slack =
    _CERT_ERR (m + 1) and t = sigma ||u||, so the decode is the scan's bit for bit:
    1. Up to _CERT_POINTS points, r_s is the distance from z_s to its nearest other point
       (`_nearest`, 0 for an exact twin); the gap is at least r_s (r_s - 2 t).
    2. A density is n - log2 of the sum of e^(e_i - e_s) over the points, and both kernels count
       the sent point as 1: `_density` exactly, `_factored` to within the rounding of its three
       exponents, which M dominates as it does every exponent's.  So a row whose density
       exceeds n - log2(1 + e^-M) by the rounding of its sum puts every other point's exponent
       below -M = -8 err / (2 sigma^2), more than the rounding of both kernels' products.
    With decode=False errors is None, with density=False terms is None.
    """
    for sigma in sigmas:
        _check_sigma(sigma)
    _, m, n = pop.shape
    points = _points(pop)
    width = len(points[0])
    slack = _CERT_ERR * (m + 1)
    table = decode and width <= _CERT_POINTS
    if table:  # certificate 1's radius, below the derivation's by more than the table's rounding
        near2 = _nearest(points) * (1.0 - _CERT_REL)
        radius = np.sqrt(np.maximum(near2 - 20.0 * slack * n * n, 0.0)) / 2.0
    sum_rounding = (4 * width + 64) * 2.0**-53  # of n - log2 of a sum of 2**n terms, as computed
    halves = [_halves(a) for a in pop] if density and width >= _FACTORED_POINTS else None

    def densities(sigma, sent, unit, work):
        """(P, rows) densities of a block's rows at sigma."""
        noise = sigma * unit  # here, so it is freed before the decode
        if width < _FACTORED_POINTS:
            return _density(points, sigma, noise, sent, work)
        terms = np.empty((len(pop), len(sent)))
        for p, z in enumerate(points):
            info = _factored(halves[p], z, sigma, noise, sent, work)
            terms[p] = _density(z[None], sigma, noise, sent, work)[0] if info is None else info
        return terms

    def decode_errors(sigma, sent, unit, settled, work):
        """(P, rows) bit errors of a block's rows at sigma, with `_scan` run on the unsettled rows."""
        errors = np.zeros(settled.shape, dtype=np.int64)
        for p, z in enumerate(points):
            scan = np.flatnonzero(~settled[p])
            if len(scan):
                sent_p = np.take(sent, scan)
                ys = np.take(z, sent_p, axis=0)
                ys += sigma * np.take(unit, scan, axis=0)  # the rows' z_s + noise, bit for bit
                errors[p, scan] = np.bitwise_count(sent_p ^ _scan(z, ys, work))
        return errors

    def one_block(b):
        sent, unit = draw_block(seed, b, n, m, min(BLOCK, rows - b * BLOCK))
        norm = np.einsum("ij,ij->i", unit, unit)
        chi = (norm - m) / (2.0 * _LN2)
        np.sqrt(norm, out=norm)
        ball = np.take(radius, sent, axis=1) if table else None
        work = np.empty(_TILE)  # every kernel's buffer: one allocation a block
        stats = [], []  # (3, P) statistics at each sigma
        for sigma in map(float, sigmas):
            settled = np.zeros((len(pop), len(sent)), dtype=bool)  # rows certain to decode as sent
            if density:
                terms = densities(sigma, sent, unit, work)
                if decode:  # certificate 2
                    c = math.sqrt(8.0 * slack / (2.0 * sigma * sigma))
                    floor = np.log1p(np.exp(-np.minimum(np.square(c * (n + sigma * norm)), 700.0)))
                    settled = terms > n - (floor / _LN2 - sum_rounding)
                terms += chi  # in place: a block holds one (P, rows) array of terms at a time
                mean = terms.mean(axis=1)
                np.square(np.subtract(terms, mean[:, None], out=terms), out=terms)
                stats[0].append([np.full_like(mean, len(sent)), mean, terms.sum(axis=1)])
            if decode:
                if table:
                    settled |= ball > sigma * norm
                e = decode_errors(sigma, sent, unit, settled, work)
                stats[1].append([e.sum(axis=1), np.square(e).sum(axis=1), np.count_nonzero(e, axis=1)])
        return stats

    n_blocks = -(-rows // BLOCK)
    threads = _threads(len(pop) << n, n_blocks)
    runs = map_blocks(lambda t: [one_block(b) for b in range(t, n_blocks, threads)], threads)
    terms, errors = zip(*(runs[b % threads][b // threads] for b in range(n_blocks)))
    return np.array(terms) if density else None, np.array(errors) if decode else None

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
row's bit errors are the popcount of their XOR.  Three kernels give the
densities, the same one for every caller at a given size, so the `capacity`
criterion equals `estimate` bit for bit: `_density`, points-major with no
decode, at 2**n <= _DENSITY_POINTS; `_factored`, over two half
constellations, at 2**n >= _FACTORED_POINTS; `_scan`, row-major with the ML
decode, for the rest and the rows `_factored` declines.  Where no kernel
gives the decode with the density, `_scan` decodes alone.
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
_EXP_CEIL = 700.0  # `_density`'s ceiling: 2**6 terms of e^700 still sum below the largest double
_FOLD_SCALE = 1e150  # up to this 1/(2 sigma^2), `_density` folds it into [2z, -||z||^2] (|.| <= 36)
_LN2 = math.log(2.0)
# largest 2**n for `_density`: beside the decode-only `_scan`, an `estimate` block cost 0.88-1.12x
# the joint scan's at n <= 6 and 0.95-1.21x at n = 7 (BENCH_lean_density.json)
_DENSITY_POINTS = 64
# `_factored` from 2**n = 256, while n / (2 sigma^2) <= 1200 and H* <= 300 at n = 8, 350 above:
# past these, with the decode, it lost to `_scan` (BENCH_factored_density.json,
# BENCH_sweep_grid.json), as products of tiny factors go subnormal and rows fail the range test
_FACTORED_POINTS, _FACTORED_SCALE, _FACTORED_SPREAD, _FACTORED_RANGE = 256, 1200.0, (300, 350), -600.0


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


def _scan(points: np.ndarray, sigma: float, ys: np.ndarray, sent: np.ndarray, density=True):
    """Information density i and nearest index into the (2**n, m) points for each row of ys.

    Row k is scored against its sent point s = sent[k]:
    i = n - log2 sum_i exp((||y - z_s||^2 - ||y - z_i||^2) / 2 sigma^2).  One GEMM per slab,
    e = [y, 1] @ [2 z, -||z||^2]^T = ||y||^2 - ||y - z||^2, into one reused buffer; decode is
    its row argmax, ties to the lowest index (first in a slab, strict update across slabs).
    The sum runs relative to the running row maximum and ends on the sent point's own entry
    e_s, so the sent point and any point equal to it, as `_points` makes coincident ones, count
    exactly 1 at every sigma.  Clamping at _EXP_FLOOR before the 1/(2 sigma^2) scale keeps exp
    off its slow underflow path and changes no bit: terms below e^-700 cannot move a sum >= 1.
    The slabs run over tiles of rows whose buffer holds about _TILE float64s, so it stays in
    cache; a row's bits do not depend on its tile, unless the tile is one row: numpy runs that
    product as GEMV, not GEMM.  With density=False only the decode runs and i is None.
    """
    sigma = float(sigma)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)  # as _check_sigma forms it, so it is finite
    floor = _EXP_FLOOR / inv2s2  # -inf at the largest sigma, which clamps nothing
    y1 = np.column_stack([ys, np.ones(len(ys))])
    z1 = np.column_stack([2.0 * points, -np.einsum("ij,ij->i", points, points)])
    best_i, log_sum = np.zeros(len(ys), dtype=np.int64), np.empty(len(ys))
    width = min(_SLAB, len(points))
    tile_rows = min(len(ys), _TILE // width)
    buffer = np.empty((tile_rows, width))  # last, so the next call reuses its memory
    for lo in range(0, len(ys), tile_rows):
        e = buffer[: len(ys) - lo]  # the last tile may be short
        tile = slice(lo, lo + len(e))
        rows, best = np.arange(len(e)), best_i[tile]
        top, e_s, total = np.full(len(e), -np.inf), np.empty(len(e)), np.zeros(len(e))
        slab_of, col = np.divmod(sent[tile], width)
        for slab, start in enumerate(range(0, len(points), width)):
            np.matmul(y1[tile], z1[start : start + width].T, out=e)
            j = e.argmax(axis=1)
            e_max = e[rows, j]
            np.copyto(best, start + j, where=e_max > top)
            raised = np.maximum(top, e_max)
            if density:
                np.copyto(e_s, e[rows, col], where=slab_of == slab)
                total *= np.exp(np.maximum(top - raised, floor) * inv2s2)
                e -= raised[:, None]
                np.maximum(e, floor, out=e)
                e *= inv2s2
                np.exp(e, out=e)
                total += e.sum(axis=1)
            top = raised
        if density:
            log_sum[tile] = np.log(total) + (top - e_s) * inv2s2
    return (len(points).bit_length() - 1) - log_sum / _LN2 if density else None, best_i


def _density(points: np.ndarray, sigma: float, noise: np.ndarray, sent: np.ndarray):
    """(P, rows) information densities of rows points[p, sent] + noise, with no decode.

    One batched GEMM of C-contiguous operands fills a (matrices, points, rows) chunk with
    e = [2 z, -||z||^2] @ [y, 1]^T = ||y||^2 - ||y - z||^2, so the shift and the sum over the
    points are whole-row ops.  Each row is shifted by its sent point's own entry e_s: the sent
    point and any point equal to it, as `_points` makes coincident ones, count exactly 1 at every
    sigma.  Every other exponent is at most |Pu|^2 / 2, Pu the unit noise's part in the span of
    z - z_s (n <= 6 dimensions), so only rounding reaches the ceiling of the clip to [_EXP_FLOOR,
    _EXP_CEIL]; the clip keeps exp off its slow underflow path and that rounding off overflow.
    1/(2 sigma^2) is folded into the GEMM operand up to _FOLD_SCALE, else applied after the clip.
    """
    sigma = float(sigma)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    fold = inv2s2 <= _FOLD_SCALE
    bounds = (_EXP_FLOOR, _EXP_CEIL) if fold else (_EXP_FLOOR / inv2s2, _EXP_CEIL / inv2s2)
    count, width, m = points.shape
    z1 = np.concatenate([2.0 * points, -np.einsum("pij,pij->pi", points, points)[..., None]], 2)
    z1 *= inv2s2 if fold else 1.0
    zt = np.ascontiguousarray(points.swapaxes(1, 2))  # (P, m, 2**n): sent rows gather contiguously
    tile_rows = min(len(sent), _TILE // width)
    step = max(1, _TILE // ((width + m + 1) * tile_rows))  # e and y1t together fill a tile
    e_buf, y_buf = np.empty(step * width * tile_rows), np.empty(step * (m + 1) * tile_rows)
    log_sum = np.empty((count, len(sent)))
    for lo in range(0, len(sent), tile_rows):
        s, tile = sent[lo : lo + tile_rows], slice(lo, lo + tile_rows)
        at = (np.arange(step)[:, None] * width + s) * len(s) + np.arange(len(s))  # e_s in e
        for p in range(0, count, step):
            k, chunk = min(step, count - p), slice(p, p + step)
            y1t = y_buf[: k * (m + 1) * len(s)].reshape(k, m + 1, len(s))
            np.add(np.take(zt[chunk], s, axis=2), noise[tile].T, out=y1t[:, :m])
            y1t[:, m] = 1.0
            e = np.matmul(z1[chunk], y1t, out=e_buf[: k * width * len(s)].reshape(k, width, len(s)))
            e -= np.take(e, at[:k])[:, None]
            np.clip(e, *bounds, out=e)
            if not fold:
                e *= inv2s2
            log_sum[chunk, tile] = np.log(np.exp(e, out=e).sum(axis=1))
    log_sum /= _LN2
    return np.subtract(width.bit_length() - 1, log_sum, out=log_sum)


def _factored(a: np.ndarray, points: np.ndarray, sigma: float, ys: np.ndarray, sent: np.ndarray):
    """`_scan`'s densities of the rows ys of an (m, n) matrix a, or None past the guards above.

    With z_ab = u_a + w_b over the low ceil(n/2) users and the rest, scores T_ab = f_a + g_b +
    H_ab, H_ab = -u_a.w_b / sigma^2 for all rows, sum to e^(F + G + H*) alpha^T K beta with
    alpha = e^(f - F), beta = e^(g - G), K = e^(H - H*): 2**ceil(n/2) + 2**floor(n/2) exps and
    one matrix product a row.  The factors, clamped at e^_EXP_FLOOR, move no bit of log S while
    the sent point's term e^(T_s - F - G - H*) is >= e^_FACTORED_RANGE; other rows are `_scan`'s.
    Points-major, so a half's max and the final sum over points are whole-row ops.
    """
    inv2s2 = 1.0 / (2.0 * float(sigma) ** 2)
    m, n = a.shape
    u, w = _points(a[:, : n - n // 2]), _points(a[:, n - n // 2 :])
    spread = _FACTORED_SPREAD[n > 8]  # the scale test first: past it h may not be finite
    if n * inv2s2 > _FACTORED_SCALE or (h := (u @ w.T) * (-2.0 * inv2s2)).max() > spread:
        return None
    h -= h.max()
    k = np.exp(np.maximum(h, _EXP_FLOOR))
    a_s, b_s = np.divmod(sent, len(u))[::-1]
    halves = [np.column_stack([2.0 * z, -np.einsum("ij,ij->i", z, z)]) * inv2s2 for z in (u, w)]
    sizes = (m + 1, len(u), len(w), len(u))  # [y, 1], f, g and K beta: one tile's rows each
    step = min(len(sent), _TILE // sum(sizes))
    buffer, info = np.empty(_TILE), np.empty(len(sent))  # `_scan`'s size: its decode reuses it
    for lo in range(0, len(sent), step):
        tile = slice(lo, lo + step)  # the last may be short
        cut = np.cumsum((0,) + sizes) * len(info[tile])
        y1, f, g, s = (buffer[i:j].reshape(-1, len(info[tile])) for i, j in zip(cut, cut[1:]))
        y1[:m], y1[m] = ys[tile].T, 1.0
        d, cols = h[a_s[tile], b_s[tile]], np.arange(len(info[tile]))
        for e, z1, sent_half in ((f, halves[0], a_s[tile]), (g, halves[1], b_s[tile])):
            np.matmul(z1, y1, out=e)  # (||y||^2 - ||y - z||^2) / 2 sigma^2, as in `_scan`
            e -= e.max(axis=0)
            d += e[sent_half, cols]
            np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
        np.multiply(np.matmul(k, g, out=s), f, out=s)
        log_sum = np.log(s.sum(axis=0)) - d
        info[tile] = np.where(d >= _FACTORED_RANGE, n - log_sum / _LN2, np.nan)
    # a one-row tile gets a matrix-vector product, not a GEMM: double a row, redo a lone last one
    redo = np.flatnonzero(np.isnan(info))
    if len(redo):
        rows = np.append(redo, redo[-1])
        info[redo] = _scan(points, sigma, ys[rows], sent[rows])[0][:-1]
        if redo[-1] == len(ys) - 1 and redo[-1] % min(len(ys), _TILE // min(_SLAB, len(points))) == 0:
            info[-1:] = _scan(points, sigma, ys[-1:], sent[-1:])[0]
    return info


def channel_pass(pop: np.ndarray, sigmas, rows: int, seed: int, decode=True, density=True):
    """Per-block statistics of the capacity terms and ML bit errors of a (P, m, n) stack at each sigma.

    A row's term is its information density plus (||u||^2 - m) / (2 ln 2) for its unit noise
    u: that equals -log2 f_Y(y) - h(N), so the terms average to the sum capacity.  Rows come
    in order from the blocks draw_block(seed, b, n, m, rows_b), each cut to the rows_b =
    min(BLOCK, rows - b BLOCK) it gives and shared by every sigma and all P matrices.  terms
    (blocks, sigmas, 3, P) holds each block's row count, mean and M2 (sum of squared deviations
    from that mean) of its terms, errors, in int64, the sum, sum of squares and nonzero count
    of its bit errors.  The terms of 2**n <= _DENSITY_POINTS points come from `_density`, the
    errors from `_scan`'s decode alone; above, one `_scan` per matrix gives both, or the decode
    beside `_factored`.  With decode=False errors is None, with density=False terms is None.
    """
    for sigma in sigmas:
        _check_sigma(sigma)
    _, m, n = pop.shape
    points = _points(pop)
    lean = density and len(points[0]) <= _DENSITY_POINTS
    joint = density and not lean  # the density comes from `_factored` or the scan

    def one_block(b):
        sent, unit = draw_block(seed, b, n, m, min(BLOCK, rows - b * BLOCK))
        chi = (np.einsum("ij,ij->i", unit, unit) - m) / (2.0 * _LN2)
        stats = [], []  # (3, P) statistics of the terms and of the errors at each sigma
        for sigma in sigmas:
            terms = _density(points, sigma, sigma * unit, sent) if lean else []
            errors = []
            for a, z in zip(pop, points) if decode or joint else ():
                ys = z[sent] + sigma * unit  # made per matrix, so not held through the scans
                info = _factored(a, z, sigma, ys, sent) if joint and len(z) >= _FACTORED_POINTS else None
                if decode or (joint and info is None):
                    scan, best = _scan(z, sigma, ys, sent, density=joint and info is None)
                    info = scan if info is None else info
                if joint:
                    terms.append(info)
                if decode:
                    errors.append(np.bitwise_count(sent ^ best))
            if density:  # in place: a block holds one (P, rows) array of terms at a time
                terms = np.add(terms, chi, out=terms if lean else None)
                mean = terms.mean(axis=1)
                np.square(np.subtract(terms, mean[:, None], out=terms), out=terms)
                stats[0].append([np.full_like(mean, len(sent)), mean, terms.sum(axis=1)])
            if decode:
                e = np.array(errors, dtype=np.int64)
                stats[1].append([e.sum(axis=1), np.square(e).sum(axis=1), np.count_nonzero(e, axis=1)])
        return stats

    n_blocks = -(-rows // BLOCK)
    threads = _threads(len(pop) << n, n_blocks)
    runs = map_blocks(lambda t: [one_block(b) for b in range(t, n_blocks, threads)], threads)
    terms, errors = zip(*(runs[b % threads][b // threads] for b in range(n_blocks)))
    return np.array(terms) if density else None, np.array(errors) if decode else None

"""Deterministic block substreams and the one Monte-Carlo channel pass.

Randomness is derived from (seed, block index) for fixed-size blocks of
samples, never from the thread layout, so results are bit-identical for
any thread count and extending a sample budget leaves earlier draws
unchanged.  Each block yields sent input indices, in the model's canonical
order, plus unit-variance noise; callers scale the noise by sigma, which
makes runs with matched seeds share their draws across different noise
levels (common random numbers).

`channel_pass` scores every drawn channel use against the constellation
once, for both the capacity and the BER estimators and for a whole stack
of matrices.  Each row is scored against the point that was sent, so the
mean of its per-row capacity terms is the sum capacity at every sigma that
`_check_sigma` accepts.  Sent and decoded inputs stay indices throughout:
a row's bit errors are the popcount of their XOR.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .model import _check_sigma, _points

BLOCK = 4096

# Matrix-points per row (P * 2**n) from which a pass takes threads: on 2 vCPUs a second thread
# saved no time at 256 (1x4x8) but cost 5-7 MiB, and cut 6x12 to 8x16 passes by 40-45 %.
_MIN_THREADED_POINTS = 1 << 10

_SLAB = 512
_TILE = 1 << 17  # float64s in one tile's (rows, slab) buffer: 1 MiB, which stays in L2
_EXP_FLOOR = -700.0  # np.exp leaves its vector path below about -708
_LN2 = math.log(2.0)


def draw_block(seed: int, block: int, n_users: int, m_chips: int):
    """One block of uniform input indices (BLOCK,), bit k for user k, and unit noise (BLOCK, m)."""
    rng = np.random.default_rng([int(seed), int(block)])
    sent = rng.integers(0, 2, size=(BLOCK, n_users)) @ (1 << np.arange(n_users))
    return sent, rng.standard_normal((BLOCK, m_chips))


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
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(threads)))


def _scan(points: np.ndarray, sigma: float, ys: np.ndarray, sent: np.ndarray):
    """Information density i and nearest index into the (2**n, m) points for each row of ys.

    Row k is scored against its sent point s = sent[k]:
    i = n - log2 sum_i exp((||y - z_s||^2 - ||y - z_i||^2) / 2 sigma^2).  One GEMM per slab,
    e = [y, 1] @ [2 z, -||z||^2]^T = ||y||^2 - ||y - z||^2, into one reused buffer; decode is
    its row argmax, ties to the lowest index (first in a slab, strict update across slabs).
    The sum runs relative to the running row maximum and ends on the sent point's own entry
    e_s, so the sent point and any point equal to it count exactly 1 at every sigma.  Clamping
    at _EXP_FLOOR before the 1/(2 sigma^2) scale keeps exp off its slow underflow path and
    changes no bit: terms below e^-700 cannot move a sum >= 1.  The slabs run over tiles of
    rows whose buffer holds about _TILE float64s, so it stays in cache; rows are independent,
    so the tiling changes no bit.
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
            np.copyto(e_s, e[rows, col], where=slab_of == slab)
            j = e.argmax(axis=1)
            e_max = e[rows, j]
            np.copyto(best, start + j, where=e_max > top)
            raised = np.maximum(top, e_max)
            total *= np.exp(np.maximum(top - raised, floor) * inv2s2)
            top = raised
            e -= top[:, None]
            np.maximum(e, floor, out=e)
            e *= inv2s2
            np.exp(e, out=e)
            total += e.sum(axis=1)
        log_sum[tile] = np.log(total) + (top - e_s) * inv2s2
    return (len(points).bit_length() - 1) - log_sum / _LN2, best_i


def channel_pass(pop: np.ndarray, sigma: float, rows: int, seed: int):
    """Per-row capacity terms and ML bit-error counts, each (P, rows), for a (P, m, n) stack.

    A row's term is its information density plus (||u||^2 - m) / (2 ln 2) for its unit noise
    u: that equals -log2 f_Y(y) - h(N), so the terms average to the sum capacity.  Rows come
    in order from the per-block substreams of `seed`; each block is drawn once, cut to
    `rows`, and shared by all P matrices.
    """
    _check_sigma(sigma)
    _, m, n = pop.shape
    points = _points(pop)

    def one_block(b):
        sent, unit = (a[: rows - b * BLOCK] for a in draw_block(seed, b, n, m))
        noise = sigma * unit
        chi = (np.einsum("ij,ij->i", unit, unit) - m) / (2.0 * _LN2)
        scans = [_scan(z, sigma, z[sent] + noise, sent) for z in points]
        return [i + chi for i, _ in scans], [np.bitwise_count(sent ^ i) for _, i in scans]

    n_blocks = -(-rows // BLOCK)
    threads = _threads(len(pop) << n, n_blocks)
    runs = map_blocks(lambda t: [one_block(b) for b in range(t, n_blocks, threads)], threads)
    terms, errors = zip(*(runs[b % threads][b // threads] for b in range(n_blocks)))
    return np.concatenate(terms, axis=1), np.concatenate(errors, axis=1)

"""Deterministic block substreams and the one Monte-Carlo channel pass.

Randomness is derived from (seed, block index) for fixed-size blocks of
samples, never from the worker layout, so results are bit-identical for
any worker count and extending a sample budget leaves earlier draws
unchanged.  Each block yields sign vectors plus unit-variance noise;
callers scale the noise by sigma, which makes runs with matched seeds
share their draws across different noise levels (common random numbers).

`channel_pass` scores every drawn channel use against the constellation
once, for both the capacity and the BER estimators and for a whole stack
of matrices.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .model import _check_sigma, _points, enumerate_inputs

BLOCK = 4096

WORKERS_ENV = "SIGDESIGN_WORKERS"

_SLAB = 512
_EXP_FLOOR = -700.0  # np.exp leaves its vector path below about -708
_LN2 = math.log(2.0)


def draw_block(seed: int, block: int, n_users: int, m_chips: int):
    """One block of uniform sign inputs (BLOCK, n) and unit noise (BLOCK, m)."""
    rng = np.random.default_rng([int(seed), int(block)])
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(BLOCK, n_users)).astype(float)
    noise = rng.standard_normal((BLOCK, m_chips))
    return signs, noise


def map_blocks(fn, n_blocks: int) -> list:
    """Apply fn(block_index) for all blocks, in index order.

    Blocks run on a thread pool when SIGDESIGN_WORKERS is above one (1 if
    unset or unparsable); the returned list is always ordered by block
    index, so reductions over it are identical for any worker count.
    """
    try:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        workers = 1
    if workers <= 1 or n_blocks <= 1:
        return [fn(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def _scan(points: np.ndarray, sigma: float, ys: np.ndarray):
    """-log2 f_Y(y) and the nearest index into the (2**n, m) points for each row of ys.

    One GEMM per slab, e = [y, 1] @ [z, -||z||^2/2]^T = y.z - ||z||^2/2, into one
    reused buffer; decode is its row argmax, ties to the lowest index (first in a
    slab, strict update across slabs).  The log-sum-exp is shifted by each slab's
    row maximum (term exp(0) = 1) and the clamped distance max(||y||^2 - 2 e_max, 0).
    Clamping at _EXP_FLOOR before the 1/sigma^2 scale keeps exp off its slow
    underflow path and changes no bit: terms below e^-700 cannot move a sum >= 1.
    """
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    yy = np.einsum("ij,ij->i", ys, ys)
    y1 = np.column_stack([ys, np.ones(len(ys))])
    z1 = np.column_stack([points, -0.5 * np.einsum("ij,ij->i", points, points)])
    (lse, best_e), best_i = np.full((2, len(ys)), -np.inf), np.zeros(len(ys), dtype=np.int64)
    e = np.empty((len(ys), min(_SLAB, len(points))))  # last, so the next call reuses its memory
    for start in range(0, len(points), e.shape[1]):
        np.matmul(y1, z1[start : start + e.shape[1]].T, out=e)
        j = e.argmax(axis=1)
        e_max = e[np.arange(len(ys)), j]
        np.copyto(best_i, start + j, where=e_max > best_e)
        np.maximum(best_e, e_max, out=best_e)
        e -= e_max[:, None]
        np.maximum(e, _EXP_FLOOR * sigma * sigma, out=e)
        e *= 2.0 * inv2s2
        np.exp(e, out=e)
        np.logaddexp(lse, np.log(e.sum(1)) - inv2s2 * np.maximum(yy - 2 * e_max, 0), out=lse)
    lse -= (len(points).bit_length() - 1) * _LN2
    lse -= 0.5 * points.shape[1] * math.log(2.0 * math.pi * sigma * sigma)
    lse /= -_LN2
    return lse, best_i


def channel_pass(pop: np.ndarray, sigma: float, rows: int, seed: int):
    """Per-row -log2 f_Y(y) and ML bit-error counts, each (P, rows), for a (P, m, n) stack.

    Rows come in order from the per-block substreams of `seed`; each block
    is drawn once, cut to `rows`, and shared by all P matrices.
    """
    _check_sigma(sigma)
    _, m, n = pop.shape
    inputs = enumerate_inputs(n)
    at = pop.transpose(0, 2, 1)
    points = _points(pop)

    def one_block(b):
        signs, unit = (a[: rows - b * BLOCK] for a in draw_block(seed, b, n, m))
        noise = sigma * unit
        scans = [_scan(z, sigma, signs @ a + noise) for z, a in zip(points, at)]
        return [f for f, _ in scans], [(inputs[i] != signs).sum(axis=1) for _, i in scans]

    neg_log2_f, errors = zip(*map_blocks(one_block, -(-rows // BLOCK)))
    return np.concatenate(neg_log2_f, axis=1), np.concatenate(errors, axis=1)

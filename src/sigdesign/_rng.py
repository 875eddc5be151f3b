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

    Both come from one array ||y||^2 - 2 y.z + ||z||^2, clipped at zero, per
    slab of points.  Ties go to the lowest index (first argmin in a slab,
    strict update across slabs); the log-sum-exp is shifted by each row's
    slab minimum, so it never underflows.
    """
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    yy = np.einsum("ij,ij->i", ys, ys)
    lse = np.full(ys.shape[0], -np.inf)
    best_d = np.full(ys.shape[0], np.inf)
    best_i = np.zeros(ys.shape[0], dtype=np.int64)
    for start in range(0, len(points), _SLAB):
        zs = points[start : start + _SLAB]
        d2 = ys @ zs.T
        d2 *= -2.0
        d2 += yy[:, None]
        d2 += np.einsum("ij,ij->i", zs, zs)
        np.maximum(d2, 0.0, out=d2)
        j = np.argmin(d2, axis=1)
        d = np.take_along_axis(d2, j[:, None], axis=1)[:, 0]
        upd = d < best_d
        best_d[upd] = d[upd]
        best_i[upd] = start + j[upd]
        d2 -= d[:, None]
        d2 *= -inv2s2
        np.exp(d2, out=d2)
        lse = np.logaddexp(lse, np.log(d2.sum(axis=1)) - inv2s2 * d)
    n, m = len(points).bit_length() - 1, points.shape[1]
    ln_f = lse - n * _LN2 - 0.5 * m * math.log(2.0 * math.pi * sigma * sigma)
    return -ln_f / _LN2, best_i


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

"""Maximum-likelihood decoding, BER simulation, and the one pair-distance kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import erfc

from . import _rng
from .model import Constellation, SignatureMatrix, _check_sigma


@dataclass(frozen=True)
class BerEstimate:
    """Monte-Carlo bit-error-rate estimate.

    Bit errors are the primary measure; block (vector) errors are kept as
    a secondary field because the union bound natively bounds them.
    """

    ber: float
    bit_errors: int
    bits_simulated: int
    std_error: float
    sigma: float
    block_error_rate: float
    block_errors: int
    blocks: int
    block_std_error: float


def q_function(x) -> float | np.ndarray:
    """Exact Gaussian tail probability Q(x) via the complementary error function."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def ml_decode(cons: Constellation, y) -> np.ndarray:
    """Input vector whose noiseless point is nearest to y (lowest index on ties)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (cons.m,):
        raise ValueError(f"y must have shape ({cons.m},)")
    # the nearest point does not depend on the sigma the density uses
    return cons.inputs[_rng._scan(cons.points, 1.0, y[None, :])[1][0]]


def _ber_estimate(errors: np.ndarray, n_users: int, sigma: float) -> BerEstimate:
    """BER estimate from per-vector bit-error counts.

    ML decoding flips the bits of one vector together, so std_error is
    the cluster estimate sd(errors) / (n * sqrt(blocks)), not per bit.
    """
    blocks = errors.size
    bit_errors = int(errors.sum())
    block_errors = int(np.count_nonzero(errors))
    bits = blocks * n_users
    bler = block_errors / blocks
    spread = float(np.std(errors, ddof=1)) if blocks > 1 else math.nan
    return BerEstimate(
        ber=bit_errors / bits,
        bit_errors=bit_errors,
        bits_simulated=bits,
        std_error=spread / (n_users * math.sqrt(blocks)),
        sigma=float(sigma),
        block_error_rate=bler,
        block_errors=block_errors,
        blocks=blocks,
        block_std_error=math.sqrt(bler * (1.0 - bler) / blocks),
    )


def simulate_ber(
    A: SignatureMatrix,
    sigma: float,
    blocks: int,
    seed: int = 0,
) -> BerEstimate:
    """ML-decode `blocks` random transmissions and count bit errors.

    Deterministic per seed and worker count; draws come from the same
    per-block substreams as the capacity estimator, so matched seeds share
    inputs and (sigma-scaled) noise.  `std_error` is nan for one block.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    _, errors = _rng.channel_pass(A.entries[None], sigma, blocks, seed)
    return _ber_estimate(errors[0], A.n, sigma)


def _pair_measure(kind: str, points: np.ndarray, sigma: float | None = None) -> np.ndarray:
    """Minimum distance "md", union bound "ub" or exp distance "ed" per (2**n, m) constellation.

    pdist fills one row per constellation and the measure's tail runs in
    place over the whole array.  Rows are C-contiguous, so each row's sum
    is the same pairwise sum as a 1-D np.sum: no value depends on how many
    constellations are stacked.
    """
    size = points.shape[1]  # 2**n
    d = np.empty((len(points), size * (size - 1) // 2))
    for row, pts in zip(d, points):
        pdist(pts, out=row)
    if kind == "md":
        return d.min(axis=1)
    d /= 2.0 * sigma
    if kind == "ub":
        d /= math.sqrt(2.0)
        erfc(d, out=d)
        d *= 0.5
        scale = 2.0 ** (1 - size.bit_length()) * 2.0  # 2**-n, and 2 for ordered pairs
    else:
        d += 1.0
        d /= 1.6
        np.square(d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        scale = 2.0
    return scale * d.sum(axis=1)


def union_bound(cons: Constellation, sigma: float) -> float:
    """Pairwise upper bound on the ML block-error probability.

    2**-n * sum over ordered pairs i != j of Q(||Z_i - Z_j|| / (2 sigma)),
    with the exact tail function.  Not clamped: the bound may exceed 1.
    """
    _check_sigma(sigma)
    return float(_pair_measure("ub", cons.points[None], sigma)[0])

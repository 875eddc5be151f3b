"""Maximum-likelihood decoding, BER simulation, and the one pair-distance kernel."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
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
    With no errors both standard errors are 1 / blocks, so a 3-sigma band
    reaches the rule-of-three 95 % bound 3 / blocks instead of width 0.
    """
    blocks = errors.size
    bit_errors = int(errors.sum())
    block_errors = int(np.count_nonzero(errors))
    bits = blocks * n_users
    bler = block_errors / blocks
    spread = float(np.std(errors, ddof=1)) if blocks > 1 else math.nan
    std_error = spread / (n_users * math.sqrt(blocks))
    block_std_error = math.sqrt(bler * (1.0 - bler) / blocks)
    if bit_errors == 0:
        std_error = block_std_error = 1.0 / blocks
    return BerEstimate(
        ber=bit_errors / bits,
        bit_errors=bit_errors,
        bits_simulated=bits,
        std_error=std_error,
        sigma=float(sigma),
        block_error_rate=bler,
        block_errors=block_errors,
        blocks=blocks,
        block_std_error=block_std_error,
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
    inputs and (sigma-scaled) noise.  `std_error` is nan for one block
    with errors; with no errors both standard errors are 1 / blocks.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    _, errors = _rng.channel_pass(A.entries[None], sigma, blocks, seed)
    return _ber_estimate(errors[0], A.n, sigma)


# classes per slab of _pair_measure: bounds memory at any n and keeps each slab in cache
_CLASS_SLAB = 1 << 16


@functools.lru_cache(maxsize=1)
def _pair_classes(n: int):
    """Representative input pair (i, j) and support |d| of each difference class of n users.

    Inputs with x_i - x_j = 2d give points 2 A d apart; d and -d, d in
    {-1,0,1}**n, form one class of 2 * 2**(n - |d|) ordered pairs.  i holds
    the users with d = -1, j those with d = +1.  Block h of the classes is
    d_h = 1 alone, then with each lower class, then with each one negated.
    """
    size = (3**n - 1) // 2
    i, j, support = (np.empty(size, dtype=t) for t in (np.int32, np.int32, np.int8))
    end = 0
    for h in range(n):
        lo, mid, hi = end + 1, 2 * end + 1, 3 * end + 1
        i[end], j[end], support[end] = 0, 1 << h, 1
        i[lo:mid], j[lo:mid], support[lo:mid] = i[:end], j[:end] + (1 << h), support[:end] + 1
        i[mid:hi], j[mid:hi], support[mid:hi] = j[:end], i[:end] + (1 << h), support[:end] + 1
        end = hi
    for a in (i, j, support):
        a.flags.writeable = False  # cached: shared by every later call with this n
    return i, j, support


def _pair_measure(kind: str, points: np.ndarray, sigma: float | None = None) -> np.ndarray:
    """Minimum distance "md", Q-distance "qd" or exp distance "ed" per (2**n, m) constellation.

    One distance per difference class, squares summed in coordinate order;
    "qd" and "ed" weight its tail by the class's ordered-pair count.  Each
    slab sums fresh C-contiguous rows, so stacking changes no value.
    """
    n = points.shape[1].bit_length() - 1
    classes = _pair_classes(n)
    out = np.full(len(points), np.inf) if kind == "md" else np.zeros(len(points))
    for lo in range(0, len(classes[0]), _CLASS_SLAB):
        i, j, support = (c[lo : lo + _CLASS_SLAB] for c in classes)
        d = np.zeros((len(points), len(i)))
        for coord in points.transpose(2, 0, 1):
            d += np.square(coord[:, i] - coord[:, j])
        np.sqrt(d, out=d)
        if kind == "md":
            out = np.minimum(out, d.min(axis=1))
        else:
            x = d / (2.0 * sigma)
            tail = q_function(x) if kind == "qd" else np.exp(-np.square((x + 1.0) / 1.6))
            out += (tail * np.ldexp(1.0, n + 1 - support)).sum(axis=1)
    return out


def union_bound(cons: Constellation, sigma: float) -> float:
    """Pairwise upper bound on the ML block-error probability.

    2**-n * sum over ordered pairs i != j of Q(||Z_i - Z_j|| / (2 sigma)),
    with the exact tail function.  Not clamped: the bound may exceed 1.
    """
    _check_sigma(sigma)
    return 2.0**-cons.n * float(_pair_measure("qd", cons.points[None], sigma)[0])

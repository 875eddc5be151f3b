"""The BER estimate and the one pair-distance kernel; ML decoding itself runs in `_rng._scan`."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import SignatureMatrix, _check_sigma, _check_users


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
    from scipy.special import erfc  # only nu2 and the union bound need it: not on import

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


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
    std_error = float(np.std(errors, ddof=1)) / (n_users * math.sqrt(blocks))
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


# users in the low half u of each class: a slab is 3**8 rows, and when n is
# smaller a chunk takes 3**(8 - n) matrices, so slabs stay cache-sized at any n
_LOW_USERS = 8


@functools.lru_cache(maxsize=2)
def _ternary(k: int):
    """Every d in {-1,0,1}**k as a read-only (3**k, k) table, and |d| per row.

    Rows run in balanced-ternary order, last user most significant: the middle
    row is d = 0 and the rows after it are the d > 0, one per class {d, -d}.
    """
    d = np.zeros((1, 0))
    for _ in range(k):
        d = np.hstack([np.tile(d, (3, 1)), np.repeat([-1.0, 0.0, 1.0], len(d))[:, None]])
    support = np.count_nonzero(d, axis=1)
    d.flags.writeable = support.flags.writeable = False  # cached: shared by later calls
    return d, support


def _pair_measures(a: np.ndarray, sigma: float | None = None, kinds=("md", "qd", "ed")):
    """(len(kinds), P) min distance "md", Q-distance "qd", exp distance "ed" of a (P, m, n) stack.

    Outputs of inputs x_i - x_j = 2d lie ||2 A d|| apart; d and -d form one
    class of 2**(n + 1 - |d|) ordered pairs, which weights the "qd" and "ed"
    tails.  2 A d = u + w over the low _LOW_USERS users and the rest.  Row
    norms sum in coordinate order, so stacking changes no value.
    """
    n = a.shape[-1]
    _check_users(n)
    if sigma is not None:
        _check_sigma(sigma)
    low = min(n, _LOW_USERS)
    (d_lo, s_lo), (d_hi, s_hi) = _ternary(low), _ternary(n - low)
    mid, top = len(d_lo) // 2, len(d_hi) // 2
    out = np.repeat([[np.inf if k == "md" else 0.0] for k in kinds], len(a), axis=1)
    step = 3 ** (_LOW_USERS - low)
    for lo in range(0, len(a), step):
        chunk = 2.0 * a[lo : lo + step]
        u = d_lo @ chunk[..., :low].swapaxes(-1, -2)
        w = d_hi[top + 1 :] @ chunk[..., low:].swapaxes(-1, -2)
        for h in range(top, len(d_hi)):  # d_hi = 0 first: only its d_lo > 0 rows, with no add
            v = u[:, mid + 1 :] if h == top else u + w[:, h - top - 1, None]
            support = s_lo[mid + 1 :] if h == top else s_lo + s_hi[h]
            dist = np.sqrt(np.einsum("...ij,...ij->...i", v, v, order="C"))
            x = None if sigma is None else dist / (2.0 * sigma)
            for row, kind in zip(out[:, lo : lo + step], kinds):
                if kind == "md":
                    np.minimum(row, dist.min(axis=1), out=row)
                else:  # "ed" caps (x + 1) / 1.6 at 28, past which exp(-t^2) is 0.0
                    ed = kind == "ed"
                    tail = np.exp(-np.minimum((x + 1) / 1.6, 28.0) ** 2) if ed else q_function(x)
                    row += (tail * np.ldexp(1.0, n + 1 - support)).sum(axis=1)
    return out


def union_bound(A: SignatureMatrix, sigma: float) -> float:
    """Pairwise upper bound on the ML block-error probability of A.

    2**-n * sum over ordered pairs i != j of Q(||Z_i - Z_j|| / (2 sigma)),
    with Z_i = A x_i and the exact tail function.  Not clamped: the bound
    may exceed 1.
    """
    return 2.0**-A.n * float(_pair_measures(A.entries[None], sigma, ("qd",))[0, 0])

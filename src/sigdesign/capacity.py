"""Monte-Carlo sum capacity and BER of a signature matrix, and a 1 x n oracle.

With uniform sign inputs the channel output Y = A X + N has an exact
Gaussian-mixture density over the 2**n constellation points.  `estimate`
scores each drawn row against the point that was sent: the mean of the
per-row terms -log2 f_Y(Y_k) - h(N) is the sum capacity at every sigma that
`_check_sigma` accepts, and the same rows' ML decisions give the BER.  Both
result types and their standard-error rules live here.  A pair of
Gauss-Hermite rules (numpy alone) gives the exact capacity of any 1 x n
matrix, whose outputs are the n + 1 points n - 2j with binomial weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .model import NumericFailure, SignatureMatrix, _check_samples, _check_sigma

_QUAD_TOL = 1e-6  # largest accepted difference of the oracle's two quadrature rules, in bits


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte-Carlo estimate of the sum capacity C(A) in bits."""

    sum_bits: float
    per_user_bits: float
    std_error: float
    samples: int
    sigma: float


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


def _combine(terms: np.ndarray):
    """Mean and M2 of all rows from (blocks, ..., 3, P) per-block count, mean and M2, merged in block
    order as Chan, Golub & LeVeque (Am. Stat. 1983) do; elementwise, so each matrix gets its own."""
    count, means, m2s = np.moveaxis(terms, -2, 0)
    mean = sum(n * mu for n, mu in zip(count, means)) / sum(count)
    return mean, sum(m2 + n * np.square(mu - mean) for n, mu, m2 in zip(count, means, m2s))


def _ber_estimate(errors, blocks: int, n_users: int, sigma: float) -> BerEstimate:
    """BER estimate from the sum, sum of squares and nonzero count of `blocks` bit-error counts.

    ML decoding flips the bits of one vector together, so std_error is the cluster
    estimate sd(errors) / (n * sqrt(blocks)), not per bit, from exact integer sums.
    With no errors both standard errors are 1 / blocks, so a 3-sigma band reaches
    the rule-of-three 95 % bound 3 / blocks instead of width 0.
    """
    bit_errors, squares, block_errors = (int(v) for v in errors)
    bits = blocks * n_users
    bler = block_errors / blocks
    std_error = math.sqrt((blocks * squares - bit_errors**2) / (blocks - 1)) / (n_users * blocks)
    block_std_error = math.sqrt(bler * (1.0 - bler) / blocks)
    if bit_errors == 0:
        std_error = block_std_error = 1.0 / blocks
    return BerEstimate(ber=bit_errors / bits, bit_errors=bit_errors, bits_simulated=bits,
                       std_error=std_error, sigma=float(sigma), block_error_rate=bler,
                       block_errors=block_errors, blocks=blocks, block_std_error=block_std_error)


def estimate(
    A: SignatureMatrix,
    sigma: float,
    samples: int = 200_000,
    seed: int = 0,
) -> tuple[CapacityEstimate, BerEstimate]:
    """Sum capacity and ML-decoded BER of A at noise level sigma, from one Monte-Carlo pass.

    Both read the same `samples` channel uses, drawn from fixed per-block
    substreams of `seed`, so the pair is deterministic for a given seed,
    independent of the worker count, and shares its draws across sigma
    values (the noise is drawn at unit variance and scaled).  Fewer than
    100 samples raise ValueError.
    """
    return _estimates(A, [sigma], samples, seed)[0]


def _estimates(A: SignatureMatrix, sigmas, samples: int, seed: int, decode=True) -> list:
    """[estimate(A, sigma, samples, seed) for sigma in sigmas], from one draw of each block;
    with decode=False each BerEstimate is None and the pass runs no decode."""
    samples = _check_samples(samples)
    terms, errors = _rng.channel_pass(A.entries[None], sigmas, samples, seed, decode)
    mean, m2 = (v[:, 0] for v in _combine(terms))
    se = np.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    caps = [CapacityEstimate(sum_bits=float(mu), per_user_bits=float(mu) / A.n, std_error=float(e),
                             samples=samples, sigma=float(s)) for s, mu, e in zip(sigmas, mean, se)]
    totals = errors.sum(axis=0)[..., 0] if decode else [None] * len(caps)  # each sigma's 3 sums
    return [(c, t if t is None else _ber_estimate(t, samples, A.n, c.sigma)) for c, t in zip(caps, totals)]


@functools.cache
def _hermite_rules() -> tuple:
    """Nodes (384,) and (2, 384) weights of the probabilists' 128- and 256-node Gauss-Hermite rules."""
    from numpy.polynomial.hermite_e import hermegauss  # `import numpy` does not load numpy.polynomial
    (z1, w1), (z2, w2) = hermegauss(128), hermegauss(256)  # hermegauss(512) overflows
    weights = np.zeros((2, 384))
    weights[0, :128], weights[1, 128:] = w1 / w1.sum(), w2 / w2.sum()
    return np.concatenate([z1, z2]), weights


def exact_capacity_1d(A: SignatureMatrix, sigma: float) -> float:
    """Sum capacity in bits of a 1 x n matrix A, by Gauss-Hermite quadrature.

    Its unit columns are +-1, so whatever their signs the outputs are the n + 1 points
    x_j = n - 2j with weights p_j = C(n, j) / 2**n.  Writing y = x_j + sigma z turns h(Y) - h(N)
    into one expectation over the noise z ~ N(0, 1) of sum_j p_j i_j(z), with the information
    density i_j(z) = -log2 sum_i p_i exp(-d_ji (d_ji / 2 + z)), d_ji = (x_j - x_i) / sigma, which
    stays exact at every sigma that `_check_sigma` accepts, coinciding points included.  The
    independent oracle for the Monte-Carlo estimator: returns the 256-node rule's value, and
    raises NumericFailure if the 128-node rule's differs from it by more than _QUAD_TOL.
    """
    if A.m != 1:
        raise ValueError(f"exact_capacity_1d needs a 1 x n matrix, got {A.m} x {A.n}")
    _check_sigma(sigma)
    x = A.n - 2.0 * np.arange(A.n + 1)
    p = np.array([math.comb(A.n, j) for j in range(A.n + 1)]) / 2.0**A.n
    # past 1e3 a term is exp(-4e5) = 0 at every node (|z| < 32); the cap keeps d * d finite
    d = np.clip((x[:, None] - x) / float(sigma), -1e3, 1e3)
    z, weights = _hermite_rules()
    e = np.log(p) - d * (0.5 * d + z[:, None, None])  # (node, j, i)
    top = e.max(axis=2)
    info = -top - np.log(np.exp(e - top[..., None]).sum(axis=2))  # max-shifted log-sum-exp
    coarse, bits = weights @ info @ p / _rng._LN2
    if not abs(bits - coarse) <= _QUAD_TOL:  # a NaN fails too
        raise NumericFailure(f"quadrature rules differ by {abs(bits - coarse):g}, above {_QUAD_TOL:g}")
    return float(bits)

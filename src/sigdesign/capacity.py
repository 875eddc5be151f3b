"""Sum-capacity evaluation of a signature matrix.

With uniform sign inputs the channel output Y = A X + N has an exact
Gaussian-mixture density over the 2**n constellation points.  Each drawn
row is scored against the point that was sent, and the mean of the
per-row terms -log2 f_Y(Y_k) - h(N) is the sum capacity, for every sigma
that `_check_sigma` accepts.  A 1-D adaptive-quadrature oracle covers the
scalar case for validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import InvalidSamplesError, QuadratureFailure
from .model import SignatureMatrix, _check_sigma


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte-Carlo estimate of the sum capacity C(A) in bits."""

    sum_bits: float
    per_user_bits: float
    std_error: float
    samples: int
    sigma: float


def noise_entropy(m: int, sigma: float) -> float:
    """Differential entropy in bits of m iid Gaussian(0, sigma**2) chips."""
    if m < 1:
        raise ValueError("need at least one chip")
    _check_sigma(sigma)
    return 0.5 * m * math.log2(2.0 * math.pi * math.e * sigma * sigma)


def _check_samples(samples: int) -> None:
    if samples < 100:
        raise InvalidSamplesError("need at least 100 samples")


def _capacity_estimate(terms: np.ndarray, n: int, sigma: float):
    sum_bits = float(np.mean(terms))
    return CapacityEstimate(
        sum_bits=sum_bits,
        per_user_bits=sum_bits / n,
        std_error=float(np.std(terms, ddof=1) / math.sqrt(terms.size)),
        samples=terms.size,
        sigma=float(sigma),
    )


def estimate_capacity(
    A: SignatureMatrix,
    sigma: float,
    samples: int = 200_000,
    seed: int = 0,
) -> CapacityEstimate:
    """Monte-Carlo estimate of the sum capacity of A at noise level sigma.

    h(Y) is averaged over `samples` channel uses drawn from fixed per-block
    substreams of `seed`, so the result is deterministic for a given seed,
    independent of the worker count, and shares its draws across sigma
    values (the noise is drawn at unit variance and scaled).
    """
    _check_samples(samples)
    terms, _ = _rng.channel_pass(A.entries[None], sigma, samples, seed)
    return _capacity_estimate(terms[0], A.n, sigma)


def exact_capacity_1d(scale: float, sigma: float, tol: float = 1e-6) -> float:
    """Mutual information of Y = scale*X + N, X uniform on {+1, -1}, in bits.

    Computed by adaptive quadrature of -integral f_Y log2 f_Y minus the
    Gaussian noise entropy; serves as the independent oracle for the
    Monte-Carlo estimator on 1x1 systems.
    """
    from scipy import integrate  # the only user; keeps it out of `import sigdesign`

    _check_sigma(sigma)
    a, s = float(scale), float(sigma)
    log_half_phi = math.log(0.5) - 0.5 * math.log(2.0 * math.pi * s * s)
    inv2s2 = 1.0 / (2.0 * s * s)

    def integrand(y):
        lf = np.logaddexp(
            log_half_phi - (y - a) ** 2 * inv2s2,
            log_half_phi - (y + a) ** 2 * inv2s2,
        )
        f = math.exp(lf)
        if f == 0.0:
            return 0.0
        return -f * lf / _rng._LN2

    lim = abs(a) + 60.0 * s
    with warnings.catch_warnings():
        # accuracy is judged by the error estimate below, not the warning
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        h_y, err = integrate.quad(
            integrand,
            -lim,
            lim,
            limit=400,
            epsabs=tol / 10.0,
            epsrel=1e-10,
            points=[-abs(a), 0.0, abs(a)],
        )
    if not math.isfinite(h_y) or err > tol:
        raise QuadratureFailure(
            f"quadrature error estimate {err:g} exceeds tolerance {tol:g}"
        )
    return h_y - noise_entropy(1, s)

"""Reference matrices: tight frames with unit-norm columns (the classical
equal-cross-correlation benchmark), random normalized matrices, and
orthogonal column sets for the non-overloaded sanity case."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonConvergenceError
from .model import SignatureMatrix

KINDS = ("wbe", "random", "orthogonal")

_WBE_TOL = 1e-10
_WBE_MAX_ITER = 10_000


def _random_unit_columns(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """iid Gaussian entries of shape (..., m, n) from rng, columns scaled to unit norm."""
    if min(shape[-2:]) < 1:
        raise DimensionError(f"need m >= 1 and n >= 1, got (m, n) = {shape[-2:]}")
    while True:
        raw = rng.standard_normal(shape)
        norms = np.linalg.norm(raw, axis=-2, keepdims=True)
        if np.all(norms >= 1e-12):
            return raw / norms


def random_normalized(m: int, n: int, seed: int = 0) -> SignatureMatrix:
    """iid Gaussian entries, columns scaled to unit norm; deterministic per seed."""
    return SignatureMatrix(_random_unit_columns((m, n), np.random.default_rng(seed)))


def orthogonal_matrix(m: int, n: int, seed: int = 0) -> SignatureMatrix:
    """First n columns of a Haar-random orthogonal m x m matrix; needs n <= m."""
    if n > m:
        raise DimensionError(f"orthogonal columns need n <= m, got n={n} > m={m}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    q = q[:, :n]
    return SignatureMatrix(q / np.linalg.norm(q, axis=0))


def wbe_verify(A: SignatureMatrix) -> float:
    """Max deviation of the row Gram A @ A.T from (n/m) * I."""
    gram = A.entries @ A.entries.T
    target = A.n / A.m
    return float(np.max(np.abs(gram - target * np.eye(A.m))))


def wbe_matrix(m: int, n: int, seed: int = 0) -> SignatureMatrix:
    """Unit-column matrix with A @ A.T = (n/m) * I, by alternating projection.

    Starts from a random normalized matrix and alternates (i) symmetric
    orthogonalization of the rows scaled to the target row Gram with
    (ii) column renormalization, until the row-Gram deviation drops to
    _WBE_TOL.  Raises NonConvergenceError after _WBE_MAX_ITER iterations;
    retrying with a new seed is the caller's choice.
    """
    if n < m:
        raise DimensionError(f"tight frame needs n >= m, got n={n} < m={m}")
    a = _random_unit_columns((m, n), np.random.default_rng(seed))
    target = n / m
    eye = np.eye(m)
    for _ in range(_WBE_MAX_ITER):
        gram = a @ a.T
        if np.max(np.abs(gram - target * eye)) <= _WBE_TOL:
            return SignatureMatrix(a)
        w, v = np.linalg.eigh(gram)
        w = np.maximum(w, 1e-300)
        a = np.sqrt(target) * (v * (1.0 / np.sqrt(w))) @ v.T @ a
        a /= np.linalg.norm(a, axis=0)
    raise NonConvergenceError(
        f"row Gram did not reach tolerance {_WBE_TOL:g} in {_WBE_MAX_ITER} iterations"
    )


def generate(kind: str, m: int, n: int, seed: int = 0) -> SignatureMatrix:
    """Baseline factory keyed by the stable kind names used in files and CLI."""
    if kind == "wbe":
        return wbe_matrix(m, n, seed)
    if kind == "random":
        return random_normalized(m, n, seed)
    if kind == "orthogonal":
        return orthogonal_matrix(m, n, seed)
    raise ValueError(f"kind must be one of {KINDS}")

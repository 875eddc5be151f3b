"""Channel model: signature matrices, input enumeration, noise conventions.

Conventions
-----------
* A signature matrix is m x n with unit-norm columns; column j is user j's
  spreading code over the m chips.  The system is overloaded when n > m.
* The 2**n binary input vectors are enumerated canonically: for index i,
  user k sends +1 when bit k of i is 0 and -1 when it is 1, so index 0 is
  the all-plus-one vector and index 2**n - 1 its negation.
* Noise level is parameterized by the per-chip standard deviation sigma.
  Columns have unit energy, so the displayed SNR is -20*log10(sigma);
  sigma is the ground-truth parameter everywhere.
* Every input check lives here: bad input raises ValueError (CLI exit 2),
  a numeric failure raises NumericFailure (CLI exit 3).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

COLUMN_NORM_TOL = 1e-9
MAX_USERS = 16


class NumericFailure(RuntimeError):
    """A computation on valid input failed: no convergence, a NaN fitness, a missed tolerance."""


def _check_sigma(sigma) -> None:
    """Raise ValueError unless sigma is a real number > 0 with 2 sigma**2 and its reciprocal finite.

    Every Gaussian density and tail here divides by 2 sigma**2; this also rejects nan, inf,
    sigma outside about [5e-155, 9e153], and None, strings and arrays.
    """
    s = float(sigma) if isinstance(sigma, numbers.Real) and sigma > 0 else 0.0
    if not 0.0 < 2.0 * s * s < math.inf or 1.0 / (2.0 * s * s) == math.inf:
        raise ValueError(f"sigma must be > 0 with 2 sigma^2 and its inverse finite, got {sigma!r}")


def _check_columns(a: np.ndarray) -> None:
    """Raise ValueError unless each (m, n) matrix in a has finite entries and unit columns."""
    if not np.all(np.isfinite(a)):
        raise ValueError("signature matrix entries must be finite")
    if np.any(np.abs(np.linalg.norm(a, axis=-2) - 1.0) > COLUMN_NORM_TOL):
        raise ValueError(f"every column must have unit norm within {COLUMN_NORM_TOL:g}")


def _check_users(n: int) -> None:
    """Raise ValueError for more than MAX_USERS users."""
    if n > MAX_USERS:
        raise ValueError(f"n={n} exceeds the 2**n enumeration guard (MAX_USERS={MAX_USERS})")


def _check_integer(value, name: str) -> int:
    """value as a Python int, from a Python or numpy integer; ValueError for a float or other type."""
    try:
        return operator.index(value)
    except TypeError:  # a float, a string, an array of more than one element, ...
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_samples(samples) -> int:
    """samples as a Python int; ValueError unless it is an integer of at least 100."""
    if (samples := _check_integer(samples, "samples")) < 100:
        raise ValueError("need at least 100 samples")
    return samples


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SignatureMatrix:
    """Real m x n matrix of unit-norm spreading codes, one column per user."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("signature matrix must be a non-empty 2-D array")
        _check_columns(a)
        object.__setattr__(self, "entries", _frozen(a))

    @property
    def m(self) -> int:
        """Chip count (rows)."""
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        """User count (columns)."""
        return self.entries.shape[1]


def enumerate_inputs(n: int) -> np.ndarray:
    """All 2**n sign vectors in canonical order, as a read-only (2**n, n) array."""
    if n < 1:
        raise ValueError("need at least one user")
    _check_users(n)
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return _frozen(1.0 - 2.0 * bits)


def _points(a: np.ndarray) -> np.ndarray:
    """(..., 2**n, m) noiseless outputs A @ x of each (m, n) matrix in a, in input order.

    A column exactly equal to an earlier one, or to its negation, is folded into the first such
    column before the product, weighted by the signed sum of its users' +-1: inputs with equal
    weights get bitwise-equal points, which the density kernels count exactly once.  A matrix
    whose entries all have one magnitude c, as a +-1/sqrt(m) code's do, gets c (x @ signs): its
    sums of +-1 are exact, so points that coincide through any relation between its columns are
    bitwise equal too.
    """
    x, at, users = enumerate_inputs(a.shape[-1]), a.swapaxes(-1, -2), np.arange(a.shape[-1])
    # [..., j, k]: column j equals column k, or equals its negation
    same = (at[..., None, :] == at[..., None, :, :]).all(axis=-1)
    anti = (at[..., None, :] == -at[..., None, :, :]).all(axis=-1)
    first = (same | anti).argmax(axis=-1)[..., None]  # j itself unless an earlier column matches
    if (first == users[:, None]).all():
        points = x @ at
    else:
        points = (x @ np.where(first == users, same - 1.0 * anti, 0.0)) @ at
    c = np.abs(a[..., :1, :1])
    code = (np.abs(a) == c).all(axis=(-2, -1))[..., None, None]
    return np.where(code, c * (x @ np.sign(at)), points) if code.any() else points

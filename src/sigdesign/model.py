"""Channel model: signature matrices, input enumeration, constellations, noise conventions.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyUsersError, ZeroColumnError

COLUMN_NORM_TOL = 1e-9
MAX_USERS = 16


def _check_sigma(sigma) -> None:
    """Raise ValueError unless sigma > 0 and 2 sigma**2 and its reciprocal are finite.

    Every Gaussian density and tail here divides by 2 sigma**2; this also
    rejects nan, inf, and sigma outside about [5e-155, 9e153].
    """
    s = float(sigma) if sigma > 0 else 0.0
    if not 0.0 < 2.0 * s * s < math.inf or 1.0 / (2.0 * s * s) == math.inf:
        raise ValueError(f"sigma must be > 0 with 2 sigma^2 and its inverse finite, got {sigma!r}")


def _check_columns(a: np.ndarray) -> None:
    """Raise ValueError unless each (m, n) matrix in a has finite entries and unit columns."""
    if not np.all(np.isfinite(a)):
        raise ValueError("signature matrix entries must be finite")
    if np.any(np.abs(np.linalg.norm(a, axis=-2) - 1.0) > COLUMN_NORM_TOL):
        raise ValueError(f"every column must have unit norm within {COLUMN_NORM_TOL:g}")


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

    @property
    def overloading_factor(self) -> float:
        """Users per chip, n/m."""
        return self.n / self.m


@dataclass(frozen=True)
class Constellation:
    """All 2**n noiseless outputs A @ x paired with their sign inputs.

    points[i] equals A @ inputs[i] with the same arithmetic used at
    construction; duplicate points are kept (never deduplicated).
    """

    points: np.ndarray  # (2**n, m)
    inputs: np.ndarray  # (2**n, n)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ins = np.asarray(self.inputs, dtype=float)
        if pts.ndim != 2 or ins.ndim != 2 or pts.shape[0] != ins.shape[0]:
            raise ValueError("points and inputs must be 2-D with matching length")
        if pts.shape[0] != 2 ** ins.shape[1]:
            raise ValueError("constellation must hold 2**n points")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "inputs", _frozen(ins))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.inputs.shape[1]


def normalize_columns(raw) -> SignatureMatrix:
    """Scale every column of `raw` to unit Euclidean norm.

    Raises ZeroColumnError when a column norm falls below 1e-12, which
    signals a degenerate candidate rather than a recoverable state.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms < 1e-12):
        raise ZeroColumnError("matrix has a (near-)zero column")
    return SignatureMatrix(a / norms)


def enumerate_inputs(n: int) -> np.ndarray:
    """All 2**n sign vectors in canonical order, as a read-only (2**n, n) array."""
    if n < 1:
        raise ValueError("need at least one user")
    if n > MAX_USERS:
        raise TooManyUsersError(
            f"n={n} exceeds the 2**n enumeration guard (MAX_USERS={MAX_USERS})"
        )
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return _frozen(1.0 - 2.0 * bits)


def build_constellation(A: SignatureMatrix) -> Constellation:
    """Noiseless output points A @ x for every sign input x."""
    inputs = enumerate_inputs(A.n)
    points = inputs @ A.entries.T
    return Constellation(points=points, inputs=inputs)


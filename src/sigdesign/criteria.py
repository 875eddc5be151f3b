"""Signature-matrix fitness criteria, the constellation measures and their one pair kernel.

Five criteria: estimated sum capacity, simulated BER, and three
constellation measures (minimum distance nu1, Q-distance nu2,
exponential distance nu3).  `constellation_measures` gives all three of
one matrix, plus the BER union bound, from one kernel pass.  Criteria
that are natively minimized enter the fitness as their negation, so the
optimizer always maximizes.  `population_fitness` scores a whole
(P, m, n) stack in one call, each individual equal bit for bit to
`estimate` or `constellation_measures` of it alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .model import SignatureMatrix, _check_columns, _check_samples, _check_sigma, _check_users

KINDS = ("capacity", "ber", "md", "qd", "ed")
STOCHASTIC_KINDS = ("capacity", "ber")

# population_fitness chunk size for stochastic kinds, in float64s per (individuals, rows)
# array: it bounds memory, and fewer chunks share each block's draws more widely
_ROW_CHUNK = 1 << 22


@dataclass(frozen=True)
class CriterionSpec:
    """Which fitness to optimize plus its evaluation parameters.

    Stochastic kinds (capacity, ber) are scored on `eval_budget` draws
    with a seed fixed per optimizer generation, so all individuals within
    one generation see the same randomness.
    """

    kind: str
    sigma: float | None = None
    eval_budget: int = 20_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind != "md":
            if self.sigma is None:
                raise ValueError(f"criterion {self.kind!r} needs sigma")
            _check_sigma(self.sigma)
        if self.kind in STOCHASTIC_KINDS:
            _check_samples(self.eval_budget)


def q_function(x) -> float | np.ndarray:
    """Exact Gaussian tail probability Q(x) via the complementary error function."""
    from scipy.special import erfc  # only nu2 and the union bound need it: not on import

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


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


def _pair_measures(a: np.ndarray, sigma: float | None, kinds=("md", "qd", "ed")):
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


@dataclass(frozen=True)
class ConstellationMeasures:
    """The constellation measures of one matrix at one sigma."""

    nu1: float
    """Smallest distance between two of the 2**n noiseless outputs (0 if two coincide)."""
    nu2: float
    """Q-distance: sum over ordered output pairs of Q(distance / (2 sigma)); minimize."""
    nu3: float
    """nu2 with Q(x) fitted by exp(-((x + 1) / 1.6)**2), the fit's constant prefactor dropped."""
    union_bound: float
    """2**-n * nu2, a pairwise bound on the ML block-error probability; not clamped: may exceed 1."""


def constellation_measures(A: SignatureMatrix, sigma: float) -> ConstellationMeasures:
    """nu1, nu2, nu3 and the union bound of A from one pair-kernel pass; nu1 ignores sigma."""
    nu1, nu2, nu3 = (float(v) for v in _pair_measures(A.entries[None], sigma)[:, 0])
    return ConstellationMeasures(nu1, nu2, nu3, 2.0**-A.n * nu2)


def population_fitness(spec: CriterionSpec, population, seed: int = 0) -> np.ndarray:
    """Score each matrix of a (P, m, n) unit-column stack, equal bit for bit to scoring it alone.

    Stochastic kinds draw each block once for a chunk of individuals, and
    chunks bound memory; constellation kinds make one pair-kernel call.
    Non-finite entries or non-unit columns raise SignatureMatrix's ValueError.
    """
    pop = np.ascontiguousarray(population, dtype=float)
    if pop.ndim != 3 or 0 in pop.shape:
        raise ValueError("population must be a non-empty (P, m, n) array")
    _check_columns(pop)
    n = pop.shape[-1]
    if spec.kind not in STOCHASTIC_KINDS:
        value = _pair_measures(pop, spec.sigma, (spec.kind,))[0]
        return value if spec.kind == "md" else -value
    scores = []
    step = max(1, _ROW_CHUNK // spec.eval_budget)
    for chunk in (pop[lo : lo + step] for lo in range(0, len(pop), step)):
        terms, errors = _rng.channel_pass(chunk, spec.sigma, spec.eval_budget, seed)
        if spec.kind == "capacity":
            scores.append(terms.mean(axis=1))
        else:  # negate the quotient: a BER of 0 scores -0.0, the same as -BerEstimate.ber
            scores.append(-(errors.sum(axis=1) / (spec.eval_budget * n)))
    return np.concatenate(scores)


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
from .capacity import _combine
from .model import (SignatureMatrix, _check_columns, _check_integer, _check_samples, _check_sigma,
                    _check_users)

KINDS = ("capacity", "ber", "md", "qd", "ed")
STOCHASTIC_KINDS = ("capacity", "ber")


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
        # stored as a Python int for every kind, so a run file serializes it
        object.__setattr__(self, "eval_budget", _check_integer(self.eval_budget, "samples"))
        if self.kind in STOCHASTIC_KINDS:
            _check_samples(self.eval_budget)


# Cephes ndtr.c, highest power first, the monic denominators' leading 1 written out:
# erf(a) = a T(a^2) / U(a^2) for |a| < 1, erfc(t) = exp(-t^2) P(t) / Q(t) on [1, 8) and
# exp(-t^2) R(t) / S(t) beyond, until t^2 > _MAXLOG = ln(DBL_MAX) makes it 0.0
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _polevl(v, coefficients):
    """Cephes' polevl: Horner's rule from the highest power, rounded step by step as Cephes does."""
    y = coefficients[0] * v
    for c in coefficients[1:-1]:
        y += c
        y *= v
    y += coefficients[-1]
    return y


def q_function(x) -> float | np.ndarray:
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2, in numpy alone.

    erfc is W. J. Cody's rational Chebyshev approximation (Math. Comp. 23, 1969) with the
    Cephes ndtr.c coefficients, as Cephes' own erfc evaluates it.  Against Cephes the relative
    error is 0 for |x| < sqrt 2 and, from numpy's exp, at most 1e-15 below 8 sqrt 2 and 4e-15
    beyond; both underflow to 0.0 at the same x.  Negative x use erfc(-t) = 2 - erfc(t).
    """
    a = np.asarray(x, dtype=float) / math.sqrt(2.0)
    flat = a.reshape(-1)
    t = np.abs(flat)
    big = np.flatnonzero(t >= 8.0)
    below = np.flatnonzero(~(t >= 8.0)) if big.size else slice(None)  # NaN too; t < 1 is redone
    erfc, tm = np.empty_like(t), t[below]
    erfc[below] = np.exp(-(tm * tm)) * _polevl(tm, _P) / _polevl(tm, _Q)
    small = np.flatnonzero(t < 1.0)
    if small.size:
        s = flat[small]
        erfc[small] = 1.0 - s * _polevl(s * s, _T) / _polevl(s * s, _U)
    if big.size:
        tb = np.minimum(t[big], 40.0)  # erfc(40) is 0.0; the cap keeps tb * tb finite
        under = tb * tb > _MAXLOG  # 0.0 there, and exp kept off its slow subnormal path
        e = np.exp(-np.where(under, 0.0, tb * tb))
        erfc[big] = np.where(under, 0.0, e * _polevl(tb, _R) / _polevl(tb, _S))
    neg = np.flatnonzero(flat <= -1.0)
    erfc[neg] = 2.0 - erfc[neg]
    return 0.5 * erfc.reshape(a.shape)


# users in the low half u of each class: a slab is 3**8 rows; when n < 9 a chunk takes
# 3**(9 - n) matrices, whose d > 0 rows, about 10 000 distances, stay in cache
_LOW_USERS = 8
_CHUNK_ROWS = 3**9


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


def _pair_measures(a: np.ndarray, sigma, kinds=("md", "qd", "ed")):
    """(len(kinds), P) min distance "md", Q-distance "qd", exp distance "ed" of a (P, m, n) stack.

    Outputs of inputs x_i - x_j = 2d lie ||2 A d|| apart; d and -d form one
    class of 2**(n + 1 - |d|) ordered pairs, which weights the "qd" and "ed"
    tails.  2 A d = u + w over the low _LOW_USERS users and the rest; with no
    rest (n < 9) u holds only the d > 0 rows.  Row norms sum in coordinate
    order, so stacking changes no value.  A 1-D grid of sigmas gives (len(kinds),
    len(grid), P), each sigma's values those of it alone, from one pass over the distances.
    """
    n = a.shape[-1]
    _check_users(n)
    grid = [sigma] if (scalar := np.ndim(sigma) == 0) else list(sigma)  # None is a scalar
    for s in grid if set(kinds) != {"md"} else ():
        _check_sigma(s)
    low = min(n, _LOW_USERS)
    (d_lo, s_lo), (d_hi, s_hi) = _ternary(low), _ternary(n - low)
    mid, top = len(d_lo) // 2, len(d_hi) // 2
    out = np.zeros((len(kinds), len(grid), len(a)))
    out[[k == "md" for k in kinds]] = np.inf
    step = max(1, _CHUNK_ROWS // 3**n)
    top_weight = np.ldexp(1.0, n + 1 - s_lo[mid + 1 :])
    for lo in range(0, len(a), step):
        chunk = 2.0 * a[lo : lo + step]
        u = (d_lo if top else d_lo[mid + 1 :]) @ chunk[..., :low].swapaxes(-1, -2)
        w = d_hi[top + 1 :] @ chunk[..., low:].swapaxes(-1, -2)
        for h in range(top, len(d_hi)):  # d_hi = 0 first: only its d_lo > 0 rows, with no add
            v = u[:, -mid:] if h == top else u + w[:, h - top - 1, None]
            weight = top_weight if h == top else np.ldexp(1.0, n + 1 - s_lo - s_hi[h])
            dist = np.sqrt(np.einsum("...ij,...ij->...i", v, v, order="C"))
            for rows, kind in zip(out[:, :, lo : lo + step], kinds):
                if kind == "md":
                    np.minimum(rows, dist.min(axis=1), out=rows)
                for row, s in zip(rows, grid) if kind != "md" else ():  # a sigma at a time
                    x = dist / (2.0 * s)  # "ed" caps (x + 1) / 1.6 at 28: exp(-t^2) is 0.0 past it
                    ed = kind == "ed"
                    tail = np.exp(-np.minimum((x + 1) / 1.6, 28.0) ** 2) if ed else q_function(x)
                    row += (tail * weight).sum(axis=1)
    return out[:, 0] if scalar else out


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

    Stochastic kinds draw each block once for the whole stack and keep only its statistics,
    so memory does not grow with the budget; constellation kinds make one pair-kernel call.
    Non-finite entries or non-unit columns raise SignatureMatrix's ValueError.
    """
    pop = np.ascontiguousarray(population, dtype=float)
    if pop.ndim != 3 or 0 in pop.shape:
        raise ValueError("population must be a non-empty (P, m, n) array")
    _check_columns(pop)
    if spec.kind not in STOCHASTIC_KINDS:
        value = _pair_measures(pop, spec.sigma, (spec.kind,))[0]
        return value if spec.kind == "md" else -value
    ber = spec.kind == "ber"  # the pass computes only what the kind reads
    terms, errors = _rng.channel_pass(pop, [spec.sigma], spec.eval_budget, seed, ber, not ber)
    if not ber:
        return _combine(terms)[0][0]
    # negate the quotient: a BER of 0 scores -0.0, the same as -BerEstimate.ber
    return -(errors[:, 0, 0].sum(axis=0) / (spec.eval_budget * pop.shape[-1]))

"""Signature-matrix fitness criteria behind one maximize-me interface.

Five criteria: estimated sum capacity, simulated BER, and three
constellation measures (minimum distance, Q-distance, exponential
distance).  Criteria that are natively minimized enter the fitness as
their negation, so the optimizer always maximizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .ber import simulate_ber, union_bound
from .capacity import estimate_capacity
from .model import Constellation, SignatureMatrix, _check_sigma, build_constellation

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
        if self.kind in STOCHASTIC_KINDS and self.eval_budget < 100:
            raise ValueError("eval_budget must be at least 100 for stochastic kinds")


def q_approx(x) -> float | np.ndarray:
    """Gaussian-shaped curve fit to the tail function: 0.7*exp(-((x+1)/1.6)**2)."""
    x = np.asarray(x, dtype=float)
    out = 0.7 * np.exp(-(((x + 1.0) / 1.6) ** 2))
    return float(out) if out.ndim == 0 else out


def min_distance(cons: Constellation) -> float:
    """Smallest pairwise distance between constellation points (0 if duplicated)."""
    if cons.size < 2:
        raise ValueError("need at least two constellation points")
    return float(pdist(cons.points).min())


def q_distance(cons: Constellation, sigma: float) -> float:
    """Sum over ordered point pairs of Q(distance / (2 sigma)); minimize."""
    return 2.0**cons.n * union_bound(cons, sigma)


def exp_distance(cons: Constellation, sigma: float) -> float:
    """Q-distance with the tail replaced by its exponential fit; minimize.

    Sum over ordered pairs of exp(-((d/(2 sigma) + 1) / 1.6)**2).  The
    fit's constant prefactor multiplies every term equally and is dropped.
    Computed in place on the pair-distance vector.
    """
    _check_sigma(sigma)
    e = pdist(cons.points)
    e /= 2.0 * sigma
    e += 1.0
    e /= 1.6
    np.square(e, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return float(2.0 * np.sum(e))


def fitness(spec: CriterionSpec, A: SignatureMatrix, seed: int = 0) -> float:
    """Score A under spec; larger is always better."""
    if spec.kind == "capacity":
        return estimate_capacity(A, spec.sigma, spec.eval_budget, seed).sum_bits
    if spec.kind == "ber":
        return -simulate_ber(A, spec.sigma, spec.eval_budget, seed).ber
    cons = build_constellation(A)
    if spec.kind == "md":
        return min_distance(cons)
    if spec.kind == "qd":
        return -q_distance(cons, spec.sigma)
    return -exp_distance(cons, spec.sigma)

"""Signature-matrix fitness criteria behind one maximize-me interface.

Five criteria: estimated sum capacity, simulated BER, and three
constellation measures (minimum distance, Q-distance, exponential
distance).  Criteria that are natively minimized enter the fitness as
their negation, so the optimizer always maximizes.  `population_fitness`
scores a whole (P, m, n) stack in one call, each individual equal to its
named single-matrix evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .ber import _pair_measures
from .capacity import _check_samples
from .model import SignatureMatrix, _check_columns, _check_sigma

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


def min_distance(A: SignatureMatrix) -> float:
    """Smallest distance between two of A's 2**n noiseless outputs (0 if two coincide)."""
    return float(_pair_measures(A.entries[None], kinds=("md",))[0, 0])


def q_distance(A: SignatureMatrix, sigma: float) -> float:
    """Sum over ordered output pairs of Q(distance / (2 sigma)); minimize."""
    return float(_pair_measures(A.entries[None], sigma, ("qd",))[0, 0])


def exp_distance(A: SignatureMatrix, sigma: float) -> float:
    """Q-distance with the tail replaced by its exponential fit; minimize.

    Sum over ordered pairs of exp(-((d/(2 sigma) + 1) / 1.6)**2).  The
    fit's constant prefactor multiplies every term equally and is dropped.
    """
    return float(_pair_measures(A.entries[None], sigma, ("ed",))[0, 0])


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


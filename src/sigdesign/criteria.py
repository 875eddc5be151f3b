"""Signature-matrix fitness criteria behind one maximize-me interface.

Five criteria: estimated sum capacity, simulated BER, and three
constellation measures (minimum distance, Q-distance, exponential
distance).  Criteria that are natively minimized enter the fitness as
their negation, so the optimizer always maximizes.  `population_fitness`
scores a whole (P, m, n) stack in one call; `fitness` is its P = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .ber import _ber_estimate, _pair_measure, union_bound
from .capacity import _capacity_estimate
from .model import Constellation, SignatureMatrix, _check_columns, _check_sigma, enumerate_inputs

KINDS = ("capacity", "ber", "md", "qd", "ed")
STOCHASTIC_KINDS = ("capacity", "ber")

# population_fitness chunk sizes, in float64s per (individuals, classes or rows) array:
# class distances stay cache-sized for the tails; Monte-Carlo rows only
# need bounded memory, and fewer chunks share each block's draws more widely
_PAIR_CHUNK = 1 << 16
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
    return float(_pair_measure("md", cons.points[None])[0])


def q_distance(cons: Constellation, sigma: float) -> float:
    """Sum over ordered point pairs of Q(distance / (2 sigma)); minimize."""
    return 2.0**cons.n * union_bound(cons, sigma)


def exp_distance(cons: Constellation, sigma: float) -> float:
    """Q-distance with the tail replaced by its exponential fit; minimize.

    Sum over ordered pairs of exp(-((d/(2 sigma) + 1) / 1.6)**2).  The
    fit's constant prefactor multiplies every term equally and is dropped.
    """
    _check_sigma(sigma)
    return float(_pair_measure("ed", cons.points[None], sigma)[0])


def population_fitness(spec: CriterionSpec, population, seed: int = 0) -> np.ndarray:
    """Score each matrix of a (P, m, n) unit-column stack, equal bit for bit to scoring it alone.

    Stochastic kinds draw each block once for a chunk of individuals and
    constellation kinds enumerate the inputs once; chunks bound memory.
    Non-finite entries or non-unit columns raise SignatureMatrix's ValueError.
    """
    pop = np.ascontiguousarray(population, dtype=float)
    if pop.ndim != 3 or 0 in pop.shape:
        raise ValueError("population must be a non-empty (P, m, n) array")
    _check_columns(pop)
    _, m, n = pop.shape
    stochastic = spec.kind in STOCHASTIC_KINDS
    if stochastic:
        step = max(1, _ROW_CHUNK // spec.eval_budget)
    else:
        step = max(1, _PAIR_CHUNK // ((3**n - 1) // 2))
    scores = []
    for chunk in (pop[lo : lo + step] for lo in range(0, len(pop), step)):
        if stochastic:
            neg_log2_f, errors = _rng.channel_pass(chunk, spec.sigma, spec.eval_budget, seed)
            if spec.kind == "capacity":
                scores += [_capacity_estimate(r, m, n, spec.sigma).sum_bits for r in neg_log2_f]
            else:
                scores += [-_ber_estimate(r, n, spec.sigma).ber for r in errors]
            continue
        points = enumerate_inputs(n) @ chunk.transpose(0, 2, 1)
        value = _pair_measure(spec.kind, points, spec.sigma)
        scores += list(value if spec.kind == "md" else -value)
    return np.array(scores)


def fitness(spec: CriterionSpec, A: SignatureMatrix, seed: int = 0) -> float:
    """Score A under spec; larger is always better (population_fitness with P = 1)."""
    return float(population_fitness(spec, A.entries[None], seed)[0])

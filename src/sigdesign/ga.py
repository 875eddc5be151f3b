"""Real-valued genetic algorithm over column-normalized signature matrices.

Generational loop with tournament selection, arithmetic crossover,
decaying Gaussian mutation, and elitism, on one (population_size, m, n)
array.  Every variation step re-projects onto the unit-column manifold.
Runs are fully deterministic per seed: variation randomness flows through
one coordinator stream, and stochastic fitness evaluations use a
per-generation seed shared by all individuals (common random numbers
within a generation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import _random_unit_columns
from .criteria import CriterionSpec, population_fitness
from .errors import NanFitnessError
from .model import SignatureMatrix

_COLUMN_DEGENERATE = 1e-9
_TOURNAMENT_SIZE = 3
_CROSSOVER_RATE = 0.9
_MUTATION_SCALE = 0.1
_MUTATION_DECAY = 0.99
_ELITISM = 2


@dataclass(frozen=True)
class GaConfig:
    """Optimizer size and seed; the variation constants above are fixed."""

    population_size: int = 64
    generations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.population_size < _TOURNAMENT_SIZE:
            raise ValueError(f"population_size must be at least {_TOURNAMENT_SIZE}")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best: float
    mean: float
    worst: float
    mutation_scale: float


@dataclass(frozen=True)
class GaRun:
    """Result of one optimization: best individual plus the full trace."""

    best_matrix: SignatureMatrix
    best_fitness: float
    history: tuple[GenerationRecord, ...]
    config: GaConfig
    criterion: CriterionSpec


def init_population(m: int, n: int, config: GaConfig) -> np.ndarray:
    """(population_size, m, n) random unit-column matrices, deterministic per seed."""
    rng = np.random.default_rng([config.seed, 0])
    return _random_unit_columns((config.population_size, m, n), rng)


def _tournament(fits: np.ndarray, k: int, rng: np.random.Generator) -> int:
    """Index of the fittest of k distinct random individuals; ties go to the lowest."""
    cand = np.sort(rng.choice(fits.size, size=k, replace=False))
    return int(cand[np.argmax(fits[cand])])


def _project(raw: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Columns of raw (..., m, n) scaled to unit norm; near-zero ones taken from fallback."""
    norms = np.linalg.norm(raw, axis=-2, keepdims=True)
    bad = norms < _COLUMN_DEGENERATE
    if np.any(bad):
        raw = np.where(bad, fallback, raw)
        norms = np.linalg.norm(raw, axis=-2, keepdims=True)
    return raw / norms


def evolve(m: int, n: int, criterion: CriterionSpec, config: GaConfig) -> GaRun:
    """Run the generational loop and return the best-ever individual.

    One population_fitness call per generation; elites are copied
    unchanged, the rest of the next population comes from tournament ->
    crossover (with probability _CROSSOVER_RATE, else clone) -> mutation
    with a geometrically decayed scale.  Aborts with NanFitnessError if
    any fitness comes back NaN.
    """
    population = init_population(m, n, config)
    var_rng = np.random.default_rng([config.seed, 1])
    eval_seeds = np.random.SeedSequence([config.seed, 2]).generate_state(
        config.generations
    )
    n_children = config.population_size - _ELITISM

    best_matrix = None
    best_fitness = -np.inf
    history: list[GenerationRecord] = []
    scale = _MUTATION_SCALE

    for gen in range(config.generations):
        fits = population_fitness(criterion, population, int(eval_seeds[gen]))
        if np.any(np.isnan(fits)):
            raise NanFitnessError(f"NaN fitness in generation {gen}")
        order = np.argsort(-fits, kind="stable")
        if fits[order[0]] > best_fitness:
            best_fitness = float(fits[order[0]])
            best_matrix = SignatureMatrix(population[order[0]])
        history.append(
            GenerationRecord(
                generation=gen,
                best=float(fits.max()),
                mean=float(fits.mean()),
                worst=float(fits.min()),
                mutation_scale=scale,
            )
        )
        if gen == config.generations - 1:
            break

        # per child, in stream order: two tournaments, the crossover coin,
        # lambda (only when crossing), the mutation noise
        parents = np.empty((n_children, 2), dtype=np.int64)
        crossed = np.zeros(n_children, dtype=bool)
        lam = np.zeros((n_children, 1, 1))
        noise = np.empty((n_children, m, n))
        for c in range(n_children):
            parents[c] = [_tournament(fits, _TOURNAMENT_SIZE, var_rng) for _ in range(2)]
            crossed[c] = var_rng.random() < _CROSSOVER_RATE
            if crossed[c]:
                lam[c] = var_rng.uniform()
            noise[c] = var_rng.standard_normal((m, n))

        children = population[parents[:, 0]]
        a, b = children[crossed], population[parents[crossed, 1]]
        lam = lam[crossed]
        children[crossed] = _project(lam * a + (1.0 - lam) * b, a)
        children = _project(children + scale * noise, children)
        population = np.concatenate([population[order[:_ELITISM]], children])
        scale *= _MUTATION_DECAY

    return GaRun(
        best_matrix=best_matrix,
        best_fitness=best_fitness,
        history=tuple(history),
        config=config,
        criterion=criterion,
    )


def random_search(
    m: int,
    n: int,
    criterion: CriterionSpec,
    evaluations: int,
    seed: int = 0,
) -> tuple[SignatureMatrix, float]:
    """Best of `evaluations` random unit-column matrices under the criterion.

    The equal-budget baseline the optimizer is expected to beat; all
    candidates are scored with one fixed evaluation seed.
    """
    if evaluations < 1:
        raise ValueError("need at least one evaluation")
    rng = np.random.default_rng(seed)
    eval_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    cands = _random_unit_columns((evaluations, m, n), rng)
    fits = population_fitness(criterion, cands, eval_seed)
    best = int(np.argmax(fits))
    return SignatureMatrix(cands[best]), float(fits[best])

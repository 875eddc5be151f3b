"""Real-valued genetic algorithm over column-normalized signature matrices.

Generational loop with tournament selection, arithmetic crossover,
decaying Gaussian mutation, and elitism, on one (population_size, m, n)
array.  Every variation step re-projects onto the unit-column manifold.
Runs are deterministic per seed: each generation makes four whole-array
draws from one variation stream (tournament entrants of every parent slot,
crossover coins, lambda for every child, mutation noise, in that order),
and stochastic fitness uses a per-generation seed shared by all
individuals (common random numbers within a generation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .baselines import _random_unit_columns
from .criteria import CriterionSpec, population_fitness
from .model import NumericFailure, SignatureMatrix, _check_integer

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

    def __post_init__(self):  # stored as Python ints, so a run file serializes them
        for field, least in zip(fields(self), (_TOURNAMENT_SIZE, 1, 0)):
            if (value := _check_integer(getattr(self, field.name), field.name)) < least:
                raise ValueError(f"{field.name} must be at least {least}")
            object.__setattr__(self, field.name, value)


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


def _tournament(fits: np.ndarray, k: int, rng: np.random.Generator, shape) -> np.ndarray:
    """Per entry of shape, the fittest of k distinct random individuals; ties go to the lowest.

    Pick j, drawn from [0, P - j), steps past the earlier picks in ascending
    order, so it is uniform over the rest; memory is O(size of shape * k).
    """
    picks = rng.integers(0, fits.size - np.arange(k), size=(*shape, k))
    for j in range(1, k):
        for i in range(j):  # picks[..., :j] are sorted
            picks[..., j] += picks[..., j] >= picks[..., i]
        picks[..., : j + 1].sort(axis=-1)
    best = np.argmax(fits[picks], axis=-1)
    return np.take_along_axis(picks, best[..., None], axis=-1)[..., 0]


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
    with a geometrically decayed scale.  Aborts with NumericFailure if
    any fitness comes back NaN.  With generations=1 it is the
    equal-budget random search: population_size draws, scored once,
    the first best kept.
    """
    population = _random_unit_columns(
        (config.population_size, m, n), np.random.default_rng([config.seed, 0])
    )
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
            raise NumericFailure(f"NaN fitness in generation {gen}")
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

        parents = _tournament(fits, _TOURNAMENT_SIZE, var_rng, (n_children, 2))
        crossed = var_rng.random((n_children, 1, 1)) < _CROSSOVER_RATE
        lam = var_rng.random((n_children, 1, 1))
        noise = var_rng.standard_normal((n_children, m, n))
        a, b = population[parents[:, 0]], population[parents[:, 1]]
        children = np.where(crossed, _project(lam * a + (1.0 - lam) * b, a), a)
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

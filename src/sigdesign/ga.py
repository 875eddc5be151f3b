"""Real-valued genetic algorithm over column-normalized signature matrices.

Generational loop with tournament selection, arithmetic crossover,
decaying Gaussian mutation, and elitism.  Every variation operator
re-projects onto the unit-column manifold, so all individuals are valid
signature matrices at all times.  Runs are fully deterministic per seed:
variation randomness flows through one coordinator stream, and stochastic
fitness evaluations use a per-generation seed shared by all individuals
(common random numbers within a generation).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _rng
from .baselines import _random_unit_columns
from .criteria import CriterionSpec, fitness
from .errors import NanFitnessError
from .model import SignatureMatrix, normalize_columns

_COLUMN_DEGENERATE = 1e-9


@dataclass(frozen=True)
class GaConfig:
    """Optimizer hyperparameters; defaults suit desk-scale problems."""

    population_size: int = 64
    generations: int = 200
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_scale: float = 0.1
    mutation_decay: float = 0.99
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not self.mutation_scale > 0:
            raise ValueError("mutation_scale must be positive")
        if not 0.0 < self.mutation_decay <= 1.0:
            raise ValueError("mutation_decay must be in (0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be below population_size")


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


def init_population(m: int, n: int, config: GaConfig) -> list[SignatureMatrix]:
    """population_size random unit-column matrices, deterministic per seed."""
    rng = np.random.default_rng([config.seed, 0])
    return [_random_unit_columns(m, n, rng) for _ in range(config.population_size)]


def tournament_select(population, fitnesses, k: int, rng: np.random.Generator) -> int:
    """Index of the fittest among k distinct uniformly sampled individuals.

    Ties break toward the lowest population index.
    """
    if not 1 <= k <= len(population):
        raise ValueError("tournament size must be in [1, len(population)]")
    fitnesses = np.asarray(fitnesses, dtype=float)
    cand = np.sort(rng.choice(len(population), size=k, replace=False))
    return int(cand[np.argmax(fitnesses[cand])])


def _patch_degenerate(blend: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Replace near-zero columns of blend with the matching fallback columns."""
    norms = np.linalg.norm(blend, axis=0)
    bad = norms < _COLUMN_DEGENERATE
    if np.any(bad):
        blend = blend.copy()
        blend[:, bad] = fallback[:, bad]
    return blend


def arithmetic_crossover(
    parent_a: SignatureMatrix,
    parent_b: SignatureMatrix,
    rng: np.random.Generator,
) -> SignatureMatrix:
    """Column-renormalized convex blend of the parents, one lambda per child."""
    if parent_a.entries.shape != parent_b.entries.shape:
        raise ValueError("parents must have the same shape")
    lam = rng.uniform()
    blend = lam * parent_a.entries + (1.0 - lam) * parent_b.entries
    return normalize_columns(_patch_degenerate(blend, parent_a.entries))


def gaussian_mutation(
    individual: SignatureMatrix,
    scale: float,
    rng: np.random.Generator,
) -> SignatureMatrix:
    """Add iid Gaussian(0, scale**2) to every entry, then renormalize columns."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    raw = individual.entries + scale * rng.standard_normal(individual.entries.shape)
    return normalize_columns(_patch_degenerate(raw, individual.entries))


def _evaluate_all(criterion: CriterionSpec, population, seed: int) -> np.ndarray:
    workers = _rng.worker_count()
    if workers == 1:
        vals = [fitness(criterion, ind, seed) for ind in population]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(lambda ind: fitness(criterion, ind, seed), population))
    return np.asarray(vals, dtype=float)


def evolve(m: int, n: int, criterion: CriterionSpec, config: GaConfig) -> GaRun:
    """Run the generational loop and return the best-ever individual.

    One fitness evaluation round per generation; elites are copied
    unchanged, the rest of the next population comes from tournament ->
    crossover (with probability crossover_rate, else clone) -> mutation
    with a geometrically decayed scale.  Aborts with NanFitnessError if
    any fitness comes back NaN.
    """
    population = init_population(m, n, config)
    var_rng = np.random.default_rng([config.seed, 1])
    eval_seeds = np.random.SeedSequence([config.seed, 2]).generate_state(
        config.generations
    )

    best_matrix = None
    best_fitness = -np.inf
    history: list[GenerationRecord] = []
    scale = config.mutation_scale

    for gen in range(config.generations):
        fits = _evaluate_all(criterion, population, int(eval_seeds[gen]))
        if np.any(np.isnan(fits)):
            raise NanFitnessError(f"NaN fitness in generation {gen}")
        order = np.argsort(-fits, kind="stable")
        if fits[order[0]] > best_fitness:
            best_fitness = float(fits[order[0]])
            best_matrix = population[order[0]]
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

        next_population = [population[i] for i in order[: config.elitism]]
        while len(next_population) < config.population_size:
            pa = population[tournament_select(population, fits, config.tournament_size, var_rng)]
            pb = population[tournament_select(population, fits, config.tournament_size, var_rng)]
            child = pa
            if var_rng.random() < config.crossover_rate:
                child = arithmetic_crossover(pa, pb, var_rng)
            next_population.append(gaussian_mutation(child, scale, var_rng))
        population = next_population
        scale *= config.mutation_decay

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
    best = None
    best_fit = -np.inf
    for _ in range(evaluations):
        cand = _random_unit_columns(m, n, rng)
        fit = fitness(criterion, cand, eval_seed)
        if fit > best_fit:
            best, best_fit = cand, float(fit)
    return best, best_fit

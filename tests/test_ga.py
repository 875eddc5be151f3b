import hashlib
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest

import sigdesign.ga as ga_module
from sigdesign import (
    CriterionSpec,
    GaConfig,
    NumericFailure,
    SignatureMatrix,
    constellation_measures,
    evolve,
    population_fitness,
    random_normalized,
)
from sigdesign.baselines import _random_unit_columns
from sigdesign.cli import save_run
from test_capacity import force_threads

MD = CriterionSpec(kind="md")
ED_HALF = CriterionSpec(kind="ed", sigma=0.5)


def _first_population(m, n, config):
    # evolve's generation 0, drawn as evolve draws it; test_equals_scoring_per_candidate_draws
    # ties the two together bit for bit
    rng = np.random.default_rng([config.seed, 0])
    return _random_unit_columns((config.population_size, m, n), rng)


def _stack(*matrices):
    return np.stack([A.entries for A in matrices])


# evolve's two variation steps, written as it writes them, on top of
# ga._project; test_pinned_result ties them to evolve itself
def _crossover(a, b, lam):
    lam = np.asarray(lam)[:, None, None]
    return ga_module._project(lam * a + (1.0 - lam) * b, a)


def _mutate(x, scale, noise):
    return ga_module._project(x + scale * noise, x)


class TestGaConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("population_size", 1),
            ("population_size", 2),
            ("generations", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            GaConfig(**{field: value})

    @pytest.mark.parametrize("field", ["population_size", "generations", "seed"])
    @pytest.mark.parametrize("value", [64.0, 1e2, np.float64(8), "64", None])
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GaConfig(**{field: value})

    def test_numpy_integers_stored_as_python_ints(self):
        config = GaConfig(np.int64(16), np.int32(3), np.uint8(7))
        assert config == GaConfig(16, 3, 7)
        assert [type(v) for v in astuple(config)] == [int, int, int]

    def test_numpy_integer_budget_equals_python_int(self, tmp_path):
        # 5 000 rows cut the second block, which once handed PCG64.advance a numpy integer;
        # the run file, which echoes the budget, is written and is the same byte for byte
        config = GaConfig(population_size=6, generations=3, seed=2)
        for name, budget in [("int", 5_000), ("int64", np.int64(5_000))]:
            save_run(tmp_path / name, evolve(3, 4, CriterionSpec("capacity", 0.3, budget), config))
        assert (tmp_path / "int").read_bytes() == (tmp_path / "int64").read_bytes()


class TestInitPopulation:
    def test_size_and_invariants(self):
        pop = _first_population(2, 3, GaConfig(population_size=10, seed=1))
        assert pop.shape == (10, 2, 3)
        npt.assert_allclose(np.linalg.norm(pop, axis=1), 1.0, atol=1e-9)

    def test_same_seed_same_population(self):
        a = _first_population(2, 3, GaConfig(seed=5))
        b = _first_population(2, 3, GaConfig(seed=5))
        npt.assert_array_equal(a, b)

    def test_matches_per_matrix_draws(self):
        # one (P, m, n) draw is P successive (m, n) draws, projected per matrix
        pop = _first_population(3, 5, GaConfig(population_size=6, seed=4))
        rng = np.random.default_rng([4, 0])
        for a in pop:
            raw = rng.standard_normal((3, 5))
            npt.assert_array_equal(a, raw / np.linalg.norm(raw, axis=0))

    def test_different_seeds_differ(self):
        a = _first_population(2, 3, GaConfig(seed=5))
        b = _first_population(2, 3, GaConfig(seed=6))
        assert not np.array_equal(a, b)


class TestTournamentSelect:
    def test_full_tournament_is_argmax(self):
        rng = np.random.default_rng(0)
        fits = np.array([0.3, 2.0, -1.0, 0.9])
        for _ in range(10):
            assert ga_module._tournament(fits, 4, rng, ()) == 1

    def test_ties_break_to_lowest_index(self):
        rng = np.random.default_rng(0)
        assert ga_module._tournament(np.array([1.0, 5.0, 5.0, 2.0]), 4, rng, ()) == 1
        assert ga_module._tournament(np.array([3.0, 3.0, 3.0, 3.0]), 4, rng, ()) == 0

    def test_single_entrant_is_uniform(self):
        # chi-square over 10^4 draws, 8 cells, crit value at p=0.001 (df=7)
        rng = np.random.default_rng(42)
        fits = np.arange(8.0)
        counts = np.zeros(8)
        for _ in range(10_000):
            counts[ga_module._tournament(fits, 1, rng, ())] += 1
        chi2 = np.sum((counts - 1250.0) ** 2 / 1250.0)
        assert chi2 < 24.32

    def test_entrants_are_distinct(self):
        # winner i of 3 distinct entrants from 6 has probability C(i, 2) / C(6, 3) = C(i, 2) / 20;
        # entrants drawn with replacement give ((i+1)^3 - i^3) / 216 and fail.
        # chi-square over 2*10^4 winners, 4 cells, crit value at p=0.001 (df=3)
        rng = np.random.default_rng(7)
        winners = ga_module._tournament(np.arange(6.0), 3, rng, (10_000, 2))
        counts = np.bincount(winners.ravel(), minlength=6)
        assert counts[:2].sum() == 0
        expected = winners.size * np.array([math.comb(i, 2) for i in range(2, 6)]) / 20
        chi2 = np.sum((counts[2:] - expected) ** 2 / expected)
        assert chi2 < 16.27

    def test_memory_independent_of_population_size(self):
        fits = np.random.default_rng(0).standard_normal(10**6)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            winners = ga_module._tournament(fits, 3, rng, (64, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert winners.shape == (64, 2)
        assert peak < 1 << 20


class TestArithmeticCrossover:
    def test_lambda_one_returns_parent_a(self):
        a, b = _stack(random_normalized(2, 3, seed=1)), _stack(random_normalized(2, 3, seed=2))
        child = _crossover(a, b, np.array([1.0]))
        npt.assert_allclose(child, a, atol=1e-15)

    def test_equal_parents_fixed_point(self):
        a = _stack(random_normalized(2, 3, seed=3))
        child = _crossover(a, a, np.random.default_rng(0).uniform(size=1))
        npt.assert_allclose(child, a, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_child_on_unit_manifold(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_normalized(3, 4, seed=seed), random_normalized(3, 4, seed=seed + 50)
        child = _crossover(_stack(a, b), _stack(b, a), rng.uniform(size=2))
        npt.assert_allclose(np.linalg.norm(child, axis=1), 1.0, atol=1e-9)

    def test_degenerate_blend_column_falls_back_to_parent_a(self):
        # antipodal columns cancel exactly at lambda = 1/2; the second
        # child blends normally, so the fallback is per column, per child
        a, c = random_normalized(2, 2, seed=4), random_normalized(2, 2, seed=5)
        b = SignatureMatrix(-a.entries)
        child = _crossover(_stack(a, c), _stack(b, a), np.array([0.5, 0.5]))
        npt.assert_allclose(child[0], a.entries, atol=1e-15)
        blend = 0.5 * c.entries + 0.5 * a.entries
        npt.assert_array_equal(child[1], blend / np.linalg.norm(blend, axis=0))


class TestGaussianMutation:
    def test_tiny_scale_is_identity_limit(self):
        a = _stack(random_normalized(2, 3, seed=5))
        out = _mutate(a, 1e-12, np.random.default_rng(1).standard_normal(a.shape))
        npt.assert_allclose(out, a, atol=1e-9)

    def test_matches_replayed_draws(self):
        a = random_normalized(3, 4, seed=6)
        noise = np.random.default_rng(7).standard_normal((1, 3, 4))
        out = _mutate(_stack(a), 0.2, noise)
        replay = a.entries + 0.2 * np.random.default_rng(7).standard_normal((3, 4))
        npt.assert_array_equal(out[0], replay / np.linalg.norm(replay, axis=0))

    def test_perturbation_magnitude(self):
        # per-entry std of the raw perturbation ~ scale, and the output is
        # exactly the per-matrix projection of the perturbed parents
        a, b = random_normalized(50, 50, seed=8), random_normalized(50, 50, seed=9)
        scale = 0.3
        noise = np.random.default_rng(9).standard_normal((2, 50, 50))
        out = _mutate(_stack(a, b), scale, noise)
        for k, parent in enumerate((a, b)):
            replay = parent.entries + scale * noise[k]
            npt.assert_array_equal(out[k], replay / np.linalg.norm(replay, axis=0))
        assert np.std(scale * noise) == pytest.approx(scale, rel=0.05)

    def test_output_on_unit_manifold(self):
        a = _stack(random_normalized(2, 3, seed=10))
        out = _mutate(a, 0.5, np.random.default_rng(11).standard_normal(a.shape))
        npt.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


class TestEvolve:
    CONFIG = GaConfig(population_size=16, generations=25, seed=3)

    def test_improves_on_initial_population(self):
        run = evolve(2, 3, MD, self.CONFIG)
        init_best = max(
            constellation_measures(SignatureMatrix(a), 1.0).nu1
            for a in _first_population(2, 3, self.CONFIG)
        )
        assert run.best_fitness >= init_best

    def test_history_shape_and_monotone_best(self):
        run = evolve(2, 3, MD, self.CONFIG)
        assert len(run.history) == self.CONFIG.generations
        bests = [rec.best for rec in run.history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert all(rec.worst <= rec.mean <= rec.best for rec in run.history)

    def test_mutation_scale_decays(self):
        run = evolve(2, 3, MD, self.CONFIG)
        scales = [rec.mutation_scale for rec in run.history]
        assert scales[0] == ga_module._MUTATION_SCALE
        assert all(s2 == pytest.approx(s1 * ga_module._MUTATION_DECAY) for s1, s2 in zip(scales, scales[1:]))

    def test_deterministic(self):
        a = evolve(2, 3, ED_HALF, self.CONFIG)
        b = evolve(2, 3, ED_HALF, self.CONFIG)
        npt.assert_array_equal(a.best_matrix.entries, b.best_matrix.entries)
        assert a.best_fitness == b.best_fitness
        assert a.history == b.history

    def test_pinned_result(self):
        # Recorded with the four whole-generation variation draws; any change
        # to the draw order or an operator moves it.  Values
        # are rounded to 12 significant digits, so last-ulp differences in
        # the kernel or in BLAS between machines do not.
        run = evolve(3, 4, CriterionSpec(kind="ed", sigma=0.1), GaConfig(seed=11))
        values = list(run.best_matrix.entries.ravel())
        values += [v for rec in run.history for v in astuple(rec)]
        text = " ".join(format(v, ".11e") for v in values)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f9e62a6dcb593ffe48c394e6d48f19988d0e2ae06d3c4dcbab2f243ed8a9770"
        )

    def test_worker_count_does_not_change_result(self, monkeypatch):
        a = evolve(2, 3, ED_HALF, self.CONFIG)
        force_threads(monkeypatch, 4)
        b = evolve(2, 3, ED_HALF, self.CONFIG)
        npt.assert_array_equal(a.best_matrix.entries, b.best_matrix.entries)
        assert a.history == b.history

    def test_population_stays_valid(self):
        run = evolve(3, 4, ED_HALF, GaConfig(population_size=8, generations=10, seed=1))
        npt.assert_allclose(np.linalg.norm(run.best_matrix.entries, axis=0), 1.0, atol=1e-9)

    def test_config_and_criterion_echoed(self):
        run = evolve(2, 3, MD, self.CONFIG)
        assert run.config == self.CONFIG
        assert run.criterion == MD

    def test_nan_fitness_aborts(self, monkeypatch):
        monkeypatch.setattr(
            ga_module, "population_fitness", lambda spec, pop, seed: np.full(len(pop), np.nan)
        )
        with pytest.raises(NumericFailure):
            evolve(2, 3, MD, GaConfig(population_size=4, generations=2, seed=0))

    def test_matrix_object_only_for_a_new_best(self, monkeypatch):
        built = []

        def spy(entries):
            built.append(entries)
            return SignatureMatrix(entries)

        monkeypatch.setattr(ga_module, "SignatureMatrix", spy)
        run = evolve(2, 3, ED_HALF, self.CONFIG)
        bests = [rec.best for rec in run.history]
        new_bests = sum(b > max(bests[:g], default=-np.inf) for g, b in enumerate(bests))
        assert len(built) == new_bests <= self.CONFIG.generations
        npt.assert_array_equal(built[-1], run.best_matrix.entries)

    def test_every_individual_in_every_generation_valid(self, monkeypatch):
        seen = []
        real_population_fitness = ga_module.population_fitness

        def spy(spec, pop, seed):
            seen.extend(np.array(pop))
            return real_population_fitness(spec, pop, seed)

        monkeypatch.setattr(ga_module, "population_fitness", spy)
        evolve(2, 3, MD, GaConfig(population_size=8, generations=6, seed=2))
        assert len(seen) == 8 * 6
        for a in seen:
            npt.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-9)


class TestAgainstBruteForce:
    def test_two_by_two_min_distance_never_exceeds_two(self):
        # vectorized random search over 10^6 normalized 2x2 matrices
        rng = np.random.default_rng(123)
        cols = rng.standard_normal((2, 2, 1_000_000))
        cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        a1, a2 = cols[:, 0, :], cols[:, 1, :]
        # distinct pairwise differences: 2 a1, 2 a2, 2(a1 +- a2)
        nu1 = np.minimum(
            2.0,
            np.minimum(
                2.0 * np.linalg.norm(a1 + a2, axis=0),
                2.0 * np.linalg.norm(a1 - a2, axis=0),
            ),
        )
        assert nu1.max() <= 2.0 + 1e-9

    def test_ga_beats_equal_budget_random_search(self):
        config = GaConfig(population_size=20, generations=50, seed=5)
        run = evolve(2, 3, ED_HALF, config)
        search = evolve(2, 3, ED_HALF, GaConfig(population_size=20 * 50, generations=1, seed=5))
        assert run.best_fitness >= search.best_fitness


class TestRandomSearch:
    # the equal-budget random search is evolve with one generation: N draws, scored once
    @pytest.mark.parametrize(
        "spec",
        [MD, ED_HALF, CriterionSpec(kind="capacity", sigma=0.5, eval_budget=1000)],
        ids=["md", "ed", "capacity"],
    )
    def test_equals_scoring_per_candidate_draws(self, spec):
        # one (N, m, n) draw is the stack of per-candidate (m, n) draws, bit for bit
        rng = np.random.default_rng([3, 0])
        cands = np.stack([_random_unit_columns((2, 3), rng) for _ in range(40)])
        eval_seed = int(np.random.SeedSequence([3, 2]).generate_state(1)[0])
        fits = population_fitness(spec, cands, eval_seed)
        run = evolve(2, 3, spec, GaConfig(population_size=40, generations=1, seed=3))
        npt.assert_array_equal(run.best_matrix.entries, cands[np.argmax(fits)])
        assert run.best_fitness == fits.max()
        assert len(run.history) == 1

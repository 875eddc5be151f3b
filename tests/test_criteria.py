import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.distance import pdist
from scipy.special import erfc

import sigdesign.criteria as criteria_module
from sigdesign import _rng
from sigdesign import (
    CriterionSpec,
    SignatureMatrix,
    constellation_measures,
    enumerate_inputs,
    estimate,
    population_fitness,
    q_function,
    random_normalized,
)
from sigdesign.capacity import exact_capacity_1d
from sigdesign.criteria import _pair_measures, _ternary
from test_capacity import force_threads

# max |0.7 * exp(-((x+1)/1.6)**2) - Q(x)| over [0, 5]; sits at x=0, frozen after measurement
Q_APPROX_MAX_DEV = 0.02635630768678976
Q_APPROX_AT_0 = 0.47364369231321024


def two_point_matrices(*distances):
    """(len(distances), 1, 1) stack of matrices [d/2], whose two outputs lie d apart."""
    return (np.asarray(distances, dtype=float) / 2.0)[:, None, None]


def pair_measure(kind, a, sigma=None):
    return _pair_measures(a, sigma, (kind,))[0]


class TestQApprox:
    # the nu3 tail, once scaled by the fit's 0.7, approximates Q; a
    # coincident or separated pair contributes two ordered terms

    def test_value_at_zero(self):
        tail = pair_measure("ed", two_point_matrices(0.0), 0.5)[0] / 2.0
        assert 0.7 * tail == pytest.approx(Q_APPROX_AT_0, abs=1e-12)

    def test_fit_quality_regression(self):
        # sigma 0.5 makes the tail argument d / (2 sigma) equal to d
        xs = np.linspace(0.0, 5.0, 10_001)
        tail = pair_measure("ed", two_point_matrices(*xs), 0.5) / 2.0
        dev = np.max(np.abs(0.7 * tail - q_function(xs)))
        assert dev < 0.03
        assert dev == pytest.approx(Q_APPROX_MAX_DEV, abs=1e-12)


class TestMinDistance:
    def test_orthonormal_two_users(self):
        assert constellation_measures(SignatureMatrix(np.eye(2)), 0.5).nu1 == 2.0

    def test_duplicate_points_give_zero(self):
        # any one-chip matrix has +-1 columns, so two outputs coincide
        assert constellation_measures(SignatureMatrix([[1.0, -1.0]]), 0.5).nu1 == 0.0

    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_homogeneous_in_scale(self, t):
        A = random_normalized(2, 3, seed=3)
        scaled = pair_measure("md", t * A.entries[None])[0]
        assert scaled == pytest.approx(t * constellation_measures(A, 0.5).nu1, rel=1e-12)


class TestQDistance:
    @pytest.mark.parametrize("seed", range(20))
    def test_is_two_to_the_n_times_union_bound(self, seed):
        measures = constellation_measures(random_normalized(2, 3, seed=seed), 0.5)
        assert measures.nu2 == 2**3 * measures.union_bound

    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_two_points(self, d):
        qd = pair_measure("qd", two_point_matrices(d), 0.7)[0]
        assert qd == pytest.approx(2.0 * q_function(d / (2 * 0.7)), rel=1e-12)

    def test_vanishes_at_small_noise(self):
        assert constellation_measures(random_normalized(2, 3, seed=1), 0.01).nu2 < 1e-8


class TestExpDistance:
    def test_two_points_at_matched_sigma(self):
        # d / (2 sigma) = 1 when sigma = d/2: both ordered terms are exp(-1.5625)
        ed = pair_measure("ed", two_point_matrices(3.0), 1.5)[0]
        assert ed == pytest.approx(0.4192227743021956, rel=1e-12)

    def test_each_term_decreasing_in_distance(self):
        values = pair_measure("ed", two_point_matrices(0.2, 0.5, 1.0, 2.0, 4.0), 0.5)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tracks_q_distance_ranking(self):
        matrices = [random_normalized(2, 3, seed=s) for s in range(12)]
        nu2 = [constellation_measures(A, 0.5).nu2 for A in matrices]
        nu3 = [constellation_measures(A, 0.5).nu3 for A in matrices]
        npt.assert_array_equal(np.argsort(nu2), np.argsort(nu3))


class TestInvariance:
    @pytest.mark.parametrize("seed", range(4))
    def test_criteria_ignore_column_permutation_and_negation(self, seed):
        A = random_normalized(2, 3, seed=seed)
        B = SignatureMatrix(A.entries[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0]))
        a, b = constellation_measures(A, 0.5), constellation_measures(B, 0.5)
        assert a.nu1 == pytest.approx(b.nu1, rel=1e-12)
        assert a.nu2 == pytest.approx(b.nu2, rel=1e-12)
        assert a.nu3 == pytest.approx(b.nu3, rel=1e-12)


class TestCriterionSpec:
    def test_md_needs_no_sigma(self):
        spec = CriterionSpec(kind="md")
        assert spec.sigma is None

    @pytest.mark.parametrize("kind", ["capacity", "ber", "qd", "ed"])
    def test_sigma_required_elsewhere(self, kind):
        with pytest.raises(ValueError):
            CriterionSpec(kind=kind)
        with pytest.raises(ValueError):
            CriterionSpec(kind=kind, sigma=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CriterionSpec(kind="frame-potential")

    def test_budget_floor_for_stochastic_kinds(self):
        with pytest.raises(ValueError):
            CriterionSpec(kind="capacity", sigma=1.0, eval_budget=99)
        CriterionSpec(kind="capacity", sigma=1.0, eval_budget=100)

    @pytest.mark.parametrize("budget", [5000.0, 1e4, "5000"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="samples must be an integer"):
            CriterionSpec(kind="ber", sigma=1.0, eval_budget=budget)

    def test_numpy_integer_budget_stored_as_python_int(self):
        spec = CriterionSpec(kind="capacity", sigma=1.0, eval_budget=np.int64(5_000))
        assert type(spec.eval_budget) is int and spec == CriterionSpec("capacity", 1.0, 5_000)

    @pytest.mark.parametrize("kind, sigma", [("md", None), ("qd", 0.5), ("ed", 0.5)])
    def test_constellation_kinds_store_a_python_int_budget(self, kind, sigma):
        # a numpy integer once stayed one here, and the run file's json.dumps failed after the GA
        spec = CriterionSpec(kind, sigma, eval_budget=np.int64(5_000))
        assert type(spec.eval_budget) is int
        assert json.loads(json.dumps(asdict(spec)))["eval_budget"] == 5_000
        assert CriterionSpec(kind, sigma, eval_budget=5).eval_budget == 5  # no 100-sample floor
        with pytest.raises(ValueError, match="samples must be an integer"):
            CriterionSpec(kind, sigma, eval_budget=5_000.0)

    def test_non_real_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be"):
            CriterionSpec("ed", "0.5")


class TestFitness:
    # population_fitness on one- and two-matrix stacks

    def test_min_distance_pass_through(self):
        spec = CriterionSpec(kind="md")
        assert population_fitness(spec, np.eye(2)[None]).tolist() == [2.0]

    def test_exp_distance_negated_ordering(self):
        spec = CriterionSpec(kind="ed", sigma=0.5)
        a, b = random_normalized(2, 3, seed=1), random_normalized(2, 3, seed=2)
        nu3 = [constellation_measures(x, 0.5).nu3 for x in (a, b)]
        fits = population_fitness(spec, np.stack([a.entries, b.entries]))
        assert (fits[0] > fits[1]) == (nu3[0] < nu3[1])

    def test_capacity_matches_oracle(self):
        spec = CriterionSpec(kind="capacity", sigma=1.0, eval_budget=100_000)
        (got,) = population_fitness(spec, np.ones((1, 1, 1)), seed=5)
        assert got == pytest.approx(exact_capacity_1d(SignatureMatrix([[1.0]]), 1.0), abs=0.01)

    def test_ber_negated(self):
        spec = CriterionSpec(kind="ber", sigma=1.0, eval_budget=2_000)
        assert population_fitness(spec, np.ones((1, 1, 1)), seed=1)[0] <= 0.0

    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_deterministic(self, kind):
        sigma = None if kind == "md" else 0.5
        spec = CriterionSpec(kind=kind, sigma=sigma, eval_budget=1_000)
        pop = random_normalized(2, 3, seed=3).entries[None]
        npt.assert_array_equal(population_fitness(spec, pop, seed=9),
                               population_fitness(spec, pop, seed=9))


def _population(p, m, n):
    return np.stack([random_normalized(m, n, seed=100 + k).entries for k in range(p)])


def _spec(kind):
    # budget 5000: two blocks, the second cut to 904 rows
    return CriterionSpec(kind=kind, sigma=None if kind == "md" else 0.4, eval_budget=5_000)


def _named_evaluator(kind, A, seed):
    """The public single-matrix evaluator of a criterion, as a maximize-me score."""
    # md's spec has no sigma, and nu1 ignores the one it is given
    sigma, budget = _spec("qd").sigma, _spec(kind).eval_budget
    return {
        "capacity": lambda: estimate(A, sigma, budget, seed)[0].sum_bits,
        "ber": lambda: -estimate(A, sigma, budget, seed)[1].ber,
        "md": lambda: constellation_measures(A, sigma).nu1,
        "qd": lambda: -constellation_measures(A, sigma).nu2,
        "ed": lambda: -constellation_measures(A, sigma).nu3,
    }[kind]()


class TestPopulationFitness:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("p", [1, 5, 64])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 8)])
    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_equals_per_matrix_fitness(self, monkeypatch, kind, m, n, p, workers):
        force_threads(monkeypatch, int(workers))
        pop, spec = _population(p, m, n), _spec(kind)
        got = population_fitness(spec, pop, seed=7)
        assert got.shape == (p,)
        for a, value in zip(pop, got):
            assert value == _named_evaluator(kind, SignatureMatrix(a), seed=7)

    @pytest.mark.parametrize("kind", ["capacity", "ber"])
    def test_identical_at_forced_thread_counts(self, monkeypatch, kind):
        # 8 500 rows: three blocks, the last cut to 308 rows
        pop, spec = _population(64, 4, 8), CriterionSpec(kind=kind, sigma=0.5, eval_budget=8_500)
        scores = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            scores.append(population_fitness(spec, pop, seed=2).tobytes())
        assert scores[0] == scores[1] == scores[2]

    def test_density_kernel_identical_at_forced_thread_counts(self, monkeypatch):
        # 16x3x6 takes the decode-free kernel, and its 1 024 matrix-points a row thread by
        # the rule itself; 8 500 rows: three blocks, the last cut to 308 rows
        pop, spec = _population(16, 3, 6), CriterionSpec("capacity", sigma=0.3, eval_budget=8_500)
        scores = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            scores.append(population_fitness(spec, pop, seed=1))
        assert scores[0].tobytes() == scores[1].tobytes() == scores[2].tobytes()
        for a, value in zip(pop, scores[0]):
            assert value == estimate(SignatureMatrix(a), 0.3, 8_500, seed=1)[0].sum_bits

    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_chunks_do_not_change_values(self, monkeypatch, kind):
        pop, spec = _population(7, 3, 4), _spec(kind)
        whole = population_fitness(spec, pop, seed=3)
        monkeypatch.setattr(criteria_module, "_CHUNK_ROWS", 3**4)  # one matrix per chunk
        npt.assert_array_equal(population_fitness(spec, pop, seed=3), whole)

    def test_memory_does_not_grow_with_the_budget(self, monkeypatch):
        # a 64x3x4 capacity generation at budget 200 000, 49 blocks on two threads: each
        # block keeps its statistics, not (64, rows) arrays of terms
        pop, spec = _population(64, 3, 4), CriterionSpec("capacity", sigma=0.3, eval_budget=200_000)
        force_threads(monkeypatch, 2)
        tracemalloc.start()
        try:
            population_fitness(spec, pop, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (2, 3), (3, 4), (4, 8), (4, 9), (5, 10), (2, 10)]
    )
    def test_constellation_kinds_equal_pdist_reference(self, m, n):
        # the per-matrix formulas written out over scipy's pdist of all point pairs
        pop, sigma = _population(5, m, n), 0.4
        md, qd, ed = (population_fitness(_spec(k), pop) for k in ("md", "qd", "ed"))
        for k, a in enumerate(pop):
            d = pdist(enumerate_inputs(n) @ a.T)
            q = 0.5 * erfc(d / (2.0 * sigma) / math.sqrt(2.0))
            e = np.exp(-np.square((d / (2.0 * sigma) + 1.0) / 1.6))
            assert md[k] == pytest.approx(d.min(), rel=1e-12)
            assert qd[k] == pytest.approx(-2.0 * np.sum(q), rel=1e-12)
            assert ed[k] == pytest.approx(-2.0 * np.sum(e), rel=1e-12)

    @pytest.mark.parametrize("low", [1, 2, 3])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 5), (4, 8)])
    def test_split_equals_pdist_reference(self, monkeypatch, low, m, n):
        # high halves of up to 7 users, against all point pairs
        monkeypatch.setattr(criteria_module, "_LOW_USERS", low)
        pop, sigma = _population(3, m, n), 0.4
        md, qd, ed = _pair_measures(pop, sigma)
        for k, a in enumerate(pop):
            d = pdist(enumerate_inputs(n) @ a.T)
            q = 0.5 * erfc(d / (2.0 * sigma) / math.sqrt(2.0))
            e = np.exp(-np.square((d / (2.0 * sigma) + 1.0) / 1.6))
            assert md[k] == pytest.approx(d.min(), rel=1e-12)
            assert qd[k] == pytest.approx(2.0 * np.sum(q), rel=1e-12)
            assert ed[k] == pytest.approx(2.0 * np.sum(e), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_classes_cover_every_pair(self, n):
        table, support = _ternary(n)
        d, support = table[len(table) // 2 + 1 :], support[len(table) // 2 + 1 :]
        count = 2.0 ** (n + 1 - support)  # ordered pairs in the class of d and -d
        assert len(d) == (3**n - 1) // 2
        assert np.all(np.abs(d).sum(axis=1) == support)
        assert len(np.unique(np.vstack([d, -d, table[len(d)]]), axis=0)) == 3**n
        assert count.sum() == 2**n * (2**n - 1)
        a = random_normalized(3, n, seed=n).entries
        dist = np.linalg.norm(2.0 * d @ a.T, axis=1)
        npt.assert_allclose(
            np.sort(np.repeat(dist, (count // 2).astype(int))),
            np.sort(pdist(enumerate_inputs(n) @ a.T)),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5], ids=["nan", "inf", "non-unit"])
    def test_invalid_individual_raises_like_signature_matrix(self, bad):
        pop = _population(4, 2, 3)
        pop[2, 0, 1] = bad
        with pytest.raises(ValueError) as expected:
            SignatureMatrix(pop[2])
        with pytest.raises(ValueError) as got:
            population_fitness(_spec("md"), pop)
        assert str(got.value) == str(expected.value)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            population_fitness(_spec("md"), np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda A: constellation_measures(A, 0.5),
        lambda A: population_fitness(_spec("md"), A.entries[None]),
        lambda A: population_fitness(_spec("qd"), A.entries[None]),
        lambda A: population_fitness(_spec("ed"), A.entries[None]),
    ],
    ids=["constellation_measures", "md", "qd", "ed"],
)
def test_pair_measures_keep_user_guard(call):
    # the pair kernel reads the matrix, not the 2**n inputs, so it checks n itself
    with pytest.raises(ValueError, match="MAX_USERS=16"):
        call(SignatureMatrix(np.ones((1, 17))))


# bit errors of four 3 x n matrices (seeds 10 n .. 10 n + 3) at sigma 0.3, 5 000 rows, seed 2,
# as the full capacity-and-decode pass counted them before the ber criterion decoded alone
BER_ERRORS = {3: [6, 270, 331, 6], 4: [2181, 628, 1570, 213], 5: [1503, 2610, 3253, 1273],
              6: [3434, 2106, 5825, 2142], 7: [5694, 4247, 4110, 5458], 8: [5800, 6162, 6125, 6475],
              9: [8539, 9044, 8308, 8744]}


@pytest.mark.parametrize("n", sorted(BER_ERRORS))
def test_ber_fitness_unchanged_by_the_decode_only_pass(n):
    pop = np.stack([random_normalized(3, n, seed=10 * n + s).entries for s in range(4)])
    got = population_fitness(CriterionSpec("ber", 0.3, 5_000), pop, seed=2)
    want = -(np.array(BER_ERRORS[n]) / (5_000 * n))
    assert got.tobytes() == want.tobytes()
    _, errors = _rng.channel_pass(pop, [0.3], 5_000, 2)  # the decode of the full pass
    assert errors[:, 0, 0].sum(axis=0).tolist() == BER_ERRORS[n]


def test_ber_fitness_runs_no_density_kernel(monkeypatch):
    def no_density(*args, **kwargs):
        raise AssertionError("the ber criterion ran a density kernel")

    monkeypatch.setattr(_rng, "_density", no_density)
    monkeypatch.setattr(_rng, "_factored", no_density)
    for m, n in [(2, 3), (3, 6), (4, 8), (4, 10)]:  # below, at and past each kernel's threshold
        pop = np.stack([random_normalized(m, n, seed=s).entries for s in range(3)])
        assert np.all(population_fitness(CriterionSpec("ber", 0.3, 5_000), pop, seed=1) <= 0)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 6), (4, 8), (4, 9), (6, 12)])
def test_pair_measures_over_a_grid_equal_each_sigma_alone(m, n):
    # one pass over the distances for every sigma, each sigma's values bit for bit its own
    pop = np.stack([random_normalized(m, n, seed=s).entries for s in range(2)])
    grid = np.geomspace(0.05, 2.0, 5)
    got = _pair_measures(pop, grid)
    assert got.shape == (3, 5, 2)
    for g, sigma in enumerate(grid):
        assert got[:, g].tobytes() == _pair_measures(pop, float(sigma)).tobytes()

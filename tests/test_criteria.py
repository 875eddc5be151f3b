import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.distance import pdist
from scipy.special import erfc

import sigdesign.criteria as criteria_module
from sigdesign import (
    Constellation,
    CriterionSpec,
    SignatureMatrix,
    build_constellation,
    enumerate_inputs,
    exp_distance,
    fitness,
    min_distance,
    population_fitness,
    q_approx,
    q_distance,
    q_function,
    random_normalized,
    union_bound,
)
from sigdesign.ber import _pair_classes
from sigdesign.capacity import exact_capacity_1d

# max |q_approx - Q| over [0, 5]; sits at x=0, frozen after measurement
Q_APPROX_MAX_DEV = 0.02635630768678976
Q_APPROX_AT_0 = 0.47364369231321024


def two_point_constellation(distance):
    """Symmetric pair at the given separation (m=1, n=1 layout)."""
    half = distance / 2.0
    return Constellation(points=[[half], [-half]], inputs=enumerate_inputs(1))


class TestQApprox:
    def test_value_at_zero(self):
        assert q_approx(0.0) == pytest.approx(Q_APPROX_AT_0, abs=1e-12)

    def test_exact_at_minus_one(self):
        assert q_approx(-1.0) == 0.7

    def test_fit_quality_regression(self):
        xs = np.linspace(0.0, 5.0, 10_001)
        dev = np.max(np.abs(q_approx(xs) - q_function(xs)))
        assert dev < 0.03
        assert dev == pytest.approx(Q_APPROX_MAX_DEV, abs=1e-12)


class TestMinDistance:
    def test_orthonormal_two_users(self):
        assert min_distance(build_constellation(SignatureMatrix(np.eye(2)))) == 2.0

    def test_duplicate_points_give_zero(self):
        # any one-chip matrix has +-1 columns, so two outputs coincide
        assert min_distance(build_constellation(SignatureMatrix([[1.0, -1.0]]))) == 0.0

    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_homogeneous_in_scale(self, t):
        cons = build_constellation(random_normalized(2, 3, seed=3))
        scaled = Constellation(points=t * cons.points, inputs=cons.inputs)
        assert min_distance(scaled) == pytest.approx(t * min_distance(cons), rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            min_distance(Constellation(points=np.zeros((1, 1)), inputs=np.zeros((1, 0))))


class TestQDistance:
    @pytest.mark.parametrize("seed", range(20))
    def test_is_two_to_the_n_times_union_bound(self, seed):
        cons = build_constellation(random_normalized(2, 3, seed=seed))
        assert q_distance(cons, 0.5) == 2**3 * union_bound(cons, 0.5)

    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_two_points(self, d):
        cons = two_point_constellation(d)
        assert q_distance(cons, 0.7) == pytest.approx(
            2.0 * q_function(d / (2 * 0.7)), rel=1e-12
        )

    def test_vanishes_at_small_noise(self):
        cons = build_constellation(random_normalized(2, 3, seed=1))
        assert q_distance(cons, 0.01) < 1e-8


class TestExpDistance:
    def test_two_points_at_matched_sigma(self):
        # d / (2 sigma) = 1 when sigma = d/2: both ordered terms are exp(-1.5625)
        cons = two_point_constellation(3.0)
        assert exp_distance(cons, 1.5) == pytest.approx(0.4192227743021956, rel=1e-12)

    def test_each_term_decreasing_in_distance(self):
        sigma = 0.5
        values = [exp_distance(two_point_constellation(d), sigma) for d in
                  (0.2, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tracks_q_distance_ranking(self):
        conss = [build_constellation(random_normalized(2, 3, seed=s)) for s in range(12)]
        nu2 = [q_distance(c, 0.5) for c in conss]
        nu3 = [exp_distance(c, 0.5) for c in conss]
        npt.assert_array_equal(np.argsort(nu2), np.argsort(nu3))


class TestInvariance:
    @pytest.mark.parametrize("seed", range(4))
    def test_criteria_ignore_column_permutation_and_negation(self, seed):
        A = random_normalized(2, 3, seed=seed)
        B = SignatureMatrix(A.entries[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0]))
        ca, cb = build_constellation(A), build_constellation(B)
        assert min_distance(ca) == pytest.approx(min_distance(cb), rel=1e-12)
        assert q_distance(ca, 0.5) == pytest.approx(q_distance(cb, 0.5), rel=1e-12)
        assert exp_distance(ca, 0.5) == pytest.approx(exp_distance(cb, 0.5), rel=1e-12)


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


class TestFitness:
    def test_min_distance_pass_through(self):
        spec = CriterionSpec(kind="md")
        assert fitness(spec, SignatureMatrix(np.eye(2))) == 2.0

    def test_exp_distance_negated_ordering(self):
        spec = CriterionSpec(kind="ed", sigma=0.5)
        a, b = random_normalized(2, 3, seed=1), random_normalized(2, 3, seed=2)
        nu3 = [exp_distance(build_constellation(x), 0.5) for x in (a, b)]
        fits = [fitness(spec, x) for x in (a, b)]
        assert (fits[0] > fits[1]) == (nu3[0] < nu3[1])

    def test_capacity_matches_oracle(self):
        spec = CriterionSpec(kind="capacity", sigma=1.0, eval_budget=100_000)
        got = fitness(spec, SignatureMatrix([[1.0]]), seed=5)
        assert got == pytest.approx(exact_capacity_1d(1.0, 1.0), abs=0.01)

    def test_ber_negated(self):
        spec = CriterionSpec(kind="ber", sigma=1.0, eval_budget=2_000)
        assert fitness(spec, SignatureMatrix([[1.0]]), seed=1) <= 0.0

    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_deterministic(self, kind):
        sigma = None if kind == "md" else 0.5
        spec = CriterionSpec(kind=kind, sigma=sigma, eval_budget=1_000)
        A = random_normalized(2, 3, seed=3)
        assert fitness(spec, A, seed=9) == fitness(spec, A, seed=9)


def _population(p, m, n):
    return np.stack([random_normalized(m, n, seed=100 + k).entries for k in range(p)])


def _spec(kind):
    # budget 5000: two blocks, the second cut to 904 rows
    return CriterionSpec(kind=kind, sigma=None if kind == "md" else 0.4, eval_budget=5_000)


class TestPopulationFitness:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("p", [1, 5, 64])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 8)])
    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_equals_per_matrix_fitness(self, monkeypatch, kind, m, n, p, workers):
        monkeypatch.setenv("SIGDESIGN_WORKERS", workers)
        pop, spec = _population(p, m, n), _spec(kind)
        got = population_fitness(spec, pop, seed=7)
        assert got.shape == (p,)
        for a, value in zip(pop, got):
            assert value == fitness(spec, SignatureMatrix(a), seed=7)

    @pytest.mark.parametrize("kind", ["capacity", "ber", "md", "qd", "ed"])
    def test_chunks_do_not_change_values(self, monkeypatch, kind):
        pop, spec = _population(7, 3, 4), _spec(kind)
        whole = population_fitness(spec, pop, seed=3)
        monkeypatch.setattr(criteria_module, "_PAIR_CHUNK", 1)  # one individual per chunk
        monkeypatch.setattr(criteria_module, "_ROW_CHUNK", 1)
        npt.assert_array_equal(population_fitness(spec, pop, seed=3), whole)

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (2, 3), (3, 4), (4, 8), (4, 9), (5, 10), (2, 10)]
    )
    def test_constellation_kinds_equal_pdist_reference(self, m, n):
        # the per-matrix formulas written out over scipy's pdist of all point pairs
        pop, sigma = _population(5, m, n), 0.4
        md, qd, ed = (population_fitness(_spec(k), pop) for k in ("md", "qd", "ed"))
        for k, a in enumerate(pop):
            d = pdist(build_constellation(SignatureMatrix(a)).points)
            q = 0.5 * erfc(d / (2.0 * sigma) / math.sqrt(2.0))
            e = np.exp(-np.square((d / (2.0 * sigma) + 1.0) / 1.6))
            assert md[k] == pytest.approx(d.min(), rel=1e-12)
            assert qd[k] == pytest.approx(-2.0 * np.sum(q), rel=1e-12)
            assert ed[k] == pytest.approx(-2.0 * np.sum(e), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_classes_cover_every_pair(self, n):
        i, j, support = _pair_classes(n)
        count = 2.0 ** (n + 1 - support)  # ordered pairs in the class of d and -d
        assert len(i) == (3**n - 1) // 2
        assert np.all(i & j == 0)
        assert count.sum() == 2**n * (2**n - 1)
        points = build_constellation(random_normalized(3, n, seed=n)).points
        dist = np.linalg.norm(points[i] - points[j], axis=1)
        npt.assert_allclose(
            np.sort(np.repeat(dist, (count // 2).astype(int))),
            np.sort(pdist(points)),
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

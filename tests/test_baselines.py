import numpy as np
import numpy.testing as npt
import pytest

import sigdesign.baselines as baselines
from sigdesign import (
    DimensionError,
    NonConvergenceError,
    estimate_capacity,
    min_distance,
    orthogonal_matrix,
    random_normalized,
    wbe_matrix,
    wbe_verify,
)
from sigdesign.baselines import generate


class TestRandomNormalized:
    def test_unit_columns(self):
        A = random_normalized(3, 5, seed=0)
        npt.assert_allclose(np.linalg.norm(A.entries, axis=0), 1.0, atol=1e-9)

    def test_deterministic(self):
        npt.assert_array_equal(
            random_normalized(2, 3, seed=4).entries,
            random_normalized(2, 3, seed=4).entries,
        )

    def test_seeds_differ(self):
        a = random_normalized(2, 3, seed=4).entries
        b = random_normalized(2, 3, seed=5).entries
        assert not np.array_equal(a, b)


class TestOrthogonalMatrix:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (5, 5)])
    def test_orthonormal_columns(self, m, n):
        A = orthogonal_matrix(m, n, seed=1)
        npt.assert_allclose(A.entries.T @ A.entries, np.eye(n), atol=1e-10)

    def test_overloaded_rejected(self):
        with pytest.raises(DimensionError):
            orthogonal_matrix(2, 3, seed=0)

    def test_min_distance_is_two(self):
        # orthonormal columns preserve input distances: min over sign flips = 2
        assert min_distance(orthogonal_matrix(2, 2, seed=2)) == pytest.approx(2.0, abs=1e-9)

    def test_clean_channel_per_user_capacity(self):
        A = orthogonal_matrix(2, 2, seed=3)
        est = estimate_capacity(A, 1e-3, samples=100_000, seed=1)
        assert est.per_user_bits == pytest.approx(1.0, abs=0.01)


class TestWbeMatrix:
    @pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 4), (3, 5)])
    def test_row_gram_at_tolerance(self, m, n):
        A = wbe_matrix(m, n, seed=1)
        assert wbe_verify(A) <= 1e-10
        npt.assert_allclose(np.linalg.norm(A.entries, axis=0), 1.0, atol=1e-9)

    def test_square_case_is_orthonormal(self):
        A = wbe_matrix(3, 3, seed=2)
        npt.assert_allclose(A.entries @ A.entries.T, np.eye(3), atol=1e-10)
        npt.assert_allclose(A.entries.T @ A.entries, np.eye(3), atol=1e-10)

    def test_two_by_four_row_gram(self):
        A = wbe_matrix(2, 4, seed=3)
        npt.assert_allclose(A.entries @ A.entries.T, 2.0 * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 5)])
    def test_total_squared_crosscorrelation_meets_welch_bound(self, m, n):
        # trace((A^T A)^2) = trace((A A^T)^2) = m * (n/m)^2 = n^2/m at equality
        A = wbe_matrix(m, n, seed=4)
        gram = A.entries.T @ A.entries
        assert float(np.sum(gram**2)) == pytest.approx(n**2 / m, abs=1e-8)

    def test_under_loaded_rejected(self):
        with pytest.raises(DimensionError):
            wbe_matrix(3, 2, seed=0)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(baselines, "_WBE_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError, match="in 1 iterations"):
            wbe_matrix(3, 5, seed=0)

    def test_deterministic(self):
        npt.assert_array_equal(
            wbe_matrix(2, 3, seed=9).entries, wbe_matrix(2, 3, seed=9).entries
        )


class TestGenerate:
    @pytest.mark.parametrize("kind,m,n", [("wbe", 2, 4), ("random", 3, 4), ("orthogonal", 3, 2)])
    def test_kinds(self, kind, m, n):
        A = generate(kind, m, n, seed=1)
        assert (A.m, A.n) == (m, n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("hadamard", 2, 2, seed=0)

import numpy as np
import numpy.testing as npt
import pytest

from sigdesign import (
    SignatureMatrix,
    TooManyUsersError,
    ZeroColumnError,
    build_constellation,
    enumerate_inputs,
    normalize_columns,
    random_normalized,
)
from sigdesign.model import MAX_USERS


class TestNormalizeColumns:
    def test_scales_to_unit_norm(self):
        out = normalize_columns([[2.0, 0.0], [0.0, 2.0]])
        npt.assert_array_equal(out.entries, np.eye(2))

    def test_idempotent_on_normalized_input(self):
        out = normalize_columns(np.eye(2))
        npt.assert_array_equal(out.entries, np.eye(2))

    def test_single_column(self):
        out = normalize_columns([[3.0], [4.0]])
        npt.assert_allclose(out.entries, [[0.6], [0.8]], rtol=0, atol=1e-15)
        # independent check: the produced column really has unit norm
        assert np.linalg.norm(out.entries[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError):
            normalize_columns([[1.0, 0.0], [0.0, 1e-13]])

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_columns([1.0, 2.0])


class TestSignatureMatrix:
    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            SignatureMatrix([[1.0, 0.0], [0.0, 0.5]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SignatureMatrix([[np.nan], [0.0]])

    def test_accessors(self):
        A = random_normalized(2, 3, seed=0)
        assert A.m == 2 and A.n == 3
        assert A.overloading_factor == pytest.approx(1.5)

    def test_entries_read_only(self):
        A = random_normalized(2, 3, seed=0)
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    @pytest.mark.parametrize("seed", range(5))
    def test_column_norms_within_tolerance(self, seed):
        A = random_normalized(3, 5, seed=seed)
        npt.assert_allclose(np.linalg.norm(A.entries, axis=0), 1.0, rtol=0, atol=1e-9)


class TestEnumerateInputs:
    def test_single_user_order(self):
        npt.assert_array_equal(enumerate_inputs(1), [[1.0], [-1.0]])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bijection_onto_sign_vectors(self, n):
        inputs = enumerate_inputs(n)
        assert inputs.shape == (2**n, n)
        assert len({tuple(row) for row in inputs}) == 2**n

    def test_full_guard_width(self):
        assert enumerate_inputs(16).shape == (65536, 16)

    def test_canonical_bit_convention(self):
        # index 5 = 0b101: bits 0 and 2 set -> -1 for users 0 and 2
        npt.assert_array_equal(enumerate_inputs(3)[5], [-1.0, 1.0, -1.0])

    def test_guard(self):
        with pytest.raises(TooManyUsersError):
            enumerate_inputs(MAX_USERS + 1)

    def test_stable_across_calls(self):
        npt.assert_array_equal(enumerate_inputs(4), enumerate_inputs(4))

    def test_values_are_signs(self):
        assert set(np.unique(enumerate_inputs(4))) == {-1.0, 1.0}


class TestBuildConstellation:
    def test_identity_two_users(self):
        cons = build_constellation(SignatureMatrix(np.eye(2)))
        npt.assert_array_equal(cons.points, cons.inputs)
        assert {tuple(p) for p in cons.points} == {
            (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)
        }

    def test_one_chip_two_users_expansion(self):
        # a=1, b=-1: canonical order gives a+b, -a+b, a-b, -a-b
        cons = build_constellation(SignatureMatrix([[1.0, -1.0]]))
        npt.assert_array_equal(cons.points.ravel(), [0.0, -2.0, 2.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_under_negation(self, seed):
        cons = build_constellation(random_normalized(2, 4, seed=seed))
        npt.assert_array_equal(cons.points[::-1], -cons.points)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_point_count(self, n):
        cons = build_constellation(random_normalized(2, n, seed=1))
        assert cons.size == 2**n

    def test_points_match_matrix_product(self):
        A = random_normalized(3, 4, seed=7)
        cons = build_constellation(A)
        for i in (0, 5, 11, 15):
            npt.assert_allclose(
                cons.points[i], A.entries @ cons.inputs[i], rtol=0, atol=1e-14
            )

    def test_guard_propagates(self):
        A = normalize_columns(np.ones((1, 17)))
        with pytest.raises(TooManyUsersError):
            build_constellation(A)


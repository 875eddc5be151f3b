import numpy as np
import numpy.testing as npt
import pytest

from sigdesign import (
    SignatureMatrix,
    enumerate_inputs,
    random_normalized,
)
from sigdesign.model import MAX_USERS, _points


def coincident_3x5():
    """A random 3x5 matrix whose column 3 repeats column 1 and whose column 4 negates column 0."""
    a = random_normalized(3, 5, seed=2).entries.copy()
    a[:, 3], a[:, 4] = a[:, 1], -a[:, 0]
    return a


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
        with pytest.raises(ValueError, match="MAX_USERS=16"):
            enumerate_inputs(MAX_USERS + 1)

    def test_stable_across_calls(self):
        npt.assert_array_equal(enumerate_inputs(4), enumerate_inputs(4))

    def test_values_are_signs(self):
        assert set(np.unique(enumerate_inputs(4))) == {-1.0, 1.0}


class TestBuildConstellation:
    def test_identity_two_users(self):
        points = _points(np.eye(2))
        npt.assert_array_equal(points, enumerate_inputs(2))
        assert {tuple(p) for p in points} == {
            (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)
        }

    def test_one_chip_two_users_expansion(self):
        # a=1, b=-1: canonical order gives a+b, -a+b, a-b, -a-b
        points = _points(np.array([[1.0, -1.0]]))
        npt.assert_array_equal(points.ravel(), [0.0, -2.0, 2.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_under_negation(self, seed):
        points = _points(random_normalized(2, 4, seed=seed).entries)
        npt.assert_array_equal(points[::-1], -points)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_point_count(self, n):
        points = _points(random_normalized(2, n, seed=1).entries)
        assert points.shape == (2**n, 2)

    def test_points_match_matrix_product(self):
        A = random_normalized(3, 4, seed=7)
        points, inputs = _points(A.entries), enumerate_inputs(4)
        for i in (0, 5, 11, 15):
            npt.assert_allclose(points[i], A.entries @ inputs[i], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(32, 3, 6), (64, 3, 4), (8, 16)])
    def test_no_repeated_column_takes_the_plain_product(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        a /= np.linalg.norm(a, axis=-2, keepdims=True)
        npt.assert_array_equal(_points(a), enumerate_inputs(shape[-1]) @ a.swapaxes(-1, -2))

    def test_coincident_inputs_get_equal_points(self):
        # column 3 repeats column 1 and column 4 negates column 0: the outputs of two inputs
        # coincide when their weights x0 - x4, x1 + x3 and x2 are equal, and then bit for bit
        a = coincident_3x5()
        x = enumerate_inputs(5)
        weights = np.column_stack([x[:, 0] - x[:, 4], x[:, 1] + x[:, 3], x[:, 2]])
        groups = np.unique(weights, axis=0, return_inverse=True)[1]
        points = _points(a)
        for g in range(groups.max() + 1):
            assert len(np.unique(points[groups == g], axis=0)) == 1
        assert len(np.unique(points, axis=0)) == 18
        npt.assert_allclose(points, x @ a.T, rtol=0, atol=1e-15)

    def test_stack_equals_each_matrix(self):
        pop = np.stack([random_normalized(3, 5, seed=s).entries for s in range(4)] + [coincident_3x5()])
        stacked = _points(pop)
        for a, points in zip(pop, stacked):
            npt.assert_array_equal(points, _points(a))

    @pytest.mark.parametrize("m, n", [(5, 8), (6, 10)])
    def test_sign_codes_coincide_bit_for_bit(self, m, n):
        # +-1/sqrt(m) codes with distinct columns, whose points coincide through relations other
        # than a repeated or negated column: every pair equal to 1e-12 is equal bit for bit
        for seed in range(3):
            rng = np.random.default_rng(100 * m + seed)
            signs = rng.choice([-1.0, 1.0], size=(m, n))
            while (np.abs(signs.T @ signs) == m)[~np.eye(n, dtype=bool)].any():  # a repeated column
                signs = rng.choice([-1.0, 1.0], size=(m, n))
            points = _points(signs / np.sqrt(m))
            distinct = len(np.unique(points.round(12), axis=0))
            assert len(np.unique(points, axis=0)) == distinct < 2**n
            npt.assert_allclose(points, enumerate_inputs(n) @ (signs / np.sqrt(m)).T, rtol=0, atol=1e-14)

    def test_mixed_magnitudes_keep_their_products(self):
        # in a stack, a code gets c (x @ signs) and every other matrix keeps its own product
        code = np.array([[1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]]) / np.sqrt(3)
        pop = np.stack([random_normalized(3, 4, seed=1).entries, code, coincident_3x5()[:, :4]])
        stacked, x = _points(pop), enumerate_inputs(4)
        npt.assert_array_equal(stacked[0], x @ pop[0].T)
        npt.assert_array_equal(stacked[1], np.abs(code[0, 0]) * (x @ np.sign(code).T))
        npt.assert_array_equal(stacked[2], _points(pop[2]))

    def test_guard_propagates(self):
        with pytest.raises(ValueError, match="MAX_USERS=16"):
            _points(SignatureMatrix(np.ones((1, 17))).entries)


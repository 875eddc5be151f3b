import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import hadamard

from sigdesign import (
    SignatureMatrix,
    enumerate_inputs,
    estimate_capacity,
    q_function,
    random_normalized,
    simulate_ber,
    union_bound,
)
from sigdesign._rng import _scan
from sigdesign.ber import _pair_measures

Q_AT_1 = 0.15865525393145707  # Gaussian tail at 1, from the tail quadrature

SCALAR_ONE = SignatureMatrix([[1.0]])


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_reference_value(self):
        assert q_function(1.0) == pytest.approx(Q_AT_1, rel=1e-12)

    def test_tail_quadrature_crosscheck(self):
        # independent oracle: integrate the standard normal density on [1, 9]
        from scipy.integrate import quad

        val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 1.0, 9.0)
        assert q_function(1.0) == pytest.approx(val, rel=1e-10)


def ml_decode(A, y):
    """Index of the input whose noiseless point A x is nearest to y, as the channel pass decodes."""
    points = enumerate_inputs(A.shape[1]) @ A.T
    # the nearest point does not depend on the sigma the density uses
    return int(_scan(points, 1.0, np.asarray(y, dtype=float)[None, :])[1][0])


class TestMlDecode:
    def test_exact_point_decodes_to_its_input(self):
        A = random_normalized(2, 3, seed=4).entries
        points = enumerate_inputs(3) @ A.T
        assert len(np.unique(points.round(12), axis=0)) == len(points)
        for i in (0, 3, 7):
            assert ml_decode(A, points[i]) == i

    def test_orthonormal_sign_decision(self):
        i = ml_decode(np.eye(2), [0.9, -1.2])
        npt.assert_array_equal(enumerate_inputs(2)[i], [1.0, -1.0])

    def test_tie_breaks_to_lowest_index(self):
        # y=(1,0) is exactly equidistant from points 0=(1,1) and 2=(1,-1)
        assert ml_decode(np.eye(2), [1.0, 0.0]) == 0

    def test_tie_across_slabs_breaks_to_lowest_index(self):
        # columns 0 and 9 coincide, so points 1 (x0=-1, x9=+1) and 512
        # (x0=+1, x9=-1) are equal and sit in different 512-point slabs;
        # dyadic Hadamard entries keep the arithmetic exact and every
        # other point distinct
        cols = hadamard(16)[:, :10] / 4.0
        cols[:, 9] = cols[:, 0]
        points = enumerate_inputs(10) @ SignatureMatrix(cols).entries.T
        npt.assert_array_equal(points[1], points[512])
        assert ml_decode(cols, points[512]) == 1

    def test_all_points_tie(self):
        assert ml_decode(np.eye(2), [0.0, 0.0]) == 0


class TestSimulateBer:
    def test_noiseless_separable(self):
        A = random_normalized(2, 3, seed=4)  # distinct points, checked above
        est = simulate_ber(A, 1e-6, blocks=10_000, seed=1)
        assert est.bit_errors == 0
        assert est.ber == 0.0
        # rule of three: a 3-sigma band reaches the 95 % bound 3 / blocks
        assert est.std_error == est.block_std_error == 1.0 / 10_000

    def test_scalar_bpsk_matches_tail(self):
        est = simulate_ber(SCALAR_ONE, 1.0, blocks=100_000, seed=2)
        assert abs(est.ber - Q_AT_1) < 3 * est.std_error

    def test_pure_noise_limit(self):
        est = simulate_ber(SCALAR_ONE, 1e6, blocks=50_000, seed=3)
        assert abs(est.ber - 0.5) < 3 * est.std_error

    def test_fields_consistent(self):
        est = simulate_ber(random_normalized(2, 3, seed=5), 0.5, blocks=4_000, seed=4)
        assert est.ber == est.bit_errors / est.bits_simulated
        assert est.bits_simulated == 3 * est.blocks
        assert est.block_error_rate == est.block_errors / est.blocks
        assert est.bit_errors >= est.block_errors  # an errored block has >= 1 bad bit
        assert 0.0 <= est.ber <= 1.0

    def test_deterministic_per_seed(self):
        A = random_normalized(2, 3, seed=6)
        assert simulate_ber(A, 0.5, 5_000, seed=7) == simulate_ber(A, 0.5, 5_000, seed=7)

    def test_user_permutation_invariance(self):
        A = random_normalized(2, 3, seed=8)
        B = SignatureMatrix(A.entries[:, [1, 2, 0]])
        ea = simulate_ber(A, 0.5, blocks=20_000, seed=9)
        eb = simulate_ber(B, 0.5, blocks=20_000, seed=9)
        assert abs(ea.ber - eb.ber) <= 3 * math.hypot(ea.std_error, eb.std_error)

    def test_monotone_in_sigma(self):
        A = random_normalized(2, 3, seed=10)
        grid = [0.25, 0.5, 1.0, 2.0]
        ests = [simulate_ber(A, s, blocks=20_000, seed=11) for s in grid]
        for lo, hi in zip(ests, ests[1:]):
            slack = 3 * math.hypot(lo.std_error, hi.std_error)
            assert hi.ber >= lo.ber - slack

    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            simulate_ber(SCALAR_ONE, 1.0, blocks=0, seed=0)


class TestUnionBound:
    def test_scalar_case_equals_tail(self):
        for sigma in (0.5, 1.0, 2.0):
            assert union_bound(SCALAR_ONE, sigma) == pytest.approx(
                q_function(1.0 / sigma), rel=1e-12
            )

    def test_vanishes_at_small_noise(self):
        assert union_bound(random_normalized(2, 3, seed=4), 0.01) < 1e-10

    def test_duplicate_points_floor(self):
        # one-chip, two-user matrices always duplicate a point
        assert union_bound(SignatureMatrix([[1.0, 1.0]]), 0.5) >= 2.0 ** (-2)

    def test_may_exceed_one(self):
        assert union_bound(random_normalized(2, 4, seed=1), 5.0) > 1.0  # bound is not clamped

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_bounds_simulated_block_errors(self, seed, sigma):
        A = random_normalized(2, 3, seed=40 + seed)
        est = simulate_ber(A, sigma, blocks=10_000, seed=seed)
        bound = union_bound(A, sigma)
        assert est.block_error_rate <= bound + 3 * est.block_std_error


@pytest.mark.parametrize(
    "sigma", [0.0, math.nan, math.inf, -1.0, 1e-170], ids=["0", "nan", "inf", "-1", "1e-170"]
)
def test_pair_measures_check_sigma(sigma):
    # unchecked, these gave 0, nan or finite nonsense, and 0 a divide-by-zero warning
    a = random_normalized(2, 3, seed=0).entries[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma"):
            _pair_measures(a, sigma, ("qd", "ed"))


@pytest.mark.parametrize("estimator", ["capacity", "ber"])
def test_std_error_matches_spread_over_seeds(estimator):
    # 200 seeds pin the empirical SD to about 5 %, so a correct standard
    # error lands well inside the band; a per-bit BER error (which treats
    # the bits of one vector as independent) reads about 1.3
    A = random_normalized(3, 6, seed=1)
    if estimator == "capacity":
        ests = [estimate_capacity(A, 0.5, samples=4096, seed=s) for s in range(200)]
        values = [e.sum_bits for e in ests]
    else:
        ests = [simulate_ber(A, 0.5, blocks=4096, seed=s) for s in range(200)]
        values = [e.ber for e in ests]
    ratio = np.std(values, ddof=1) / np.mean([e.std_error for e in ests])
    assert 0.8 <= ratio <= 1.2

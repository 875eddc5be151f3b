import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import hadamard

from sigdesign import (
    SignatureMatrix,
    constellation_measures,
    enumerate_inputs,
    estimate,
    q_function,
    random_normalized,
)
from sigdesign import _rng
from sigdesign._rng import _scan
from sigdesign.criteria import _pair_measures

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

    def test_matches_scipy_erfc(self):
        # relative error on each of Cody's ranges of the erfc argument t = |x| / sqrt 2:
        # the same arithmetic on [0, 1), numpy's exp against libm's from 1 on
        from scipy.special import erfc

        x = np.linspace(-40.0, 40.0, 800_001)
        got, ref = q_function(x), 0.5 * erfc(x / math.sqrt(2.0))
        t = np.abs(x) / math.sqrt(2.0)
        for lo, hi, bound in ((0.0, 1.0, 0.0), (1.0, 8.0, 1e-15), (8.0, np.inf, 4e-15)):
            cell = (t >= lo) & (t < hi) & (ref > 0.0)
            assert cell.sum() > 10_000
            assert np.max(np.abs(got[cell] - ref[cell]) / ref[cell]) <= bound
        npt.assert_array_equal(got == 0.0, ref == 0.0)

    def test_underflows_where_scipy_does(self):
        from scipy.special import erfc

        edge = math.sqrt(2.0 * 7.09782712893383996843e2)  # erfc(t) = 0 once t^2 > ln(DBL_MAX)
        x = edge + np.linspace(-1e-12, 1e-12, 20_001)
        ref = 0.5 * erfc(x / math.sqrt(2.0))
        assert 0 < np.count_nonzero(ref == 0.0) < len(x)
        npt.assert_array_equal(q_function(x) == 0.0, ref == 0.0)
        npt.assert_array_equal(q_function(-x), 0.5 * erfc(-x / math.sqrt(2.0)))  # 1 - tiny is 1

    def test_limits_and_nan(self):
        npt.assert_array_equal(q_function([np.inf, -np.inf]), [0.0, 1.0])
        assert np.isnan(q_function(np.nan))

    def test_scalar_in_scalar_out(self):
        assert np.ndim(q_function(0.3)) == 0 and q_function([0.3]).shape == (1,)

    def test_huge_argument_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_function(1e154) == 0.0 and q_function(-1e154) == 1.0


def ml_decode(A, y):
    """Index of the input whose noiseless point A x is nearest to y, as the channel pass decodes."""
    points = enumerate_inputs(A.shape[1]) @ A.T
    return int(_scan(points, np.asarray(y, dtype=float)[None, :])[0])


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


class TestBerEstimate:
    def test_noiseless_separable(self):
        A = random_normalized(2, 3, seed=4)  # distinct points, checked above
        est = estimate(A, 1e-6, samples=10_000, seed=1)[1]
        assert est.bit_errors == 0
        assert est.ber == 0.0
        # rule of three: a 3-sigma band reaches the 95 % bound 3 / blocks
        assert est.std_error == est.block_std_error == 1.0 / 10_000

    def test_scalar_bpsk_matches_tail(self):
        est = estimate(SCALAR_ONE, 1.0, samples=100_000, seed=2)[1]
        assert abs(est.ber - Q_AT_1) < 3 * est.std_error

    def test_pure_noise_limit(self):
        est = estimate(SCALAR_ONE, 1e6, samples=50_000, seed=3)[1]
        assert abs(est.ber - 0.5) < 3 * est.std_error

    def test_fields_consistent(self):
        est = estimate(random_normalized(2, 3, seed=5), 0.5, samples=4_000, seed=4)[1]
        assert est.ber == est.bit_errors / est.bits_simulated
        assert est.bits_simulated == 3 * est.blocks
        assert est.block_error_rate == est.block_errors / est.blocks
        assert est.bit_errors >= est.block_errors  # an errored block has >= 1 bad bit
        assert 0.0 <= est.ber <= 1.0

    def test_deterministic_per_seed(self):
        A = random_normalized(2, 3, seed=6)
        assert estimate(A, 0.5, 5_000, seed=7)[1] == estimate(A, 0.5, 5_000, seed=7)[1]

    def test_user_permutation_invariance(self):
        A = random_normalized(2, 3, seed=8)
        B = SignatureMatrix(A.entries[:, [1, 2, 0]])
        ea = estimate(A, 0.5, samples=20_000, seed=9)[1]
        eb = estimate(B, 0.5, samples=20_000, seed=9)[1]
        assert abs(ea.ber - eb.ber) <= 3 * math.hypot(ea.std_error, eb.std_error)

    def test_monotone_in_sigma(self):
        A = random_normalized(2, 3, seed=10)
        grid = [0.25, 0.5, 1.0, 2.0]
        ests = [estimate(A, s, samples=20_000, seed=11)[1] for s in grid]
        for lo, hi in zip(ests, ests[1:]):
            slack = 3 * math.hypot(lo.std_error, hi.std_error)
            assert hi.ber >= lo.ber - slack

    @pytest.mark.parametrize(
        "entries", [random_normalized(3, 6, seed=2).entries, np.ones((1, 4))], ids=["3x6", "ones1x4"]
    )
    def test_per_row_errors_are_hamming_distances(self, entries):
        # the all-ones 1x4 has coinciding points, so its decoding ties; 5000 rows span two blocks
        (m, n), sigma, rows, seed = entries.shape, 0.5, 5000, 3
        _, errors = _rng.channel_pass(entries[None], [sigma], rows, seed)
        blocks = [_rng.draw_block(seed, b, n, m) for b in (0, 1)]
        sent, unit = (np.concatenate(a)[:rows] for a in zip(*blocks))
        inputs = enumerate_inputs(n)
        points = inputs @ entries.T
        decoded = _scan(points, points[sent] + sigma * unit)
        want = (inputs[sent] != inputs[decoded]).sum(axis=1)
        # each block's sum, sum of squares and nonzero count of the per-row errors
        stats = [[w.sum(), np.square(w).sum(), np.count_nonzero(w)] for w in np.split(want, [4096])]
        npt.assert_array_equal(errors[:, 0, :, 0], stats)
        assert want.max() >= 2  # multi-bit errors occur, so a count of 0 or 1 would not pass

    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            estimate(SCALAR_ONE, 1.0, samples=0, seed=0)[1]

    def test_blocks_below_sample_floor(self):
        with pytest.raises(ValueError, match="at least 100 samples"):
            estimate(SCALAR_ONE, 1.0, samples=99, seed=0)[1]


class TestUnionBound:
    def test_scalar_case_equals_tail(self):
        for sigma in (0.5, 1.0, 2.0):
            assert constellation_measures(SCALAR_ONE, sigma).union_bound == pytest.approx(
                q_function(1.0 / sigma), rel=1e-12
            )

    def test_vanishes_at_small_noise(self):
        assert constellation_measures(random_normalized(2, 3, seed=4), 0.01).union_bound < 1e-10

    def test_duplicate_points_floor(self):
        # one-chip, two-user matrices always duplicate a point
        assert constellation_measures(SignatureMatrix([[1.0, 1.0]]), 0.5).union_bound >= 2.0**-2

    def test_may_exceed_one(self):
        bound = constellation_measures(random_normalized(2, 4, seed=1), 5.0).union_bound
        assert bound > 1.0  # not clamped

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_bounds_simulated_block_errors(self, seed, sigma):
        A = random_normalized(2, 3, seed=40 + seed)
        est = estimate(A, sigma, samples=10_000, seed=seed)[1]
        bound = constellation_measures(A, sigma).union_bound
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


def test_constellation_measures_need_a_sigma():
    # nu1 ignores sigma, but nu2 and nu3 divide by it: None once raised a TypeError there
    with pytest.raises(ValueError, match="sigma must be"):
        constellation_measures(random_normalized(2, 3, seed=0), None)


@pytest.fixture(scope="module")
def estimates_over_seeds():
    # one pass per seed gives both estimates
    A = random_normalized(3, 6, seed=1)
    return [estimate(A, 0.5, samples=4096, seed=s) for s in range(200)]


@pytest.mark.parametrize("estimator", ["capacity", "ber"])
def test_std_error_matches_spread_over_seeds(estimator, estimates_over_seeds):
    # 200 seeds pin the empirical SD to about 5 %, so a correct standard
    # error lands well inside the band; a per-bit BER error (which treats
    # the bits of one vector as independent) reads about 1.3
    if estimator == "capacity":
        ests = [cap for cap, _ in estimates_over_seeds]
        values = [e.sum_bits for e in ests]
    else:
        ests = [err for _, err in estimates_over_seeds]
        values = [e.ber for e in ests]
    ratio = np.std(values, ddof=1) / np.mean([e.std_error for e in ests])
    assert 0.8 <= ratio <= 1.2

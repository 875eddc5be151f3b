import math
import os

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate
from scipy.special import logsumexp

from sigdesign import (
    NumericFailure,
    SignatureMatrix,
    enumerate_inputs,
    estimate,
    exact_capacity_1d,
    random_normalized,
)
from sigdesign import _rng, capacity
from sigdesign._rng import _scan
from sigdesign.model import _check_sigma

# Golden value for the scalar binary-input channel at scale=1, sigma=1:
# adaptive quadrature and a 150-node Gauss-Hermite rule agree to < 1e-9.
CAPACITY_SCALE1_SIGMA1 = 0.4859441541329352

SCALAR_ONE = SignatureMatrix([[1.0]])


def smallest_accepted_sigma() -> float:
    """The least sigma that _check_sigma accepts, found by bisection."""
    lo, hi = 0.0, 1e-150  # rejected, accepted
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        try:
            _check_sigma(mid)
            hi = mid
        except ValueError:
            lo = mid
    return hi


SMALLEST_SIGMA = smallest_accepted_sigma()


def force_threads(monkeypatch, count: int) -> None:
    """Run every Monte-Carlo pass on `count` threads, whatever its size and the CPU count."""
    monkeypatch.setattr(_rng, "_threads", lambda points, n_blocks: count)


def binomial_entropy(n):
    """H(Binomial(n, 1/2)) in bits: the sigma -> 0 capacity of a 1 x n all-ones matrix."""
    probs = [math.comb(n, j) / 2**n for j in range(n + 1)]
    return -sum(p * math.log2(p) for p in probs)


def all_ones(n):
    return SignatureMatrix(np.ones((1, n)))


def noise_entropy(m, sigma):
    """Differential entropy in bits of m iid Gaussian(0, sigma**2) chips, in closed form."""
    return 0.5 * m * math.log2(2.0 * math.pi * math.e * sigma * sigma)


def hermite_capacity(n, sigma, nodes=150):
    """Independent oracle for a 1 x n matrix: h(Y) = -E[log2 f(Y)] by one Gauss-Hermite
    expectation per output point n - 2j, weighted by C(n, j) / 2**n."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / np.sqrt(np.pi)
    points = n - 2.0 * np.arange(n + 1)
    log_p = np.log([math.comb(n, j) / 2**n for j in range(n + 1)])
    c = -0.5 * math.log(2.0 * math.pi * sigma * sigma)
    h_y = 0.0
    for point, lp in zip(points, log_p):
        y = point + sigma * math.sqrt(2.0) * t
        ln_f = logsumexp(log_p + c - (y[:, None] - points) ** 2 / (2 * sigma**2), axis=1)
        h_y += math.exp(lp) * np.sum(w * -ln_f) / math.log(2.0)
    return h_y - noise_entropy(1, sigma)


def log_output_density(A, sigma, ys):
    """log2 f_Y at each row of ys, rebuilt from the channel pass's information density i.

    For any reference point z_ref (here input 0), log2 f(y) = log2 phi(y - z_ref) - i.
    """
    points = enumerate_inputs(A.shape[1]) @ A.T
    ys = np.asarray(ys, dtype=float)
    ref = np.zeros(len(ys), dtype=int)
    d2 = np.square(ys - points[ref]).sum(axis=1)
    log_phi = -d2 / (2 * sigma**2) - 0.5 * ys.shape[1] * math.log(2 * math.pi * sigma**2)
    return log_phi / math.log(2) - _scan(points, sigma, ys, ref)[0]


class TestLogOutputDensity:
    def test_scalar_symmetric_case(self):
        # A=[1], y=0: mixture collapses to the standard normal pdf at 1
        expected = math.log2(math.exp(-0.5) / math.sqrt(2.0 * math.pi))
        val = log_output_density(SCALAR_ONE.entries, 1.0, [[0.0]])[0]
        assert val == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.35, 1.0])
    def test_density_integrates_to_one(self, sigma):
        A = SignatureMatrix([[1.0, -1.0]]).entries
        total, err = integrate.quad(
            lambda y: 2.0 ** log_output_density(A, sigma, [[y]])[0],
            -2 - 40 * sigma,
            2 + 40 * sigma,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-4)
        assert err < 1e-6

    @pytest.mark.parametrize("k", [50.0, 1e4])
    def test_far_tail_stays_finite(self, k):
        val = log_output_density(SCALAR_ONE.entries, 1.0, [[1.0 + k]])[0]
        assert math.isfinite(val)
        assert val < -100.0

    def test_batch_matches_scalar(self):
        A = random_normalized(2, 3, seed=5).entries
        ys = np.random.default_rng(1).normal(size=(6, 2))
        batch = log_output_density(A, 0.8, ys)
        singles = [log_output_density(A, 0.8, y[None])[0] for y in ys]
        npt.assert_allclose(batch, singles, rtol=1e-12)


def channel_rows(A, sigma, rows, seed):
    """The points of A, the indices of uniform random inputs x, and rows y = A x + sigma * noise."""
    rng = np.random.default_rng(seed)
    points = enumerate_inputs(A.shape[1]) @ A.T
    sent = rng.integers(0, len(points), rows)
    return points, sent, points[sent] + sigma * rng.standard_normal((rows, A.shape[0]))


class TestScan:
    @pytest.mark.parametrize("m, n", [(3, 6), (4, 10)])  # 4x10 spans two 512-point slabs
    @pytest.mark.parametrize("sigma", [0.1, 0.5])
    def test_matches_direct_reference(self, m, n, sigma):
        points, sent, ys = channel_rows(random_normalized(m, n, seed=n).entries, sigma, 300, seed=m)
        info, nearest = _scan(points, sigma, ys, sent)
        d2 = np.square(ys[:, None, :] - points[None]).sum(axis=2)
        d2_sent = d2[np.arange(len(ys)), sent, None]
        ref = n - logsumexp((d2_sent - d2) / (2 * sigma**2), axis=1) / math.log(2)
        # i is n minus a log-sum of size up to n, so where it is near 0 its
        # rounding is relative to n, not to itself
        npt.assert_allclose(info, ref, rtol=1e-12, atol=1e-12 * n)
        two = np.sort(d2, axis=1)[:, :2]
        clear = two[:, 1] - two[:, 0] > 1e-9  # rows without a near-tie
        assert clear.sum() > 250
        npt.assert_array_equal(nearest[clear], d2.argmin(axis=1)[clear])

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 2.0])
    def test_channel_pass_terms_are_density_minus_noise_entropy(self, sigma):
        # the (||u||^2 - m) / (2 ln 2) term has mean 0, so only a per-row check sees its sign
        A = random_normalized(3, 6, seed=1).entries
        terms, _ = _rng.channel_pass(A[None], sigma, 300, seed=2)
        sent, unit = (a[:300] for a in _rng.draw_block(2, 0, 6, 3))
        points = enumerate_inputs(6) @ A.T
        d2 = np.square((points[sent] + sigma * unit)[:, None, :] - points[None]).sum(axis=2)
        norm = math.log(2**6) + 1.5 * math.log(2 * math.pi * sigma**2)
        ln_f = logsumexp(-d2 / (2 * sigma**2), axis=1) - norm
        ref = -ln_f / math.log(2) - noise_entropy(3, sigma)
        npt.assert_allclose(terms[0], ref, rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 6, 8, 10, 12])  # 10 and 12 span several slabs
    def test_exp_floor_changes_no_bit(self, monkeypatch, n):
        for seed in (0, 1):
            A = random_normalized(max(1, n // 2), n, seed=seed).entries
            for sigma in (0.05, 0.1, 0.158, 0.3, 1.0):
                points, sent, ys = channel_rows(A, sigma, 300, seed)
                floored = _scan(points, sigma, ys, sent)
                with monkeypatch.context() as mp:
                    mp.setattr(_rng, "_EXP_FLOOR", -np.inf)
                    unfloored = _scan(points, sigma, ys, sent)
                npt.assert_array_equal(floored[0], unfloored[0])
                npt.assert_array_equal(floored[1], unfloored[1])

    @pytest.mark.parametrize(
        "m, n, sigma",
        [(4, 8, 0.1), (4, 8, 0.5), (6, 12, 0.1), (6, 12, 0.5), (1, 12, 1e-9)],
    )
    def test_row_tiles_change_no_bit(self, monkeypatch, m, n, sigma):
        # one 4096-row block: 8 tiles at 4x8, 16 at 6x12; the all-ones 1x12 has
        # twins of the sent point and lowest-index ties in every tile
        A = np.ones((1, n)) if m == 1 else random_normalized(m, n, seed=1).entries
        points, sent, ys = channel_rows(A, sigma, _rng.BLOCK, seed=3)
        assert _rng._TILE // min(_rng._SLAB, len(points)) < _rng.BLOCK  # the default tiles
        tiled = _scan(points, sigma, ys, sent)
        with monkeypatch.context() as mp:
            mp.setattr(_rng, "_TILE", _rng.BLOCK * len(points))  # one tile holds the block
            whole = _scan(points, sigma, ys, sent)
        npt.assert_array_equal(tiled[0], whole[0])
        npt.assert_array_equal(tiled[1], whole[1])


class TestCapacityEstimate:
    def test_matches_quadrature_oracle(self):
        est = estimate(SCALAR_ONE, 1.0, samples=200_000, seed=7)[0]
        assert abs(est.sum_bits - CAPACITY_SCALE1_SIGMA1) < 3 * est.std_error
        assert abs(est.sum_bits - CAPACITY_SCALE1_SIGMA1) < 0.01

    def test_vanishes_in_pure_noise(self):
        A = random_normalized(2, 3, seed=2)
        est = estimate(A, 1e3, samples=20_000, seed=3)[0]
        assert abs(est.sum_bits) < 3 * est.std_error + 1e-6

    def test_clean_parallel_channels(self):
        est = estimate(SignatureMatrix(np.eye(3)), 1e-3, samples=100_000, seed=11)[0]
        assert est.per_user_bits == pytest.approx(1.0, abs=0.01)

    def test_fields_consistent(self):
        est = estimate(SCALAR_ONE, 1.0, samples=500, seed=0)[0]
        assert est.per_user_bits == est.sum_bits
        assert est.std_error >= 0
        assert est.samples == 500
        assert est.sigma == 1.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pinned_stream(self, monkeypatch, workers):
        # recorded figures of seed 7's draws: reordering or repacking the stream changes them all
        force_threads(monkeypatch, int(workers))
        cap, err = estimate(random_normalized(4, 8, seed=3), 0.5, samples=5000, seed=7)
        assert cap.sum_bits == pytest.approx(5.366189108139556, rel=1e-12)
        assert cap.std_error == pytest.approx(0.021176995896320515, rel=1e-12)
        assert (err.bit_errors, err.block_errors) == (8386, 2935)

    def test_deterministic_per_seed(self):
        A = random_normalized(2, 3, seed=9)
        a = estimate(A, 0.5, samples=5_000, seed=4)[0]
        b = estimate(A, 0.5, samples=5_000, seed=4)[0]
        assert a == b

    def test_sample_budget_validated(self):
        with pytest.raises(ValueError, match="at least 100 samples"):
            estimate(SCALAR_ONE, 1.0, samples=99, seed=0)[0]

    def test_user_guard(self):
        wide = SignatureMatrix(np.ones((1, 17)))
        with pytest.raises(ValueError, match="MAX_USERS=16"):
            estimate(wide, 1.0, samples=1_000, seed=0)[0]

    def test_bounded_by_input_entropy(self):
        A = random_normalized(2, 3, seed=13)
        est = estimate(A, 0.5, samples=50_000, seed=5)[0]
        assert est.sum_bits + 3 * est.std_error >= 0.0
        assert est.sum_bits - 3 * est.std_error <= A.n

    def test_monotone_in_sigma(self):
        A = random_normalized(2, 3, seed=17)
        grid = [0.25, 0.5, 1.0, 2.0]
        ests = [estimate(A, s, samples=50_000, seed=6)[0] for s in grid]
        for lo, hi in zip(ests, ests[1:]):
            slack = 3 * math.hypot(lo.std_error, hi.std_error)
            assert lo.sum_bits >= hi.sum_bits - slack

    def test_common_random_numbers_across_sigma(self):
        # matched seeds reuse the same inputs and unit noise, so in the
        # saturated regime the Monte-Carlo fluctuation cancels between
        # sigma values almost exactly (independent seeds differ by ~se)
        A = SignatureMatrix(np.eye(2))
        e1 = estimate(A, 1e-4, samples=20_000, seed=5)[0]
        e2 = estimate(A, 3e-4, samples=20_000, seed=5)[0]
        assert abs(e1.sum_bits - e2.sum_bits) < 1e-6
        assert e1.std_error > 1e-3  # the cancellation is not for lack of noise

    def test_column_permutation_and_negation_invariance(self):
        A = random_normalized(2, 3, seed=21)
        flipped = A.entries[:, [2, 0, 1]] * np.array([1.0, -1.0, 1.0])
        B = SignatureMatrix(flipped)
        ea = estimate(A, 0.5, samples=50_000, seed=8)[0]
        eb = estimate(B, 0.5, samples=50_000, seed=8)[0]
        assert abs(ea.sum_bits - eb.sum_bits) <= 3 * math.hypot(
            ea.std_error, eb.std_error
        )


class _Chosen(Exception):
    pass


class TestThreads:
    def chosen(self, monkeypatch, cpus, shape, rows):
        """The thread count channel_pass picks for a (P, m, n) stack with `cpus` usable CPUs."""
        choose = _rng._threads

        def stop(points, n_blocks):  # record the choice, then skip the pass itself
            raise _Chosen(choose(points, n_blocks))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(_rng, "_threads", stop)
        with pytest.raises(_Chosen) as exc:
            _rng.channel_pass(np.ones(shape), 0.5, rows, seed=0)
        return exc.value.args[0]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize(
        "shape,rows",
        [((1, 4, 8), 20_000), ((32, 3, 6), 1_000), ((1, 8, 16), 4_096), ((64, 4, 8), 100)],
        ids=["sweep-n8", "overload-capacity", "one-block-8x16", "one-block-64x4x8"],
    )
    def test_small_blocks_or_one_block_run_serially(self, monkeypatch, cpus, shape, rows):
        assert self.chosen(monkeypatch, cpus, shape, rows) == 1

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_eval_n12_takes_a_thread_per_cpu_up_to_its_blocks(self, monkeypatch, cpus):
        assert self.chosen(monkeypatch, cpus, (1, 6, 12), 20_000) == min(cpus, 5)

    def test_estimate_identical_at_forced_counts(self, monkeypatch):
        # 20 000 rows: five blocks, the last cut to 3 616 rows.  The rows themselves are
        # compared too: a sum of error counts cannot see them out of block order
        A = random_normalized(6, 12, seed=1)
        results = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            rows = _rng.channel_pass(A.entries[None], 0.5, 20_000, seed=5)
            results.append((estimate(A, 0.5, samples=20_000, seed=5), [r.tobytes() for r in rows]))
        assert results[0] == results[1] == results[2]


class TestSmallSigma:
    def test_floor_is_the_smallest_accepted_sigma(self):
        _check_sigma(SMALLEST_SIGMA)
        with pytest.raises(ValueError):
            _check_sigma(np.nextafter(SMALLEST_SIGMA, 0))

    # each limit is exact to far below the SE already at sigma = 1e-2; the
    # all-ones points coincide, so each row's sent point has twins
    @pytest.mark.parametrize(
        "A, limit, samples",
        [
            (SignatureMatrix(np.eye(2)), 2.0, 4_096),
            (random_normalized(2, 3, seed=0), 3.0, 4_096),
            *[(all_ones(n), binomial_entropy(n), 4_096) for n in (4, 8, 12)],
            (all_ones(16), binomial_entropy(16), 256),
        ],
        ids=["eye2", "random2x3", "ones1x4", "ones1x8", "ones1x12", "ones1x16"],
    )
    @pytest.mark.parametrize(
        "sigma", [1e-2, 1e-6, 1e-8, 1e-9, 1e-10, 1e-20, 1e-100, 1e-150, 6e-155, SMALLEST_SIGMA]
    )
    def test_capacity_reads_its_noiseless_limit(self, A, limit, samples, sigma):
        est = estimate(A, sigma, samples=samples, seed=0)[0]
        assert abs(est.sum_bits - limit) <= 3 * est.std_error


class TestExactCapacity1d:
    def test_large_noise_limit(self):
        assert exact_capacity_1d(SCALAR_ONE, 100.0) == pytest.approx(0.0, abs=1e-3)

    def test_small_noise_limit(self):
        assert exact_capacity_1d(SCALAR_ONE, 0.01) == pytest.approx(1.0, abs=1e-6)

    def test_golden_value_dual_rule(self):
        val = exact_capacity_1d(SCALAR_ONE, 1.0)
        assert val == pytest.approx(CAPACITY_SCALE1_SIGMA1, abs=1e-9)
        assert val == pytest.approx(hermite_capacity(1, 1.0), abs=1e-6)

    # scale*X + N(0, sigma^2) carries the same information as X + N(0, (sigma/scale)^2)
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    @pytest.mark.parametrize("sigma", [0.25, 2.0])
    def test_agrees_with_hermite_rule(self, scale, sigma):
        assert exact_capacity_1d(SCALAR_ONE, sigma / scale) == pytest.approx(
            hermite_capacity(1, sigma / scale), abs=1e-6
        )

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("sigma", [0.3, 1.0])
    def test_mixture_agrees_with_hermite_rule(self, n, sigma):
        assert exact_capacity_1d(all_ones(n), sigma) == pytest.approx(
            hermite_capacity(n, sigma), abs=1e-6
        )

    # small sigma, down to the floor: the peaks of f_Y are narrower there than
    # the nodes of an integral over y, or than the spacing of doubles near y = n
    @pytest.mark.parametrize("n", [1, 4, 8, 12, 16])
    @pytest.mark.parametrize("sigma", [1e-3, 1e-10, SMALLEST_SIGMA])
    def test_reads_binomial_entropy_at_small_sigma(self, n, sigma):
        assert exact_capacity_1d(all_ones(n), sigma) == pytest.approx(
            binomial_entropy(n), abs=1e-6
        )

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(capacity, "_QUAD_TOL", 1e-16)
        with pytest.raises(NumericFailure):
            exact_capacity_1d(SCALAR_ONE, 1.0)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            exact_capacity_1d(SCALAR_ONE, 0.0)

    def test_needs_one_row(self):
        with pytest.raises(ValueError, match="needs a 1 x n matrix"):
            exact_capacity_1d(SignatureMatrix(np.eye(2)), 1.0)


class TestEstimatorAgainstOracle:
    # the seed and the budgets were fixed before any cell was run
    @pytest.mark.parametrize("n", [1, 4, 8, 12, 16])
    @pytest.mark.parametrize("sigma", [1e-2, 0.1, 0.3, 1.0])
    def test_all_ones_within_3_se(self, n, sigma):
        est = estimate(all_ones(n), sigma, samples=1_024 if n == 16 else 4_096, seed=0)[0]
        assert abs(est.sum_bits - exact_capacity_1d(all_ones(n), sigma)) <= 3 * est.std_error

    def test_reported_se_matches_spread_over_seeds(self):
        ests = [estimate(all_ones(8), 0.3, samples=1_000, seed=s)[0] for s in range(200)]
        values = np.array([e.sum_bits for e in ests])
        spread = np.std(values, ddof=1)
        assert 0.8 <= spread / np.mean([e.std_error for e in ests]) <= 1.2
        # the 200 estimates pooled are unbiased against the exact value
        pooled_se = spread / math.sqrt(len(values))
        assert abs(values.mean() - exact_capacity_1d(all_ones(8), 0.3)) <= 3 * pooled_se

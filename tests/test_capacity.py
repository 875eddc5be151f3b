import hashlib
import math
import os
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate
from scipy.special import logsumexp

from sigdesign import (
    CriterionSpec,
    NumericFailure,
    SignatureMatrix,
    enumerate_inputs,
    estimate,
    exact_capacity_1d,
    population_fitness,
    random_normalized,
)
from sigdesign import _rng, baselines, capacity
from sigdesign._rng import _scan
from sigdesign.model import _check_sigma, _points

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


def largest_accepted_sigma() -> float:
    """The greatest sigma that _check_sigma accepts, found by bisection."""
    lo, hi = 1e150, 1e160  # accepted, rejected
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        try:
            _check_sigma(mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


LARGEST_SIGMA = largest_accepted_sigma()


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


def quad_capacity(n, sigma):
    """Independent reference for exact_capacity_1d's Gauss-Hermite rules: the same integrand,
    sum_j p_j i_j(z) against the N(0, 1) density, by adaptive quadrature over z in [-40, 40],
    beyond which that density is below the smallest double."""
    x = n - 2.0 * np.arange(n + 1)
    p = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    log_p = np.log(p)
    d = np.clip((x[:, None] - x) / float(sigma), -1e3, 1e3)  # keeps d * d finite
    phi_bits = 1.0 / (math.sqrt(2.0 * math.pi) * math.log(2.0))

    def integrand(z):
        e = log_p - d * (0.5 * d + z)
        top = e.max(axis=1)
        info = -top - np.log(np.exp(e - top[:, None]).sum(axis=1))
        return math.exp(-0.5 * z * z) * phi_bits * (p @ info)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)  # judged by err below
        bits, err = integrate.quad(integrand, -40.0, 40.0, limit=400, epsabs=1e-7, epsrel=1e-10)
    assert err <= 1e-6
    return bits


def log_output_density(A, sigma, ys):
    """log2 f_Y at each row of ys, rebuilt from the information density i of `_rng._density`.

    For any reference point z_ref (here input 0), log2 f(y) = log2 phi(y - z_ref) - i.
    """
    points = enumerate_inputs(A.shape[1]) @ A.T
    ys = np.asarray(ys, dtype=float)
    ref = np.zeros(len(ys), dtype=int)
    d2 = np.square(ys - points[ref]).sum(axis=1)
    log_phi = -d2 / (2 * sigma**2) - 0.5 * ys.shape[1] * math.log(2 * math.pi * sigma**2)
    return log_phi / math.log(2) - _rng._density(points[None], sigma, ys - points[ref], ref)[0]


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
    """The points of A, the indices of uniform random inputs x, and the noise of rows A x + noise."""
    rng = np.random.default_rng(seed)
    points = enumerate_inputs(A.shape[1]) @ A.T
    sent = rng.integers(0, len(points), rows)
    return points, sent, sigma * rng.standard_normal((rows, A.shape[0]))


class TestScan:
    @pytest.mark.parametrize("m, n", [(3, 6), (4, 10)])  # 4x10 spans two 512-point slabs
    @pytest.mark.parametrize("sigma", [0.1, 0.5])
    def test_matches_direct_reference(self, m, n, sigma):
        # the density, once the scan's own half, is `_density`'s now; the scan decodes alone
        points, sent, noise = channel_rows(random_normalized(m, n, seed=n).entries, sigma, 300, seed=m)
        ys = points[sent] + noise
        info, nearest = _rng._density(points[None], sigma, noise, sent)[0], _scan(points, ys)
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
        # the (||u||^2 - m) / (2 ln 2) term has mean 0, so only a check of few rows sees its sign:
        # a flipped sign moves the mean of 300 by about 0.2
        A = random_normalized(3, 6, seed=1).entries
        terms, _ = _rng.channel_pass(A[None], [sigma], 300, seed=2)
        sent, unit = (a[:300] for a in _rng.draw_block(2, 0, 6, 3))
        points = enumerate_inputs(6) @ A.T
        d2 = np.square((points[sent] + sigma * unit)[:, None, :] - points[None]).sum(axis=2)
        norm = math.log(2**6) + 1.5 * math.log(2 * math.pi * sigma**2)
        ln_f = logsumexp(-d2 / (2 * sigma**2), axis=1) - norm
        ref = -ln_f / math.log(2) - noise_entropy(3, sigma)
        want = [300, ref.mean(), np.square(ref - ref.mean()).sum()]  # one block: count, mean, M2
        npt.assert_allclose(terms[0, 0, :, 0], want, rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 6, 8, 10, 12])  # 10 and 12 span several slabs
    def test_exp_floor_changes_no_bit(self, monkeypatch, n):
        # of the density, which the scan computed beside its decode and `_density` computes now
        for seed in (0, 1):
            A = random_normalized(max(1, n // 2), n, seed=seed).entries
            for sigma in (0.05, 0.1, 0.158, 0.3, 1.0):
                points, sent, noise = channel_rows(A, sigma, 300, seed)
                floored = _rng._density(points[None], sigma, noise, sent)
                with monkeypatch.context() as mp:
                    mp.setattr(_rng, "_EXP_FLOOR", -np.inf)
                    unfloored = _rng._density(points[None], sigma, noise, sent)
                npt.assert_array_equal(floored, unfloored)

    @pytest.mark.parametrize(
        "m, n, sigma",
        [(4, 8, 0.1), (4, 8, 0.5), (6, 12, 0.1), (6, 12, 0.5), (1, 12, 1e-9)],
    )
    def test_row_tiles_change_no_bit(self, monkeypatch, m, n, sigma):
        # one 4096-row block: 8 tiles at 4x8, 16 at 6x12; the all-ones 1x12 has
        # twins of the sent point and lowest-index ties in every tile
        A = np.ones((1, n)) if m == 1 else random_normalized(m, n, seed=1).entries
        points, sent, noise = channel_rows(A, sigma, _rng.BLOCK, seed=3)
        assert _rng._TILE // min(_rng._SLAB, len(points)) < _rng.BLOCK  # the default tiles
        tiled = _scan(points, points[sent] + noise), _rng._density(points[None], sigma, noise, sent)
        with monkeypatch.context() as mp:
            mp.setattr(_rng, "_TILE", _rng.BLOCK * len(points))  # one tile holds the block
            whole = _scan(points, points[sent] + noise), _rng._density(points[None], sigma, noise, sent)
        npt.assert_array_equal(tiled[0], whole[0])
        npt.assert_array_equal(tiled[1], whole[1])


def density_stack(m, n):
    """A random m x n matrix, it with its last column equal to the first, and with it negated."""
    a = random_normalized(m, n, seed=n).entries
    twin, anti = a.copy(), a.copy()
    twin[:, -1], anti[:, -1] = a[:, 0], -a[:, 0]
    return np.stack([a, twin, anti])


class TestDensity:
    """`_density`, the kernel of every capacity below _FACTORED_POINTS and past its guards."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_capacity_callers_agree_bit_for_bit(self, m, n):
        # the twin and antipodal stacks; 100 rows, a block cut mid-way, and a second block of
        # one row, which leaves a one-row matrix product
        pop = density_stack(m, n)[1:]
        for sigma in (SMALLEST_SIGMA, 1e-3, 0.3, 2.0, LARGEST_SIGMA):
            for samples in (100, 2_049, _rng.BLOCK + 1):
                got = population_fitness(CriterionSpec("capacity", sigma, samples), pop, seed=m + n)
                for a, value in zip(pop, got):
                    A = SignatureMatrix(a)
                    assert value == estimate(A, sigma, samples, seed=m + n)[0].sum_bits
                    decode_free = capacity._estimates(A, [sigma], samples, m + n, decode=False)
                    assert value == decode_free[0][0].sum_bits

    @pytest.mark.parametrize("n", [*range(1, 8), 10])  # 2**10 points run in two passes of slabs
    def test_twin_terms_are_exactly_one(self, n):
        # 2**n copies of one point: every term is 1, so the sum is 2**n and i is exactly 0
        z = np.tile(_points(random_normalized(3, n, seed=n).entries)[3 % 2**n], (2**n, 1))
        sent, unit = _rng.draw_block(n, 0, n, 3, 777)
        for sigma in (SMALLEST_SIGMA, 1e-3, 0.3, 2.0, LARGEST_SIGMA):
            npt.assert_array_equal(_rng._density(z[None], sigma, sigma * unit, sent), 0.0)
        # the +-1 points of a 1 x n matrix: at the floor every other term is below e^-700, so
        # the sum counts the points equal to the sent one exactly
        z = _points(density_stack(1, n)[1])
        sent, unit = _rng.draw_block(n, 0, n, 1, 777)
        info = _rng._density(z[None], SMALLEST_SIGMA, SMALLEST_SIGMA * unit, sent)[0]
        twins = (z[sent] == z.T).sum(axis=1)
        npt.assert_array_equal(info, n - np.log(twins) / math.log(2))

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_scan(self, m, n):
        # against the direct reference the scan's density was held to, at its standard: the
        # twin and antipodal points are bitwise equal, so no rounding of e is scaled by 1/(2 sigma^2)
        points = _points(density_stack(m, n))
        for sigma in (0.01, 0.1, 0.3, 2.0, 1e3):
            for rows in (1, 777, _rng.BLOCK):
                sent, unit = (a[:rows] for a in _rng.draw_block(10 * m + n, 0, n, m))
                noise = sigma * unit
                want = [direct_info(z, sigma, z[sent] + noise, sent) for z in points]
                npt.assert_allclose(_rng._density(points, sigma, noise, sent), want,
                                    rtol=1e-12, atol=1e-12 * n)

    @pytest.mark.parametrize("tile", [12 * _rng.BLOCK, 8 * 100], ids=["one-matrix", "100-rows"])
    def test_chunks_change_no_bit(self, monkeypatch, tile):
        # 3x3 matrices, 8 points and 3 + 1 rows of y1t, on a whole block: by default two
        # matrices share a chunk of one tile, and the fifth has a chunk of its own
        more = [random_normalized(3, 3, seed=seed).entries for seed in (7, 8)]
        points = _points(np.concatenate([density_stack(3, 3), more]))
        sent, unit = _rng.draw_block(1, 0, 3, 3)
        default = _rng._density(points, 0.3, 0.3 * unit, sent)
        monkeypatch.setattr(_rng, "_TILE", tile)
        npt.assert_array_equal(_rng._density(points, 0.3, 0.3 * unit, sent), default)


@pytest.mark.parametrize("m, n, sigma", [(4, 7, 0.3), (4, 8, 0.1), (6, 12, 0.05)],
                         ids=["4x7", "4x8-past-the-spread-guard", "6x12-past-the-scale-guard"])
def test_capacity_callers_agree_where_the_joint_scan_ran(m, n, sigma):
    # 2**7 points, and 2**8 and 2**12 past `_factored`'s guards: `_density` gives these densities
    # now, to the capacity criterion, to `estimate` and to the decode-free pass alike
    pop = np.stack([baselines.generate(kind, m, n, 1).entries for kind in ("wbe", "random")])
    samples = 300 if n == 12 else 4_500
    got = population_fitness(CriterionSpec("capacity", sigma, samples), pop, seed=2)
    for a, value in zip(pop, got):
        A = SignatureMatrix(a)
        assert value == estimate(A, sigma, samples, seed=2)[0].sum_bits
        assert value == capacity._estimates(A, [sigma], samples, 2, decode=False)[0][0].sum_bits


def direct_info(points, sigma, ys, sent):
    """n - log2 sum_i exp((||y - z_s||^2 - ||y - z_i||^2) / 2 sigma^2) per row, by logsumexp."""
    n = len(points).bit_length() - 1
    step = max(1, (1 << 20) // points.size)  # rows at a time: 2**16 points fit
    lse = []
    for lo in range(0, len(ys), step):
        d2 = np.square(ys[lo : lo + step, None, :] - points).sum(axis=2)
        d2_sent = np.take_along_axis(d2, sent[lo : lo + step, None], axis=1)
        lse.append(logsumexp((d2_sent - d2) / (2 * sigma**2), axis=1))
    return n - np.concatenate(lse) / math.log(2)


def factored_rows(a, sigma, rows, seed):
    """The points of a, and the noise and inputs of `rows` rows of one block, as channel_pass draws."""
    z = _points(a)
    sent, unit = (x[:rows] for x in _rng.draw_block(seed, 0, a.shape[1], a.shape[0]))
    return z, sigma * unit, sent


def density_rows_alone(monkeypatch):
    """Make `_density` give NaN densities, so that `_factored` leaves its failed rows NaN."""
    monkeypatch.setattr(_rng, "_density", lambda z, sigma, noise, sent, work=None: (
        np.full((len(z), len(sent)), np.nan)))


FACTORED_CASES = [
    *[(f"random{m}x{n}", random_normalized(m, n, seed=n).entries)
      for m, n in [(4, 9), (4, 10), (6, 12), (8, 16)]],
    ("twin4x10", density_stack(4, 10)[1]),
    ("anti4x10", density_stack(4, 10)[2]),
    ("ones1x12", np.ones((1, 12))),
]


class TestFactored:
    """`_factored`, the density at 2**n >= _FACTORED_POINTS, against a reference and `_density`."""

    @pytest.mark.parametrize("name, a", FACTORED_CASES, ids=[c[0] for c in FACTORED_CASES])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.5, 2.0])
    def test_matches_direct_reference(self, name, a, sigma):
        n = a.shape[1]
        z, noise, sent = factored_rows(a, sigma, 64 if n == 16 else 300, seed=n)
        info = _rng._factored(_rng._halves(a), z, sigma, noise, sent)
        if info is None:  # the guard: nearly every row would fail, and _density scores them all
            assert sigma < 0.3 or name == "ones1x12"
            return
        want = direct_info(z, sigma, z[sent] + noise, sent)
        npt.assert_allclose(info, want, rtol=1e-12, atol=1e-12 * n)

    @pytest.mark.parametrize("rows", [1, 2, 257, 300, _rng.BLOCK])
    def test_failed_rows_equal_scan_bit_for_bit(self, monkeypatch, rows):
        # every row fails and is redone by `_density`, as the block's own kernel would score it:
        # 1 row and the 257th (alone in its 256-row tile) beside a copy, not as a matrix-vector
        # product, however few are redone together
        a = random_normalized(4, 10, seed=2).entries
        z, noise, sent = factored_rows(a, 0.3, _rng.BLOCK, seed=2)
        want = _rng._density(z[None], 0.3, noise, sent)[0][:rows]
        monkeypatch.setattr(_rng, "_FACTORED_RANGE", np.inf)
        npt.assert_array_equal(_rng._factored(_rng._halves(a), z, 0.3, noise[:rows], sent[:rows]), want)

    def test_one_failed_row_equals_scan_bit_for_bit(self, monkeypatch):
        # a lone row redone alone would take a matrix-vector product; the range is bisected
        # until exactly one of the 300 rows falls below it
        a = random_normalized(4, 10, seed=2).entries
        z, noise, sent = factored_rows(a, 0.3, 300, seed=2)
        want = _rng._density(z[None], 0.3, noise, sent)[0]
        lo, hi = -1e3, 0.0
        for _ in range(200):
            with monkeypatch.context() as mp:
                density_rows_alone(mp)
                mp.setattr(_rng, "_FACTORED_RANGE", (lo + hi) / 2)
                failed = np.flatnonzero(np.isnan(_rng._factored(_rng._halves(a), z, 0.3, noise, sent)))
            if len(failed) == 1:
                break
            lo, hi = (lo, (lo + hi) / 2) if len(failed) else ((lo + hi) / 2, hi)
        assert len(failed) == 1 and failed[0] < 299
        monkeypatch.setattr(_rng, "_FACTORED_RANGE", (lo + hi) / 2)
        got = _rng._factored(_rng._halves(a), z, 0.3, noise, sent)
        assert got[failed[0]] == want[failed[0]]

    @pytest.mark.parametrize("rows", [257, _rng.BLOCK])
    def test_rows_failing_the_range_test_equal_scan(self, monkeypatch, rows):
        # at sigma 0.16 this 4x10 passes the guard and about 2 % of its rows fail the test
        a = random_normalized(4, 10, seed=3).entries
        z, noise, sent = factored_rows(a, 0.16, rows, seed=2)
        got = _rng._factored(_rng._halves(a), z, 0.16, noise, sent)
        want = _rng._density(z[None], 0.16, noise, sent)[0]
        with monkeypatch.context() as mp:
            density_rows_alone(mp)
            failed = np.isnan(_rng._factored(_rng._halves(a), z, 0.16, noise, sent))
        assert 0 < failed.sum() < 0.2 * rows
        npt.assert_array_equal(got[failed], want[failed])
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * 10)

    @pytest.mark.parametrize("name, a", FACTORED_CASES, ids=[c[0] for c in FACTORED_CASES])
    @pytest.mark.parametrize("sigma", [0.05, 0.15, 0.3, 2.0])
    def test_channel_pass_decodes_as_scan(self, monkeypatch, name, a, sigma):
        rows = 300 if a.shape[1] == 16 else 4_400  # a second block of 304 rows
        got = _rng.channel_pass(a[None], [sigma], rows, seed=4)
        monkeypatch.setattr(_rng, "_FACTORED_POINTS", np.inf)  # every density from _density
        want = _rng.channel_pass(a[None], [sigma], rows, seed=4)
        npt.assert_array_equal(got[1], want[1])
        # each block's count, mean and M2; the chi term gives the terms a spread of about 1, so
        # M2 moves, relative to itself, by no more than the rows do
        npt.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12 * a.shape[1])

    @pytest.mark.parametrize("sigma", [0.15, 0.3])
    def test_stack_equals_each_matrix_alone(self, sigma):
        # at sigma 0.15 the guard leaves three of the five to _density
        pop = np.stack([random_normalized(4, 10, seed=s).entries for s in range(5)])
        capacity = population_fitness(CriterionSpec("capacity", sigma, 5_000), pop, seed=3)
        ber = population_fitness(CriterionSpec("ber", sigma, 5_000), pop, seed=3)
        for a, c, b in zip(pop, capacity, ber):
            cap, err = estimate(SignatureMatrix(a), sigma, 5_000, seed=3)
            assert (c, b) == (cap.sum_bits, -err.ber)

    def test_identical_at_forced_thread_counts(self, monkeypatch):
        # decode-free, 4 x 2**10 matrix-points a row, 8 500 rows: three blocks, the last of 308
        pop = np.stack([random_normalized(4, 10, seed=s).entries for s in range(4)])
        runs = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            runs.append(_rng.channel_pass(pop, [0.3], 8_500, seed=1, decode=False)[0].tobytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("a", [random_normalized(4, 10, seed=0).entries, np.ones((1, 12))],
                             ids=["random4x10", "ones1x12"])
    @pytest.mark.parametrize("sigma", [SMALLEST_SIGMA, LARGEST_SIGMA])
    def test_no_warning_at_the_sigma_limits(self, a, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for decode in (True, False):
                terms, _ = _rng.channel_pass(a[None], [sigma], 300, seed=0, decode=decode)
                assert np.isfinite(terms).all()


SMALL_FACTORED_CASES = [
    *[(f"{kind}4x{n}", baselines.generate(kind, 4, n, 0).entries)
      for kind in ("wbe", "random") for n in (7, 8)],
    *[(f"{name}4x{n}", density_stack(4, n)[k]) for name, k in (("twin", 1), ("anti", 2)) for n in (7, 8)],
]


def guard_edges(a):
    """The sigmas below which `_factored`'s spread and scale guards fire for a (0 if never)."""
    n = a.shape[1]
    u, w = _points(a[:, : n - n // 2]), _points(a[:, n - n // 2 :])
    spread = max(0.0, -(u @ w.T).min()) / _rng._FACTORED_SPREAD[n > 8]  # H* = max -u.w / sigma^2
    return math.sqrt(spread), math.sqrt(n / (2 * _rng._FACTORED_SCALE))


class TestFactoredSmall:
    """`_factored` at 2**7 and 2**8 points: 256 is where `channel_pass` starts to take it."""

    @pytest.mark.parametrize("name, a", SMALL_FACTORED_CASES, ids=[c[0] for c in SMALL_FACTORED_CASES])
    def test_matches_scan_up_to_where_the_guards_fire(self, name, a):
        # sigma from 0.05 to 2, and a hair either side of each guard's edge: just above it the
        # kernel runs with its largest spread or scale, just below it declines
        n = a.shape[1]
        edges = [e for e in guard_edges(a) if e > 0]
        grid = [0.05, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0]
        for sigma in grid + [e * f for e in edges for f in (1 - 1e-9, 1 + 1e-9)]:
            z, noise, sent = factored_rows(a, sigma, 300, seed=n)
            info = _rng._factored(_rng._halves(a), z, sigma, noise, sent)
            assert (info is None) == (sigma < max(edges)), sigma
            if info is not None:  # TestScan.test_matches_direct_reference's tolerance
                want = _rng._density(z[None], sigma, noise, sent)[0]
                npt.assert_allclose(info, want, rtol=1e-12, atol=1e-12 * n)

    def test_channel_pass_takes_it_from_256_points(self, monkeypatch):
        calls = []
        factored = _rng._factored
        monkeypatch.setattr(_rng, "_factored",
                            lambda h, z, *args: calls.append(z.shape) or factored(h, z, *args))
        for n in (7, 8):
            _rng.channel_pass(random_normalized(4, n, seed=1).entries[None], [0.3], 300, seed=0)
        assert calls == [(256, 4)]
        # wbe 4x8 at sigma 0.1 has H* = 333: inside the cap from n = 9 (350), past n = 8's (300),
        # below which no measured 8-user matrix lost to `_scan`; at 349 three lost, by up to 16 %
        a = baselines.generate("wbe", 4, 8, 0).entries
        for sigma, declined in [(0.1, True), (0.11, False)]:
            z, noise, sent = factored_rows(a, sigma, 300, seed=0)
            assert (_rng._factored(_rng._halves(a), z, sigma, noise, sent) is None) == declined


def scanned_rows(monkeypatch):
    """Record how many rows each `_scan` call decodes."""
    rows, scan = [], _rng._scan
    monkeypatch.setattr(_rng, "_scan", lambda z, ys, work=None: rows.append(len(ys)) or scan(z, ys, work))
    return rows


CERTIFIED_CASES = [(kind, m, n) for n in range(2, 11) for m, kind in
                   [(max(1, n // 2), "random"), (max(1, n // 2), "twin"), (max(1, n // 2), "anti"),
                    (max(2, n // 2), "wbe")]] + [("random", 5, 11), ("wbe", 6, 11)]  # past the table


class TestCertifiedDecode:
    """Rows that provably decode to their sent input skip `_scan`, and no bit error moves."""

    @staticmethod
    def matrix(kind, m, n):
        if kind == "wbe":
            return baselines.generate("wbe", m, n, n).entries
        return density_stack(m, n)[("random", "twin", "anti").index(kind)]

    @pytest.mark.parametrize("kind, m, n", CERTIFIED_CASES,
                             ids=[f"{k}{m}x{n}" for k, m, n in CERTIFIED_CASES])
    def test_errors_equal_a_forced_full_decode(self, monkeypatch, kind, m, n):
        # unsorted grids with a repeated sigma, from 1e-6 to 3, on one thread and on two; with
        # an infinite margin no certificate holds and `_scan` decodes every row
        a = self.matrix(kind, m, n)[None]
        grids = [[0.3, 1e-6, 3.0, 0.1, 0.3, 0.05], [0.2, 0.5, 0.2, 1.0, 0.15]]
        got, want = [], []
        for count in (1, 2):
            force_threads(monkeypatch, count)
            for grid in grids:
                got.append(_rng.channel_pass(a, grid, 4_500, seed=n))
                with monkeypatch.context() as mp:
                    mp.setattr(_rng, "_CERT_ERR", math.inf)
                    want.append(_rng.channel_pass(a, grid, 4_500, seed=n))
        md5 = lambda runs, k: hashlib.md5(b"".join(r[k].tobytes() for r in runs)).hexdigest()
        assert md5(got, 1) == md5(want, 1)
        assert md5(got, 0) == md5(want, 0)  # the densities never depend on the decode

    @pytest.mark.parametrize("kind", ["wbe", "random"])
    def test_small_sigma_decodes_few_rows(self, monkeypatch, kind):
        # a 4x8 sweep at sigma 0.1 scores every row and decodes fewer than 5 % of them
        rows = scanned_rows(monkeypatch)
        capacity._estimates(baselines.generate(kind, 4, 8, 0), [0.1], 20_000, 0)
        assert sum(rows) < 0.05 * 20_000

    @pytest.mark.parametrize("m, n, sigmas",
                             [(3, 6, [1e-12]), (4, 8, [1e-5, 1e-12]), (4, 10, [0.3, 1e-12])])
    def test_a_lower_index_twin_is_never_certified(self, monkeypatch, m, n, sigmas):
        # at sigma 1e-12 each row decodes to the lowest input whose point equals its own, so the
        # bit errors are exactly those of the rows whose sent point has a lower-index twin; a
        # certified one would count none.  4x8 runs certificates 1, 2 and 3 on `_density`'s
        # densities, 4x10 at sigma 0.3 certificate 3 on `_factored`'s
        a = density_stack(m, n)[1]
        z = _points(a)
        lowest = (z[:, None, :] == z[None]).all(axis=2).argmax(axis=1)
        sent = np.concatenate([_rng.draw_block(n, b, n, m)[0] for b in (0, 1)])[:6_000]
        want = np.bitwise_count(sent ^ lowest[sent])
        assert 0 < np.count_nonzero(want) < len(sent)
        rows = scanned_rows(monkeypatch)
        _, errors = _rng.channel_pass(a[None], sigmas, 6_000, seed=n)
        assert errors[:, -1, 0, 0].sum() == want.sum()
        assert errors[:, -1, 2, 0].sum() == np.count_nonzero(want)
        assert sum(rows) < len(sent) * len(sigmas)  # certificates did settle the other rows


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

    @pytest.mark.parametrize("n", range(1, 17))
    def test_cut_block_is_the_full_blocks_prefix(self, n):
        # a cut block advances PCG64 past the bits it does not read: a numpy whose bounded
        # integers take another count of outputs fails here by name
        for m in (1, 3, 8, 16):
            sent, unit = _rng.draw_block(5, 2, n, m)
            for rows in (1, 2, 3, 100, 999, 1_000, 2_047, 4_095, 4_096):
                cut = _rng.draw_block(5, 2, n, m, rows)
                npt.assert_array_equal(cut[0], sent[:rows])
                npt.assert_array_equal(cut[1], unit[:rows])

    def test_deterministic_per_seed(self):
        A = random_normalized(2, 3, seed=9)
        a = estimate(A, 0.5, samples=5_000, seed=4)[0]
        b = estimate(A, 0.5, samples=5_000, seed=4)[0]
        assert a == b

    def test_sample_budget_validated(self):
        with pytest.raises(ValueError, match="at least 100 samples"):
            estimate(SCALAR_ONE, 1.0, samples=99, seed=0)[0]

    @pytest.mark.parametrize("samples", [1e4, np.float64(5000), np.array([5000]), "5000", None, 5000 + 0j])
    def test_non_integer_budget_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            estimate(SCALAR_ONE, 1.0, samples=samples, seed=0)

    @pytest.mark.parametrize("sigma", [None, "0.5", np.array([0.3, 0.5])], ids=["None", "str", "array"])
    def test_non_real_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be"):
            estimate(SCALAR_ONE, sigma, samples=1_000, seed=0)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_budget_equals_python_int(self, kind):
        # 5 000 rows cut the second block, which once handed PCG64.advance a numpy integer
        A = random_normalized(3, 4, seed=2)
        got = estimate(A, 0.5, samples=kind(5_000), seed=1)
        assert got == estimate(A, 0.5, samples=5_000, seed=1)
        assert type(got[0].samples) is int and type(got[1].blocks) is int

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


def block_density(a, z, sigma, sent, unit):
    """Information densities of one block's rows from the kernel `channel_pass` takes for a."""
    factored = len(z) >= _rng._FACTORED_POINTS
    info = _rng._factored(_rng._halves(a), z, sigma, sigma * unit, sent) if factored else None
    return _rng._density(z[None], sigma, sigma * unit, sent)[0] if info is None else info


class TestBlockStatistics:
    """`estimate` combines per-block statistics; a mean and an SD over all rows agree with it."""

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 8)])  # `_density`, then `_factored` or `_density`
    def test_combined_fields_equal_whole_row_reductions(self, m, n):
        # 9 000 rows: three blocks, the last cut to 808; the rows are rebuilt from the blocks
        # and the kernels, and each field is reduced over all of them at once
        A, samples, seed = random_normalized(m, n, seed=4), 9_000, 6
        z = _points(A.entries)
        blocks = [_rng.draw_block(seed, b, n, m, min(_rng.BLOCK, samples - b * _rng.BLOCK))
                  for b in range(3)]
        sent, unit = (np.concatenate(x) for x in zip(*blocks))
        chi = (np.einsum("ij,ij->i", unit, unit) - m) / (2 * math.log(2))
        for sigma in (0.2, 0.5, 1.5):
            cap, err = estimate(A, sigma, samples, seed)
            terms = np.concatenate([block_density(A.entries, z, sigma, s, u) for s, u in blocks]) + chi
            errors = np.bitwise_count(sent ^ _scan(z, z[sent] + sigma * unit))
            assert (err.bit_errors, err.block_errors) == (errors.sum(), np.count_nonzero(errors))
            assert err.ber == errors.sum() / (samples * n)
            assert err.block_error_rate == np.count_nonzero(errors) / samples
            for got, want in [(cap.sum_bits, np.mean(terms)),
                              (cap.std_error, np.std(terms, ddof=1) / math.sqrt(samples)),
                              (err.std_error, np.std(errors, ddof=1) / (n * math.sqrt(samples)))]:
                assert got == pytest.approx(want, rel=1e-12, abs=0)


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
            _rng.channel_pass(np.ones(shape), [0.5], rows, seed=0)
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
        # 20 000 rows: five blocks, the last cut to 3 616 rows.  The per-block statistics are
        # compared too: a total of error counts cannot see blocks out of order
        A = random_normalized(6, 12, seed=1)
        results = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            stats = _rng.channel_pass(A.entries[None], [0.5], 20_000, seed=5)
            results.append((estimate(A, 0.5, samples=20_000, seed=5), [s.tobytes() for s in stats]))
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

    # a column repeating or negating the first: half the inputs share their point with one
    # other, so the limit is n - 0.5 bits.  The shared points are bitwise equal, so every sigma
    # that clamps the other terms away reads the same value; through `_density`, below 2**8
    # points (3x3, 4x7) and past `_factored`'s guards (4x8, 6x12)
    @pytest.mark.parametrize("m, n", [(3, 3), (4, 7), (4, 8), (6, 12)])
    @pytest.mark.parametrize("stack_index", [1, 2], ids=["repeated", "negated"])
    def test_coincident_columns_read_one_value_to_the_floor(self, m, n, stack_index):
        A = SignatureMatrix(density_stack(m, n)[stack_index])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ests = [estimate(A, sigma, 4_096, 0)[0] for sigma in (1e-6, 1e-10, 1e-20, 1e-100, SMALLEST_SIGMA)]
        assert len({est.sum_bits for est in ests}) == 1
        assert abs(ests[0].sum_bits - (n - 0.5)) <= 3 * ests[0].std_error


    def test_sign_code_reads_one_value_to_the_floor(self):
        # a +-1/sqrt(5) 5x8 code with no repeated column, whose points coincide through other
        # relations between its columns; the limit is the entropy of its 212 distinct points
        signs = np.array([[-1, 1, -1, -1, -1, -1, 1, -1], [-1, 1, 1, 1, 1, 1, 1, -1],
                          [-1, 1, 1, -1, 1, -1, 1, 1], [-1, -1, -1, -1, 1, 1, 1, -1],
                          [1, 1, -1, -1, 1, -1, 1, -1]], dtype=float)
        counts = np.unique(enumerate_inputs(8) @ signs.T, axis=0, return_counts=True)[1]
        limit = float(np.sum(counts / 256 * np.log2(256 / counts)))
        A = SignatureMatrix(signs / math.sqrt(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sigmas = (1e-6, 1e-10, 1e-20, 1e-100, SMALLEST_SIGMA)
            ests = [estimate(A, sigma, 4_096, 0)[0] for sigma in sigmas]
        assert len({est.sum_bits for est in ests}) == 1
        assert abs(ests[0].sum_bits - limit) <= 3 * ests[0].std_error


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

    # the 128- and 256-node rules differ by 2.5e-8 bits here, near their widest gap
    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(capacity, "_QUAD_TOL", 1e-12)
        with pytest.raises(NumericFailure):
            exact_capacity_1d(SCALAR_ONE, 0.29)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_matches_adaptive_quadrature(self, n):
        sigmas = [*np.logspace(math.log10(0.02), math.log10(2.0), 41), SMALLEST_SIGMA]
        gaps = [abs(exact_capacity_1d(all_ones(n), s) - quad_capacity(n, s)) for s in sigmas]
        assert max(gaps) <= 1e-8, sigmas[int(np.argmax(gaps))]

    def test_builds_its_rules_once(self):
        assert capacity._hermite_rules() is capacity._hermite_rules()

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            exact_capacity_1d(SCALAR_ONE, 0.0)

    def test_missing_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be"):
            exact_capacity_1d(SCALAR_ONE, None)

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

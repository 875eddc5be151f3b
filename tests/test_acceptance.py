"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; the random matrix sets and
seeds are frozen so each criterion is a deterministic regression check.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sigdesign import (
    CriterionSpec,
    GaConfig,
    SignatureMatrix,
    constellation_measures,
    estimate,
    evolve,
    exact_capacity_1d,
    random_normalized,
    wbe_matrix,
    wbe_verify,
)
from sigdesign.cli import main
from test_capacity import force_threads

# criterion 5's recorded threshold: largest grid sigma at and below which
# the minimum-distance argmax equals the exponential-distance argmin
SIGMA_STAR = 0.4376179965934659

# fixed matrix sets (seeds chosen once; see notes on set-to-set variability)
SET_20_SEEDS = range(100, 120)   # criteria 3 and 5
SET_50_SEEDS = range(200, 250)   # criterion 4
SET_30_SEEDS = range(400, 430)   # criterion 6


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_capacity_oracle_agreement():
    # scale*X + N(0,s) carries the same information as X + N(0, s/scale),
    # which is the unit-column embedding the estimator accepts
    t0 = time.time()
    one = SignatureMatrix([[1.0]])
    worst_z = worst_abs = 0.0
    for scale in (0.5, 1.0, 2.0):
        for s in (0.25, 0.5, 1.0, 2.0):
            est = estimate(one, s / scale, samples=200_000, seed=42)[0]
            exact = exact_capacity_1d(one, s / scale)
            worst_z = max(worst_z, abs(est.sum_bits - exact) / est.std_error)
            worst_abs = max(worst_abs, abs(est.sum_bits - exact))
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and worst_abs <= 0.01 and elapsed < 60.0
    report(1, ok, f"12-point grid: worst |z|={worst_z:.2f} (<=3), "
                  f"worst |dev|={worst_abs:.4f} (<=0.01), {elapsed:.0f}s (<60s)")


def test_criterion_02_optimized_matrix_near_unit_per_user_capacity():
    t0 = time.time()
    run = evolve(3, 4, CriterionSpec(kind="ed", sigma=0.1), GaConfig(seed=11))
    results = []
    for sigma, floor in ((0.1, 0.95), (0.03, 0.99)):
        est = estimate(run.best_matrix, sigma, samples=200_000, seed=123)[0]
        per_user_se = est.std_error / 4
        results.append((sigma, floor, est.per_user_bits, per_user_se))
    elapsed = time.time() - t0
    ok = elapsed < 600.0 and all(
        pu + 3 * se >= floor for _, floor, pu, se in results
    )
    detail = ", ".join(
        f"sigma={s}: per-user={pu:.4f}+-{se:.4f} (floor {f})"
        for s, f, pu, se in results
    )
    report(2, ok, f"{detail}, {elapsed:.0f}s (<600s)")


def test_criterion_03_union_bound_dominates_block_errors():
    worst = math.inf
    for i, seed in enumerate(SET_20_SEEDS):
        A = random_normalized(2, 3, seed=seed)
        for sigma in (0.25, 0.5, 1.0):
            est = estimate(A, sigma, samples=10_000, seed=seed)[1]
            bound = constellation_measures(A, sigma).union_bound
            worst = min(worst, bound + 3 * est.block_std_error - est.block_error_rate)
    ok = worst >= 0.0
    report(3, ok, f"60 (matrix, sigma) cases: worst bound margin {worst:+.4f} (>=0)")


def test_criterion_04_q_distance_and_exp_distance_agree():
    conss = [random_normalized(2, 3, seed=s) for s in SET_50_SEEDS]
    nu2 = np.array([constellation_measures(c, 0.5).nu2 for c in conss])
    nu3 = np.array([constellation_measures(c, 0.5).nu3 for c in conss])
    rho = float(spearmanr(nu2, nu3).statistic)
    top3 = set(np.argsort(nu3)[:3].tolist())
    in_top3 = int(np.argmin(nu2)) in top3
    ok = rho >= 0.95 and in_top3
    report(4, ok, f"spearman={rho:.4f} (>=0.95), argmin nu2 in nu3 top-3: {in_top3}")


def test_criterion_05_min_distance_matches_exp_distance_at_high_snr():
    conss = [random_normalized(2, 3, seed=s) for s in SET_20_SEEDS]
    nu1 = np.array([constellation_measures(c, 1.0).nu1 for c in conss])
    best_md = int(np.argmax(nu1))
    grid = np.geomspace(1.0, 0.05, 30)
    agrees = [
        int(np.argmin([constellation_measures(c, s).nu3 for c in conss])) == best_md for s in grid
    ]
    sigma_star = None
    for k in range(len(grid)):
        if all(agrees[k:]):
            sigma_star = float(grid[k])
            break
    ok = (
        sigma_star is not None
        and sigma_star <= 1.0
        and sigma_star == pytest.approx(SIGMA_STAR, rel=1e-9)
    )
    report(5, ok, f"sigma*={sigma_star} (recorded {SIGMA_STAR:.6f}, <=1), "
                  f"agreement holds on all grid sigmas below it")


def test_criterion_06_ber_capacity_inverse_relation():
    mats = [random_normalized(2, 3, seed=s) for s in SET_30_SEEDS]
    bers = [estimate(A, 0.5, samples=30_000, seed=777)[1].ber for A in mats]
    caps = [estimate(A, 0.5, samples=60_000, seed=777)[0].sum_bits for A in mats]
    rho = float(spearmanr(bers, caps).statistic)
    ok = rho <= -0.8
    report(6, ok, f"spearman(ber, capacity)={rho:.4f} (<=-0.8) over 30 matrices")


def test_criterion_07_optimized_not_worse_than_wbe():
    details = []
    ok = True
    for sigma in (0.3, 0.5):
        run = evolve(3, 4, CriterionSpec(kind="ed", sigma=sigma), GaConfig(seed=11))
        opt = estimate(run.best_matrix, sigma, samples=100_000, seed=99)[0]
        wbes = [
            estimate(wbe_matrix(3, 4, seed=w), sigma, samples=100_000, seed=99)[0]
            for w in range(5)
        ]
        wbe_mean = float(np.mean([w.sum_bits for w in wbes]))
        wbe_se = math.sqrt(sum(w.std_error**2 for w in wbes)) / 5
        combined = math.hypot(opt.std_error, wbe_se)
        margin = opt.sum_bits - (wbe_mean - 3 * combined)
        ok = ok and margin >= 0.0
        details.append(f"sigma={sigma}: opt={opt.sum_bits:.3f} vs "
                       f"wbe mean={wbe_mean:.3f}, margin={margin:+.3f}")
    report(7, ok, "; ".join(details))


def test_criterion_08_wbe_construction_verifies():
    devs = {
        (m, n): wbe_verify(wbe_matrix(m, n, seed=1))
        for (m, n) in [(2, 3), (2, 4), (3, 4), (3, 5)]
    }
    ok = all(d <= 1e-10 for d in devs.values())
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in devs.items())
    report(8, ok, f"max |AA^T - (n/m)I| per shape: {detail} (<=1e-10)")


def test_criterion_09_ga_reaches_square_optimum():
    ok = True
    bests = []
    for seed in (3, 4):
        run = evolve(2, 2, CriterionSpec(kind="md"), GaConfig(seed=seed))
        trace = [rec.best for rec in run.history]
        monotone = all(b >= a for a, b in zip(trace, trace[1:]))
        ok = ok and run.best_fitness >= 1.9 and monotone
        bests.append(run.best_fitness)
    report(9, ok, f"best nu1 per seed: {[f'{b:.4f}' for b in bests]} "
                  f"(>=1.9, optimum 2), traces non-decreasing")


def test_criterion_10_cli_byte_determinism(tmp_path, monkeypatch, capsys):
    wbe_path = tmp_path / "wbe24.json"
    eye_path = tmp_path / "eye2.json"

    def snapshot(tag):
        """Run every command into fresh outputs; return all produced bytes."""
        out = {}
        gen = tmp_path / f"gen-{tag}.json"
        assert main(["generate", "--kind", "wbe", "-m", "2", "-n", "4",
                     "--seed", "3", "--out", str(gen)]) == 0
        out["generate"] = gen.read_bytes()

        assert main(["eval", "--matrix", str(wbe_path), "--sigma", "0.5",
                     "--budget", "20000", "--seed", "1"]) == 0
        out["eval"] = capsys.readouterr().out

        opt = tmp_path / f"opt-{tag}.json"
        assert main(["optimize", "--criterion", "md", "-m", "2", "-n", "3",
                     "--seed", "2", "--generations", "20",
                     "--population-size", "12", "--out", str(opt)]) == 0
        out["optimize"] = opt.read_bytes()
        out["optimize-run"] = (tmp_path / f"opt-{tag}.json.run.json").read_bytes()

        sweep = tmp_path / f"sweep-{tag}.csv"
        assert main(["sweep", str(wbe_path), str(eye_path),
                     "--sigma-grid", "0.3:1:3", "--budget", "10000",
                     "--seed", "9", "--out", str(sweep)]) == 0
        out["sweep"] = sweep.read_bytes()

        over = tmp_path / f"over-{tag}.csv"
        assert main(["overload-sweep", "--criterion", "ed", "-m", "2",
                     "--n-list", "2,3", "--sigma", "0.3", "--budget", "5000",
                     "--seed", "7", "--generations", "10",
                     "--population-size", "10", "--out", str(over)]) == 0
        out["overload-sweep"] = over.read_bytes()
        return out

    assert main(["generate", "--kind", "wbe", "-m", "2", "-n", "4",
                 "--seed", "3", "--out", str(wbe_path)]) == 0
    from sigdesign.cli import save_matrix

    save_matrix(eye_path, SignatureMatrix(np.eye(2)))
    capsys.readouterr()

    first = snapshot("a")
    second = snapshot("b")
    force_threads(monkeypatch, 4)
    parallel = snapshot("c")

    mismatched = sorted(
        cmd for cmd in first
        if first[cmd] != second[cmd] or first[cmd] != parallel[cmd]
    )
    ok = not mismatched
    report(10, ok, "all five commands byte-identical across reruns and "
                   f"1 vs 4 workers{'' if ok else ': mismatches ' + str(mismatched)}")

"""Output checks for the benchmark's CLI runs.

Every check is written against the documented output format and against
plain-numpy reference computations made here, never against the exact
bits of one commit, so the checks hold for any workload seed and survive
last-ulp changes in the package's kernels.  Each check function takes the
output text and the workload's parameters and returns a list of problems;
an empty list means the output passed.

Reported BER standard errors are not used to band anything: they are
known to understate the real spread, so BER is bounded by the union bound
with a binomial error computed here instead.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.special import erfc, logsumexp

SWEEP_COLUMNS = [
    "sigma", "snr_db", "per_user_capacity", "capacity_std_error", "ber",
    "ber_std_error", "nu1", "nu2", "nu3", "union_bound",
]
OVERLOAD_COLUMNS = [
    "m", "n", "beta", "sigma", "criterion", "best_fitness",
    "per_user_capacity", "capacity_std_error",
]
RUN_KEYS = {"schema_version", "criterion", "config", "best_fitness", "best_matrix", "history"}

REL_TOL = 1e-9  # closed-form measures against the plain-numpy reference
K_SE = 5.0  # standard errors allowed for Monte-Carlo comparisons
REF_SAMPLES = 8192  # draws in the benchmark's own capacity estimate
_PAIR_CHUNK = 256


# ---------------------------------------------------------------------------
# plain-numpy references


def constellation(a: np.ndarray) -> np.ndarray:
    """All 2**n noiseless points; input i sends -1 for user k when bit k of i is set."""
    n = a.shape[1]
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (1.0 - 2.0 * bits) @ a.T


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and b, by the Gram expansion."""
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def pair_distances(points: np.ndarray) -> np.ndarray:
    """Distances of all unordered point pairs, in row chunks."""
    out = []
    for i0 in range(0, len(points), _PAIR_CHUNK):
        rows = points[i0 : i0 + _PAIR_CHUNK]
        d2 = _sq_dists(rows, points[i0 + 1 :])
        out.append(np.sqrt(d2[np.triu_indices(len(rows), 0, d2.shape[1])]))
    return np.concatenate(out)


def q_tail(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def measures(d: np.ndarray, n: int, sigma: float) -> dict:
    """nu1, nu2, nu3 and the union bound at noise level sigma, from the pair distances d."""
    q_sum = 2.0 * float(np.sum(q_tail(d / (2.0 * sigma))))
    return {
        "nu1": float(d.min()),
        "nu2": q_sum,
        "nu3": 2.0 * float(np.sum(np.exp(-(((d / (2.0 * sigma) + 1.0) / 1.6) ** 2)))),
        "union_bound": 2.0 ** (-n) * q_sum,
    }


def ed_fitness(a: np.ndarray, sigma: float) -> float:
    return -measures(pair_distances(constellation(a)), a.shape[1], sigma)["nu3"]


def capacity_reference(a: np.ndarray, sigma: float, seed: int) -> tuple[float, float]:
    """Per-user capacity and its standard error from an independent Monte-Carlo draw."""
    m, n = a.shape
    rng = np.random.default_rng([0x5EED, seed])
    points = constellation(a)
    x = rng.integers(0, 2**n, size=REF_SAMPLES)
    y = points[x] + sigma * rng.standard_normal((REF_SAMPLES, m))
    log_f = np.empty(REF_SAMPLES)
    for i0 in range(0, REF_SAMPLES, 1024):
        yc = y[i0 : i0 + 1024]
        log_f[i0 : i0 + 1024] = logsumexp(-_sq_dists(yc, points) / (2.0 * sigma * sigma), axis=1)
    log_f -= n * math.log(2.0) + 0.5 * m * math.log(2.0 * math.pi * sigma * sigma)
    h_y = -log_f / math.log(2.0)
    h_n = 0.5 * m * math.log2(2.0 * math.pi * math.e * sigma * sigma)
    se = float(np.std(h_y, ddof=1)) / math.sqrt(REF_SAMPLES)
    return (float(h_y.mean()) - h_n) / n, se / n


def gaussian_bound(m: int, n: int, sigma: float) -> float:
    """Upper bound on the sum capacity of any unit-column m x n matrix, binary inputs."""
    return min(float(n), 0.5 * m * math.log2(1.0 + n / (m * sigma * sigma)))


# ---------------------------------------------------------------------------
# helpers


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _rows(text: str, header: list[str], count: int, problems: list) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        problems.append(f"header is not {','.join(header)}")
        return []
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != count:
        problems.append(f"expected {count} data rows, got {len(rows)}")
        return []
    return rows


def _floats(row: dict, cols, problems: list) -> dict:
    out = {}
    for c in cols:
        try:
            v = float(row[c])
        except (KeyError, TypeError, ValueError):
            problems.append(f"column {c} is not a number: {row.get(c)!r}")
            continue
        if not math.isfinite(v):
            problems.append(f"column {c} is not finite: {v}")
        out[c] = v
    return out


def _check_point(a: np.ndarray, d: np.ndarray, sigma: float, budget: int, seed: int, v: dict,
                 problems: list):
    """One evaluated (matrix, sigma) point against the references; d holds a's pair distances."""
    m, n = a.shape
    where = f"sigma={sigma:g}"
    if set(SWEEP_COLUMNS) - set(v):
        return
    if not _close(v["sigma"], sigma, 1e-12):
        problems.append(f"{where}: sigma column reads {v['sigma']}")
    if abs(v["snr_db"] + 20.0 * math.log10(sigma)) > 1e-9:
        problems.append(f"{where}: snr_db {v['snr_db']} does not match sigma")
    for key, want in measures(d, n, sigma).items():
        if not _close(v[key], want):
            problems.append(f"{where}: {key}={v[key]!r}, reference {want!r}")
    if not 0.0 <= v["ber"] <= 1.0:
        problems.append(f"{where}: ber {v['ber']} outside [0, 1]")
    # A bit error needs a block error, so BER is bounded by the block error
    # rate, whose mean the union bound caps.
    ub = min(v["union_bound"], 1.0)
    if v["ber"] > ub + K_SE * math.sqrt(max(ub * (1.0 - ub), 1.0 / budget) / budget):
        problems.append(f"{where}: ber {v['ber']} exceeds union bound {v['union_bound']}")
    se_cli = v["capacity_std_error"] / n
    if not se_cli > 0:
        problems.append(f"{where}: capacity_std_error {v['capacity_std_error']} not positive")
    cap, se_ref = capacity_reference(a, sigma, seed)
    band = K_SE * math.hypot(se_cli, se_ref)
    if abs(v["per_user_capacity"] - cap) > band:
        problems.append(
            f"{where}: per_user_capacity {v['per_user_capacity']:.5f}, "
            f"reference {cap:.5f} +- {band:.5f}"
        )
    hi = gaussian_bound(m, n, sigma) / n
    if not -K_SE * se_cli <= v["per_user_capacity"] <= hi + K_SE * se_cli:
        problems.append(f"{where}: per_user_capacity {v['per_user_capacity']} outside [0, {hi:.4f}]")


# ---------------------------------------------------------------------------
# per-command checks


def load_matrix_text(text: str, m: int, n: int, problems: list) -> np.ndarray | None:
    """Parse a matrix file and check its shape and unit columns."""
    try:
        doc = json.loads(text)
        a = np.asarray(doc["entries"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"matrix file does not parse: {exc}")
        return None
    if doc.get("schema_version") != 1 or (doc.get("m"), doc.get("n")) != (m, n) or a.size != m * n:
        problems.append(f"matrix file is not a schema-1 {m}x{n} matrix")
        return None
    a = a.reshape(m, n)
    if not np.all(np.isfinite(a)) or np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) > 1e-9:
        problems.append("matrix columns are not finite unit vectors")
        return None
    return a


def check_generate(text: str, kind: str, m: int, n: int) -> list[str]:
    problems: list[str] = []
    a = load_matrix_text(text, m, n, problems)
    if a is None:
        return problems
    if json.loads(text).get("label") != kind:
        problems.append(f"label is not {kind!r}")
    if kind == "wbe" and np.max(np.abs(a @ a.T - (n / m) * np.eye(m))) > 1e-9:
        problems.append("wbe matrix is not a tight frame")
    return problems


def check_sweep(text: str, matrices: dict, grid, budget: int, seed: int) -> list[str]:
    """matrices maps each row label to its matrix; grid lists the sigmas."""
    problems: list[str] = []
    rows = _rows(text, ["matrix"] + SWEEP_COLUMNS, len(matrices) * len(grid), problems)
    expected = [(name, s) for name in matrices for s in grid]
    dists = {name: pair_distances(constellation(a)) for name, a in matrices.items()}
    for row, (name, sigma) in zip(rows, expected):
        if row.get("matrix") != name:
            problems.append(f"row label {row.get('matrix')!r}, expected {name!r}")
            continue
        v = _floats(row, SWEEP_COLUMNS, problems)
        _check_point(matrices[name], dists[name], float(sigma), budget, seed, v, problems)
    return problems


def check_eval(text: str, a: np.ndarray, sigma: float, budget: int, seed: int) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, SWEEP_COLUMNS, 1, problems)
    if rows:
        d = pair_distances(constellation(a))
        _check_point(a, d, sigma, budget, seed, _floats(rows[0], SWEEP_COLUMNS, problems), problems)
    return problems


def check_optimize(matrix_text: str, run_text: str, m: int, n: int, sigma: float,
                   generations: int) -> list[str]:
    """GA output: the matrix loads, and the run file's best fitness re-scores."""
    problems: list[str] = []
    a = load_matrix_text(matrix_text, m, n, problems)
    try:
        run = json.loads(run_text)
    except ValueError as exc:
        return problems + [f"run file does not parse: {exc}"]
    if not isinstance(run, dict) or set(run) != RUN_KEYS:
        return problems + ["run file does not have the documented keys"]
    if a is None:
        return problems
    best = run["best_fitness"]
    if not isinstance(best, float) or not math.isfinite(best):
        return problems + [f"best_fitness {best!r} is not a finite number"]
    if not _close(best, ed_fitness(a, sigma)):
        problems.append(f"best_fitness {best!r} does not re-score to {ed_fitness(a, sigma)!r}")
    if np.asarray(run["best_matrix"].get("entries"), dtype=float).tolist() != a.ravel().tolist():
        problems.append("run file's best_matrix differs from the matrix file")
    history = run["history"]
    if len(history) != generations:
        problems.append(f"history has {len(history)} generations, expected {generations}")
    elif not _close(best, max(h["best"] for h in history), 1e-12):
        problems.append("best_fitness is not the best of the history")
    return problems


def check_overload(text: str, m: int, n_list, sigma: float, criterion: str) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, OVERLOAD_COLUMNS, len(n_list), problems)
    for row, n in zip(rows, n_list):
        v = _floats(row, ["m", "n", "beta", "sigma", "best_fitness",
                          "per_user_capacity", "capacity_std_error"], problems)
        if len(v) < 7:
            continue
        if (v["m"], v["n"], row["criterion"]) != (m, n, criterion):
            problems.append(f"row for n={n} reads m={row['m']} n={row['n']} {row['criterion']}")
            continue
        if not _close(v["beta"], n / m, 1e-15) or not _close(v["sigma"], sigma, 1e-15):
            problems.append(f"n={n}: beta or sigma column is wrong")
        se = v["capacity_std_error"]
        if not se > 0:
            problems.append(f"n={n}: capacity_std_error {se} not positive")
        hi = gaussian_bound(m, n, sigma)
        if not -K_SE * se <= v["per_user_capacity"] * n <= hi + K_SE * se:
            problems.append(f"n={n}: per_user_capacity {v['per_user_capacity']} outside [0, {hi / n:.4f}]")
        # best_fitness is the best of many noisy scores, so it gets a wider band.
        if not -K_SE * se <= v["best_fitness"] <= hi + 2 * K_SE * se:
            problems.append(f"n={n}: best_fitness {v['best_fitness']} outside [0, {hi:.4f}]")
    return problems

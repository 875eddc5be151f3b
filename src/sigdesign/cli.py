"""Command-line front end and file I/O.

Commands
--------
generate        write a baseline matrix file (wbe | random | orthogonal)
eval            evaluate one matrix at one noise level; CSV row on stdout
optimize        GA-optimize a matrix for a criterion; writes matrix + run files
sweep           evaluate matrices across a log sigma grid into a CSV table
overload-sweep  optimize per user count and tabulate per-user capacity vs n/m

All commands are deterministic given --seed, and their outputs are
byte-identical for any worker count (set the SIGDESIGN_WORKERS
environment variable to parallelize the Monte-Carlo evaluators).

eval and sweep read capacity and BER off one shared Monte-Carlo pass
(same draws); ber_std_error is the per-vector (cluster) estimate.

Exit codes: 0 success, 2 invalid input, 3 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _rng, baselines
from .ber import _ber_estimate, _pair_measures
from .capacity import _capacity_estimate, _check_samples, estimate_capacity
from .criteria import KINDS, CriterionSpec
from .errors import (
    MatrixFileError,
    NanFitnessError,
    NonConvergenceError,
    QuadratureFailure,
)
from .ga import GaConfig, GaRun, evolve
from .model import SignatureMatrix, _check_sigma, _check_users

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepRow:
    """One evaluated (matrix, sigma) point: the standard sweep-table columns."""

    sigma: float
    snr_db: float
    per_user_capacity: float
    capacity_std_error: float
    ber: float
    ber_std_error: float
    nu1: float
    nu2: float
    nu3: float
    union_bound: float

    def csv(self) -> str:
        return ",".join(repr(getattr(self, c)) for c in SWEEP_COLUMNS)


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


# ---------------------------------------------------------------------------
# matrix files


def _fmt_entry(x: float) -> str:
    # 17 significant digits: lossless float64 round-trip, byte-stable rewrite
    return format(float(x), ".17e")


def matrix_document(
    matrix: SignatureMatrix,
    label: str | None = None,
    sigma_design: float | None = None,
) -> str:
    """Matrix file text: JSON with full-precision row-major entries."""
    entries = ", ".join(_fmt_entry(v) for v in matrix.entries.ravel())
    parts = [
        f'"schema_version": {SCHEMA_VERSION}',
        f'"m": {matrix.m}',
        f'"n": {matrix.n}',
        f'"entries": [{entries}]',
    ]
    if label is not None:
        parts.append(f'"label": {json.dumps(label)}')
    if sigma_design is not None:
        parts.append(f'"sigma_design": {_fmt_entry(sigma_design)}')
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def save_matrix(
    path,
    matrix: SignatureMatrix,
    label: str | None = None,
    sigma_design: float | None = None,
) -> None:
    Path(path).write_text(matrix_document(matrix, label, sigma_design))


def load_matrix(path) -> tuple[SignatureMatrix, dict]:
    """Parse and validate a matrix file; normalization is re-checked, not re-applied."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: expected a JSON object")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise MatrixFileError(f"{path}: unsupported schema_version")
    m, n, label = doc.get("m"), doc.get("n"), doc.get("label")
    if not all(type(v) is int and v >= 1 for v in (m, n)):
        raise MatrixFileError(f"{path}: m and n must be JSON integers >= 1")
    if label is not None and not isinstance(label, str):
        raise MatrixFileError(f"{path}: label must be a string or null")
    try:
        entries = np.asarray(doc["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: missing or malformed field ({exc})") from exc
    if entries.shape != (m * n,):
        raise MatrixFileError(f"{path}: expected {m * n} entries, got {entries.size}")
    sigma = doc.get("sigma_design")
    if sigma is not None and type(sigma) not in (int, float):
        raise MatrixFileError(f"{path}: sigma_design must be a JSON number or null")
    try:
        matrix = SignatureMatrix(entries.reshape(m, n))
        if sigma is not None:
            _check_sigma(sigma)
    except (ValueError, OverflowError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    meta = {"label": label, "sigma_design": sigma}
    return matrix, meta


def save_run(path, run: GaRun, label: str | None = None) -> None:
    """Optimizer results file: config and criterion echoes, best matrix, trace."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "criterion": asdict(run.criterion),
        "config": asdict(run.config),
        "best_fitness": run.best_fitness,
        "best_matrix": json.loads(matrix_document(run.best_matrix, label, run.criterion.sigma)),
        "history": [asdict(rec) for rec in run.history],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# evaluation


def evaluate_matrix(
    A: SignatureMatrix, sigma: float, budget: int, seed: int
) -> SweepRow:
    """All sweep-table quantities for one matrix at one noise level."""
    _check_samples(budget)
    neg_log2_f, errors = _rng.channel_pass(A.entries[None], sigma, budget, seed)
    cap = _capacity_estimate(neg_log2_f[0], A.m, A.n, sigma)
    err = _ber_estimate(errors[0], A.n, sigma)
    md, qd, ed = _pair_measures(A.entries[None], sigma)[:, 0]
    ub = 2.0**-A.n * float(qd)
    return SweepRow(
        sigma=float(sigma),
        snr_db=-20.0 * float(np.log10(sigma)) + 0.0,  # avoid -0.0
        per_user_capacity=cap.per_user_bits,
        capacity_std_error=cap.std_error,
        ber=err.ber,
        ber_std_error=err.std_error,
        nu1=float(md),
        nu2=2.0**A.n * ub,
        nu3=float(ed),
        union_bound=ub,
    )


def _parse_sigma_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--sigma-grid must look like lo:hi:steps")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    _check_sigma(lo)
    _check_sigma(hi)
    if steps < 1:
        raise ValueError("--sigma-grid needs steps >= 1")
    return np.geomspace(lo, hi, steps)


# ---------------------------------------------------------------------------
# commands


def _ga_config(args) -> GaConfig:
    return GaConfig(**{f.name: getattr(args, f.name) for f in fields(GaConfig)})


def _criterion_spec(args) -> CriterionSpec:
    sigma = None if args.criterion == "md" else args.sigma
    return CriterionSpec(kind=args.criterion, sigma=sigma, eval_budget=args.budget)


def cmd_generate(args) -> int:
    matrix = baselines.generate(args.kind, args.m, args.n, seed=args.seed)
    save_matrix(args.out, matrix, label=args.kind)
    return 0


def cmd_eval(args) -> int:
    matrix, _ = load_matrix(args.matrix)
    row = evaluate_matrix(matrix, args.sigma, args.budget, args.seed)
    sys.stdout.write(",".join(SWEEP_COLUMNS) + "\n" + row.csv() + "\n")
    return 0


def cmd_optimize(args) -> int:
    spec = _criterion_spec(args)
    run = evolve(args.m, args.n, spec, _ga_config(args))
    label = f"ga-{args.criterion}"
    save_matrix(args.out, run.best_matrix, label=label, sigma_design=spec.sigma)
    run_path = args.run_out or str(args.out) + ".run.json"
    save_run(run_path, run, label=label)
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_sigma_grid(args.sigma_grid)
    loaded = []
    for path in args.matrices:
        matrix, meta = load_matrix(path)
        name = meta["label"] or Path(path).stem
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"{path}: matrix name {name!r} has a comma, quote or line break")
        _check_users(matrix.n)
        loaded.append((name, matrix))
    lines = ["matrix," + ",".join(SWEEP_COLUMNS)]
    for name, matrix in loaded:
        for sigma in grid:
            row = evaluate_matrix(matrix, float(sigma), args.budget, args.seed)
            lines.append(f"{name}," + row.csv())
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_overload_sweep(args) -> int:
    n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
    if not n_list:
        raise ValueError("--n-list must name at least one user count")
    if any(n < args.m for n in n_list):
        raise ValueError("every n in --n-list must be >= m")
    _check_users(max(n_list))
    _check_samples(args.budget)  # the final capacity estimates need it; fail before any GA
    lines = ["m,n,beta,sigma,criterion,best_fitness,per_user_capacity,capacity_std_error"]
    spec = _criterion_spec(args)
    config = _ga_config(args)
    for n in n_list:
        run = evolve(args.m, n, spec, config)
        cap = estimate_capacity(
            run.best_matrix, args.sigma, samples=args.budget, seed=args.seed
        )
        lines.append(
            f"{args.m},{n},{repr(n / args.m)},{repr(float(args.sigma))},"
            f"{args.criterion},{repr(run.best_fitness)},"
            f"{repr(cap.per_user_bits)},{repr(cap.std_error)}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    """One flag per GaConfig field but the seed, e.g. --population-size, with its default."""
    for f in fields(GaConfig):
        if f.name != "seed":
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=type(f.default), default=f.default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdesign",
        description="Design and evaluate signature matrices for binary-input "
        "synchronous CDMA.",
        epilog="Set SIGDESIGN_WORKERS to parallelize Monte-Carlo evaluation; "
        "outputs are byte-identical for any worker count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)  # --seed, shared by every command
    seeded.add_argument("--seed", type=int, default=0)
    command = functools.partial(sub.add_parser, parents=[seeded])

    p = command("generate", help="write a baseline matrix file")
    p.add_argument("--kind", choices=baselines.KINDS, required=True)
    p.add_argument("-m", type=int, required=True, help="chip count (rows)")
    p.add_argument("-n", type=int, required=True, help="user count (columns)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = command("eval", help="evaluate a matrix at one sigma (CSV on stdout)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--budget", type=int, default=200_000)
    p.set_defaults(func=cmd_eval)

    p = command("optimize", help="GA-optimize a matrix for a criterion")
    p.add_argument("--criterion", choices=KINDS, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--sigma", type=float, help="design noise level (all but md)")
    p.add_argument("--budget", type=int, default=20_000,
                   help="samples/blocks per stochastic fitness evaluation")
    _add_ga_flags(p)
    p.add_argument("--out", required=True, help="matrix file path")
    p.add_argument("--run-out", help="results file path (default: OUT.run.json)")
    p.set_defaults(func=cmd_optimize)

    p = command("sweep", help="evaluate matrices across a sigma grid")
    p.add_argument("matrices", nargs="+", help="matrix file paths")
    p.add_argument("--sigma-grid", required=True, help="lo:hi:steps (log spacing)")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = command("overload-sweep", help="optimize per user count; per-user capacity vs n/m")
    p.add_argument("--criterion", choices=KINDS, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated user counts")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--budget", type=int, default=200_000)
    _add_ga_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overload_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureFailure, NonConvergenceError, NanFitnessError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

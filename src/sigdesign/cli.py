"""Command-line front end and file I/O.

Commands
--------
generate        write a baseline matrix file (wbe | random | orthogonal)
eval            evaluate one matrix at one noise level; CSV row on stdout
optimize        GA-optimize a matrix for a criterion; writes matrix + run files
sweep           evaluate matrices across a log sigma grid into a CSV table
overload-sweep  optimize per user count and tabulate per-user capacity vs n/m

All commands are deterministic given --seed, and their outputs are
byte-identical for any thread count of the Monte-Carlo pass.

eval and sweep read capacity and BER off the same draws (a sweep draws each block once for its
whole grid and keeps only its statistics); ber_std_error is the per-vector (cluster) estimate.

Exit codes: 0 success, 2 ValueError (invalid input), 3 NumericFailure or MemoryError.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines
from .capacity import _estimates
from .criteria import KINDS, CriterionSpec, _pair_measures
from .ga import GaConfig, GaRun, evolve
from .model import NumericFailure, SignatureMatrix, _check_samples, _check_sigma, _check_users

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
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version")
    m, n, label = doc.get("m"), doc.get("n"), doc.get("label")
    if not all(type(v) is int and v >= 1 for v in (m, n)):
        raise ValueError(f"{path}: m and n must be JSON integers >= 1")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"{path}: label must be a string or null")
    entries = doc.get("entries")
    if not isinstance(entries, list) or any(type(v) not in (int, float) for v in entries):
        raise ValueError(f"{path}: entries must be a list of JSON numbers")
    if len(entries) != m * n:
        raise ValueError(f"{path}: expected {m * n} entries, got {len(entries)}")
    sigma = doc.get("sigma_design")
    if sigma is not None and type(sigma) not in (int, float):
        raise ValueError(f"{path}: sigma_design must be a JSON number or null")
    try:
        matrix = SignatureMatrix(np.reshape(entries, (m, n)))
        if sigma is not None:
            _check_sigma(sigma)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
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


def evaluate_matrix(A: SignatureMatrix, sigma, budget: int, seed: int):
    """All sweep-table quantities for one matrix at one noise level, or a list of them over a
    1-D grid of sigmas, for which each Monte-Carlo block and each pair distance is made once."""
    grid = np.atleast_1d(np.asarray(sigma, dtype=float))
    estimates = _estimates(A, grid, budget, seed)
    nu = _pair_measures(A.entries[None], grid)[:, :, 0].T.tolist()  # nu1, nu2, nu3 per sigma
    rows = [
        SweepRow(
            sigma=float(s), snr_db=-20.0 * float(np.log10(s)) + 0.0,  # + 0.0: never -0.0
            per_user_capacity=cap.per_user_bits, capacity_std_error=cap.std_error,
            ber=err.ber, ber_std_error=err.std_error,
            nu1=nu1, nu2=nu2, nu3=nu3, union_bound=2.0**-A.n * nu2,  # as constellation_measures
        )
        for s, (cap, err), (nu1, nu2, nu3) in zip(grid, estimates, nu)
    ]
    return rows if np.ndim(sigma) else rows[0]


def _flagged(flag: str, fn, *args):
    """fn(*args), a ValueError it raises led by the flag whose value it rejects."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_sigma_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError(f"--sigma-grid must look like lo:hi:steps, got {text!r}") from None
    _flagged("--sigma-grid: lo end", _check_sigma, lo)
    _flagged("--sigma-grid: hi end", _check_sigma, hi)
    if steps < 1:
        raise ValueError("--sigma-grid needs steps >= 1")
    return _flagged("--sigma-grid steps", np.geomspace, lo, hi, steps)  # numpy caps them


# ---------------------------------------------------------------------------
# commands


def _run_path(args) -> str:
    """optimize's results file: --run-out, else OUT.run.json beside --out."""
    return str(args.out) + ".run.json" if args.run_out is None else args.run_out


def _check_output_dirs(args) -> None:
    """Fail before any work if an output path is empty, a directory, in a missing one or used twice."""
    paths = [getattr(args, "out", None)] + ([_run_path(args)] if args.command == "optimize" else [])
    taken = [Path(p).resolve() for p in getattr(args, "matrices", [])]
    for path in (p for p in paths if p is not None):
        if not path:
            raise ValueError("output path is empty")
        if Path(path).is_dir():
            raise ValueError(f"{path}: is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"{path}: directory {Path(path).parent} does not exist")
        if Path(path).resolve() in taken:
            raise ValueError(f"{path}: is the same file as another input or output")
        taken.append(Path(path).resolve())


def _ga_config(args) -> GaConfig:
    _flagged("--population-size", GaConfig, args.population_size)  # default generations pass
    return _flagged("--generations", GaConfig, args.population_size, args.generations, args.seed)


def _criterion_spec(args) -> CriterionSpec:
    if args.sigma is not None:  # md drops it, but a given --sigma must be valid before any GA
        _flagged("--sigma", _check_sigma, args.sigma)
    sigma = None if args.criterion == "md" else args.sigma
    _flagged("--sigma", CriterionSpec, args.criterion, sigma)  # default budget passes
    return _flagged("--budget", CriterionSpec, args.criterion, sigma, args.budget)


def cmd_generate(args) -> int:
    _flagged("-n", _check_users, args.n)  # every other command refuses such a file
    matrix = _flagged("-n", baselines.generate, args.kind, args.m, args.n, args.seed)  # n vs m
    save_matrix(args.out, matrix, label=args.kind)
    return 0


def cmd_eval(args) -> int:
    matrix, _ = load_matrix(args.matrix)
    _flagged("--budget", _check_samples, args.budget)  # in estimate's order; it checks again
    _flagged("--sigma", _check_sigma, args.sigma)
    _flagged(args.matrix, _check_users, matrix.n)
    row = evaluate_matrix(matrix, args.sigma, args.budget, args.seed)
    sys.stdout.write(",".join(SWEEP_COLUMNS) + "\n" + row.csv() + "\n")
    return 0


def cmd_optimize(args) -> int:
    _flagged("-n", _check_users, args.n)  # as generate does, before the first population
    spec = _criterion_spec(args)
    run = evolve(args.m, args.n, spec, _ga_config(args))
    label = f"ga-{args.criterion}"
    save_matrix(args.out, run.best_matrix, label=label, sigma_design=spec.sigma)
    save_run(_run_path(args), run, label=label)
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_sigma_grid(args.sigma_grid)
    loaded = []
    for path in args.matrices:
        matrix, meta = load_matrix(path)
        name = meta["label"] or Path(path).stem
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"{path}: matrix name {name!r} has a comma, quote or line break")
        _flagged(path, _check_users, matrix.n)
        loaded.append((name, matrix))
    _flagged("--budget", _check_samples, args.budget)  # where the first estimate would
    lines = ["matrix," + ",".join(SWEEP_COLUMNS)]
    for name, matrix in loaded:  # the whole grid in one call: one draw per block, one pair pass
        rows = evaluate_matrix(matrix, grid, args.budget, args.seed)
        lines += [f"{name}," + row.csv() for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_overload_sweep(args) -> int:
    counts = [v.strip() for v in args.n_list.split(",") if v.strip()]
    if not counts or not all(v.isdecimal() for v in counts):
        raise ValueError(f"--n-list must be comma-separated user counts, got {args.n_list!r}")
    n_list = [int(v) for v in counts]
    if any(n < args.m for n in n_list):
        raise ValueError(f"--n-list: every n must be >= m, got m = {args.m}")
    _flagged("--n-list", _check_users, max(n_list))
    _flagged("--budget", _check_samples, args.budget)  # the final estimates need it; before any GA
    lines = ["m,n,beta,sigma,criterion,best_fitness,per_user_capacity,capacity_std_error"]
    spec = _criterion_spec(args)
    config = _ga_config(args)
    for n in n_list:
        run = evolve(args.m, n, spec, config)
        cap = _estimates(run.best_matrix, [args.sigma], args.budget, args.seed, decode=False)[0][0]
        lines.append(
            f"{args.m},{n},{repr(n / args.m)},{repr(float(args.sigma))},"
            f"{args.criterion},{repr(run.best_fitness)},"
            f"{repr(cap.per_user_bits)},{repr(cap.std_error)}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdesign",
        description="Design and evaluate signature matrices for binary-input "
        "synchronous CDMA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)  # --seed, shared by every command
    seeded.add_argument("--seed", type=int, default=0)
    command = functools.partial(sub.add_parser, parents=[seeded])
    sized = argparse.ArgumentParser(add_help=False)  # the GA size flags of optimize, overload-sweep
    sized.add_argument("--population-size", type=int, default=GaConfig.population_size)
    sized.add_argument("--generations", type=int, default=GaConfig.generations)

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

    p = command("optimize", parents=[seeded, sized], help="GA-optimize a matrix for a criterion")
    p.add_argument("--criterion", choices=KINDS, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--sigma", type=float, help="design noise level (all but md)")
    p.add_argument("--budget", type=int, default=20_000,
                   help="samples/blocks per stochastic fitness evaluation")
    p.add_argument("--out", required=True, help="matrix file path")
    p.add_argument("--run-out", help="results file path (default: OUT.run.json)")
    p.set_defaults(func=cmd_optimize)

    p = command("sweep", help="evaluate matrices across a sigma grid")
    p.add_argument("matrices", nargs="+", help="matrix file paths")
    p.add_argument("--sigma-grid", required=True, help="lo:hi:steps (log spacing)")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = command("overload-sweep", parents=[seeded, sized],
                help="optimize per user count; per-user capacity vs n/m")
    p.add_argument("--criterion", choices=KINDS, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated user counts")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overload_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        for flag in ("-m", "-n"):  # the matrix size flags of generate, optimize, overload-sweep
            if vars(args).get(flag[1], 1) < 1:
                raise ValueError(f"{flag}: must be >= 1, got {vars(args)[flag[1]]}")
        _check_output_dirs(args)
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # name the command and the sizes it was given
        sizes = [(f, vars(args).get(f.lstrip("-").replace("-", "_"))) for f in
                 ("-m", "-n", "--n-list", "--budget", "--population-size", "--generations", "--matrix")]
        given = " ".join(f"{f} {v}" for f, v in sizes if v is not None)
        print(f"out of memory in {args.command} ({given}): {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""sigdesign benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is taken from ./src.  With
--trace 0 each timed unit runs the workload's `python -m sigdesign ...`
commands in fresh processes and reports the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 the commands run in-process, once plain
and once with every public sigdesign function wrapped in spans, and the
per-layer metrics are reported.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ACCOUNTING_TOL = 0.02  # self times plus import vs traced wall, relative


def _fail_layout() -> None:
    if not (SRC / "sigdesign" / "cli.py").is_file():
        print(f"error: no sigdesign package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)


_fail_layout()
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def child_env(workers: int) -> dict:
    """Environment of every sigdesign process: the package from ./src, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIGDESIGN_")}
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        SIGDESIGN_WORKERS=str(workers),
    )
    return env


def describe_environment() -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return [
        f"nproc {len(os.sched_getaffinity(0))}",
        f"cpu {cpu}",
        "loadavg {:.2f} {:.2f} {:.2f}".format(*os.getloadavg()),
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        f"scipy {scipy.__version__}",
        f"blas {blas}",
        "threads OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1",
    ]


class Runner:
    """Starts child processes against one deadline and records what they cost."""

    def __init__(self, workers: int, deadline: float):
        self.env = child_env(workers)
        self.deadline = deadline

    def process(self, argv: list, cwd: Path, stdout: str | None = None) -> dict:
        """Run argv to completion; wall, CPU and peak memory of that process alone."""
        err_path = cwd / ".stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(err_path, "wb") as err:
            done = subprocess.run(
                [sys.executable, str(HERE / "spawn.py"), str(timeout), stdout or "-", *argv],
                cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err, check=True,
            )
        result = json.loads(done.stdout)
        result["stderr"] = err_path.read_text(errors="replace")
        result["argv0"] = argv[3] if argv[1:3] == ["-m", "sigdesign"] else argv[-1]
        return result

    def cli(self, args: list, cwd: Path, stdout: str | None = None) -> dict:
        return self.process([sys.executable, "-m", "sigdesign", *args], cwd, stdout)


class Tally:
    """CLI invocations attempted and failed, plus failures of the benchmark's own checks.

    An invocation fails when it exits non-zero or its outputs fail the
    output checks.  A failed self-check (checker self-test, trace
    accounting) makes the run incorrect without counting as an invocation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.broken = False

    def invocations(self, what: str, count: int, problems: list) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.notes.append(f"{what}: {'; '.join(map(str, problems[:5]))}")

    def self_check(self, what: str, problems: list) -> None:
        if problems:
            self.broken = True
            self.notes.append(f"{what}: {'; '.join(map(str, problems[:5]))}")


def exit_problems(results: list) -> list:
    return [f"{r['argv0']} exit {r['code']}: {r['stderr'].strip()[-500:]}"
            for r in results if r["code"] != 0]


def run_checks(check, d: Path) -> list:
    try:
        return check(d)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def read_outputs(wl: Workload, d: Path) -> dict:
    return {name: (d / name).read_text() if (d / name).exists() else None for name in wl.outputs}


def self_test(wl: Workload, outputs: dict, d: Path) -> list:
    """The checks must reject corrupted copies of outputs that passed them."""
    if any(v is None for v in outputs.values()):
        return ["no outputs to corrupt"]
    truncated = {k: "\n".join(v.splitlines()[:-1]) + "\n" for k, v in outputs.items()}
    problems = []
    for label, bad in (("value", {**outputs, **wl.corrupt(outputs)}), ("truncation", truncated)):
        probe = d / f"selftest-{label}"
        probe.mkdir()
        for f in d.glob("*.json"):
            shutil.copy(f, probe / f.name)
        for name, text in bad.items():
            (probe / name).write_text(text)
        if not run_checks(wl.check, probe):
            problems.append(f"a {label}-corrupted output passed the checks")
    return problems


def median(values: list) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)


def run_end_to_end(wl: Workload, seconds: float, work: Path, tally: Tally, log) -> dict:
    runner = Runner(wl.workers, time.monotonic() + RUN_LIMIT_S)

    setup_times = []
    for rep in range(SETUP_REPEATS):
        d = work if rep == 0 else work / f"setup{rep}"
        d.mkdir(exist_ok=True)
        if wl.setup:
            results = [runner.cli(argv, d) for argv in wl.setup]
        else:
            results = [runner.process([sys.executable, "-c", "import sigdesign.cli"], d)]
        problems = exit_problems(results)
        if not problems and wl.check_setup:
            problems = run_checks(wl.check_setup, d)
        tally.invocations(f"setup repeat {rep}", len(results), problems)
        setup_times.append(sum(r["wall"] for r in results))
    log(f"setup_s repeats: {' '.join(f'{t:.4f}' for t in setup_times)}")

    # One unit is one command; a workload with several commands (ga-ed's
    # three seeds) cycles through them, so a run holds more, shorter units.
    units, reference = [], None
    measured = 0.0
    while True:
        k = len(units) % len(wl.commands)
        r = runner.cli(wl.commands[k], work, wl.stdouts[k])
        units.append(r)
        measured += r["wall"]
        problems = exit_problems([r])
        outputs = read_outputs(wl, work)
        if not problems and reference is None and k == len(wl.commands) - 1:
            problems = run_checks(wl.check, work)
            if not problems:
                reference = outputs
                tally.self_check("checker self-test", self_test(wl, outputs, work))
        elif not problems and reference is not None and outputs != reference:
            problems = ["outputs differ from the first cycle's"]
        tally.invocations(f"unit {len(units)}", 1, problems)
        log(f"unit {len(units)}: {r['argv0']} wall {r['wall']:.4f} s cpu {r['cpu']:.4f} s "
            f"peak {r['rss_mib']:.1f} MiB")
        if len(units) < len(wl.commands):
            continue
        if measured + r["wall"] > seconds or time.monotonic() + 1.5 * r["wall"] > runner.deadline:
            break

    wall = median([u["wall"] for u in units])
    metrics = {
        "wall_s": wall,
        "setup_s": median(setup_times),
        "cpu_s": median([u["cpu"] for u in units]),
        # Peak memory of a parallel run depends on how the workers' temporaries
        # overlap, so the run's peak is steadier than a median of unit peaks.
        "peak_rss_mib": max(u["rss_mib"] for u in units),
    }
    extra = {}
    if wl.mc_samples:
        extra["mc_samples_per_s"] = (wl.mc_samples / wall, "1/s")
    if wl.fitness_evals:
        extra["fitness_evals_per_s"] = (wl.fitness_evals / wall, "1/s")
    log(f"units {len(units)}, measured {measured:.2f} s")
    return {"metrics": metrics, "extra": extra}


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def import_times(runner: Runner, d: Path) -> dict:
    """import.{total,scipy,numpy}_s from `python -X importtime`, median of a few runs."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        r = runner.process([sys.executable, "-X", "importtime", "-c", "import sigdesign.cli"], d)
        if r["code"] != 0:
            return {}
        total = numpy_s = scipy_s = 0.0
        for line in r["stderr"].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
            if indent == 1 and name.startswith("sigdesign"):
                total += cum_us
            top = name.split(".")[0]
            if top == "numpy":
                numpy_s += self_us
            elif top == "scipy":
                scipy_s += self_us
        samples.append((total * 1e-6, scipy_s * 1e-6, numpy_s * 1e-6))
    return {
        "import.total_s": median([s[0] for s in samples]),
        "import.scipy_s": median([s[1] for s in samples]),
        "import.numpy_s": median([s[2] for s in samples]),
    }


def in_process(runner: Runner, wl: Workload, d: Path, trace: bool) -> dict:
    d.mkdir(parents=True, exist_ok=True)
    argvs = wl.setup + wl.commands
    spec = {
        "argvs": argvs,
        "stdouts": [None] * len(wl.setup) + wl.stdouts,
        "trace": trace,
        "spans": str(d / "spans.npz"),
    }
    (d / "spec.json").write_text(json.dumps(spec))
    r = runner.process([sys.executable, str(HERE / "inproc.py"), "spec.json", "result.json"], d)
    if r["code"] != 0:
        return {"code": r["code"], "stderr": r["stderr"]}
    result = json.loads((d / "result.json").read_text())
    result["code"] = 0
    return result


def layer_metrics(wl: Workload, traced: dict, plain: dict, spans: dict, imports: dict) -> dict:
    layers = spans["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    counts = spans["counts"]
    block = traced["block"]
    out = {}
    for name, key in [
        ("rng.draw_block", "calls"), ("rng.draw_block", "s"), ("rng.map_blocks", "s"),
        ("model.build_constellation", "calls"), ("model.build_constellation", "s"),
        ("model.normalize_columns", "calls"), ("model.normalize_columns", "s"),
        ("model.SignatureMatrix", "calls"),
        ("capacity.estimate_capacity", "calls"), ("capacity.estimate_capacity", "s"),
        ("capacity.estimate_capacity", "self_s"),
        ("ber.simulate_ber", "calls"), ("ber.simulate_ber", "s"), ("ber.simulate_ber", "self_s"),
        ("ber.union_bound", "s"),
        ("criteria.min_distance", "s"), ("criteria.q_distance", "s"), ("criteria.exp_distance", "s"),
        ("criteria.fitness", "calls"), ("criteria.fitness", "s"), ("criteria.fitness", "self_s"),
        ("ga.evolve", "s"), ("ga.evolve", "self_s"),
        ("ga.tournament_select", "calls"), ("ga.tournament_select", "s"),
        ("ga.arithmetic_crossover", "calls"), ("ga.arithmetic_crossover", "s"),
        ("ga.gaussian_mutation", "calls"), ("ga.gaussian_mutation", "s"),
        ("baselines.generate", "s"),
        ("cli.load_matrix", "s"), ("cli.save_matrix", "s"), ("cli.save_run", "s"),
        ("cli.evaluate_matrix", "self_s"),
    ]:
        out[f"{name}.{key}"] = get(name, key)
    map_s = get("rng.map_blocks", "s")
    drawn = get("rng.draw_block", "calls") * block
    out["rng.map_blocks.busy_s"] = spans["busy_s"]
    out["rng.map_blocks.parallel_eff"] = spans["busy_s"] / (map_s * wl.workers) if map_s else 0.0
    out["rng.rows_used_ratio"] = counts.get("rng.rows_kept", 0) / drawn if drawn else 0.0
    out["capacity.density_pairs"] = counts.get("capacity.density_pairs", 0)
    out["ber.decode_pairs"] = counts.get("ber.decode_pairs", 0)
    out["criteria.pairs"] = counts.get("criteria.pairs", 0)
    out["cli.bytes_written"] = traced["bytes_written"]
    out.update(imports)
    out["trace.wall_s"] = traced["import_s"] + sum(traced["walls"])
    out["trace.overhead_s"] = sum(traced["walls"]) - sum(plain["walls"])
    return out


COMPUTED = {"rng.rows_used_ratio", "capacity.density_pairs", "ber.decode_pairs",
            "criteria.pairs", "cli.bytes_written"}


def run_traced(wl: Workload, work: Path, tally: Tally, log) -> dict:
    runner = Runner(wl.workers, time.monotonic() + RUN_LIMIT_S)
    imports = import_times(runner, work)
    tally.self_check("import timing", [] if imports else ["python -X importtime failed"])

    argvs = wl.setup + wl.commands
    plain = in_process(runner, wl, work / "plain", trace=False)
    traced = in_process(runner, wl, work / "traced", trace=True)
    for label, res in (("plain", plain), ("traced", traced)):
        if res["code"] != 0:
            tally.invocations(f"{label} runner", len(argvs), [f"exit {res['code']}: {res['stderr'][-500:]}"])
            return {"metrics": {}}
    problems = [f"{a[0]} exit {c}" for a, c in zip(argvs + argvs, plain["codes"] + traced["codes"]) if c]
    if problems:
        tally.invocations("in-process commands", 2 * len(argvs), problems)
        return {"metrics": {}}
    if wl.check_setup:
        problems += run_checks(wl.check_setup, work / "plain")
    outputs = read_outputs(wl, work / "plain")
    problems += run_checks(wl.check, work / "plain")
    tally.invocations("plain run", len(argvs), problems)
    if not problems:
        tally.self_check("checker self-test", self_test(wl, outputs, work / "plain"))
    same = read_outputs(wl, work / "traced") == outputs
    tally.invocations("traced run", len(argvs), [] if same else ["tracing changed the outputs"])

    written = [work / "traced" / f for f in wl.outputs]
    traced["bytes_written"] = sum(p.stat().st_size for p in written if p.exists())
    spans = tracer.analyse(str(work / "traced" / "spans.npz"))
    metrics = layer_metrics(wl, traced, plain, spans, imports)

    accounted = spans["self_total_s"] + traced["import_s"]
    wall = metrics["trace.wall_s"]
    gap = abs(accounted - wall) / wall
    log(f"accounting: self times {spans['self_total_s']:.4f} s + import {traced['import_s']:.4f} s "
        f"= {accounted:.4f} s vs traced wall {wall:.4f} s ({100 * gap:.2f} %, "
        f"tolerance {100 * ACCOUNTING_TOL:.0f} %)")
    tally.self_check("accounting", [] if gap <= ACCOUNTING_TOL else [f"self times miss {100 * gap:.2f} % of wall"])
    log("patched sites: " + " ".join(f"{k}={v}" for k, v in sorted(traced["sites"].items())))

    log("all traced layers (calls, inclusive s, self s):")
    for name, v in sorted(spans["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {name:34s} {v['calls']:8d} {v['s']:10.4f} {v['self_s']:10.4f}")
    for label, layer, n, per, ref in wl.roadmap:
        v = spans["layers"].get(layer, {})
        stats = v.get("by_n", {}).get(n) if n >= 0 else v
        if stats and stats["calls"]:
            t = stats["s"] / (stats["calls"] * per)
            log(f"roadmap {label}, traced: {t:.6g} s (ROADMAP {ref:g} s, ratio {t / ref:.3f})")
            if n < 0:  # many small calls: tracing overhead matters, so also give the plain run
                t = sum(plain["walls"][len(wl.setup):]) / (stats["calls"] * per)
                log(f"roadmap {label}, untraced CLI calls: {t:.6g} s (ROADMAP {ref:g} s, ratio {t / ref:.3f})")
    for layer in ("capacity.estimate_capacity", "ber.simulate_ber", "criteria.fitness"):
        for n, st in sorted(spans["layers"].get(layer, {}).get("by_n", {}).items()):
            log(f"n-scaling {layer} n={n}: {st['calls']} calls, {st['s'] / st['calls']:.6g} s/call")
    return {"metrics": metrics}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = WORKLOADS[name](seed)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    log = lambda s: print(f"[{name}] {s}", flush=True)  # noqa: E731
    try:
        if trace:
            res = run_traced(wl, work, tally, log)
            wanted = spec["per_layer"]
        else:
            res = run_end_to_end(wl, seconds, work, tally, log)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {}
    for key, unit in units.items():
        value = res["metrics"].get(key)
        if value is not None:
            metrics[key] = {"value": float(value), "unit": unit}
    for note in tally.notes:
        log(f"FAILED {note}")
    for key, m in metrics.items():
        tag = " (computed)" if key in COMPUTED else ""
        log(f"{key} {m['value']:.6g} {m['unit']}{tag}")
    for key, (value, unit) in res.get("extra", {}).items():
        log(f"{key} {value:.6g} {unit}")
    log(f"failed_frac {tally.failed / max(tally.attempted, 1):.4f} "
        f"({tally.failed} of {tally.attempted} CLI invocations)")
    correct = tally.failed == 0 and not tally.broken and set(metrics) == set(units)
    return {"correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in describe_environment():
        print(f"env: {line}", flush=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result))
        return 0
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
               for name in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

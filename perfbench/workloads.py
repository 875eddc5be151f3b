"""The four benchmark workloads: their CLI commands, outputs and checks.

Why each workload exists is written out in perfbench/README.md.  Every
input comes from the workload seed: matrix seeds, CLI seeds and GA seeds
are fixed functions of it, so one seed always gives the same commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

SIGMA_GRID = "0.1:1:6"


@dataclass
class Workload:
    workers: int
    setup: list  # argvs run in fresh interpreters before timing; [] means a bare import
    commands: list  # argvs; each timed unit runs one, cycling through the list
    stdouts: list  # per command: file that receives stdout, or None
    outputs: list  # files the commands write, compared across units
    check: object  # check(dir) -> problems, for the command outputs
    corrupt: object  # corrupt(outputs) -> changed outputs that check must reject
    check_setup: object = None  # check_setup(dir) -> problems
    mc_samples: int = 0  # Monte-Carlo channel uses per command
    fitness_evals: int = 0  # population x generations x GA runs per command
    roadmap: list = field(default_factory=list)  # (label, layer, n, per, reference_s)


def _read(d: Path, name: str) -> str:
    return (d / name).read_text()


def _matrix(d: Path, name: str, m: int, n: int) -> np.ndarray:
    problems: list = []
    a = checks.load_matrix_text(_read(d, name), m, n, problems)
    if a is None:
        raise ValueError(f"{name}: {problems}")
    return a


def _generate(kind: str, m: int, n: int, seed: int, out: str) -> list:
    return ["generate", "--kind", kind, "-m", str(m), "-n", str(n), "--seed", str(seed), "--out", out]


def _scale_csv_field(text: str, column: str, factor: float) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    j = header.index(column)
    row[j] = repr(float(row[j]) * factor)
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


def sweep_n8(seed: int) -> Workload:
    budget = 20_000

    def check_setup(d):
        return (checks.check_generate(_read(d, "wbe.json"), "wbe", 4, 8)
                + checks.check_generate(_read(d, "random.json"), "random", 4, 8))

    def check(d):
        mats = {"wbe": _matrix(d, "wbe.json", 4, 8), "random": _matrix(d, "random.json", 4, 8)}
        return checks.check_sweep(_read(d, "sweep.csv"), mats, np.geomspace(0.1, 1.0, 6), budget, seed)

    return Workload(
        workers=1,
        setup=[_generate("wbe", 4, 8, seed, "wbe.json"), _generate("random", 4, 8, seed, "random.json")],
        commands=[["sweep", "wbe.json", "random.json", "--sigma-grid", SIGMA_GRID,
                   "--budget", str(budget), "--seed", str(seed), "--out", "sweep.csv"]],
        stdouts=[None],
        outputs=["sweep.csv"],
        check=check,
        check_setup=check_setup,
        corrupt=lambda o: {"sweep.csv": _scale_csv_field(o["sweep.csv"], "nu1", 1.001)},
        mc_samples=2 * 6 * 2 * budget,
        roadmap=[("4x8 estimate_capacity, 20000 samples", "capacity.estimate_capacity", 8, 1, 0.48),
                 ("4x8 simulate_ber, 20000 blocks", "ber.simulate_ber", 8, 1, 0.31)],
    )


def eval_n12(seed: int) -> Workload:
    budget, sigma = 20_000, 0.5

    def check(d):
        a = _matrix(d, "wbe.json", 6, 12)
        return checks.check_eval(_read(d, "eval.csv"), a, sigma, budget, seed)

    return Workload(
        workers=2,
        setup=[_generate("wbe", 6, 12, seed, "wbe.json")],
        commands=[["eval", "--matrix", "wbe.json", "--sigma", str(sigma),
                   "--budget", str(budget), "--seed", str(seed)]],
        stdouts=["eval.csv"],
        outputs=["eval.csv"],
        check=check,
        check_setup=lambda d: checks.check_generate(_read(d, "wbe.json"), "wbe", 6, 12),
        corrupt=lambda o: {"eval.csv": _scale_csv_field(o["eval.csv"], "per_user_capacity", 0.8)},
        mc_samples=2 * budget,
        roadmap=[("6x12 estimate_capacity, 20000 samples (2 workers)", "capacity.estimate_capacity", 12, 1, 3.8),
                 ("6x12 simulate_ber, 20000 blocks (2 workers)", "ber.simulate_ber", 12, 1, 5.9)],
    )


def ga_ed(seed: int) -> Workload:
    population, generations, sigma = 64, 200, 0.1
    # Base seed 11 is the acceptance gate's configuration.
    seeds = [11 + 3 * seed + k for k in range(3)]
    outs = [f"ga{k}.json" for k in range(3)]

    def check(d):
        problems = []
        for out in outs:
            problems += checks.check_optimize(_read(d, out), _read(d, out + ".run.json"),
                                              3, 4, sigma, generations)
        return problems

    def corrupt(o):
        run = o["ga0.json.run.json"]
        key = '"best_fitness": '
        i = run.index(key) + len(key)
        j = run.index(",", i)
        return {**o, "ga0.json.run.json": run[:i] + repr(float(run[i:j]) * 1.001) + run[j:]}

    return Workload(
        workers=1,
        setup=[],
        commands=[["optimize", "--criterion", "ed", "-m", "3", "-n", "4", "--sigma", str(sigma),
                   "--seed", str(s), "--out", out] for s, out in zip(seeds, outs)],
        stdouts=[None] * 3,
        outputs=[f for out in outs for f in (out, out + ".run.json")],
        check=check,
        corrupt=corrupt,
        fitness_evals=population * generations,
        roadmap=[("3x4 evolve(ed), per fitness evaluation", "ga.evolve", -1,
                  population * generations, 185e-6)],
    )


def overload_capacity(seed: int) -> Workload:
    n_list, population, generations, sigma = [3, 4, 5, 6], 32, 10, 0.3

    return Workload(
        workers=1,
        setup=[],
        commands=[["overload-sweep", "--criterion", "capacity", "-m", "3",
                   "--n-list", ",".join(map(str, n_list)), "--sigma", str(sigma),
                   "--budget", "1000", "--generations", str(generations),
                   "--population-size", str(population), "--seed", str(seed),
                   "--out", "overload.csv"]],
        stdouts=[None],
        outputs=["overload.csv"],
        check=lambda d: checks.check_overload(_read(d, "overload.csv"), 3, n_list, sigma, "capacity"),
        corrupt=lambda o: {"overload.csv": _scale_csv_field(o["overload.csv"], "per_user_capacity", 1.5)},
        fitness_evals=len(n_list) * population * generations,
    )


WORKLOADS = {
    "sweep-n8": sweep_n8,
    "eval-n12": eval_n12,
    "ga-ed": ga_ed,
    "overload-capacity": overload_capacity,
}

import builtins
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sigdesign
from sigdesign import (
    SignatureMatrix,
    baselines,
    cli,
    exact_capacity_1d,
    ga,
    random_normalized,
    wbe_verify,
)
from sigdesign.cli import (
    SWEEP_COLUMNS,
    evaluate_matrix,
    load_matrix,
    main,
    matrix_document,
    save_matrix,
)
from test_capacity import SMALLEST_SIGMA, force_threads


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def assert_rejected(capsys, *argv):
    """Exit 2 with one stderr line, nothing on stdout, no traceback; returns that line."""
    assert main(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    return out.err


def run_subprocess(*argv):
    """Run python with argv against this checkout's package, with a 120 s timeout.

    A numpy RuntimeWarning fails the child as it fails the tests in this process.
    """
    src = str(Path(sigdesign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


class TestMatrixFiles:
    def test_write_read_round_trip_bytes(self, tmp_path):
        path = tmp_path / "random34.json"
        code = main(["generate", "--kind", "random", "-m", "3", "-n", "4",
                     "--seed", "5", "--out", str(path)])
        assert code == 0
        first = path.read_bytes()
        matrix, meta = load_matrix(path)
        assert meta["label"] == "random"
        rewritten = matrix_document(matrix, label=meta["label"])
        assert rewritten.encode() == first

    def test_generated_wbe_reloads_and_verifies(self, tmp_path):
        path = tmp_path / "wbe24.json"
        assert main(["generate", "--kind", "wbe", "-m", "2", "-n", "4",
                     "--seed", "3", "--out", str(path)]) == 0
        matrix, meta = load_matrix(path)
        assert wbe_verify(matrix) <= 1e-10
        assert meta["label"] == "wbe"

    def test_entries_survive_exactly(self, tmp_path):
        path = tmp_path / "m.json"
        A = SignatureMatrix(np.eye(2))
        save_matrix(path, A, label="identity", sigma_design=0.25)
        loaded, meta = load_matrix(path)
        npt.assert_array_equal(loaded.entries, A.entries)
        assert meta["sigma_design"] == 0.25

    def test_orthogonal_overloaded_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "generate", "--kind", "orthogonal", "-m", "2",
                          "-n", "3", "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--kind", "random", "-m", "0", "-n", "3"],
            ["generate", "--kind", "random", "-m", "2", "-n", "0"],
            ["generate", "--kind", "wbe", "-m", "0", "-n", "3"],
            ["generate", "--kind", "orthogonal", "-m", "0", "-n", "0"],
            ["optimize", "--criterion", "md", "-m", "0", "-n", "3"],
        ],
        ids=["random-m0", "random-n0", "wbe-m0", "orthogonal-m0-n0", "optimize-m0"],
    )
    def test_zero_dimension_exits_2(self, tmp_path, argv):
        # a subprocess with a timeout: an empty column used to redraw forever
        proc = run_subprocess("-m", "sigdesign", *argv, "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.json").exists()

    def test_too_many_users_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_generate(*args, **kwargs):
            raise AssertionError("a matrix was generated before the user count was checked")

        monkeypatch.setattr(baselines, "generate", no_generate)
        assert_rejected(capsys, "generate", "--kind", "random", "-m", "2", "-n", "17",
                        "--out", str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "eval", "--matrix", str(tmp_path / "nope.json"),
                          "--sigma", "0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all",
            '{"schema_version": 2, "m": 1, "n": 1, "entries": [1.0]}',
            '{"schema_version": 1, "m": 2, "n": 2, "entries": [1.0, 0.0]}',
            '{"schema_version": 1, "m": 2, "n": 1, "entries": [1.0, 1.0]}',
            '{"schema_version": 1, "m": 1.7, "n": true, "entries": [1.0]}',
            '{"schema_version": 1, "m": 1, "n": true, "entries": [1.0]}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "label": 5}',
            '{"schema_version": true, "m": 1, "n": 1, "entries": [1.0]}',
            '{"schema_version": 1.0, "m": 1, "n": 1, "entries": [1.0]}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "sigma_design": "abc"}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "sigma_design": true}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "sigma_design": -1}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "sigma_design": [1]}',
            '{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], "sigma_design": 0}',
            pytest.param('{"schema_version": 1, "m": 1, "n": 1, "entries": [1.0], '
                         '"sigma_design": 1' + "0" * 400 + "}", id="sigma_design-400-digits"),
            pytest.param('{"schema_version": 1, "m": 1, "n": 2, "entries": ["1", 1.0]}',
                         id="entry-string"),
            pytest.param('{"schema_version": 1, "m": 1, "n": 2, "entries": [1.0, true]}',
                         id="entry-boolean"),
        ],
    )
    def test_malformed_files_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _ = run_cli(capsys, "eval", "--matrix", str(path), "--sigma", "0.5")
        assert code == 2


class TestEval:
    def test_identity_clean_channel(self, tmp_path, capsys):
        path = tmp_path / "eye2.json"
        save_matrix(path, SignatureMatrix(np.eye(2)))
        code, out = run_cli(capsys, "eval", "--matrix", str(path), "--sigma", "0.001",
                            "--budget", "50000", "--seed", "1")
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["per_user_capacity"]) == pytest.approx(1.0, abs=0.01)
        assert float(row["ber"]) == 0.0

    def test_repeat_runs_identical_bytes(self, tmp_path, capsys):
        path = tmp_path / "eye2.json"
        save_matrix(path, SignatureMatrix(np.eye(2)))
        args = ("eval", "--matrix", str(path), "--sigma", "0.5",
                "--budget", "5000", "--seed", "9")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("sigma", ["6e-155", "5.28e-155"])
    def test_sigma_near_floor_warns_nothing(self, tmp_path, sigma):
        path = tmp_path / "r23.json"
        save_matrix(path, random_normalized(2, 3, seed=0))
        proc = run_subprocess("-m", "sigdesign", "eval", "--matrix", str(path),
                              "--sigma", sigma, "--budget", "100")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert math.isfinite(float(read_csv(proc.stdout)[0]["per_user_capacity"]))

    def test_scalar_matches_quadrature_oracle(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_matrix(path, SignatureMatrix([[1.0]]))
        code, out = run_cli(capsys, "eval", "--matrix", str(path), "--sigma", "1.0",
                            "--budget", "100000", "--seed", "2")
        assert code == 0
        row = read_csv(out)[0]
        got = float(row["per_user_capacity"])
        se = float(row["capacity_std_error"])
        assert abs(got - exact_capacity_1d(SignatureMatrix([[1.0]]), 1.0)) <= 3 * se

    def test_header_matches_columns(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_matrix(path, SignatureMatrix([[1.0]]))
        _, out = run_cli(capsys, "eval", "--matrix", str(path), "--sigma", "1.0",
                         "--budget", "1000", "--seed", "0")
        assert out.split("\n")[0] == ",".join(SWEEP_COLUMNS)

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e-160", "1e-170"])
    def test_unusable_sigma_exits_2(self, tmp_path, capsys, sigma):
        # 1e-160: 1/(2 sigma^2) overflows; 1e-170: sigma^2 underflows to 0
        path = tmp_path / "one.json"
        save_matrix(path, SignatureMatrix([[1.0]]))
        assert_rejected(capsys, "eval", "--matrix", str(path), "--sigma", sigma,
                        "--budget", "1000")

    def test_sixteen_users_finish(self, tmp_path):
        # MAX_USERS: 3**16 / 2 difference classes in 3**8-row slabs, not 2**31 point pairs
        path = tmp_path / "r816.json"
        save_matrix(path, random_normalized(8, 16, seed=0))
        # the child's own peak: VmHWM starts afresh at exec, while ru_maxrss keeps
        # the peak of the process that forked it (here the test runner)
        argv = ["eval", "--matrix", str(path), "--sigma", "0.5", "--budget", "100"]
        code = (
            f"import sys; from sigdesign.cli import main; code = main({argv!r}); "
            "status = open('/proc/self/status').read(); "
            "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr); sys.exit(code)"
        )
        proc = run_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        row = read_csv(proc.stdout)[0]
        assert all(math.isfinite(float(v)) for v in row.values())
        assert int(proc.stderr.split()[-1]) < 160 * 1024  # kB

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        # the message keeps numpy's text and adds the command and the sizes it was given
        def exhausted(*args):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setattr(cli, "evaluate_matrix", exhausted)
        monkeypatch.setattr(cli, "evolve", exhausted)
        path = tmp_path / "one.json"
        save_matrix(path, SignatureMatrix([[1.0]]))
        cases = [
            (["eval", "--matrix", str(path), "--sigma", "1.0"],
             f"out of memory in eval (--budget 200000 --matrix {path}): "),
            (["optimize", "--criterion", "ed", "-m", "2", "-n", "3", "--sigma", "0.1",
              "--population-size", "2000000000", "--out", str(tmp_path / "x.json")],
             "out of memory in optimize (-m 2 -n 3 --budget 20000 "
             "--population-size 2000000000 --generations 200): "),
        ]
        for argv, prefix in cases:
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err == prefix + "Unable to allocate 16.0 GiB\n"
        assert [p.name for p in tmp_path.iterdir()] == ["one.json"]


@pytest.mark.parametrize(
    "argv",
    [["generate", "--kind", "wbe", "-m", "3", "-n", "5"],
     ["optimize", "--criterion", "md", "-m", "2", "-n", "3", "--population-size", "4",
      "--generations", "2"]],
    ids=["generate-wbe-no-convergence", "optimize-nan-fitness"],
)
def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(baselines, "_WBE_MAX_ITER", 1)
    monkeypatch.setattr(ga, "population_fitness", lambda spec, pop, seed: np.full(len(pop), np.nan))
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("numeric failure: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--kind", "wbe", "-m", "2", "-n", "3", "--out", "x.json"],
        ["eval", "--matrix", "x.json", "--sigma", "0.5"],
        ["optimize", "--criterion", "md", "-m", "2", "-n", "3", "--out", "x.json"],
        ["sweep", "x.json", "--sigma-grid", "0.1:1:2", "--out", "x.csv"],
        ["overload-sweep", "--criterion", "md", "-m", "2", "--n-list", "2,3",
         "--sigma", "0.5", "--out", "x.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_takes_seed(argv):
    parser = cli._build_parser()
    assert parser.parse_args(argv).seed == 0
    assert parser.parse_args(argv + ["--seed", "7"]).seed == 7


REMOVED_GA_FLAGS = ["--tournament-size", "--crossover-rate", "--mutation-scale",
                    "--mutation-decay", "--elitism"]


@pytest.mark.parametrize(
    "argv,flag",
    [(["generate", "--kind", "wbe", "-m", "2", "-n", "3"], "--tol")]
    + [(["optimize", "--criterion", "md", "-m", "2", "-n", "3"], f) for f in REMOVED_GA_FLAGS]
    + [(["overload-sweep", "--criterion", "md", "-m", "2", "--n-list", "2", "--sigma", "0.5"], f)
       for f in REMOVED_GA_FLAGS],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_removed_flags_exit_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


GENERATE = ["generate", "--kind", "random", "-m", "2", "-n", "3"]
OPTIMIZE = ["optimize", "--criterion", "md", "-m", "2", "-n", "3"]
SWEEP = ["sweep", "r23.json", "--sigma-grid", "0.1:1:2"]
OVERLOAD_SWEEP = ["overload-sweep", "--criterion", "md", "-m", "2", "--n-list", "2,3",
                  "--sigma", "0.5"]


@pytest.mark.parametrize(
    "argv,directory",
    [
        (GENERATE + ["--out", "NO/g.json"], None),
        (OPTIMIZE + ["--out", "NO/m.json"], None),
        (OPTIMIZE + ["--out", "m.json", "--run-out", "NO/m.run.json"], None),
        (SWEEP + ["--out", "NO/s.csv"], None),
        (OVERLOAD_SWEEP + ["--out", "NO/o.csv"], None),
        (GENERATE + ["--out", "d.json"], "d.json"),
        (OPTIMIZE + ["--out", "d.json"], "d.json"),
        (OPTIMIZE + ["--out", "m.json", "--run-out", "d.json"], "d.json"),
        (OPTIMIZE + ["--out", "m.json"], "m.json.run.json"),
        (SWEEP + ["--out", "d.csv"], "d.csv"),
        (OVERLOAD_SWEEP + ["--out", "d.csv"], "d.csv"),
        (OPTIMIZE + ["--out", ""], ""),
        (OPTIMIZE + ["--out", "m.json", "--run-out", ""], ""),
        (SWEEP + ["--out", ""], ""),
    ],
    ids=["generate", "optimize-out", "optimize-run-out", "sweep", "overload-sweep",
         "generate-is-dir", "optimize-out-is-dir", "optimize-run-out-is-dir",
         "optimize-default-run-out-is-dir", "sweep-is-dir", "overload-sweep-is-dir",
         "optimize-empty-out", "optimize-empty-run-out", "sweep-empty-out"],
)
def test_missing_output_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, argv, directory
):
    # `directory`: an output path that already exists as a directory; "" for an empty output path
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output paths were checked")

    monkeypatch.setattr(cli, "evolve", work)
    monkeypatch.setattr(cli, "evaluate_matrix", work)
    save_matrix(tmp_path / "r23.json", random_normalized(2, 3, seed=0))
    if directory:
        (tmp_path / directory).mkdir()
    before = sorted(tmp_path.iterdir())
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    if directory == "":
        assert out.err == "error: output path is empty\n"
    elif directory is None:
        missing = next(a for a in argv if "/NO/" in a)
        assert out.err.startswith(f"error: {missing}: directory ")
    else:
        assert out.err == f"error: {tmp_path / directory}: is a directory\n"
    assert sorted(tmp_path.iterdir()) == before  # no file made early


@pytest.mark.parametrize(
    "argv",
    [
        GENERATE + ["--out", "g.json"],
        ["eval", "--matrix", "r23.json", "--sigma", "0.5"],
        OPTIMIZE + ["--out", "m.json"],
        SWEEP + ["--out", "s.csv"],
        OVERLOAD_SWEEP + ["--out", "o.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_matrix("r23.json", random_normalized(2, 3, seed=0))
    err = assert_rejected(capsys, *argv, "--seed", "-1")
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r23.json"]


@pytest.mark.parametrize(
    "argv",
    [OPTIMIZE + ["--out", "x.json", "--run-out", "./x.json"], SWEEP + ["--out", "r23.json"]],
    ids=["optimize-run-out-is-out", "sweep-out-is-input"],
)
def test_output_path_naming_another_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, argv
):
    # resolved paths are compared, so two spellings of one file collide
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output paths were checked")

    monkeypatch.setattr(cli, "evolve", work)
    monkeypatch.setattr(cli, "evaluate_matrix", work)
    monkeypatch.chdir(tmp_path)
    save_matrix("r23.json", random_normalized(2, 3, seed=0))
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {argv[-1]}: is the same file as another input or output\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before  # input kept, nothing made


def test_sweep_input_listed_twice_gives_duplicate_rows(tmp_path, monkeypatch):
    # only outputs must be distinct: an input may be listed more than once
    monkeypatch.chdir(tmp_path)
    save_matrix("r23.json", random_normalized(2, 3, seed=0))
    assert main(["sweep", "r23.json", "./r23.json", "--sigma-grid", "0.5:0.5:1",
                 "--budget", "100", "--out", "s.csv"]) == 0
    header, first, second = Path("s.csv").read_text().splitlines()
    assert first == second and first.startswith("r23,")


class TestOptimize:
    def test_writes_matrix_and_run_files(self, tmp_path):
        out = tmp_path / "md23.json"
        code = main(["optimize", "--criterion", "md", "-m", "2", "-n", "3",
                     "--seed", "2", "--generations", "20", "--population-size", "12",
                     "--out", str(out)])
        assert code == 0
        matrix, meta = load_matrix(out)
        assert meta["label"] == "ga-md"
        run_doc = json.loads((tmp_path / "md23.json.run.json").read_text())
        assert len(run_doc["history"]) == 20
        bests = [rec["best"] for rec in run_doc["history"]]
        assert bests[-1] >= bests[0]
        assert run_doc["best_fitness"] == max(bests)

    def test_repeat_runs_identical_bytes(self, tmp_path):
        args = ["optimize", "--criterion", "ed", "-m", "2", "-n", "3", "--sigma", "0.5",
                "--seed", "4", "--generations", "15", "--population-size", "10"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.run.json").read_bytes() == (
            tmp_path / "b.json.run.json"
        ).read_bytes()

    @pytest.mark.parametrize("criterion", ["md", "ed"])
    def test_run_file_best_matrix_is_the_matrix_document(self, tmp_path, criterion):
        # md runs used to add "sigma_design": null, a key the matrix file never has
        out = tmp_path / "m.json"
        assert main(["optimize", "--criterion", criterion, "-m", "2", "-n", "3",
                     "--sigma", "0.5", "--generations", "5", "--population-size", "6",
                     "--out", str(out)]) == 0
        run_doc = json.loads((tmp_path / "m.json.run.json").read_text())
        assert run_doc["best_matrix"] == json.loads(out.read_text())

    def test_run_file_config_is_size_and_seed(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["optimize", "--criterion", "md", "-m", "2", "-n", "3",
                     "--generations", "2", "--population-size", "4", "--out", str(out)]) == 0
        run_doc = json.loads((tmp_path / "m.json.run.json").read_text())
        assert run_doc["config"] == {"population_size": 4, "generations": 2, "seed": 0}

    def test_sigma_required_for_stochastic(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "optimize", "--criterion", "ed", "-m", "2", "-n", "3",
                          "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "criterion,sigma",
        [("ed", "nan"), ("ed", "inf"), ("md", "nan"), ("md", "1e-170")],
        ids=["nan", "inf", "md-nan", "md-1e-170"],
    )
    def test_unusable_sigma_exits_2(self, tmp_path, capsys, criterion, sigma):
        # md designs without sigma, but a given --sigma is still checked
        assert_rejected(capsys, "optimize", "--criterion", criterion, "-m", "2", "-n", "3",
                        "--sigma", sigma, "--out", str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()

    def test_beats_equal_budget_random_search(self, tmp_path):
        from sigdesign import CriterionSpec, random_search

        out = tmp_path / "ed34.json"
        assert main(["optimize", "--criterion", "ed", "-m", "3", "-n", "4",
                     "--sigma", "0.5", "--seed", "6", "--generations", "40",
                     "--population-size", "20", "--out", str(out)]) == 0
        run_doc = json.loads((tmp_path / "ed34.json.run.json").read_text())
        spec = CriterionSpec(kind="ed", sigma=0.5)
        _, rs_fit = random_search(3, 4, spec, evaluations=40 * 20, seed=6)
        assert run_doc["best_fitness"] >= rs_fit


class TestSweep:
    @pytest.fixture()
    def matrices(self, tmp_path):
        a = tmp_path / "wbe24.json"
        b = tmp_path / "rand23.json"
        assert main(["generate", "--kind", "wbe", "-m", "2", "-n", "4",
                     "--seed", "3", "--out", str(a)]) == 0
        assert main(["generate", "--kind", "random", "-m", "2", "-n", "3",
                     "--seed", "8", "--out", str(b)]) == 0
        return a, b

    def test_rows_and_band_checks(self, tmp_path, matrices):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(matrices[0]), str(matrices[1]),
                     "--sigma-grid", "0.2:1:4", "--budget", "20000",
                     "--seed", "9", "--out", str(out)]) == 0
        rows = read_csv(out.read_text())
        assert len(rows) == 8
        by_matrix = {}
        for row in rows:
            by_matrix.setdefault(row["matrix"], []).append(row)
        for series in by_matrix.values():
            assert len(series) == 4
            for lo, hi in zip(series, series[1:]):
                assert float(lo["sigma"]) < float(hi["sigma"])
                cap_slack = 3 * math.hypot(
                    float(lo["capacity_std_error"]), float(hi["capacity_std_error"])
                )
                assert float(lo["per_user_capacity"]) >= float(hi["per_user_capacity"]) - cap_slack
                ber_slack = 3 * math.hypot(
                    float(lo["ber_std_error"]), float(hi["ber_std_error"])
                )
                assert float(hi["ber"]) >= float(lo["ber"]) - ber_slack
            for row in series:
                assert float(row["ber"]) <= float(row["union_bound"]) + 3 * float(row["ber_std_error"])

    def test_deterministic_bytes(self, tmp_path, matrices):
        args = ["sweep", str(matrices[0]), "--sigma-grid", "0.3:0.6:2",
                "--budget", "5000", "--seed", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_row_equals_eval_row(self, tmp_path, matrices, capsys, monkeypatch, workers):
        # common random numbers: each sigma's row is the one eval prints for that sigma
        force_threads(monkeypatch, int(workers))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(matrices[1]), "--sigma-grid", "0.2:0.8:3",
                     "--budget", "5000", "--seed", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            name, row = line.split(",", 1)
            code, text = run_cli(capsys, "eval", "--matrix", str(matrices[1]),
                                 "--sigma", row.split(",", 1)[0],
                                 "--budget", "5000", "--seed", "4")
            assert code == 0 and name == "random"
            assert text.splitlines()[1] == row

    def test_bad_grid_exits_2(self, tmp_path, matrices, capsys):
        code, _ = run_cli(capsys, "sweep", str(matrices[0]), "--sigma-grid", "0:1:4",
                          "--budget", "1000", "--seed", "1",
                          "--out", str(tmp_path / "x.csv"))
        assert code == 2


    @pytest.mark.parametrize(
        "filename,label",
        [("bad.json", "a,b"), ("bad.json", 'say "hi"'), ("bad.json", "two\nlines"),
         ("bad.json", "cr\r"), ("a,b.json", None)],
        ids=["comma", "quote", "newline", "carriage-return", "file-stem"],
    )
    def test_name_breaking_the_csv_exits_2(self, tmp_path, matrices, capsys, monkeypatch,
                                           filename, label):
        # the name (label, else file stem) is the row's unquoted first column
        def no_eval(*args):
            raise AssertionError("a matrix was evaluated before every name was checked")

        monkeypatch.setattr(cli, "evaluate_matrix", no_eval)
        bad = tmp_path / filename
        bad.write_text(matrix_document(load_matrix(matrices[1])[0], label=label))
        assert_rejected(capsys, "sweep", str(matrices[0]), str(bad), "--sigma-grid", "0.3:0.6:2",
                        "--budget", "1000", "--out", str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_too_many_users_exits_2_before_any_evaluation(self, tmp_path, matrices, capsys,
                                                          monkeypatch):
        def no_eval(*args):
            raise AssertionError("a matrix was evaluated before every user count was checked")

        monkeypatch.setattr(cli, "evaluate_matrix", no_eval)
        wide = tmp_path / "wide.json"
        save_matrix(wide, SignatureMatrix(np.ones((1, 17))))
        assert_rejected(capsys, "sweep", str(matrices[0]), str(matrices[1]), str(wide),
                        "--sigma-grid", "0.1:1:3", "--out", str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["0.1:1:2.5", "a:1:3", "0.1:1", "0.1:1:3:4"])
    def test_malformed_grid_names_the_flag(self, tmp_path, matrices, capsys, grid):
        err = assert_rejected(capsys, "sweep", str(matrices[0]), "--sigma-grid", grid,
                              "--out", str(tmp_path / "x.csv"))
        assert err.startswith("error: --sigma-grid ")
        assert not (tmp_path / "x.csv").exists()

    def test_identical_at_forced_thread_counts(self, tmp_path, monkeypatch):
        # 1 024 points per row: the rule itself threads this sweep
        path = tmp_path / "r510.json"
        save_matrix(path, random_normalized(5, 10, seed=3))
        outputs = []
        for count in (1, 2, 3):
            force_threads(monkeypatch, count)
            out = tmp_path / f"sweep{count}.csv"
            assert main(["sweep", str(path), "--sigma-grid", "0.3:0.6:2", "--budget", "10000",
                         "--seed", "2", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("grid", ["nan:1:2", "0.1:inf:2", "1e-170:1:2"])
    def test_unusable_grid_exits_2(self, tmp_path, matrices, capsys, grid):
        assert_rejected(capsys, "sweep", str(matrices[0]), "--sigma-grid", grid,
                        "--budget", "1000", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()


class TestOverloadSweep:
    ARGS = ["overload-sweep", "--criterion", "ed", "-m", "2", "--sigma", "0.3",
            "--budget", "5000", "--seed", "7", "--generations", "15",
            "--population-size", "12"]

    def test_row_per_user_count(self, tmp_path):
        out = tmp_path / "over.csv"
        assert main(self.ARGS + ["--n-list", "2,3,4", "--out", str(out)]) == 0
        rows = read_csv(out.read_text())
        assert [row["n"] for row in rows] == ["2", "3", "4"]
        assert [row["beta"] for row in rows] == ["1.0", "1.5", "2.0"]

    def test_orthogonal_load_not_beaten(self, tmp_path):
        out = tmp_path / "over.csv"
        assert main(self.ARGS + ["--n-list", "2,3,4", "--out", str(out)]) == 0
        rows = read_csv(out.read_text())
        base = rows[0]
        for row in rows[1:]:
            slack = 3 * math.hypot(
                float(base["capacity_std_error"]), float(row["capacity_std_error"])
            )
            assert float(base["per_user_capacity"]) >= float(row["per_user_capacity"]) - slack

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--n-list", "2,3", "--out", str(a)]) == 0
        assert main(self.ARGS + ["--n-list", "2,3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n_list", ["3,x", "3,4.5"])
    def test_malformed_n_list_names_the_flag(self, tmp_path, capsys, n_list):
        err = assert_rejected(capsys, *self.ARGS, "--n-list", n_list,
                              "--out", str(tmp_path / "x.csv"))
        assert err.startswith("error: --n-list ")
        assert not (tmp_path / "x.csv").exists()

    def test_underloaded_entry_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(capsys, *self.ARGS, "--n-list", "1,3",
                          "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("criterion", ["ed", "md"])
    def test_small_budget_exits_2_before_any_ga(self, tmp_path, capsys, monkeypatch, criterion):
        def no_ga(*args):
            raise AssertionError("evolve ran before the budget was checked")

        monkeypatch.setattr(cli, "evolve", no_ga)
        assert_rejected(capsys, "overload-sweep", "--criterion", criterion, "-m", "2",
                        "--n-list", "2,3", "--sigma", "0.3", "--budget", "50",
                        "--out", str(tmp_path / "x.csv"))


    @pytest.mark.parametrize("criterion", ["ed", "md"])
    @pytest.mark.parametrize("sigma", ["nan", "1e-170"])
    def test_unusable_sigma_exits_2_before_any_ga(self, tmp_path, capsys, monkeypatch,
                                                   criterion, sigma):
        def no_ga(*args):
            raise AssertionError("evolve ran before --sigma was checked")

        monkeypatch.setattr(cli, "evolve", no_ga)
        assert_rejected(capsys, "overload-sweep", "--criterion", criterion, "-m", "2",
                        "--n-list", "2,3", "--sigma", sigma, "--budget", "1000",
                        "--out", str(tmp_path / "x.csv"))

    def test_too_many_users_exits_2_before_any_ga(self, tmp_path, capsys, monkeypatch):
        def no_ga(*args):
            raise AssertionError("evolve ran before the user counts were checked")

        monkeypatch.setattr(cli, "evolve", no_ga)
        assert_rejected(capsys, "overload-sweep", "--criterion", "ed", "-m", "3",
                        "--n-list", "3,4,17", "--sigma", "0.3", "--budget", "1000",
                        "--out", str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()


class TestEvaluateMatrix:
    def test_consistent_with_direct_calls(self, monkeypatch):
        from sigdesign import constellation_measures, estimate

        # 4x8 at 5000 rows: two blocks, the second cut to 904 rows
        cases = [(SignatureMatrix(np.eye(2)), 2_000), (random_normalized(4, 8, seed=2), 5_000)]
        for (A, budget), workers in itertools.product(cases, ["1", "2"]):
            force_threads(monkeypatch, int(workers))
            row = evaluate_matrix(A, 0.5, budget=budget, seed=3)
            cap, err = estimate(A, 0.5, samples=budget, seed=3)
            assert row.per_user_capacity == cap.per_user_bits
            assert row.capacity_std_error == cap.std_error
            assert row.ber == err.ber
            assert row.ber_std_error == err.std_error
            measures = constellation_measures(A, 0.5)
            assert row.nu1 == measures.nu1
            assert row.nu2 == measures.nu2
            assert row.nu3 == measures.nu3
            assert row.union_bound == measures.union_bound
            assert row.nu2 == 2**A.n * row.union_bound
            assert row.snr_db == pytest.approx(-20 * math.log10(0.5))

    @pytest.mark.parametrize("sigma", [1e-154, 6e-155, SMALLEST_SIGMA])
    def test_smallest_accepted_sigma_warns_nothing(self, sigma):
        # the suite turns RuntimeWarning into an error; the capacity at these
        # sigmas is pinned in test_capacity, here only that every column is finite
        row = evaluate_matrix(random_normalized(2, 3, seed=0), sigma, budget=100, seed=0)
        assert all(math.isfinite(getattr(row, c)) for c in SWEEP_COLUMNS)


def test_import_leaves_out_scipy_integrate():
    # only the 1-D quadrature oracle needs scipy, scipy.integrate, and it imports
    # it itself; nothing uses scipy.spatial or scipy.special
    code = (
        "import sys, sigdesign.cli; print([m for m in "
        "('scipy.integrate', 'scipy.spatial', 'scipy.special') if m in sys.modules])"
    )
    proc = run_subprocess("-c", code)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_commands_load_no_scipy(tmp_path):
    # q_function is numpy alone, so only exact_capacity_1d needs scipy; run every
    # command in one child at small sizes and list the scipy modules it loaded
    code = f"""
import os, sys
from sigdesign.cli import main
os.chdir({str(tmp_path)!r})
ga = ["--generations", "2", "--population-size", "4", "--seed", "1"]
for argv in (
    ["generate", "--kind", "wbe", "-m", "3", "-n", "4", "--out", "w.json"],
    ["eval", "--matrix", "w.json", "--sigma", "0.5", "--budget", "100"],
    ["optimize", "--criterion", "qd", "-m", "3", "-n", "4", "--sigma", "0.3", *ga, "--out", "q.json"],
    ["sweep", "w.json", "q.json", "--sigma-grid", "0.1:1:3", "--budget", "100", "--out", "s.csv"],
    ["overload-sweep", "--criterion", "qd", "-m", "2", "--n-list", "2,3", "--sigma", "0.3",
     "--budget", "100", *ga, "--out", "o.csv"],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = run_subprocess("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_readme_library_names_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # a name in backticks, alone or as the head of a call: `estimate` or `estimate(A, ...)`
    missing = [name for name in sigdesign.__all__ if not re.search(f"`{name}[`(]", section)]
    assert missing == []


def test_readme_library_names_no_missing_name():
    # the reverse: a CamelCase name in backticks, alone or as a call head, is public or a builtin
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"(?<!`)`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)[`(]", section))
    assert names  # the pattern finds the classes README does name
    unknown = [n for n in sorted(names) if n not in sigdesign.__all__ and not hasattr(builtins, n)]
    assert unknown == []


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_subprocess("-c", example)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 3  # per-user capacity, its standard error, BER

"""Command-line interface: flags, exit codes, output formats."""

import concurrent.futures
import csv
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envylab.cli
import envylab.experiments
import envylab.mechanisms
import envylab.oracle
from envylab import MarketInstance, Matching, read_csv
from envylab.cli import main


@pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"], ["predict", "--help"],
                                  ["verify", "--help"], ["coupon", "--help"]])
def test_help_exits_zero(args, capsys):
    assert main(args) == 0
    assert "--" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert main(["simulate", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["simulate", "--sizes", "100", "--reps", "80", "--mechanisms", "da",
                 "--seed", "42", "--out", str(out), "--threads", "1"])
    assert code == 0
    records = read_csv(str(out))
    assert [(r.metric) for r in records] == ["unenvied", "envy_nobody"]
    printed = capsys.readouterr().out
    assert "5.18738" in printed  # H_100 prediction shown in the summary
    assert str(out) in printed


def test_simulate_rejects_zero_sizes(tmp_path, capsys):
    assert main(["simulate", "--sizes", "0", "--reps", "10"]) == 2
    assert "sizes must be >= 1" in capsys.readouterr().err


def test_simulate_rejects_bad_mechanism(capsys):
    assert main(["simulate", "--sizes", "5", "--reps", "2", "--mechanisms", "boston"]) == 2
    assert "mechanism" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate", "--sizes", "5", "--reps", "2"],
                                     ["verify", "--max-n", "1"]])
def test_bad_env_threads_is_a_usage_error(command, capsys, monkeypatch):
    monkeypatch.setenv("ENVYLAB_THREADS", "abc")
    assert main(command) == 2
    assert capsys.readouterr().err.startswith("error: ENVYLAB_THREADS")


def test_simulate_rejects_empty_mechanisms(capsys):
    assert main(["simulate", "--sizes", "5", "--reps", "2", "--mechanisms", ""]) == 2
    assert "mechanisms must be nonempty" in capsys.readouterr().err


def _no_replications(*args):
    raise AssertionError("a replication ran before the output paths were checked")


@pytest.mark.parametrize("bad", ["--out", "--per-replication"])
def test_simulate_checks_outputs_before_running(bad, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(envylab.experiments, "_replicate", _no_replications)
    paths = {"--out": tmp_path / "agg.csv", "--per-replication": tmp_path / "per.csv"}
    paths[bad] = tmp_path / "missing" / "x.csv"
    argv = ["simulate", "--sizes", "5", "--reps", "2", "--threads", "1"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_equal_output_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(envylab.experiments, "_replicate", _no_replications)
    path = str(tmp_path / "out.csv")
    assert main(["simulate", "--sizes", "5", "--reps", "2", "--threads", "1",
                 "--out", path, "--per-replication", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_coupon_checks_output_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(envylab.cli, "run_collector", _no_replications)
    assert main(["coupon", "--n", "5", "--reps", "3",
                 "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and out == ""
    assert list(tmp_path.iterdir()) == []


# A worker count below 1, from the flag or from the environment.
THREADS_BELOW_ONE = pytest.mark.parametrize(
    "flags,env", [(["--threads", "0"], None), (["--threads", "-3"], None), ([], "0")],
    ids=["flag-0", "flag-minus-3", "env-0"])


def _assert_threads_usage_error(argv, env, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("ENVYLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("ENVYLAB_THREADS", env)
    assert main(argv) == 2
    assert re.match(r"error: (threads|ENVYLAB_THREADS) must be >= 1, got -?\d+$",
                    capsys.readouterr().err)


@THREADS_BELOW_ONE
def test_simulate_rejects_threads_below_one(flags, env, capsys, monkeypatch):
    monkeypatch.setattr(envylab.experiments, "_replicate", _no_replications)
    _assert_threads_usage_error(["simulate", "--sizes", "5", "--reps", "2"] + flags,
                                env, capsys, monkeypatch)


@THREADS_BELOW_ONE
def test_verify_rejects_threads_below_one(flags, env, capsys, monkeypatch):
    _assert_threads_usage_error(["verify", "--max-n", "1"] + flags, env, capsys, monkeypatch)


def test_simulate_env_threads_equivalence(tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["simulate", "--sizes", "10,20", "--reps", "40", "--mechanisms", "da,rsd",
            "--seed", "7"]
    monkeypatch.setenv("ENVYLAB_THREADS", "3")
    assert main(base + ["--out", str(out_a)]) == 0
    monkeypatch.delenv("ENVYLAB_THREADS")
    assert main(base + ["--out", str(out_b), "--threads", "1"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


# SHA-256 of the aggregate and per-replication CSVs of `simulate --sizes 7,40
# --mechanisms da,rsd,ttc --reps 60 --seed 11`, for each queue discipline. A
# change that alters the engines' random streams on purpose updates them.
PINNED_DIGESTS = {
    "lifo": ("cf9e31590d17c06042177d63206d6da450757ba4ff6900a57f3875f2bc32086b",
             "c1e6ee2ad40d0bf9a3724f9c871ad44aabd2428de61a09cf5b13036e965af5f0"),
    "random": ("d0266919f207f321acb63b6f50b32562bbf427bf5318853679f9527988a08c9a",
               "e5d39c242831d62b0e8f90dd957e42789a69039c2bdc31c6b5a74bd9dafb5e26"),
    "fifo": ("1f99e9a89ee854307f9ef90b62547a9cf3368fbb675a3085f443f233b8853978",
             "505f64f8065f0faaa36f8323c4bcad0bfa7c1eb3bd713eb8b2c899371e1762d6"),
}


@pytest.mark.parametrize("queue,threads", [("lifo", "1"), ("random", "2"), ("fifo", "4")])
def test_simulate_output_bytes_are_pinned(queue, threads, tmp_path, capsys):
    agg, per = tmp_path / "agg.csv", tmp_path / "per.csv"
    assert main(["simulate", "--sizes", "7,40", "--mechanisms", "da,rsd,ttc", "--reps", "60",
                 "--seed", "11", "--queue", queue, "--threads", threads,
                 "--out", str(agg), "--per-replication", str(per)]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (agg, per))
    assert digests == PINNED_DIGESTS[queue]


def test_simulate_per_replication_file(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    per = tmp_path / "per.csv"
    assert main(["simulate", "--sizes", "8", "--reps", "12", "--mechanisms", "ttc",
                 "--out", str(out), "--per-replication", str(per), "--threads", "1"]) == 0
    capsys.readouterr()
    with open(per) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "mechanism", "replication", "seed",
                       "unenvied", "envy_nobody", "total_proposals", "mean_rank"]
    assert len(rows) == 13


def test_predict_table_values(capsys):
    assert main(["predict", "--n", "10000"]) == 0
    out = capsys.readouterr().out
    assert "9.787606" in out      # unenvied under both mechanisms
    assert "1021.70" in out       # asymptotic top-choice count under da
    assert "5000.5" in out        # exact top-choice count under rsd

    assert main(["predict", "--n", "1"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith(("da", "rsd")):
            assert line.count("1.000000") == 2

    assert main(["predict", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "1.833333" in out
    assert "2.000000" in out


def test_predict_rejects_bad_n(capsys):
    assert main(["predict", "--n", "0"]) == 2
    capsys.readouterr()


VERIFY_MAX_N2_STDOUT = """\
[PASS] n=1: E[unenvied | deferred acceptance] = 1 == H_1 = 1  (1 profiles)
[PASS] n=1: E[unenvied | serial dictatorship] = 1 == H_1 = 1
[PASS] n=1: E[envy nobody | serial dictatorship] = 1 == (n+1)/2 = 1
[PASS] n=1: deferred acceptance equals the enumerated student-optimal stable matching on 1/1 profiles
[PASS] n=1: zero blocking pairs on 1/1 profiles
[PASS] n=1: output weakly dominates every stable matching on 1/1 profiles
[PASS] n=2: E[unenvied | deferred acceptance] = 3/2 == H_2 = 3/2  (16 profiles)
[PASS] n=2: E[unenvied | serial dictatorship] = 3/2 == H_2 = 3/2
[PASS] n=2: E[envy nobody | serial dictatorship] = 3/2 == (n+1)/2 = 3/2
[PASS] n=2: deferred acceptance equals the enumerated student-optimal stable matching on 16/16 profiles
[PASS] n=2: zero blocking pairs on 16/16 profiles
[PASS] n=2: output weakly dominates every stable matching on 16/16 profiles
all checks passed
"""


def test_verify_small_sizes_pass(capsys):
    assert main(["verify", "--max-n", "2"]) == 0
    assert capsys.readouterr().out == VERIFY_MAX_N2_STDOUT


def test_verify_guard_rejects_large_n(capsys):
    assert main(["verify", "--max-n", "10"]) == 2
    err = capsys.readouterr().err
    assert "guard" in err


@pytest.fixture
def two_cpus(monkeypatch):
    """os.cpu_count() reads 2, so `verify --threads 2` forks a two-worker pool on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_detects_tampered_mechanism(threads, two_cpus, capsys, monkeypatch):
    real = envylab.mechanisms.deferred_acceptance

    def tampered(market):
        matching = real(market)
        if market.n >= 2:  # swap two students' schools
            flipped = matching.assignment.copy()
            flipped[[0, 1]] = flipped[[1, 0]]
            return Matching(assignment=flipped)
        return matching

    monkeypatch.setattr(envylab.mechanisms, "deferred_acceptance", tampered)
    assert main(["verify", "--max-n", "2", "--threads", threads]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_verify_enumerates_each_stable_set_once(capsys, monkeypatch):
    real = envylab.oracle._stable_assignments
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(envylab.oracle, "_stable_assignments", counting)
    # every profile's market reaches both cross-checks, with the tables a
    # freshly validated MarketInstance of that profile would have
    markets = {"deferred_acceptance": [], "blocking_pairs": []}
    for name, seen in markets.items():
        def recording(market, *args, real=getattr(envylab.mechanisms, name), seen=seen):
            seen.append(market)
            return real(market, *args)
        monkeypatch.setattr(envylab.mechanisms, name, recording)
    # the recorders live in this process, so the run must not fork workers
    assert main(["verify", "--max-n", "2", "--threads", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1 + 16  # one per profile of sizes 1 and 2
    profiles = sorted(profile for n in (1, 2) for profile in envylab.oracle.iter_profiles(n))
    for seen in markets.values():
        assert len(seen) == 1 + 16
        assert sorted((tuple(map(tuple, m.student_prefs.tolist())),
                       tuple(map(tuple, m.school_priorities.tolist()))) for m in seen) == profiles
        for market in seen:
            fresh = MarketInstance(student_prefs=market.student_prefs.tolist(),
                                   school_priorities=market.school_priorities.tolist())
            for name in ("student_prefs", "school_priorities", "student_rank", "school_rank"):
                table = getattr(market, name)
                assert np.array_equal(table, getattr(fresh, name))
                assert table.dtype == np.int64 and not table.flags.writeable


@pytest.mark.parametrize("max_n", ["2", "3"])
def test_verify_stdout_does_not_depend_on_workers(max_n, two_cpus, capsys):
    outs = []
    for threads in ("1", "2"):
        assert main(["verify", "--max-n", max_n, "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if max_n == "2":
        assert outs[0] == VERIFY_MAX_N2_STDOUT
    else:
        assert outs[0].count(" 46656/46656 profiles\n") == 3


@pytest.mark.parametrize("threads,cpus,max_n,workers", [
    ("10000", 3, "2", 3),   # capped by the CPU count
    ("10000", 64, "2", 4),  # capped by the 4 student tables at n = 2
    ("2", 64, "2", 2),
    ("10000", 64, "1", None),  # one table: no pool at all
])
def test_verify_caps_worker_processes(threads, cpus, max_n, workers, capsys, monkeypatch):
    made = []

    class RecordingExecutor:
        """Records max_workers and runs the blocks in this process."""

        def __init__(self, max_workers, mp_context=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(["verify", "--max-n", max_n, "--threads", threads]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert made == ([] if workers is None else [workers])
    assert multiprocessing.active_children() == []


def test_verify_pool_leaves_no_worker_processes(two_cpus, capsys, monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(["verify", "--max-n", "2", "--threads", "2"]) == 0
    assert capsys.readouterr().out == VERIFY_MAX_N2_STDOUT
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_verify_reports_a_dead_worker(two_cpus, capsys, monkeypatch):
    parent = os.getpid()
    real = envylab.oracle.enumerate_expected_unenvied_da

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(envylab.oracle, "enumerate_expected_unenvied_da", dying)
    assert main(["verify", "--max-n", "2", "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: a verify worker process died: [^\n]+\n", captured.err)
    assert multiprocessing.active_children() == []


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                   os.environ.get("PYTHONPATH")])))
    for module in ("envylab", "envylab.cli"):
        result = subprocess.run([sys.executable, "-m", module, "verify", "--max-n", "1"], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.splitlines()[-1] == "all checks passed"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_detects_blocking_pairs(threads, two_cpus, capsys, monkeypatch):
    monkeypatch.setattr(envylab.mechanisms, "blocking_pairs", lambda market, matching: [(0, 0)])
    assert main(["verify", "--max-n", "2", "--threads", threads]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if "blocking pairs" in line]
    assert len(lines) == 2
    assert all(line.startswith("[FAIL]") for line in lines)


def test_coupon_single_type(capsys):
    assert main(["coupon", "--n", "1", "--reps", "10"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"singleton types : 1\b", out)


def test_coupon_two_types_analytic_mean(tmp_path, capsys):
    out_path = tmp_path / "runs.csv"
    assert main(["coupon", "--n", "2", "--reps", "20000", "--seed", "3",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "stopping_time", "singleton_count"]
    singles = np.array([int(r[2]) for r in rows[1:]])
    se = singles.std(ddof=1) / np.sqrt(len(singles))
    assert abs(singles.mean() - 1.5) < 3 * se


def test_coupon_rejects_bad_flags(capsys):
    assert main(["coupon", "--n", "0", "--reps", "5"]) == 2
    assert main(["coupon", "--n", "5", "--reps", "0"]) == 2
    capsys.readouterr()

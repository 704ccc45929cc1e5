"""Acceptance suite: one test per release criterion.

Each criterion prints a `[PASS] criterion k` line (visible with `pytest -s`)
and is named so `pytest -v` shows one line per criterion. Statistical
criteria use fixed seeds, so outcomes are reproducible bit for bit.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from envylab import (
    DEFAULT_SIZE_SWEEP,
    ExperimentConfig,
    Seed,
    enumerate_expected_rsd,
    harmonic,
    read_csv,
    run_experiment,
    sequential_da,
    sequential_da_on_market,
    singleton_count_from_da,
)
from envylab.cli import main as cli_main
from envylab.experiments import _da_lazy_run, _ttc_replication, aggregate_series
from envylab.market import MarketInstance, derive_generator
from envylab.theory import geometric_rank_pmf

MASTER_SEED = 20260810
REPS = 2000


def _report(k: int, message: str):
    print(f"[PASS] criterion {k}: {message}")


def _band(pred, mean, se, label):
    assert abs(mean - pred) <= 3 * se, \
        f"{label}: mean {mean:.4f} vs prediction {pred:.4f} exceeds 3 x {se:.4f}"


@pytest.fixture(scope="module")
def da_runs_n1000():
    """2,000 deferred acceptance runs at n=1000, shared by criteria 4 and 5."""
    n = 1000
    envy_nobody = []
    pooled_ranks = np.zeros(n + 1, dtype=np.int64)
    for rep in range(REPS):
        rng = derive_generator(MASTER_SEED, 0, n, rep)
        _, per_student = _da_lazy_run(n, rng)
        envy_nobody.append(sum(1 for c in per_student if c == 1))
        pooled_ranks += np.bincount(per_student, minlength=n + 1)
    return envy_nobody, pooled_ranks


def test_criterion_01_exact_small_market_expectations(capsys):
    start = time.monotonic()
    code = cli_main(["verify", "--max-n", "3"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0, out
    for n, value in ((1, "1"), (2, "3/2"), (3, "11/6")):
        assert f"E[unenvied | deferred acceptance] = {value}" in out
    assert "46656 profiles" in out
    assert elapsed < 60, f"verify took {elapsed:.1f}s"
    with capsys.disabled():
        _report(1, f"exact E[unenvied] = 1, 3/2, 11/6 over all profiles ({elapsed:.1f}s)")


def test_criterion_02_unenvied_mean_at_n100(tmp_path, capsys):
    out = tmp_path / "da100.csv"
    assert cli_main(["simulate", "--sizes", "100", "--reps", str(REPS), "--mechanisms", "da",
                     "--seed", str(MASTER_SEED), "--out", str(out)]) == 0
    capsys.readouterr()
    records = {r.metric: r for r in read_csv(str(out))}
    r = records["unenvied"]
    _band(harmonic(100), r.mean, r.std_error, "da unenvied at n=100")
    with capsys.disabled():
        _report(2, f"da unenvied mean {r.mean:.4f} within 3 SE of H_100 = {harmonic(100):.4f}")


def test_criterion_03_rsd_means_and_exact_oracle(tmp_path, capsys):
    out = tmp_path / "rsd.csv"
    assert cli_main(["simulate", "--sizes", "100,1000", "--reps", str(REPS),
                     "--mechanisms", "rsd", "--seed", str(MASTER_SEED), "--out", str(out)]) == 0
    capsys.readouterr()
    records = read_csv(str(out))
    for n in (100, 1000):
        un = next(r for r in records if r.n == n and r.metric == "unenvied")
        _band(harmonic(n), un.mean, un.std_error, f"rsd unenvied at n={n}")
        top = next(r for r in records if r.n == n and r.metric == "envy_nobody")
        _band((n + 1) / 2, top.mean, top.std_error, f"rsd envy_nobody at n={n}")
    assert enumerate_expected_rsd(2).envy_nobody_mean == Fraction(3, 2)
    assert enumerate_expected_rsd(3).envy_nobody_mean == 2
    assert enumerate_expected_rsd(3).unenvied_mean == Fraction(11, 6)
    with capsys.disabled():
        _report(3, "rsd tracks H_n and (n+1)/2 at n in {100, 1000}; exact at n <= 3")


def test_criterion_04_envy_nobody_asymptotic_band(da_runs_n1000, capsys):
    envy_nobody, _ = da_runs_n1000
    mean = float(np.mean(envy_nobody))
    pred = 1000 / harmonic(1000)
    rel_err = abs(mean - pred) / pred
    assert rel_err < 0.15, f"relative error {rel_err:.3f} exceeds 15%"
    with capsys.disabled():
        _report(4, f"da envy_nobody mean {mean:.2f} vs n/H_n = {pred:.2f} "
                   f"(relative error {rel_err * 100:.1f}% < 15%)")


def test_criterion_05_geometric_rank_shape(da_runs_n1000, capsys):
    _, pooled = da_runs_n1000
    total = pooled.sum()
    for k in (1, 2, 3):
        empirical = pooled[k] / total
        predicted = geometric_rank_pmf(k, 1000)
        rel_err = abs(empirical - predicted) / predicted
        assert rel_err < 0.15, f"pmf at k={k}: {empirical:.5f} vs {predicted:.5f}"
    assert all(pooled[k] >= pooled[k + 1] for k in range(1, 10)), \
        f"histogram not monotone over k <= 10: {pooled[1:11]}"
    with capsys.disabled():
        _report(5, "pooled rank pmf at k=1,2,3 within 15% of the truncated geometric "
                   "law and monotone over k <= 10")


def test_criterion_06_coupon_correspondence(tmp_path, capsys):
    for n in (20, 50):
        for rep in range(10_000):
            matching, log = sequential_da(n, Seed(master_seed=MASTER_SEED, replication_index=rep))
            singletons = singleton_count_from_da(log)
            # independent route to the unenvied count: envy edges read off
            # the revealed preference prefixes
            envied = set()
            for prefix in log.realized_prefixes:
                envied.update(prefix[:-1])
            unenvied = sum(1 for s in matching.assignment.tolist() if s not in envied)
            assert singletons == unenvied, f"n={n} rep={rep}: {singletons} != {unenvied}"

    out = tmp_path / "coupon.csv"
    assert cli_main(["coupon", "--n", "100", "--reps", "10000", "--seed", str(MASTER_SEED),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    singles = np.loadtxt(out, delimiter=",", skiprows=1, usecols=2)
    mean, se = aggregate_series(singles.tolist())
    _band(harmonic(100), mean, se, "collector singleton mean at n=100")
    with capsys.disabled():
        _report(6, "singleton raw draws equal unenvied students in 100% of 20,000 runs; "
                   f"collector mean {mean:.4f} within 3 SE of H_100")


def test_criterion_07_mechanism_correctness(capsys):
    from envylab import blocking_pairs, completed_market, deferred_acceptance
    from envylab.mechanisms import QUEUE_DISCIPLINES
    from envylab.oracle import all_stable_matchings, iter_profiles, student_optimal_from

    checked = 0
    for prefs, prios in iter_profiles(3):
        market = MarketInstance(student_prefs=np.array(prefs), school_priorities=np.array(prios))
        da = deferred_acceptance(market)
        assert blocking_pairs(market, da) == []
        for discipline in ("fifo", "lifo"):
            sequential, _ = sequential_da_on_market(market, discipline)
            assert sequential == da
        stable_set = all_stable_matchings(market)
        assert da == student_optimal_from(market, stable_set)
        ranks = market.student_rank[np.arange(3), da.assignment]
        for other in stable_set:
            assert (ranks <= market.student_rank[np.arange(3), other.assignment]).all()
        checked += 1
    assert checked == 46656

    for discipline in QUEUE_DISCIPLINES:
        for rep in range(20):
            lazy, log = sequential_da(200, Seed(master_seed=MASTER_SEED, replication_index=rep),
                                      discipline)
            market = completed_market(log, derive_generator(MASTER_SEED, rep))
            assert deferred_acceptance(market) == lazy
    with capsys.disabled():
        _report(7, "46,656 profiles: stable, queue-invariant, student-optimal; "
                   "lazy runs at n=200 replay on their completed markets under every queue")


def test_criterion_08_ttc_matches_rsd_closed_forms(capsys):
    n = 10
    reps = 10_000
    results = [_ttc_replication(n, derive_generator(MASTER_SEED, 2, n, rep))
               for rep in range(reps)]
    unenvied_mean, unenvied_se = aggregate_series([r[0] for r in results])
    top_mean, top_se = aggregate_series([r[1] for r in results])
    _band((n + 1) / 2, top_mean, top_se, "ttc envy_nobody at n=10")
    _band(harmonic(n), unenvied_mean, unenvied_se, "ttc unenvied at n=10")
    with capsys.disabled():
        _report(8, f"ttc at n=10: envy_nobody {top_mean:.3f} ~ 5.5, "
                   f"unenvied {unenvied_mean:.3f} ~ H_10 = {harmonic(n):.3f}")


def test_criterion_09_threaded_runs_are_byte_identical(tmp_path, capsys):
    base = ["simulate", "--sizes", "10,25", "--reps", "300", "--mechanisms", "da,rsd,ttc",
            "--seed", str(MASTER_SEED)]
    out_1 = tmp_path / "threads1.csv"
    out_4 = tmp_path / "threads4.csv"
    assert cli_main(base + ["--out", str(out_1), "--threads", "1"]) == 0
    assert cli_main(base + ["--out", str(out_4), "--threads", "4"]) == 0
    capsys.readouterr()
    assert out_1.read_bytes() == out_4.read_bytes()
    with capsys.disabled():
        _report(9, "equal flags give byte-identical CSV for 1 and 4 threads")


def test_criterion_10_figure_reproduction(tmp_path, capsys):
    start = time.monotonic()
    config = ExperimentConfig(sizes=DEFAULT_SIZE_SWEEP, replications=REPS,
                              master_seed=MASTER_SEED,
                              output_path=str(tmp_path / "figure1.csv"))
    run_experiment(config)
    elapsed = time.monotonic() - start
    records = read_csv(str(tmp_path / "figure1.csv"))
    assert len(records) == 2 * len(DEFAULT_SIZE_SWEEP)
    for n in DEFAULT_SIZE_SWEEP:
        un = next(r for r in records if r.n == n and r.metric == "unenvied")
        _band(harmonic(n), un.mean, un.std_error, f"sweep unenvied at n={n}")
        top = next(r for r in records if r.n == n and r.metric == "envy_nobody")
        rel_err = abs(top.mean - top.prediction) / top.prediction
        assert rel_err < 0.15, f"sweep envy_nobody at n={n}: relative error {rel_err:.3f}"
    assert elapsed < 600, f"sweep took {elapsed:.0f}s"
    with capsys.disabled():
        _report(10, f"size sweep {DEFAULT_SIZE_SWEEP} tracks H_n (3 SE) and n/H_n "
                    f"(15%) at every n, in {elapsed:.0f}s")

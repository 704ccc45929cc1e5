"""Coupon collector runs and their correspondence with deferred acceptance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from envylab import (
    CollectorRun,
    Seed,
    harmonic,
    run_collector,
    sequential_da,
    singleton_count_from_da,
)
from envylab.experiments import _da_replication, _rsd_replication, _ttc_replication
from envylab.market import _DRAW_CHUNK, derive_generator


def test_single_type_run():
    run = run_collector(1, Seed(master_seed=1))
    assert run.stopping_time == 1
    assert run.singleton_count == 1


def test_rejects_zero_types():
    with pytest.raises(ValueError):
        run_collector(0, Seed(master_seed=1))


def test_run_bounds():
    for rep in range(200):
        run = run_collector(12, Seed(master_seed=3, replication_index=rep))
        assert run.stopping_time >= 12
        assert 1 <= run.singleton_count <= 12


def test_two_type_singleton_mean_is_three_halves():
    # the second type collected is always a singleton; the first is one
    # exactly when the run stops after two draws, with probability 1/2
    reps = 100_000
    values = np.array([run_collector(2, Seed(master_seed=5, replication_index=r)).singleton_count
                       for r in range(reps)])
    se = values.std(ddof=1) / np.sqrt(reps)
    assert abs(values.mean() - 1.5) < 3 * se


@pytest.mark.parametrize("n,reps", [(3, 40_000), (10, 20_000)])
def test_singleton_mean_tracks_harmonic_number(n, reps):
    values = np.array([run_collector(n, Seed(master_seed=7, replication_index=r)).singleton_count
                       for r in range(reps)])
    se = values.std(ddof=1) / np.sqrt(reps)
    assert abs(values.mean() - harmonic(n)) < 3 * se


def test_da_raw_singletons_equal_single_proposer_schools():
    for rep in range(500):
        _, log = sequential_da(20, Seed(master_seed=11, replication_index=rep))
        assert singleton_count_from_da(log) == int((log.proposals_per_school() == 1).sum())


def test_singleton_count_requires_raw_draws():
    from envylab import generate_market, sequential_da_on_market
    market = generate_market(4, Seed(master_seed=13))
    _, log = sequential_da_on_market(market)
    with pytest.raises(ValueError):
        singleton_count_from_da(log)


def test_da_singletons_match_collector_distribution():
    # the per-run singleton counts from deferred acceptance and from plain
    # collector runs should be draws from the same distribution
    n = 20
    reps = 100_000
    da_counts = np.array([_da_replication(n, derive_generator(17, 0, n, r))[0]
                          for r in range(reps)])
    collector_counts = np.array([
        run_collector(n, Seed(master_seed=19, replication_index=r)).singleton_count
        for r in range(reps)])
    top = 8  # pool the sparse tail into one bin
    table = np.array([
        [int((da_counts == k).sum()) for k in range(1, top)] + [int((da_counts >= top).sum())],
        [int((collector_counts == k).sum()) for k in range(1, top)] + [int((collector_counts >= top).sum())],
    ])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 1e-3


def _raw_stream_singletons(n, rng):
    """(schools drawn exactly once, draws read) in the raw stream, up to the
    draw that completes the set.

    The stream is rebuilt here as the engines draw it: uniform school ids
    in chunks of min(_DRAW_CHUNK, 4n).
    """
    counts = [0] * n
    seen = 0
    while seen < n:
        for s in rng.integers(0, n, size=min(_DRAW_CHUNK, 4 * n)).tolist():
            seen += counts[s] == 0
            counts[s] += 1
            if seen == n:
                break
    return counts.count(1), sum(counts)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**64 - 1))
def test_rsd_and_ttc_unenvied_are_the_raw_stream_singletons(n, seed):
    # RSD takes a school at its first draw and it is envied exactly when it
    # is drawn again; TTC fed the same stream leaves the same schools
    # unenvied, and the collector stops at the draw that completes the set
    singletons, stop = _raw_stream_singletons(n, Seed(seed).generator())
    assert _rsd_replication(n, Seed(seed).generator())[0] == singletons
    assert _ttc_replication(n, Seed(seed).generator())[0] == singletons
    assert run_collector(n, Seed(seed)) == CollectorRun(n=n, stopping_time=stop,
                                                        singleton_count=singletons)

"""Mechanism correctness: stability, queue invariance, lazy/eager equivalence."""

import numpy as np
import pytest

from envylab import (
    Endowment,
    MarketInstance,
    Matching,
    Seed,
    SerialOrder,
    blocking_pairs,
    completed_market,
    deferred_acceptance,
    generate_market,
    match_ranks,
    rsd,
    sequential_da,
    sequential_da_on_market,
    student_optimal_stable_matching,
    ttc,
)
from envylab.oracle import _is_stable, _market_tables


def forced_two_market():
    """Both students want school 0; school 0 puts student 0 first."""
    return MarketInstance(student_prefs=np.array([[0, 1], [0, 1]]),
                          school_priorities=np.array([[0, 1], [0, 1]]))


def test_da_n1():
    market = generate_market(1, Seed(master_seed=3))
    assert deferred_acceptance(market).assignment.tolist() == [0]


def test_da_forced_two_student_market():
    matching = deferred_acceptance(forced_two_market())
    assert matching.assignment.tolist() == [0, 1]


def test_da_output_admits_no_blocking_pair():
    for rep in range(200):
        market = generate_market(8, Seed(master_seed=21, replication_index=rep))
        assert blocking_pairs(market, deferred_acceptance(market)) == []


@pytest.mark.parametrize("n,reps", [(3, 200), (5, 60)])
def test_da_matches_enumerated_student_optimum(n, reps):
    for rep in range(reps):
        market = generate_market(n, Seed(master_seed=37, replication_index=rep))
        assert deferred_acceptance(market) == student_optimal_stable_matching(market)


def test_sequential_lazy_equals_da_on_completed_profile():
    # replaying the revealed profile through the round-based algorithm must
    # reproduce the lazily generated matching, for many seeds
    for rep in range(1000):
        matching, log = sequential_da(3, Seed(master_seed=41, replication_index=rep))
        replay = completed_market(log, np.random.default_rng(rep))
        assert deferred_acceptance(replay) == matching
    for rep in range(20):
        matching, log = sequential_da(20, Seed(master_seed=43, replication_index=rep))
        replay = completed_market(log, np.random.default_rng(rep))
        assert deferred_acceptance(replay) == matching


def test_queue_discipline_never_changes_the_matching():
    for rep in range(30):
        seed = Seed(master_seed=51, replication_index=rep)
        fifo, _ = sequential_da(12, seed, "fifo")
        lifo, _ = sequential_da(12, seed, "lifo")
        assert fifo == lifo
        for sub in range(5):
            rand, _ = sequential_da(12, seed, "random", queue_seed=sub)
            assert rand == fifo


def test_sequential_on_market_equals_round_based():
    for rep in range(100):
        market = generate_market(6, Seed(master_seed=53, replication_index=rep))
        expected = deferred_acceptance(market)
        for discipline in ("fifo", "lifo"):
            got, log = sequential_da_on_market(market, discipline)
            assert got == expected
            assert not log.raw_draws


@pytest.mark.parametrize("run", [lambda q: sequential_da(4, Seed(master_seed=1), q),
                                 lambda q: sequential_da_on_market(forced_two_market(), q)],
                         ids=["lazy", "on_market"])
def test_sequential_rejects_unknown_queue_discipline(run):
    with pytest.raises(ValueError, match=r"queue_discipline must be one of .*'stack'"):
        run("stack")


def test_sequential_n1_single_proposal():
    matching, log = sequential_da(1, Seed(master_seed=1))
    assert matching.assignment.tolist() == [0]
    assert log.total_proposals == 1
    assert log.total_raw_draws == 1


def test_run_terminates_when_last_school_first_appears():
    # the final consumed raw draw must be the first appearance of the one
    # school that completes coverage
    for rep in range(50):
        _, log = sequential_da(15, Seed(master_seed=61, replication_index=rep))
        first_seen = {}
        for idx, (_, school) in enumerate(log.raw_draws):
            first_seen.setdefault(school, idx)
        assert len(first_seen) == 15
        assert max(first_seen.values()) == log.total_raw_draws - 1


def test_repeat_draws_only_hit_contested_schools():
    # a school drawn twice by the same student must have >= 2 distinct proposers
    for rep in range(50):
        _, log = sequential_da(15, Seed(master_seed=67, replication_index=rep))
        draw_counts = {}
        for student, school in log.raw_draws:
            draw_counts[(student, school)] = draw_counts.get((student, school), 0) + 1
        proposers = log.proposals_per_school()
        for (_, school), count in draw_counts.items():
            if count > 1:
                assert proposers[school] >= 2


def test_log_entries_follow_revealed_order():
    _, log = sequential_da(10, Seed(master_seed=71))
    next_pos = [0] * 10
    for student, school, _, _ in log.entries:
        assert log.realized_prefixes[student][next_pos[student]] == school
        next_pos[student] += 1


# ---------------------------------------------------------------------------
# Serial dictatorship
# ---------------------------------------------------------------------------

def test_rsd_trivial_and_forced_cases():
    market = generate_market(1, Seed(master_seed=2))
    assert rsd(market, SerialOrder(np.array([0]))).assignment.tolist() == [0]
    matching = rsd(forced_two_market(), SerialOrder(np.array([0, 1])))
    assert matching.assignment.tolist() == [0, 1]


def test_first_chooser_always_gets_top_choice():
    for rep in range(100):
        market = generate_market(7, Seed(master_seed=73, replication_index=rep))
        order = np.random.default_rng(rep).permutation(7)
        matching = rsd(market, order)
        first = order[0]
        assert match_ranks(market, matching)[first] == 1


def test_rsd_rejects_bad_order():
    market = generate_market(3, Seed(master_seed=5))
    with pytest.raises(ValueError):
        rsd(market, np.array([0, 0, 2]))


# ---------------------------------------------------------------------------
# Top trading cycles
# ---------------------------------------------------------------------------

def test_ttc_with_top_choice_endowment_is_identity():
    # when top choices happen to be distinct, owning them means nobody trades
    for rep in range(50):
        rng = np.random.default_rng(rep)
        tops = rng.permutation(6)
        rows = [np.concatenate(([tops[i]], rng.permuted(np.delete(np.arange(6), tops[i]))))
                for i in range(6)]
        market = MarketInstance(student_prefs=np.array(rows),
                                school_priorities=np.tile(np.arange(6), (6, 1)))
        matching = ttc(market, Endowment(tops.copy()))
        assert matching.assignment.tolist() == tops.tolist()


def test_ttc_n1():
    market = generate_market(1, Seed(master_seed=4))
    assert ttc(market, Endowment(np.array([0]))).assignment.tolist() == [0]


def test_ttc_weakly_improves_every_endowment():
    for rep in range(100):
        market = generate_market(9, Seed(master_seed=83, replication_index=rep))
        endowment = np.random.default_rng(rep).permutation(9)
        matching = ttc(market, endowment)
        assert sorted(matching.assignment.tolist()) == list(range(9))
        for i in range(9):
            assert market.student_rank[i, matching.assignment[i]] <= \
                market.student_rank[i, endowment[i]]


def test_ttc_fixes_pareto_efficient_allocations():
    # a serial dictatorship outcome admits no improving cycle
    for rep in range(50):
        market = generate_market(8, Seed(master_seed=89, replication_index=rep))
        order = np.random.default_rng(rep).permutation(8)
        allocation = rsd(market, order)
        assert ttc(market, Endowment(allocation.assignment.copy())) == allocation


# ---------------------------------------------------------------------------
# Blocking pairs
# ---------------------------------------------------------------------------

def test_blocking_pair_in_swapped_forced_market():
    market = forced_two_market()
    swapped = Matching(assignment=np.array([1, 0]))
    assert (0, 0) in blocking_pairs(market, swapped)


def test_blocking_pairs_agree_with_definitional_stability_check():
    import itertools
    for rep in range(60):
        market = generate_market(4, Seed(master_seed=97, replication_index=rep))
        rank, srank = _market_tables(market)
        for perm in itertools.permutations(range(4)):
            matching = Matching(assignment=np.array(perm))
            empty = blocking_pairs(market, matching) == []
            assert empty == _is_stable(rank, srank, perm)

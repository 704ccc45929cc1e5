"""Mechanism correctness: stability, queue invariance, lazy/eager equivalence."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from envylab import (
    MarketInstance,
    Matching,
    Seed,
    all_stable_matchings,
    blocking_pairs,
    build_envy_graph,
    completed_market,
    deferred_acceptance,
    generate_market,
    match_ranks,
    rsd,
    sequential_da,
    sequential_da_on_market,
    singleton_count_from_da,
    ttc,
    unenvied_count,
)
from envylab.market import derive_generator
from envylab.mechanisms import QUEUE_DISCIPLINES, ProposalLog, _da_lazy_run
from envylab.oracle import _is_stable, _market_tables, student_optimal_from

# Derandomized and bounded, with no example database to replay, so every run
# of the suite tries the same examples.
_PROPERTY = settings(derandomize=True, max_examples=200, database=None, deadline=None)


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
        assert deferred_acceptance(market) == student_optimal_from(market, all_stable_matchings(market))


@st.composite
def random_markets(draw):
    n = draw(st.integers(1, 6))
    tables = [[draw(st.permutations(range(n))) for _ in range(n)] for _ in range(2)]
    return MarketInstance(student_prefs=np.array(tables[0]), school_priorities=np.array(tables[1]))


@_PROPERTY
@given(random_markets(), st.integers(0, 2**64 - 1))
def test_da_is_the_brute_force_student_optimum(market, queue_seed):
    optimum = student_optimal_from(market, all_stable_matchings(market))
    assert deferred_acceptance(market) == optimum
    for discipline in QUEUE_DISCIPLINES:
        assert sequential_da_on_market(market, discipline, queue_seed)[0] == optimum


def test_sequential_lazy_equals_da_on_completed_profile():
    # replaying the revealed profile through eager deferred acceptance must
    # reproduce the lazily generated matching, for many seeds
    for rep in range(1000):
        matching, log = sequential_da(3, Seed(master_seed=41, replication_index=rep))
        replay = completed_market(log, np.random.default_rng(rep))
        assert deferred_acceptance(replay) == matching
    for rep in range(20):
        matching, log = sequential_da(20, Seed(master_seed=43, replication_index=rep))
        replay = completed_market(log, np.random.default_rng(rep))
        assert deferred_acceptance(replay) == matching


@_PROPERTY
@given(st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_lazy_run_equals_da_on_its_completed_market(n, seed):
    # the fixed-seed replay check above, at random sizes and seeds and under
    # every queue discipline
    for discipline in QUEUE_DISCIPLINES:
        matching, log = sequential_da(n, seed, discipline)
        replay = completed_market(log, derive_generator(seed, n))
        assert deferred_acceptance(replay) == matching


def test_sequential_on_market_equals_fifo_run():
    # deferred_acceptance is the fifo run; every discipline returns its matching
    for rep in range(100):
        market = generate_market(6, Seed(master_seed=53, replication_index=rep))
        expected = deferred_acceptance(market)
        for discipline in QUEUE_DISCIPLINES:
            got, log = sequential_da_on_market(market, discipline, queue_seed=rep)
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
        for idx, school in enumerate(log.raw_draws):
            first_seen.setdefault(school, idx)
        assert len(first_seen) == 15
        assert max(first_seen.values()) == log.total_raw_draws - 1


def test_repeat_draws_only_hit_contested_schools():
    # a school is drawn more than once exactly when it has >= 2 distinct
    # proposers: a student draws again only after losing her school
    for rep in range(50):
        _, log = sequential_da(15, Seed(master_seed=67, replication_index=rep))
        repeated = np.flatnonzero(log.raw_draw_counts() > 1)
        contested = np.flatnonzero(log.proposals_per_school() >= 2)
        assert repeated.tolist() == contested.tolist()


def test_log_entries_follow_revealed_order():
    _, log = sequential_da(10, Seed(master_seed=71))
    next_pos = [0] * 10
    for student, school, _, _ in log.entries:
        assert log.realized_prefixes[student][next_pos[student]] == school
        next_pos[student] += 1


# ---------------------------------------------------------------------------
# The lazy engine behind sequential_da and the Monte Carlo replications
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("queue", QUEUE_DISCIPLINES)
@pytest.mark.parametrize("n,reps", [(3, 300), (20, 100), (200, 20)])
def test_lazy_run_is_one_engine_with_a_consistent_completed_market(n, reps, queue):
    for rep in range(reps):
        seed = Seed(master_seed=101, replication_index=rep)
        log = ProposalLog(n=n, entries=[], raw_draws=[], realized_prefixes=[])
        assert _da_lazy_run(n, seed.generator(), queue, log) == \
            _da_lazy_run(n, seed.generator(), queue)
        matching, same_log = sequential_da(n, seed, queue)
        assert same_log == log
        market = completed_market(log, derive_generator(103, rep))
        assert deferred_acceptance(market) == matching
        assert blocking_pairs(market, matching) == []
        singletons = singleton_count_from_da(log)
        assert singletons == unenvied_count(build_envy_graph(market, matching))
        assert singletons == int((log.proposals_per_school() == 1).sum())


@pytest.mark.parametrize("queue", QUEUE_DISCIPLINES)
def test_completed_market_rows_are_uniform_at_n3(queue):
    # each run contributes one student row and one school row of its
    # completed market, the row index cycling over 0..2
    rankings = list(itertools.permutations(range(3)))
    reps = 6000
    student_counts = np.zeros(6, dtype=np.int64)
    school_counts = np.zeros(6, dtype=np.int64)
    for rep in range(reps):
        _, log = sequential_da(3, Seed(master_seed=107, replication_index=rep), queue)
        market = completed_market(log, derive_generator(109, rep))
        row = rep % 3
        student_counts[rankings.index(tuple(market.student_prefs[row].tolist()))] += 1
        school_counts[rankings.index(tuple(market.school_priorities[row].tolist()))] += 1
    for side, counts in (("student", student_counts), ("school", school_counts)):
        p_value = stats.chisquare(counts).pvalue
        assert p_value > 1e-3, f"{queue} {side} rows: p = {p_value:.2e}, counts {counts}"


# ---------------------------------------------------------------------------
# Serial dictatorship
# ---------------------------------------------------------------------------

def test_rsd_trivial_and_forced_cases():
    market = generate_market(1, Seed(master_seed=2))
    assert rsd(market, np.array([0])).assignment.tolist() == [0]
    matching = rsd(forced_two_market(), [0, 1])
    assert matching.assignment.tolist() == [0, 1]


def test_first_chooser_always_gets_top_choice():
    for rep in range(100):
        market = generate_market(7, Seed(master_seed=73, replication_index=rep))
        order = np.random.default_rng(rep).permutation(7)
        matching = rsd(market, order)
        first = order[0]
        assert match_ranks(market, matching)[first] == 1


def test_rsd_rejects_bad_order():
    # a permutation of the wrong length is checked against the market too
    market = generate_market(3, Seed(master_seed=5))
    for bad in ([0, 0, 2], [1, 0], [3, 2, 1, 0]):
        for order in (bad, np.array(bad)):
            with pytest.raises(ValueError, match="order must be a permutation of 0..2"):
                rsd(market, order)


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
        matching = ttc(market, tops)
        assert matching.assignment.tolist() == tops.tolist()


def test_ttc_n1():
    market = generate_market(1, Seed(master_seed=4))
    assert ttc(market, [0]).assignment.tolist() == [0]


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
        assert ttc(market, allocation.assignment) == allocation


def _priority_statistics(matching, log, market):
    """(pairs of proposers to one school whose priority order disagrees with
    their proposal order, schools held by their top-priority student)"""
    proposers = [[] for _ in range(log.n)]
    for i, s, _, _ in log.entries:
        proposers[s].append(i)
    inversions = 0
    for s, order in enumerate(proposers):
        ranks = market.school_rank[s, order].tolist()
        inversions += sum(a > b for k, a in enumerate(ranks) for b in ranks[k + 1:])
    held_by_top = int((market.school_priorities[:, 0] == matching.student_at()).sum())
    return inversions, held_by_top


@pytest.mark.parametrize("queue", QUEUE_DISCIPLINES)
def test_completed_priorities_match_eager_runs_in_law(queue):
    # a lazy run with its completed market against a one-at-a-time run on an
    # eager market: the joint law of (log, market) is the same, so is the law
    # of how each school orders its proposers and where its holder stands
    n, reps, top = 8, 2000, 12
    lazy, eager = [], []
    for rep in range(reps):
        matching, log = sequential_da(n, Seed(master_seed=113, replication_index=rep), queue)
        market = completed_market(log, derive_generator(127, rep))
        lazy.append(_priority_statistics(matching, log, market))
        market = generate_market(n, Seed(master_seed=131, replication_index=rep))
        matching, log = sequential_da_on_market(market, queue, queue_seed=rep)
        eager.append(_priority_statistics(matching, log, market))
    for k, name in enumerate(("inversions", "held by top priority")):
        table = [[sum(x[k] == v for x in sample) for v in range(top)] +
                 [sum(x[k] >= top for x in sample)] for sample in (lazy, eager)]
        table = [row for row in zip(*table) if sum(row)]  # drop values neither sample took
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3, f"{queue} {name}: p = {p_value:.2e}\n{table}"


# ---------------------------------------------------------------------------
# Assignment types
# ---------------------------------------------------------------------------

@st.composite
def non_permutations(draw, wrong_length=False):
    """(n, values): values that are not a permutation of 0..n-1.

    Either one entry of a permutation is replaced by a repeat or an
    out-of-range value or, with `wrong_length`, the values are a
    permutation of 0..m-1 for some m != n. Drawn as a Python list or as an
    int64 array, the two input paths.
    """
    n = draw(st.integers(1, 8))
    faults = ["negative", "too_large"] + (["repeat"] if n > 1 else []) + \
        (["length"] if wrong_length else [])
    fault = draw(st.sampled_from(faults))
    size = draw(st.integers(1, 9).filter(lambda m: m != n)) if fault == "length" else n
    values = list(draw(st.permutations(range(size))))
    if fault != "length":
        col = draw(st.integers(0, n - 1))
        if fault == "repeat":
            values[col] = values[draw(st.integers(0, n - 1).filter(lambda c: c != col))]
        elif fault == "negative":
            values[col] = draw(st.integers(-2**62, -1))
        else:
            values[col] = draw(st.integers(n, 2**62))
    return n, (values if draw(st.booleans()) else np.array(values, dtype=np.int64))


@_PROPERTY
@given(data=st.data(), name=st.sampled_from(["assignment", "order", "owns"]))
def test_assignment_types_reject_every_non_permutation(data, name):
    # a Matching checks its own length; rsd and ttc check against the market
    n, values = data.draw(non_permutations(wrong_length=name != "assignment"))
    with pytest.raises(ValueError, match=f"{name} must be a permutation"):
        if name == "assignment":
            Matching(values)
        else:
            (rsd if name == "order" else ttc)(generate_market(n, 0), values)


@_PROPERTY
@given(values=st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))))
def test_matching_reads_lists_and_arrays_alike(values):
    from_list, from_array = Matching(list(values)), Matching(np.array(values))
    assert from_list == from_array
    assert from_list.assignment.dtype == np.int64
    assert not from_list.assignment.flags.writeable


def test_matching_copies_an_array_input():
    a = np.arange(3)
    m = Matching(a)
    a[0] = 1  # the caller's buffer stays writable
    assert m.assignment.tolist() == [0, 1, 2]
    assert not m.assignment.flags.writeable


# ---------------------------------------------------------------------------
# Blocking pairs
# ---------------------------------------------------------------------------

def test_blocking_pair_in_swapped_forced_market():
    market = forced_two_market()
    swapped = Matching(assignment=np.array([1, 0]))
    assert (0, 0) in blocking_pairs(market, swapped)


def test_blocking_pairs_agree_with_definitional_stability_check():
    for n in range(1, 6):
        for rep in range(60 if n == 4 else 12):
            market = generate_market(n, Seed(master_seed=97, replication_index=rep))
            rank, srank = _market_tables(market)
            for perm in itertools.permutations(range(n)):
                holder = [0] * n
                for i, s in enumerate(perm):
                    holder[s] = i
                expected = [(i, s) for i in range(n) for s in range(n)
                            if rank[i][s] < rank[i][perm[i]] and srank[s][i] < srank[s][holder[s]]]
                got = blocking_pairs(market, Matching(assignment=np.array(perm)))
                assert got == expected
                assert all(type(i) is int and type(s) is int for i, s in got)
                assert (got == []) == _is_stable(rank, srank, perm)


def reference_blocking_pairs(market, matching):
    """The O(n^2) boolean-mask formula: every (i, s) with i preferring s to
    her school and s ranking i above its holder, in row-major order."""
    students = np.arange(market.n)
    assignment = matching.assignment
    own_rank = market.student_rank[students, assignment]
    holder_rank = np.empty(market.n, dtype=np.int64)
    holder_rank[assignment] = market.school_rank[assignment, students]
    blocked = (market.student_rank < own_rank[:, None]) & (market.school_rank.T < holder_rank)
    i, s = blocked.nonzero()
    return list(zip(i.tolist(), s.tolist()))


@pytest.mark.parametrize("n", [50, 200])
def test_blocking_pairs_equal_the_mask_formula(n):
    rng = derive_generator(5, n)
    for rep in range(4):
        market = generate_market(n, Seed(master_seed=23, replication_index=rep))
        matchings = [Matching(rng.permutation(n)), deferred_acceptance(market),
                     rsd(market, rng.permutation(n)), ttc(market, rng.permutation(n))]
        for matching in matchings:
            got = blocking_pairs(market, matching)
            assert got == reference_blocking_pairs(market, matching)
            assert all(type(i) is int and type(s) is int for i, s in got)
        assert blocking_pairs(market, matchings[1]) == []
        assert blocking_pairs(market, matchings[0])  # a random matching is unstable


def test_eager_mechanisms_allocate_less_than_a_table():
    # one 2000 x 2000 table as Python lists would take ~137 MiB; each call
    # may allocate only what it reads, O(n + proposals)
    n = 2000
    market = generate_market(n, 7)
    owns = derive_generator(7).permutation(n)
    calls = [(f"sequential_da_on_market[{queue}]",
              lambda queue=queue: sequential_da_on_market(market, queue), 16)
             for queue in QUEUE_DISCIPLINES]
    calls += [("deferred_acceptance", lambda: deferred_acceptance(market), 16),
              ("ttc", lambda: ttc(market, owns), 16)]
    da = deferred_acceptance(market)
    calls.append(("blocking_pairs", lambda: blocking_pairs(market, da), 2))
    tracemalloc.start()
    try:
        for name, call, limit_mib in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            assert peak_mib < limit_mib, f"{name} peaked at {peak_mib:.1f} MiB"
    finally:
        tracemalloc.stop()

"""Envy graph construction, degree identities, and match ranks."""

import numpy as np

from envylab import (
    MarketInstance,
    Matching,
    Seed,
    build_envy_graph,
    completed_market,
    deferred_acceptance,
    envy_nobody_count,
    generate_market,
    match_ranks,
    rsd,
    sequential_da,
    sequential_da_on_market,
    unenvied_count,
)


def forced_two_market():
    return MarketInstance(student_prefs=np.array([[0, 1], [0, 1]]),
                          school_priorities=np.array([[0, 1], [0, 1]]))


def test_single_student_has_no_envy():
    market = generate_market(1, Seed(master_seed=1))
    graph = build_envy_graph(market, Matching(assignment=np.array([0])))
    assert graph.edges == []
    assert unenvied_count(graph) == 1
    assert envy_nobody_count(graph) == 1


def test_forced_two_market_has_single_edge():
    market = forced_two_market()
    graph = build_envy_graph(market, deferred_acceptance(market))
    assert graph.edges == [(1, 0)]  # the rejected student envies the winner
    assert unenvied_count(graph) == 1
    assert envy_nobody_count(graph) == 1


def test_everyone_on_top_choice_gives_empty_graph():
    # student i ranks school i first; identity matching leaves nobody envious
    prefs = np.array([[i] + [s for s in range(4) if s != i] for i in range(4)])
    market = MarketInstance(student_prefs=prefs,
                            school_priorities=np.tile(np.arange(4), (4, 1)))
    graph = build_envy_graph(market, Matching(assignment=np.arange(4)))
    assert graph.edges == []
    assert unenvied_count(graph) == 4
    assert envy_nobody_count(graph) == 4


def test_out_degree_is_rank_minus_one():
    for rep in range(50):
        market = generate_market(10, Seed(master_seed=7, replication_index=rep))
        matching = deferred_acceptance(market)
        graph = build_envy_graph(market, matching)
        ranks = match_ranks(market, matching)
        assert np.array_equal(graph.out_degree, ranks - 1)
        assert len(graph.edges) == int((ranks - 1).sum())
        assert envy_nobody_count(graph) == np.bincount(ranks - 1, minlength=10)[0]


def test_in_degree_is_distinct_proposers_minus_one():
    for rep in range(40):
        matching, log = sequential_da(12, Seed(master_seed=9, replication_index=rep))
        market = completed_market(log, np.random.default_rng(rep))
        graph = build_envy_graph(market, matching)
        proposers = log.proposals_per_school()
        for i in range(12):
            assert graph.in_degree[i] == proposers[matching.assignment[i]] - 1


def test_graph_matches_the_pairwise_definition():
    # independent route: compare how every student ranks every student's
    # school with her own, over the full n x n table
    for n, reps in ((15, 30), (300, 3)):
        for rep in range(reps):
            market = generate_market(n, Seed(master_seed=11, replication_index=rep))
            shuffled = Matching(assignment=np.random.default_rng(rep).permutation(n))
            for matching in (deferred_acceptance(market), shuffled):
                ranks_of = market.student_rank[:, matching.assignment]
                envies = ranks_of < np.diagonal(ranks_of)[:, None]
                graph = build_envy_graph(market, matching)
                assert graph.edges == [tuple(edge) for edge in np.argwhere(envies).tolist()]
                assert np.array_equal(graph.out_degree, envies.sum(axis=1))
                assert np.array_equal(graph.in_degree, envies.sum(axis=0))


def test_identical_preferences_rsd_ranks():
    # if everyone shares one ranking, the k-th chooser lands at rank k
    n = 5
    shared = np.tile(np.arange(n), (n, 1))
    market = MarketInstance(student_prefs=shared,
                            school_priorities=np.tile(np.arange(n), (n, 1)))
    order = [3, 0, 4, 1, 2]
    ranks = match_ranks(market, rsd(market, order))
    assert ranks[order].tolist() == list(range(1, n + 1))
    assert np.bincount(ranks - 1, minlength=n).tolist() == [1] * n


def single_proposer_schools(log):
    return {int(s) for s in np.flatnonzero(log.proposals_per_school() == 1)}


def test_under_demanded_school_sets():
    _, log = sequential_da(1, Seed(master_seed=2))
    assert single_proposer_schools(log) == {0}

    _, log2 = sequential_da_on_market(forced_two_market())
    assert single_proposer_schools(log2) == {1}


def test_three_way_under_demanded_equivalence():
    # schools drawn exactly once == schools with one distinct proposer
    # == matches of in-degree-zero students, run by run
    for rep in range(1000):
        matching, log = sequential_da(50, Seed(master_seed=17, replication_index=rep))
        once_drawn = {int(s) for s in np.flatnonzero(log.raw_draw_counts() == 1)}
        single_proposer = single_proposer_schools(log)
        assert once_drawn == single_proposer
        # independent route: envy edges from the revealed prefixes alone
        envied = set()
        for prefix in log.realized_prefixes:
            envied.update(prefix[:-1])
        unenvied_matches = {int(matching.assignment[i]) for i in range(50)
                            if int(matching.assignment[i]) not in envied}
        assert single_proposer == unenvied_matches


def test_rsd_position_guarantees():
    for rep in range(100):
        market = generate_market(8, Seed(master_seed=19, replication_index=rep))
        order = np.random.default_rng(rep).permutation(8)
        matching = rsd(market, order)
        graph = build_envy_graph(market, matching)
        assert graph.out_degree[order[0]] == 0  # first chooser envies nobody
        assert graph.in_degree[order[-1]] == 0  # nobody envies the last chooser
        assert unenvied_count(graph) >= 1

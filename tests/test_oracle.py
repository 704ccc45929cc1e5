"""Exact enumeration oracle: small-market ground truth."""

from fractions import Fraction

import numpy as np
import pytest

from envylab import (
    EnumerationSizeError,
    MarketInstance,
    Seed,
    all_stable_matchings,
    deferred_acceptance,
    enumerate_expected_rsd,
    enumerate_expected_unenvied_da,
    harmonic_exact,
)
from envylab.experiments import _da_replication
from envylab.market import derive_generator
from envylab.oracle import student_optimal_from


def test_harmonic_exact_values():
    assert harmonic_exact(1) == 1
    assert harmonic_exact(2) == Fraction(3, 2)
    assert harmonic_exact(3) == Fraction(11, 6)
    assert harmonic_exact(30) == Fraction(9304682830147, 2329089562800)
    with pytest.raises(ValueError):
        harmonic_exact(0)


def test_da_enumeration_n1():
    exact = enumerate_expected_unenvied_da(1)
    assert exact.unenvied_mean == 1
    assert exact.envy_nobody_mean == 1
    assert exact.profile_count == 1


def test_da_enumeration_n2():
    exact = enumerate_expected_unenvied_da(2)
    assert exact.profile_count == 16
    assert exact.unenvied_mean == harmonic_exact(2)
    # by hand: both students share a top school with probability 1/2, in
    # which case one of them holds her top choice, else both do
    assert exact.envy_nobody_mean == Fraction(3, 2)


def test_da_enumeration_envy_nobody_n3_matches_monte_carlo():
    exact = enumerate_expected_unenvied_da(3)
    assert exact.unenvied_mean == harmonic_exact(3)
    reps = 20_000
    values = np.array([_da_replication(3, derive_generator(23, 0, 3, r))[1]
                       for r in range(reps)])
    se = values.std(ddof=1) / np.sqrt(reps)
    assert abs(values.mean() - float(exact.envy_nobody_mean)) < 3 * se


def test_rsd_enumeration_small():
    one = enumerate_expected_rsd(1)
    assert (one.unenvied_mean, one.envy_nobody_mean) == (1, 1)
    two = enumerate_expected_rsd(2)
    assert two.unenvied_mean == Fraction(3, 2)
    assert two.envy_nobody_mean == Fraction(3, 2)
    assert two.profile_count == 8  # (2!)^2 preference profiles x 2! orders
    three = enumerate_expected_rsd(3)
    assert three.unenvied_mean == Fraction(11, 6)
    assert three.envy_nobody_mean == 2


def test_enumeration_guards():
    with pytest.raises(EnumerationSizeError):
        enumerate_expected_unenvied_da(4)
    with pytest.raises(EnumerationSizeError):
        enumerate_expected_rsd(4)
    with pytest.raises(ValueError):
        enumerate_expected_unenvied_da(0)


def test_all_stable_matchings_trivial_and_forced():
    market = MarketInstance(student_prefs=np.array([[0]]), school_priorities=np.array([[0]]))
    assert len(all_stable_matchings(market)) == 1

    forced = MarketInstance(student_prefs=np.array([[0, 1], [0, 1]]),
                            school_priorities=np.array([[0, 1], [0, 1]]))
    stable = all_stable_matchings(forced)
    assert len(stable) == 1
    assert stable[0].assignment.tolist() == [0, 1]


def test_multiple_stable_matchings_and_student_optimum():
    # classic 2x2 instance with opposed preferences on the two sides
    market = MarketInstance(student_prefs=np.array([[0, 1], [1, 0]]),
                            school_priorities=np.array([[1, 0], [0, 1]]))
    stable = all_stable_matchings(market)
    assert sorted(m.assignment.tolist() for m in stable) == [[0, 1], [1, 0]]
    optimum = student_optimal_from(market, stable)
    assert optimum.assignment.tolist() == [0, 1]  # both students on their top choice
    assert deferred_acceptance(market) == optimum


def test_stable_set_guard():
    from envylab import generate_market
    market = generate_market(7, Seed(master_seed=1))
    with pytest.raises(EnumerationSizeError):
        all_stable_matchings(market)


def test_oracle_degree_counts_agree_with_envy_module():
    # the definitional pure-python counter and the vectorized graph builder
    # must agree profile by profile
    from envylab import build_envy_graph, generate_market
    from envylab.oracle import _degree_counts, _rank_table

    for rep in range(200):
        market = generate_market(4, Seed(master_seed=29, replication_index=rep))
        matching = deferred_acceptance(market)
        graph = build_envy_graph(market, matching)
        prefs = tuple(tuple(row) for row in market.student_prefs.tolist())
        indeg, outdeg = _degree_counts(_rank_table(prefs), matching.assignment.tolist())
        assert graph.in_degree.tolist() == indeg
        assert graph.out_degree.tolist() == outdeg

"""Exact enumeration oracle: small-market ground truth."""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

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
    oracle,
)
from envylab.experiments import _da_replication
from envylab.market import derive_generator
from envylab.oracle import (
    _degree_counts,
    _is_stable,
    _rank_table,
    _student_optimal,
    iter_profiles,
    student_optimal_from,
)


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("parts", [1, 2, 5])
def test_da_enumeration_splits_into_table_blocks(n, parts):
    # contiguous blocks of student tables (empty ones skipped: n = 2 has
    # only 4 tables) add up to the unsplit pass, and their visits walk
    # iter_profiles(n) once, in order
    full = enumerate_expected_unenvied_da(n)
    tables = math.factorial(n) ** n
    blocks = [range(tables * b // parts, tables * (b + 1) // parts) for b in range(parts)]
    seen = []
    results = [enumerate_expected_unenvied_da(
                   n, visit=lambda prefs, prios, *rest: seen.append((prefs, prios)), tables=block)
               for block in blocks if block]
    count = sum(r.profile_count for r in results)
    assert count == full.profile_count
    assert Fraction(sum(r.unenvied_mean * r.profile_count for r in results), count) \
        == full.unenvied_mean
    assert Fraction(sum(r.envy_nobody_mean * r.profile_count for r in results), count) \
        == full.envy_nobody_mean
    assert seen == list(iter_profiles(n))


@pytest.mark.parametrize("tables", [range(0), range(-1, 2), range(3, 5), range(4, 0, -1)])
def test_da_enumeration_rejects_tables_outside_the_space(tables):
    with pytest.raises(ValueError, match="tables"):
        enumerate_expected_unenvied_da(2, tables=tables)


def test_factored_stable_sets_match_definition():
    # the masks must find each profile's stable set exactly as the
    # blocking-pair definition does, element for element and in order, and
    # the outcomes cached per (student table, stable set) must give the
    # means of an uncached definitional loop
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        seen = []
        exact = enumerate_expected_unenvied_da(n, visit=lambda *args: seen.append(args))
        assert [(prefs, prios) for prefs, prios, *_ in seen] == list(iter_profiles(n))
        srank_of = {prios: _rank_table(prios) for prios in itertools.product(perms, repeat=n)}
        unenvied = envy_nobody = 0
        for prefs, prios, rank, stable, optimal in seen:
            assert rank == _rank_table(prefs)
            definition = [m for m in perms if _is_stable(rank, srank_of[prios], m)]
            assert isinstance(stable, tuple) and list(stable) == definition
            best = _student_optimal(rank, definition)
            assert optimal == best
            indeg, outdeg = _degree_counts(rank, best)
            unenvied += sum(1 for d in indeg if d == 0)
            envy_nobody += sum(1 for d in outdeg if d == 0)
        assert exact.profile_count == len(seen) == len(perms) ** (2 * n)
        assert exact.unenvied_mean == Fraction(unenvied, len(seen))
        assert exact.envy_nobody_mean == Fraction(envy_nobody, len(seen))
    assert (exact.unenvied_mean, exact.envy_nobody_mean) == (Fraction(11, 6), Fraction(23, 12))


def test_oracle_stays_independent_of_the_mechanisms():
    # the oracle may name the Matching type, but must not reuse a mechanism
    # routine (such as blocking_pairs) or anything from the experiments
    imports = set()  # (last part of the module path, imported name)
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module is None:  # from . import module
                    imports.add((alias.name, "*"))
                else:
                    imports.add((node.module.rpartition(".")[2], alias.name))
        elif isinstance(node, ast.Import):
            imports.update((alias.name.rpartition(".")[2], "*") for alias in node.names)
    assert {name for module, name in imports if module == "mechanisms"} == {"Matching"}
    assert not [name for module, name in imports if module in ("experiments", "envylab")]


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

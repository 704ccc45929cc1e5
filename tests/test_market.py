"""Market generation, validation and seeding tests."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from envylab import (
    MarketInstance,
    Seed,
    complete_profile,
    generate_market,
)
from envylab.market import _inverse_rows

# Derandomized and bounded, with no example database to replay, so every run
# of the suite tries the same examples.
_PROPERTY = settings(derandomize=True, max_examples=200, database=None, deadline=None)


def permutation_table(n, rows):
    """(rows, n) int64 tables whose rows are permutations of 0..n-1."""
    return st.lists(st.permutations(range(n)), min_size=rows, max_size=rows).map(
        lambda table: np.array(table, dtype=np.int64))


sized_tables = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: permutation_table(*shape))


def test_n1_market_is_the_only_permutation():
    market = generate_market(1, Seed(master_seed=7))
    assert market.student_prefs.tolist() == [[0]]
    assert market.school_priorities.tolist() == [[0]]


def test_equal_seeds_reproduce_identical_instances():
    a = generate_market(2, Seed(master_seed=123, replication_index=4))
    b = generate_market(2, Seed(master_seed=123, replication_index=4))
    assert np.array_equal(a.student_prefs, b.student_prefs)
    assert np.array_equal(a.school_priorities, b.school_priorities)


def test_rejects_empty_market():
    with pytest.raises(ValueError):
        generate_market(0, Seed(master_seed=1))


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(master_seed=-1)
    with pytest.raises(ValueError):
        Seed(master_seed=2**64)
    with pytest.raises(ValueError):
        Seed(master_seed=0, replication_index=-1)


def test_seed_generator_is_the_derived_generator():
    # Seed streams are those of the seed sequence (master_seed, replication_index)
    for k in range(50):
        seed = Seed(master_seed=2**63 + 977 * k, replication_index=k % 7)
        reference = np.random.default_rng(np.random.SeedSequence(entropy=(seed.master_seed, k % 7)))
        assert np.array_equal(seed.generator().integers(0, 2**62, size=8),
                              reference.integers(0, 2**62, size=8))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_are_valid_permutations(n):
    ident = list(range(n))
    for rep in range(300):
        market = generate_market(n, Seed(master_seed=11, replication_index=rep))
        for row in market.student_prefs:
            assert sorted(row.tolist()) == ident
        for row in market.school_priorities:
            assert sorted(row.tolist()) == ident


def test_market_instance_rejects_non_permutation_rows():
    with pytest.raises(ValueError):
        MarketInstance(student_prefs=np.array([[0, 0], [1, 0]]),
                       school_priorities=np.array([[0, 1], [1, 0]]))


@_PROPERTY
@given(sized_tables)
def test_inverse_rows_inverts_every_row(perm):
    inv = _inverse_rows(perm)
    rows, n = perm.shape
    for i in range(rows):
        for k in range(n):
            assert inv[i, perm[i, k]] == k


@_PROPERTY
@given(data=st.data(), n=st.integers(1, 6),
       side=st.sampled_from(["student_prefs", "school_priorities"]),
       fault=st.sampled_from(["repeat", "negative", "too_large"]))
def test_market_instance_rejects_every_non_permutation(data, n, side, fault):
    tables = {name: data.draw(permutation_table(n, n))
              for name in ("student_prefs", "school_priorities")}
    row = data.draw(st.integers(0, n - 1))
    col = data.draw(st.integers(0, n - 1))
    if fault == "repeat":
        assume(n > 1)
        other = data.draw(st.integers(0, n - 1).filter(lambda c: c != col))
        value = tables[side][row, other]
    elif fault == "negative":
        value = data.draw(st.integers(-2**62, -1))
    else:
        value = data.draw(st.integers(n, 2**62))
    tables[side][row, col] = value
    with pytest.raises(ValueError):
        MarketInstance(**tables)


def test_rank_tables_invert_preferences():
    market = generate_market(6, Seed(master_seed=2))
    for i in range(6):
        for pos, school in enumerate(market.student_prefs[i]):
            assert market.student_rank[i, school] == pos


def test_pair_takes_each_side_from_a_validated_market():
    students, schools = (generate_market(5, Seed(master_seed=3, replication_index=r)) for r in (0, 1))
    paired = MarketInstance._pair(students, schools)
    fresh = MarketInstance(student_prefs=students.student_prefs,
                           school_priorities=schools.school_priorities)
    for name in ("student_prefs", "school_priorities", "student_rank", "school_rank"):
        assert np.array_equal(getattr(paired, name), getattr(fresh, name))
        assert not getattr(paired, name).flags.writeable
    with pytest.raises(TypeError):
        MarketInstance._pair(students.student_prefs, schools)
    with pytest.raises(ValueError):
        MarketInstance._pair(students, generate_market(4, Seed(master_seed=3)))


def test_eager_rankings_are_uniform():
    # student 0's ranking at n=3 should hit each of the 6 orders with
    # frequency 1/6; band is 3 standard errors of the exact multinomial
    counts = {perm: 0 for perm in itertools.permutations(range(3))}
    reps = 10_000
    for rep in range(reps):
        market = generate_market(3, Seed(master_seed=31, replication_index=rep))
        counts[tuple(market.student_prefs[0].tolist())] += 1
    p = 1 / 6
    band = 3 * np.sqrt(p * (1 - p) / reps)
    for perm, c in counts.items():
        assert abs(c / reps - p) < band, (perm, c / reps)


def test_replications_look_independent():
    # no serial correlation in the first-choice indicator across indices
    reps = 10_000
    hits = np.array([
        generate_market(3, Seed(master_seed=77, replication_index=r)).student_prefs[0][0] == 0
        for r in range(reps)], dtype=float)
    corr = np.corrcoef(hits[:-1], hits[1:])[0, 1]
    assert abs(corr) < 3 / np.sqrt(reps - 1)


def test_complete_profile_extends_prefixes_to_permutations():
    rng = np.random.default_rng(3)
    prefs = complete_profile([[2, 0], [1], []], 3, rng)
    assert prefs[0].tolist()[:2] == [2, 0]
    assert prefs[1].tolist()[0] == 1
    for row in prefs:
        assert sorted(row.tolist()) == [0, 1, 2]

"""Exact ground truth on tiny markets by exhaustive enumeration.

Everything here is deliberately independent of the mechanism
implementations: stable matchings are found by checking all n! assignments,
the student-optimal one is selected by rank domination, serial dictatorship
is re-derived with a five-line greedy loop, and envy degrees are counted
straight from the definition. Means are exact rationals, so equality with
closed forms is exact, not approximate.

The deferred-acceptance enumeration is one single-threaded pass over the
profile space that finds each profile's stable set once. A caller that
checks more per profile (`envylab verify` cross-checks the mechanisms
against the stable set and the student optimum) passes a `visit`
callback and rides along on that pass instead of walking the space again.

That pass factors the blocking-pair test in two. For each assignment, a
student table gives an envy mask (bit i*n+s: student i prefers school s to
her own) and a priority table gives a priority mask (bit i*n+s: school s
ranks student i above its holder). A pair blocks exactly when it is in
both masks, so an assignment is stable exactly when they do not intersect.
The (n!)^n tables per side are masked once each, not once per profile.
The student optimum and its envy degrees depend only on the student table
and the stable set, so they are computed once per such pair.

Full profile spaces explode as (n!)^(2n); enumeration is capped at n = 3
(46,656 profiles) and single-instance stable-set enumeration at n = 6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .market import MarketInstance
from .mechanisms import Matching

PROFILE_ENUMERATION_CAP = 3
STABLE_SET_CAP = 6


class EnumerationSizeError(ValueError):
    """Requested enumeration exceeds the configured size guard."""


def harmonic_exact(n: int) -> Fraction:
    """H_n as an exact rational."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class ExactExpectation:
    """Exact mean statistics over an exhaustively enumerated profile space."""

    n: int
    mechanism: str
    unenvied_mean: Fraction
    envy_nobody_mean: Fraction
    profile_count: int


# ---------------------------------------------------------------------------
# Definitional building blocks on plain tuples (no numpy in the inner loops)
# ---------------------------------------------------------------------------

def _rank_table(rows):
    """table[i][x] = position of x in rows[i]."""
    n = len(rows)
    table = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for pos, x in enumerate(row):
            table[i][x] = pos
    return table


def _degree_counts(rank, assignment):
    """(in_degree, out_degree) of the envy graph, from the definition."""
    n = len(rank)
    indeg = [0] * n
    outdeg = [0] * n
    for i in range(n):
        row = rank[i]
        own = row[assignment[i]]
        for j in range(n):
            if j != i and row[assignment[j]] < own:
                outdeg[i] += 1
                indeg[j] += 1
    return indeg, outdeg


def _is_stable(rank, srank, assignment):
    """No student and school prefer each other to their assignments."""
    n = len(rank)
    holder = [0] * n
    for i, s in enumerate(assignment):
        holder[s] = i
    for i in range(n):
        row = rank[i]
        own = row[assignment[i]]
        for s in range(n):
            if row[s] < own and srank[s][i] < srank[s][holder[s]]:
                return False
    return True


def _envy_masks(rank, assignments):
    """Per assignment, bit i*n+s set when student i prefers s to her own school."""
    n = len(rank)
    masks = []
    for m in assignments:
        mask = 0
        for i in range(n):
            row = rank[i]
            own = row[m[i]]
            for s in range(n):
                if row[s] < own:
                    mask |= 1 << (i * n + s)
        masks.append(mask)
    return masks


def _priority_masks(srank, assignments):
    """Per assignment, bit i*n+s set when school s ranks student i above its holder."""
    n = len(srank)
    masks = []
    for m in assignments:
        mask = 0
        for holder, s in enumerate(m):
            row = srank[s]
            held = row[holder]
            for i in range(n):
                if row[i] < held:
                    mask |= 1 << (i * n + s)
        masks.append(mask)
    return masks


def _stable_assignments(envy, priority):
    """Indices of the assignments whose envy and priority masks are disjoint."""
    return tuple([k for k in range(len(envy)) if not envy[k] & priority[k]])


def _student_optimal(rank, stable):
    """The stable assignment every student weakly prefers to all others.

    Selected by rank domination over the full stable set; existence and
    uniqueness are asserted rather than assumed.
    """
    if not stable:
        raise RuntimeError("no stable assignment found; enumeration is broken")
    n = len(rank)
    best = [min(rank[i][m[i]] for m in stable) for i in range(n)]
    optima = [m for m in stable if all(rank[i][m[i]] == best[i] for i in range(n))]
    if len(optima) != 1:
        raise RuntimeError(f"expected a unique student-optimal stable assignment, found {len(optima)}")
    return optima[0]


def _rsd_assignment(prefs, order):
    n = len(prefs)
    taken = [False] * n
    assignment = [0] * n
    for i in order:
        for s in prefs[i]:
            if not taken[s]:
                assignment[i] = s
                taken[s] = True
                break
    return assignment


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _check_profile_cap(n: int, size_cap: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > size_cap:
        raise EnumerationSizeError(
            f"full profile enumeration is capped at n = {size_cap} "
            f"((n!)^(2n) profiles); got n = {n}")


def iter_profiles(n: int):
    """All (student_prefs, school_priorities) profiles of size n, as tuples."""
    perms = list(itertools.permutations(range(n)))
    for prefs in itertools.product(perms, repeat=n):
        for prios in itertools.product(perms, repeat=n):
            yield prefs, prios


def enumerate_expected_unenvied_da(n: int, size_cap: int = PROFILE_ENUMERATION_CAP,
                                   visit: Callable[..., None] | None = None) -> ExactExpectation:
    """Exact envy expectations under deferred acceptance, over all profiles.

    Per profile, the outcome is the student-optimal stable assignment found
    by brute force, in one pass on the calling thread. `visit`, if given,
    is called once per profile as `visit(prefs, prios, rank, stable,
    optimal)`: the profile as tuples, the student rank table, the stable
    assignments (a tuple of tuples) and the student-optimal one. `stable`
    and `rank` are shared by many profiles and are read-only.
    """
    _check_profile_cap(n, size_cap)
    perms = list(itertools.permutations(range(n)))
    prio_tables = [(prios, _priority_masks(_rank_table(prios), perms))
                   for prios in itertools.product(perms, repeat=n)]
    unenvied_sum = 0
    envy_nobody_sum = 0
    count = 0
    for prefs in itertools.product(perms, repeat=n):
        rank = _rank_table(prefs)
        envy = _envy_masks(rank, perms)
        outcomes = {}  # stable indices -> (stable, optimal, unenvied, envy nobody)
        for prios, priority in prio_tables:
            key = _stable_assignments(envy, priority)
            outcome = outcomes.get(key)
            if outcome is None:
                stable = tuple(perms[k] for k in key)
                optimal = _student_optimal(rank, stable)
                indeg, outdeg = _degree_counts(rank, optimal)
                outcome = outcomes[key] = (stable, optimal, indeg.count(0), outdeg.count(0))
            stable, optimal, unenvied, envy_nobody = outcome
            if visit is not None:
                visit(prefs, prios, rank, stable, optimal)
            unenvied_sum += unenvied
            envy_nobody_sum += envy_nobody
            count += 1
    return ExactExpectation(n=n, mechanism="da",
                            unenvied_mean=Fraction(unenvied_sum, count),
                            envy_nobody_mean=Fraction(envy_nobody_sum, count),
                            profile_count=count)


def enumerate_expected_rsd(n: int, size_cap: int = PROFILE_ENUMERATION_CAP) -> ExactExpectation:
    """Exact serial dictatorship means over all (preferences, order) pairs.

    School priorities never enter a serial dictatorship run, so they are
    not enumerated; profile_count is (n!)^n preference profiles times n!
    choosing orders.
    """
    _check_profile_cap(n, size_cap)
    perms = list(itertools.permutations(range(n)))
    unenvied_sum = 0
    envy_nobody_sum = 0
    count = 0
    for prefs in itertools.product(perms, repeat=n):
        rank = _rank_table(prefs)
        for order in perms:
            assignment = _rsd_assignment(prefs, order)
            indeg, outdeg = _degree_counts(rank, assignment)
            unenvied_sum += sum(1 for d in indeg if d == 0)
            envy_nobody_sum += sum(1 for d in outdeg if d == 0)
            count += 1
    return ExactExpectation(n=n, mechanism="rsd",
                            unenvied_mean=Fraction(unenvied_sum, count),
                            envy_nobody_mean=Fraction(envy_nobody_sum, count),
                            profile_count=count)


# ---------------------------------------------------------------------------
# Stable-set enumeration for a single instance
# ---------------------------------------------------------------------------

def _market_tables(market: MarketInstance):
    prefs = tuple(tuple(row) for row in market.student_prefs.tolist())
    prios = tuple(tuple(row) for row in market.school_priorities.tolist())
    return _rank_table(prefs), _rank_table(prios)


def _check_stable_cap(n: int, size_cap: int):
    if n > size_cap:
        raise EnumerationSizeError(
            f"stable-set enumeration is capped at n = {size_cap} (n! assignments); got n = {n}")


def all_stable_matchings(market: MarketInstance, size_cap: int = STABLE_SET_CAP) -> list[Matching]:
    """Every stable matching of one instance, by checking all n! assignments."""
    n = market.n
    _check_stable_cap(n, size_cap)
    rank, srank = _market_tables(market)
    return [Matching(assignment=np.array(m, dtype=np.int64))
            for m in itertools.permutations(range(n)) if _is_stable(rank, srank, m)]


def student_optimal_from(market: MarketInstance, stable: list[Matching]) -> Matching:
    """Select the student-optimal matching from an already-enumerated stable set."""
    prefs = tuple(tuple(row) for row in market.student_prefs.tolist())
    rank = _rank_table(prefs)
    optimal = _student_optimal(rank, [tuple(m.assignment.tolist()) for m in stable])
    return Matching(assignment=np.array(optimal, dtype=np.int64))


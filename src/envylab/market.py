"""Market instances, preference generation (eager and lazy), and seeding.

A market of size n has n students and n schools. Every student ranks all n
schools strictly; every school ranks all n students strictly. Preferences
and priorities are drawn independently and uniformly over permutations.

Lazy generation has one primitive, `_school_draws`: a raw stream of
uniform school ids, drawn from a generator in chunks. A reader that keeps
a student's row and discards a draw already in it reveals a prefix of a
uniformly random ranking, so a run only ever pays for the prefix it
actually reads. Every generator comes from `derive_generator`, the one
seeding scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

MAX_SEED = 2**64 - 1

# Uniform draws are taken from the generator in chunks of min(_DRAW_CHUNK,
# 4n) values: a run reads about n*H_n of them, and at small n a full chunk
# would cost more than the run itself.
_DRAW_CHUNK = 4096


@dataclass(frozen=True)
class Seed:
    """Reproducible seed: a master value plus a replication counter.

    Equal (master_seed, replication_index) pairs derive bit-identical
    generators; distinct replication indices derive independent streams.
    """

    master_seed: int
    replication_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.replication_index < 0:
            raise ValueError(f"replication_index must be >= 0, got {self.replication_index}")

    def generator(self) -> np.random.Generator:
        return derive_generator(self.master_seed, self.replication_index)


def as_seed(seed: Seed | int) -> Seed:
    """Coerce a bare integer into a Seed with replication index 0."""
    if isinstance(seed, Seed):
        return seed
    return Seed(master_seed=int(seed))


def derive_generator(master_seed: int, *context: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and integer context.

    The context words (e.g. mechanism id, market size, replication index)
    are hashed into the seed sequence, so streams for different contexts
    never collide and never depend on scheduling order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), *map(int, context))))


def _school_draws(n: int, rng: np.random.Generator) -> Iterator[int]:
    """The raw stream of uniform school ids, drawn in chunks of min(_DRAW_CHUNK, 4n).

    A chunk is drawn only when the previous one is used up, so a generator
    shared with other streams sees its calls in a fixed order.
    """
    chunk = min(_DRAW_CHUNK, 4 * n)
    return chain.from_iterable(iter(lambda: rng.integers(0, n, size=chunk).tolist(), None))


def _permutation_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """(rows, n) array whose rows are independent uniform permutations of 0..n-1."""
    base = np.tile(np.arange(n), (rows, 1))
    return rng.permuted(base, axis=1)


def _inverse_rows(perm: np.ndarray) -> np.ndarray:
    """Row-wise inverse: out[i, perm[i, k]] = k."""
    rows, n = perm.shape
    inv = np.empty_like(perm)
    inv[np.arange(rows)[:, None], perm] = np.arange(n)
    return inv


@dataclass(eq=False)
class MarketInstance:
    """One market: full strict preferences on both sides.

    student_prefs[i] lists school indices, most preferred first.
    school_priorities[s] lists student indices, highest priority first.
    Both arrays are read-only after construction and safe to share across
    threads. The inverse rank tables are built once: student i prefers
    school a to school b exactly when student_rank[i, a] <
    student_rank[i, b]. The private `_pair` builds a market from the
    tables of two markets that are already validated, so a caller that
    reuses a few tables across many profiles checks and inverts each once.
    """

    student_prefs: np.ndarray
    school_priorities: np.ndarray
    student_rank: np.ndarray = field(init=False, repr=False)
    school_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.student_prefs = np.ascontiguousarray(self.student_prefs, dtype=np.int64)
        self.school_priorities = np.ascontiguousarray(self.school_priorities, dtype=np.int64)
        n = self.student_prefs.shape[0]
        if n < 1:
            raise ValueError("market size must be >= 1")
        if self.student_prefs.shape != (n, n) or self.school_priorities.shape != (n, n):
            raise ValueError("preference tables must both be n x n")
        ident = np.arange(n)
        if not (np.sort(self.student_prefs, axis=1) == ident).all():
            raise ValueError("each student_prefs row must be a permutation of 0..n-1")
        if not (np.sort(self.school_priorities, axis=1) == ident).all():
            raise ValueError("each school_priorities row must be a permutation of 0..n-1")
        # student_rank[i, s] = position of school s in i's list (0 = top choice)
        self.student_rank = _inverse_rows(self.student_prefs)
        # school_rank[s, i] = position of student i in s's priority order
        self.school_rank = _inverse_rows(self.school_priorities)
        for arr in (self.student_prefs, self.school_priorities, self.student_rank, self.school_rank):
            arr.setflags(write=False)

    @classmethod
    def _pair(cls, students: MarketInstance, schools: MarketInstance) -> MarketInstance:
        """The market of `students`' preferences and `schools`' priorities.

        Shares the read-only tables of two validated markets of one size
        instead of checking and inverting them again.
        """
        if not (isinstance(students, MarketInstance) and isinstance(schools, MarketInstance)):
            raise TypeError("_pair takes two MarketInstance objects")
        if students.n != schools.n:
            raise ValueError("paired markets must have the same size")
        market = object.__new__(cls)
        market.student_prefs = students.student_prefs
        market.student_rank = students.student_rank
        market.school_priorities = schools.school_priorities
        market.school_rank = schools.school_rank
        return market

    @property
    def n(self) -> int:
        return self.student_prefs.shape[0]


def generate_market(n: int, seed: Seed | int) -> MarketInstance:
    """Draw a market of size n: 2n independent uniform permutations.

    Identical (n, seed) pairs reproduce bit-identical instances. Student
    preferences are drawn before school priorities, in fixed order.
    """
    if n < 1:
        raise ValueError(f"market size must be >= 1, got {n}")
    rng = as_seed(seed).generator()
    student_prefs = _permutation_rows(rng, n, n)
    school_priorities = _permutation_rows(rng, n, n)
    return MarketInstance(student_prefs=student_prefs, school_priorities=school_priorities)


def complete_profile(prefixes: Sequence[Sequence[int]], n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Extend revealed prefixes to full rankings.

    Unrevealed schools are appended in uniformly random order, which is
    exactly the conditional law of the unread tail. The result can be used
    to replay a lazily generated run through any eager mechanism.
    """
    prefs = np.empty((len(prefixes), n), dtype=np.int64)
    for i, prefix in enumerate(prefixes):
        prefix = list(prefix)
        rest = np.setdiff1d(np.arange(n), prefix, assume_unique=False)
        prefs[i, :len(prefix)] = prefix
        prefs[i, len(prefix):] = rng.permuted(rest)
    return prefs

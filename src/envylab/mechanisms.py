"""Matching mechanisms: deferred acceptance, random serial dictatorship,
and top trading cycles.

Deferred acceptance keeps an explicit queue of unmatched students and
processes exactly one proposal per step. On a fixed market its outcome is
invariant to the queue discipline: fifo, lifo and randomized queues return
the same student-optimal matching, and only the proposal log order
differs. `_da_eager_run` is the one eager loop, and it appends a proposal
log entry only when given a list: `sequential_da_on_market` passes one
and returns the log, and `deferred_acceptance`, its unlogged fifo run,
makes exactly the proposals of the round-based algorithm, in the same
order. The eager loop, `ttc` and `blocking_pairs` read the market's
tables one item at a time and copy none of them, so each costs the
entries it touches: O(n + proposals) for deferred acceptance, the
preference prefixes above each student's school for the stability check.

One lazy deferred acceptance engine, `_da_lazy_run`, serves both the Monte
Carlo replications and the logged public `sequential_da`. It reveals each
student's uniform ranking into her own row from one raw stream of school
draws (`market._school_draws`), discarding a draw already in her row, and
decides school priorities by deferred decisions (Knuth, *Mariages
stables*): the c-th distinct proposer to a school outranks every earlier
one with probability 1/c, on a coin from a second chunked stream, so a
school keeps only its holder and proposal count. A run costs time and
memory of the order of the draws it reads, about n*H_n. The raw draws it
consumes are exactly a coupon collector's prefix: the run ends at the draw
that completes the set of schools. `completed_market` rebuilds a full
market with the run's conditional law, on which any deferred acceptance
variant reproduces the run's matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .market import (
    _DRAW_CHUNK,
    MarketInstance,
    Seed,
    _permutation_rows,
    _school_draws,
    as_seed,
    complete_profile,
    derive_generator,
)

QUEUE_DISCIPLINES = ("fifo", "lifo", "random")


def _check_permutation(values, n: int, name: str) -> np.ndarray:
    """`values` as a new int64 array, if it is a permutation of 0..n-1.

    The result never shares memory with `values`, so `Matching` may freeze
    it while the caller keeps writing its own buffer. A Python list is
    checked by sorting it as a list, which is cheaper than numpy at the
    small sizes where lists are passed.
    """
    if isinstance(values, list):
        if len(values) == n and sorted(values) == list(range(n)):
            return np.array(values, dtype=np.int64)
    else:
        arr = np.array(values, dtype=np.int64)
        if arr.shape == (n,) and (np.sort(arr) == np.arange(n)).all():
            return arr
    raise ValueError(f"{name} must be a permutation of 0..{n - 1}")


@dataclass(eq=False)
class Matching:
    """Perfect one-to-one assignment of students to schools."""

    assignment: np.ndarray  # assignment[student] = school

    def __post_init__(self):
        self.assignment = _check_permutation(self.assignment, len(self.assignment), "assignment")
        self.assignment.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def student_at(self) -> np.ndarray:
        """Inverse map: student_at()[school] = student holding it."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.assignment] = np.arange(self.n)
        return inv

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.assignment, other.assignment)

    def __hash__(self):
        return hash(self.assignment.tobytes())


@dataclass
class ProposalLog:
    """Complete audit trail of a one-at-a-time deferred acceptance run.

    entries: one (student, school, accepted, displaced_student_or_None) per
        proposal, in execution order.
    raw_draws: every school id consumed from the raw draw stream, repeats
        included, in draw order: the coupon collector's prefix. Empty for
        runs on eager markets.
    realized_prefixes: per student, the schools proposed to, in preference
        order. The last element is the student's final match.
    """

    n: int
    entries: list[tuple[int, int, bool, int | None]]
    raw_draws: list[int]
    realized_prefixes: list[list[int]]

    @property
    def total_raw_draws(self) -> int:
        return len(self.raw_draws)

    @property
    def total_proposals(self) -> int:
        return len(self.entries)

    def proposals_per_school(self) -> np.ndarray:
        """Distinct proposers per school (each student proposes to a school at most once)."""
        schools = np.array([s for _, s, _, _ in self.entries], dtype=np.int64)
        return np.bincount(schools, minlength=self.n)

    def raw_draw_counts(self) -> np.ndarray:
        """How many times each school appears among consumed raw draws."""
        return np.bincount(np.asarray(self.raw_draws, dtype=np.int64), minlength=self.n)


def completed_market(log: ProposalLog, rng: np.random.Generator) -> MarketInstance:
    """Draw a full market from the conditional law of a run, given its log.

    Revealed prefixes are extended with a uniform ordering of the unread
    tail. School priorities are rebuilt from the entries, school by school:
    an accepted proposer goes on top of the earlier proposers, a rejected
    one into a uniform slot below the holder; the proposers then take a
    uniform subset of the n positions in that order, and the non-proposers
    fill the rest in uniform order. Under deferred decisions this is
    exactly the law of the unrevealed market, and replaying any deferred
    acceptance variant on it reproduces the run's matching.
    """
    n = log.n
    prefs = complete_profile(log.realized_prefixes, n, rng)
    ranked: list[list[int]] = [[] for _ in range(n)]  # per school, proposers best first
    for i, s, accepted, _ in log.entries:
        order = ranked[s]
        order.insert(0 if accepted else 1 + int(rng.integers(len(order))), i)
    # a uniform permutation places the proposers at a uniform subset of
    # positions and the others in uniform order; the proposers' slots then
    # take their rebuilt order
    priorities = _permutation_rows(rng, n, n)
    proposed = np.zeros((n, n), dtype=bool)
    for s, order in enumerate(ranked):
        proposed[s, order] = True
    priorities[proposed[np.arange(n)[:, None], priorities]] = list(chain.from_iterable(ranked))
    return MarketInstance(student_prefs=prefs, school_priorities=priorities)


# ---------------------------------------------------------------------------
# Deferred acceptance
# ---------------------------------------------------------------------------

def deferred_acceptance(market: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance: the student-optimal stable matching.

    The unlogged fifo run of the eager loop, which makes exactly the
    proposals of the round-based algorithm, in the same order. It reads
    at most three table items per proposal, so a run costs O(n +
    proposals), about n*H_n on a uniform market, and allocates O(n).
    """
    return _da_eager_run(market, "fifo", 0, None)[0]


def _proposal_queue(n: int, queue_discipline: str, queue_rng: np.random.Generator | None):
    """The unmatched students of a one-at-a-time run, as (queue, pop, push).

    Student 0 proposes first under every discipline; a random pop takes one
    `queue_rng.integers` call.
    """
    if queue_discipline == "fifo":
        queue = deque(range(n))
        return queue, queue.popleft, queue.append
    if queue_discipline == "lifo":
        queue = list(range(n - 1, -1, -1))
        return queue, queue.pop, queue.append
    if queue_discipline == "random":
        queue = list(range(n))

        def pop():
            idx = int(queue_rng.integers(len(queue)))
            queue[idx], queue[-1] = queue[-1], queue[idx]
            return queue.pop()

        return queue, pop, queue.append
    raise ValueError(f"queue_discipline must be one of {QUEUE_DISCIPLINES}, got {queue_discipline!r}")


def _logged_draws(draws: Iterator[int], out: list[int]) -> Iterator[int]:
    """Pass a draw stream through, appending each consumed draw to `out`."""
    for s in draws:
        out.append(s)
        yield s


def _da_lazy_run(n: int, rng: np.random.Generator, queue_discipline: str = "lifo",
                 log: ProposalLog | None = None) -> tuple[list[int], list[int]]:
    """One deferred acceptance run with both sides revealed lazily.

    Student i's uniform ranking is revealed one school at a time: raw school
    ids come from `_school_draws`, and a draw already in her row `rows[i]`
    is discarded, so her row is a prefix of a uniform ranking whatever order
    students propose in. Schools decide by deferred decisions (Knuth,
    *Mariages stables*): the c-th distinct proposer outranks the holder, the
    best of the c - 1 earlier ones, with probability 1/c, and `u * c < 1.0`
    on a uniform double u differs from that by less than 2^-52. Draws, coins
    and random-queue pops share `rng`, each taken only when needed, so a run
    costs O(proposals), about n*H_n. Returns (distinct proposals received
    per school, proposals made per student); the latter is each student's
    final match rank.

    With a `log`, the run also appends one entry per proposal and every
    consumed raw draw to it, and sets its realized prefixes to the rows. A
    logged run consumes `rng` exactly as an unlogged one.
    """
    draws = _school_draws(n, rng)
    chunk = min(_DRAW_CHUNK, 4 * n)
    coins = chain.from_iterable(iter(lambda: rng.random(chunk).tolist(), None))
    queue, pop, push = _proposal_queue(n, queue_discipline, rng)
    rows: list[list[int]] = [[] for _ in range(n)]
    holder = [-1] * n
    per_school = [0] * n
    if log is not None:
        draws = _logged_draws(draws, log.raw_draws)
        log.realized_prefixes = rows
    while queue:
        i = pop()
        row = rows[i]
        for s in draws:
            if s not in row:
                break
        row.append(s)
        c = per_school[s] + 1
        per_school[s] = c
        j = holder[s]
        if j < 0:
            holder[s] = i
        elif next(coins) * c < 1.0:
            holder[s] = i
            push(j)
        else:
            push(i)
        if log is not None:
            accepted = holder[s] == i
            log.entries.append((i, s, accepted, j if accepted and j >= 0 else None))
    return per_school, list(map(len, rows))


def sequential_da(n: int, seed: Seed | int,
                  queue_discipline: str = "lifo") -> tuple[Matching, ProposalLog]:
    """Deferred acceptance with one unmatched student proposing at a time.

    A logged run of `_da_lazy_run`, the engine of the Monte Carlo
    replications, on `as_seed(seed).generator()`: student preferences are
    revealed lazily from one raw draw stream and school priorities by
    deferred decisions; `completed_market` rebuilds a full market
    consistent with the run. The run ends exactly when every school has
    appeared among the consumed draws.

    Draws, coins and random-queue pops share one stream, so the market a
    seed realizes depends on the queue discipline: two disciplines on one
    seed run on different markets and may return different matchings.
    Queue invariance is a property of deferred acceptance on a fixed
    market; `sequential_da_on_market` is the reference for it.
    """
    if n < 1:
        raise ValueError(f"market size must be >= 1, got {n}")
    log = ProposalLog(n=n, entries=[], raw_draws=[], realized_prefixes=[])
    _da_lazy_run(n, as_seed(seed).generator(), queue_discipline, log)
    assignment = np.array([row[-1] for row in log.realized_prefixes], dtype=np.int64)
    return Matching(assignment=assignment), log


def sequential_da_on_market(market: MarketInstance, queue_discipline: str = "lifo",
                            queue_seed: int = 0) -> tuple[Matching, ProposalLog]:
    """One-at-a-time deferred acceptance on an eager market.

    The eager reference for queue invariance: every queue discipline returns
    the student-optimal stable matching. A random queue pops from
    `derive_generator(queue_seed)`, built only for that discipline. School
    s prefers proposer i to its holder j when school_rank[s, i] <
    school_rank[s, j]. The raw draw log is empty.
    """
    entries: list[tuple[int, int, bool, int | None]] = []
    matching, next_choice = _da_eager_run(market, queue_discipline, queue_seed, entries)
    prefs = market.student_prefs
    log = ProposalLog(n=market.n, entries=entries, raw_draws=[],
                      realized_prefixes=[prefs[i, :k].tolist() for i, k in enumerate(next_choice)])
    return matching, log


def _da_eager_run(market: MarketInstance, queue_discipline: str, queue_seed: int,
                  entries: list | None) -> tuple[Matching, list[int]]:
    """The eager loop: (matching, proposals made per student).

    With an `entries` list, appends one (student, school, accepted,
    displaced_or_None) entry per proposal to it; with None, logs nothing.
    """
    n = market.n
    pref = market.student_prefs.item
    rank = market.school_rank.item
    queue_rng = derive_generator(queue_seed) if queue_discipline == "random" else None
    queue, pop, push = _proposal_queue(n, queue_discipline, queue_rng)
    next_choice = [0] * n
    holder = [-1] * n
    while queue:
        i = pop()
        s = pref(i, next_choice[i])
        next_choice[i] += 1
        j = holder[s]
        if j < 0:
            holder[s] = i
        elif rank(s, i) < rank(s, j):
            holder[s] = i
            push(j)
        else:
            push(i)
        if entries is not None:
            accepted = holder[s] == i
            entries.append((i, s, accepted, j if accepted and j >= 0 else None))
    assignment = [0] * n
    for school, student in enumerate(holder):
        assignment[student] = school
    return Matching(assignment=assignment), next_choice


# ---------------------------------------------------------------------------
# Serial dictatorship and top trading cycles
# ---------------------------------------------------------------------------

def rsd(market: MarketInstance, order: Sequence[int] | np.ndarray) -> Matching:
    """Serial dictatorship: students pick their best remaining school in turn.

    order[0] picks first; `order` is a list or an array holding a
    permutation of 0..n-1.
    """
    assignment = _serial_choice(market.student_rank, _check_permutation(order, market.n, "order"))
    return Matching(assignment=assignment)


def _serial_choice(student_rank: np.ndarray, order: np.ndarray) -> np.ndarray:
    n = len(order)
    taken_penalty = np.zeros(n, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    for i in order:
        s = int((student_rank[i] + taken_penalty).argmin())
        assignment[i] = s
        taken_penalty[s] = 2 * n  # larger than any rank, so never chosen again
    return assignment


def ttc(market: MarketInstance, owns: Sequence[int] | np.ndarray) -> Matching:
    """Top trading cycles from an initial ownership: owns[student] = school.

    `owns` is a list or an array holding a permutation of 0..n-1. Every
    unassigned student points at the owner of her favorite remaining
    school; cycles trade and leave. Pointer chasing with per-round stamps
    finds each cycle in amortized linear time. Each student's pointer
    reads her preference row only up to the school she trades for, one
    table item at a time, so no n x n table is copied.
    """
    owns = _check_permutation(owns, market.n, "owns")
    assignment = _ttc_assign(market.student_prefs, owns)
    return Matching(assignment=assignment)


def _ttc_assign(prefs: np.ndarray, owns: np.ndarray) -> np.ndarray:
    n = len(owns)
    pref = prefs.item
    owner_of = np.empty(n, dtype=np.int64)
    owner_of[owns] = np.arange(n)
    owner_of = owner_of.tolist()
    ptr = [0] * n
    assigned = [-1] * n
    removed = bytearray(n)
    stamp = [-1] * n
    chase = 0

    for start in range(n):
        # a chase may resolve a cycle that excludes its own starting node,
        # so repeat until the start itself has traded
        while assigned[start] < 0:
            chase += 1
            path = []
            i = start
            while stamp[i] != chase:
                stamp[i] = chase
                path.append(i)
                p = ptr[i]
                s = pref(i, p)
                while removed[s]:
                    p += 1
                    s = pref(i, p)
                ptr[i] = p
                i = owner_of[s]
            # i closed a cycle within the current path; everyone on it trades
            for j in path[path.index(i):]:
                s = pref(j, ptr[j])
                assigned[j] = s
                removed[s] = 1
    return np.array(assigned, dtype=np.int64)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

def blocking_pairs(market: MarketInstance, matching: Matching) -> list[tuple[int, int]]:
    """All (student, school) pairs that would rather match with each other.

    A pair (i, s) blocks when i prefers s to her assigned school and s
    ranks i above the student it currently holds. Deferred acceptance
    output admits no blocking pair. Only the schools i prefers to her own
    can block with her, so the check walks each student's preference
    prefix above her school, the envy graph's edges: O(n + envy edges),
    about n*H_n on a stable matching and n^2/2 on a uniformly random one.
    Pairs come sorted, student first, as Python ints.
    """
    pref = market.student_prefs.item
    own_rank = market.student_rank.item
    rank = market.school_rank.item
    assignment = matching.assignment.tolist()
    # holder_rank[s] = school s's rank of the student it holds
    holder_rank = [0] * len(assignment)
    for i, s in enumerate(assignment):
        holder_rank[s] = rank(s, i)
    pairs = []
    for i, s in enumerate(assignment):
        for k in range(own_rank(i, s)):
            t = pref(i, k)
            if rank(t, i) < holder_rank[t]:
                pairs.append((i, t))
    pairs.sort()  # each student's pairs come in preference order
    return pairs

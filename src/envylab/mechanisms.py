"""Matching mechanisms: deferred acceptance, its one-proposal-at-a-time
variant, random serial dictatorship, and top trading cycles.

The one-at-a-time variant keeps an explicit queue of unmatched students and
processes exactly one proposal per step. Its outcome is invariant to the
queue discipline, so fifo, lifo, and randomized queues all reproduce the
round-based algorithm's matching; only the proposal log order differs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .market import (
    LazyPreferenceStream,
    MarketInstance,
    Seed,
    _permutation_rows,
    as_seed,
    complete_profile,
)

QUEUE_DISCIPLINES = ("fifo", "lifo", "random")


def _check_permutation(arr: np.ndarray, n: int, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.shape != (n,) or not (np.sort(arr) == np.arange(n)).all():
        raise ValueError(f"{name} must be a permutation of 0..{n - 1}")
    return arr


@dataclass(eq=False)
class Matching:
    """Perfect one-to-one assignment of students to schools."""

    assignment: np.ndarray  # assignment[student] = school

    def __post_init__(self):
        self.assignment = _check_permutation(np.asarray(self.assignment), len(self.assignment),
                                             "assignment")
        self.assignment.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def school_of(self, student: int) -> int:
        return int(self.assignment[student])

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


@dataclass(frozen=True)
class SerialOrder:
    """Choosing order for serial dictatorship; order[0] picks first."""

    order: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order",
                           _check_permutation(np.asarray(self.order), len(self.order), "order"))


@dataclass(frozen=True)
class Endowment:
    """Initial ownership for top trading cycles; owns[student] = school."""

    owns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "owns",
                           _check_permutation(np.asarray(self.owns), len(self.owns), "owns"))


@dataclass
class ProposalLog:
    """Complete audit trail of a one-at-a-time deferred acceptance run.

    entries: one (student, school, accepted, displaced_student_or_None) per
        proposal, in execution order.
    raw_draws: every (student, school) draw consumed by lazy preference
        streams, repeats included. Empty for runs on eager markets.
    realized_prefixes: per student, the schools proposed to, in preference
        order. The last element is the student's final match.
    school_rank: priority table used for acceptances; school_rank[s, i] is
        student i's position in school s's order (0 = highest).
    """

    n: int
    entries: list[tuple[int, int, bool, int | None]]
    raw_draws: list[tuple[int, int]]
    realized_prefixes: list[list[int]]
    school_rank: np.ndarray

    @property
    def total_raw_draws(self) -> int:
        return len(self.raw_draws)

    @property
    def total_proposals(self) -> int:
        return len(self.entries)

    def proposals_per_school(self) -> np.ndarray:
        """Distinct proposers per school (each student proposes to a school at most once)."""
        counts = np.zeros(self.n, dtype=np.int64)
        for _, school, _, _ in self.entries:
            counts[school] += 1
        return counts

    def raw_draw_counts(self) -> np.ndarray:
        """How many times each school appears among consumed raw draws."""
        counts = np.zeros(self.n, dtype=np.int64)
        for _, school in self.raw_draws:
            counts[school] += 1
        return counts

    def school_priorities(self) -> np.ndarray:
        """Reconstruct priority lists (highest first) from the rank table."""
        return np.argsort(self.school_rank, axis=1, kind="stable")


def completed_market(log: ProposalLog, rng: np.random.Generator) -> MarketInstance:
    """Materialize a full market consistent with a lazily generated run.

    Revealed prefixes are extended with a random ordering of the unread
    tail; school priorities are taken from the run itself. Replaying any
    deferred acceptance variant on the result reproduces the run's matching.
    """
    prefs = complete_profile(log.realized_prefixes, log.n, rng)
    return MarketInstance(student_prefs=prefs, school_priorities=log.school_priorities())


# ---------------------------------------------------------------------------
# Deferred acceptance
# ---------------------------------------------------------------------------

def deferred_acceptance(market: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance (round-based).

    Each school holds its highest-priority applicant so far; rejected
    students move their pointer down their list. Runs in O(total proposals)
    and returns the student-optimal stable matching.
    """
    n = market.n
    prefs = market.student_prefs.tolist()
    srank = market.school_rank.tolist()
    next_choice = [0] * n
    holder = [-1] * n
    unmatched = list(range(n))
    while unmatched:
        next_round = []
        for i in unmatched:
            s = prefs[i][next_choice[i]]
            next_choice[i] += 1
            j = holder[s]
            if j < 0:
                holder[s] = i
            elif srank[s][i] < srank[s][j]:
                holder[s] = i
                next_round.append(j)
            else:
                next_round.append(i)
        unmatched = next_round
    return _matching_from_holder(holder)


def _matching_from_holder(holder: list[int]) -> Matching:
    assignment = np.empty(len(holder), dtype=np.int64)
    for school, student in enumerate(holder):
        assignment[student] = school
    return Matching(assignment=assignment)


def _proposal_queue(n: int, queue_discipline: str, queue_rng: np.random.Generator):
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


def _run_sequential(n: int,
                    next_school: Callable[[int], int],
                    school_rank: np.ndarray,
                    queue_discipline: str,
                    queue_rng: np.random.Generator,
                    entries: list) -> list[int]:
    """One-proposal-at-a-time engine of the logged public API.

    Serves `sequential_da` and `sequential_da_on_market`; the Monte Carlo
    replications run their own lazy loop. School s prefers proposer i to
    its holder j when school_rank[s, i] < school_rank[s, j]. Appends one
    entry per proposal and returns holder[school] = student.
    """
    rank = school_rank.tolist()
    holder = [-1] * n
    queue, pop, push = _proposal_queue(n, queue_discipline, queue_rng)
    while queue:
        i = pop()
        s = next_school(i)
        j = holder[s]
        if j < 0:
            holder[s] = i
            entries.append((i, s, True, None))
        elif rank[s][i] < rank[s][j]:
            holder[s] = i
            push(j)
            entries.append((i, s, True, j))
        else:
            push(i)
            entries.append((i, s, False, None))
    return holder


def sequential_da(n: int, seed: Seed | int, queue_discipline: str = "lifo",
                  queue_seed: int | None = None) -> tuple[Matching, ProposalLog]:
    """Deferred acceptance with one unmatched student proposing at a time.

    Student preferences are revealed lazily: each proposal reads the
    student's raw draw stream forward to the first untried school, logging
    every consumed draw. School priorities are drawn eagerly up front. The
    matching is identical for every queue discipline; the run ends exactly
    when every school has appeared among the consumed draws.
    """
    if n < 1:
        raise ValueError(f"market size must be >= 1, got {n}")
    children = as_seed(seed).sequence().spawn(n + 2)
    draw_log: list[tuple[int, int]] = []
    streams = [LazyPreferenceStream(i, n, np.random.default_rng(children[i]), draw_log)
               for i in range(n)]
    school_rank = _permutation_rows(np.random.default_rng(children[n]), n, n)
    if queue_seed is None:
        queue_rng = np.random.default_rng(children[n + 1])
    else:
        queue_rng = np.random.default_rng(np.random.SeedSequence((int(queue_seed),)))

    entries: list[tuple[int, int, bool, int | None]] = []
    holder = _run_sequential(n, lambda i: streams[i].next_proposal(), school_rank,
                             queue_discipline, queue_rng, entries)
    log = ProposalLog(n=n, entries=entries, raw_draws=draw_log,
                      realized_prefixes=[list(st.seen) for st in streams],
                      school_rank=school_rank)
    return _matching_from_holder(holder), log


def sequential_da_on_market(market: MarketInstance, queue_discipline: str = "lifo",
                            queue_seed: int | None = None) -> tuple[Matching, ProposalLog]:
    """One-at-a-time deferred acceptance on an eager market.

    Same engine as `sequential_da` but preferences come from the market, so
    the raw draw log is empty. Useful for checking queue invariance against
    the round-based algorithm on a fixed instance.
    """
    n = market.n
    prefs = market.student_prefs.tolist()
    next_choice = [0] * n

    def next_school(i: int) -> int:
        s = prefs[i][next_choice[i]]
        next_choice[i] += 1
        return s

    queue_rng = np.random.default_rng(np.random.SeedSequence((0 if queue_seed is None else int(queue_seed),)))
    entries: list[tuple[int, int, bool, int | None]] = []
    holder = _run_sequential(n, next_school, market.school_rank,
                             queue_discipline, queue_rng, entries)
    log = ProposalLog(n=n, entries=entries, raw_draws=[],
                      realized_prefixes=[prefs[i][:next_choice[i]] for i in range(n)],
                      school_rank=market.school_rank)
    return _matching_from_holder(holder), log


# ---------------------------------------------------------------------------
# Serial dictatorship and top trading cycles
# ---------------------------------------------------------------------------

def rsd(market: MarketInstance, order: SerialOrder | Sequence[int]) -> Matching:
    """Serial dictatorship: students pick their best remaining school in turn."""
    order_arr = order.order if isinstance(order, SerialOrder) else \
        _check_permutation(np.asarray(order), market.n, "order")
    assignment = _serial_choice(market.student_rank, order_arr)
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


def ttc(market: MarketInstance, endowment: Endowment | Sequence[int]) -> Matching:
    """Top trading cycles from an initial ownership.

    Every unassigned student points at the owner of her favorite remaining
    school; cycles trade and leave. Pointer chasing with per-round stamps
    finds each cycle in amortized linear time.
    """
    owns = endowment.owns if isinstance(endowment, Endowment) else \
        _check_permutation(np.asarray(endowment), market.n, "owns")
    assignment = _ttc_assign(market.student_prefs.tolist(), owns)
    return Matching(assignment=assignment)


def _ttc_assign(prefs: list[list[int]], owns: np.ndarray) -> np.ndarray:
    n = len(prefs)
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
                row = prefs[i]
                p = ptr[i]
                while removed[row[p]]:
                    p += 1
                ptr[i] = p
                i = owner_of[row[p]]
            # i closed a cycle within the current path; everyone on it trades
            for j in path[path.index(i):]:
                s = prefs[j][ptr[j]]
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
    output admits no blocking pair.
    """
    n = market.n
    assignment = matching.assignment
    own_rank = market.student_rank[np.arange(n), assignment]
    student_prefers = market.student_rank < own_rank[:, None]  # (i, s)
    holder = matching.student_at()
    holder_rank = market.school_rank[np.arange(n), holder]
    school_prefers = market.school_rank < holder_rank[:, None]  # (s, i)
    blocked = student_prefers & school_prefers.T
    return [(int(i), int(s)) for i, s in np.argwhere(blocked)]

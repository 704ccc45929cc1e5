"""Coupon collector process: draw uniformly over n types until all appear.

A "singleton" is a type drawn exactly once by the stopping time. The last
type to appear is always a singleton, so there is at least one per run.
The expected singleton count equals the n-th harmonic number, which is
what ties this process to deferred acceptance: the schools drawn exactly
once across a lazily generated run are the schools nobody is displaced
from, i.e. the matches of the unenvied students. The collector reads the
same raw stream of school draws as the lazy engines
(`market._school_draws`), so on one generator it sees exactly the draws
that serial dictatorship and top trading cycles read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import Seed, _school_draws, as_seed
from .mechanisms import ProposalLog


@dataclass(frozen=True)
class CollectorRun:
    """Outcome of one collector run."""

    n: int
    stopping_time: int
    singleton_count: int

    def __post_init__(self):
        if self.stopping_time < self.n:
            raise ValueError("stopping time cannot be smaller than the number of types")
        if not 1 <= self.singleton_count <= self.n:
            raise ValueError("singleton count must be in 1..n")


def run_collector(n: int, seed: Seed | int) -> CollectorRun:
    """Draw i.i.d. uniform types from `_school_draws` until all n have been seen.

    The stopping time is the number of draws up to and including the
    last type's first appearance; singletons are counted over those draws.
    """
    if n < 1:
        raise ValueError(f"number of types must be >= 1, got {n}")
    counts = [0] * n
    seen = 0
    for stop, s in enumerate(_school_draws(n, as_seed(seed).generator()), 1):
        seen += counts[s] == 0
        counts[s] += 1
        if seen == n:
            break
    return CollectorRun(n=n, stopping_time=stop, singleton_count=counts.count(1))


def singleton_count_from_da(log: ProposalLog) -> int:
    """Schools appearing exactly once among a run's consumed raw draws.

    Per run (not just on average) this equals the number of unenvied
    students of the resulting matching. Requires a lazily generated run;
    market-backed runs have no raw draws.
    """
    if not log.raw_draws:
        raise ValueError("run has no raw draw log; use a lazily generated run")
    counts = log.raw_draw_counts()
    return int(np.count_nonzero(counts == 1))

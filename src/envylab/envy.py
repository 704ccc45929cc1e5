"""Envy graphs and the two headline statistics of a matching.

The envy graph of a matching puts an edge i -> j whenever student i
strictly prefers j's school to her own. Two degree counts summarize it:
students nobody envies (in-degree 0) and students who envy nobody
(out-degree 0; with complete strict preferences these are exactly the
students holding their top choice). One routine builds the graph: it reads
each student's preference prefix above her own school, so it costs time
and memory of the order of n plus the edge count at every size.

The rank histogram is `np.bincount(match_ranks(market, matching) - 1)`;
after a deferred acceptance run, unenvied students hold the schools where
`log.proposals_per_school() == 1`, counted by `singleton_count_from_da`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance
from .mechanisms import Matching


@dataclass(eq=False)
class EnvyGraph:
    """Directed envy relation: (envier, envied) edges and per-student degrees."""

    n: int
    in_degree: np.ndarray
    out_degree: np.ndarray
    edges: list[tuple[int, int]]


def match_ranks(market: MarketInstance, matching: Matching) -> np.ndarray:
    """1-based rank of each student's assigned school (1 = top choice)."""
    n = market.n
    return market.student_rank[np.arange(n), matching.assignment] + 1


def build_envy_graph(market: MarketInstance, matching: Matching) -> EnvyGraph:
    """Envy graph of a matching.

    Student i envies exactly the holders of the rank(i) - 1 schools she
    prefers to her own, so out-degrees are ranks - 1, the edges are read off
    each student's preference prefix, in (envier, envied) order, and
    in-degrees count the envied ends.
    """
    n = market.n
    ranks = match_ranks(market, matching)
    holder = matching.student_at()
    edges = sorted((i, j) for i, r in enumerate(ranks.tolist())
                   for j in holder[market.student_prefs[i, :r - 1]].tolist())
    in_degree = np.bincount(np.array([j for _, j in edges], dtype=np.int64), minlength=n)
    return EnvyGraph(n=n, in_degree=in_degree, out_degree=ranks - 1, edges=edges)


def unenvied_count(graph: EnvyGraph) -> int:
    """Students with in-degree zero: nobody envies them."""
    return int(np.count_nonzero(graph.in_degree == 0))


def envy_nobody_count(graph: EnvyGraph) -> int:
    """Students with out-degree zero: they envy nobody.

    With complete strict preferences this equals the number of students
    matched to their top choice.
    """
    return int(np.count_nonzero(graph.out_degree == 0))

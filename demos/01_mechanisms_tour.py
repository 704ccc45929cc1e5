#!/usr/bin/env python3
"""Tour of the three mechanisms on one small random market.

Generates a size-8 market, runs deferred acceptance, serial dictatorship,
and top trading cycles on it, and inspects the envy structure each one
leaves behind.
"""

import numpy as np

from envylab import (
    Seed,
    blocking_pairs,
    build_envy_graph,
    deferred_acceptance,
    envy_nobody_count,
    generate_market,
    match_ranks,
    rsd,
    ttc,
    unenvied_count,
)

n = 8
market = generate_market(n, Seed(master_seed=7))
print(f"random market with {n} students and {n} schools")
print("student 0 ranks schools:", market.student_prefs[0].tolist())
print("school 0 ranks students:", market.school_priorities[0].tolist())
print()

matching = deferred_acceptance(market)
print("deferred acceptance assignment:", matching.assignment.tolist())
print("blocking pairs:", blocking_pairs(market, matching) or "none (stable)")
graph = build_envy_graph(market, matching)
print("envy edges (envier -> envied):", graph.edges)
print(f"unenvied students: {unenvied_count(graph)}   "
      f"students who envy nobody: {envy_nobody_count(graph)}")
ranks = match_ranks(market, matching)
print("match ranks:", ranks.tolist(),
      "histogram:", np.bincount(ranks - 1, minlength=n).tolist())
print()

rng = np.random.default_rng(1)
order = rng.permutation(n)
serial = rsd(market, order)
print("serial dictatorship with order", order.tolist())
print("assignment:", serial.assignment.tolist())
g = build_envy_graph(market, serial)
print(f"first chooser (student {order[0]}) envies "
      f"{int(g.out_degree[order[0]])} students; "
      f"last chooser is envied by {int(g.in_degree[order[-1]])}")
print()

owns = rng.permutation(n)
traded = ttc(market, owns)
print("top trading cycles from endowment", owns.tolist())
print("assignment:", traded.assignment.tolist())
improvements = [int(market.student_rank[i, owns[i]])
                - int(market.student_rank[i, traded.assignment[i]]) for i in range(n)]
print("rank improvement over the endowment per student:", improvements)
print("(never negative: trading only ever helps)")

#!/usr/bin/env python3
"""One-proposal-at-a-time deferred acceptance and the collector connection.

Preferences are revealed from one stream of uniform school draws, a
student discarding a school already in her list. The run consumes exactly
a coupon collector's draws: it stops at the draw that completes the set of
schools. Schools drawn exactly once are the under-demanded ones, and
their holders are precisely the students nobody envies.
"""

import numpy as np

from envylab import (
    Seed,
    build_envy_graph,
    completed_market,
    deferred_acceptance,
    run_collector,
    sequential_da,
    singleton_count_from_da,
    unenvied_count,
)

n = 6
matching, log = sequential_da(n, Seed(master_seed=11))
print(f"sequential run at n = {n}")
print("proposal log (student, school, accepted, displaced):")
for entry in log.entries:
    print("  ", entry)
print("raw school draws consumed, in order (repeats included):", log.raw_draws)
print(f"{log.total_proposals} proposals from {log.total_raw_draws} raw draws")
print()

print("schools with a single distinct proposer:",
      np.flatnonzero(log.proposals_per_school() == 1).tolist())
print("schools drawn exactly once in the raw log:",
      sorted(int(s) for s in np.flatnonzero(log.raw_draw_counts() == 1)))
print("raw-draw singleton count:", singleton_count_from_da(log))

market = completed_market(log, np.random.default_rng(0))
graph = build_envy_graph(market, matching)
print("unenvied students in the envy graph:", unenvied_count(graph))
print("(all four numbers agree, run by run)")
print()

replay = deferred_acceptance(market)
print("replaying the completed profile through eager DA:",
      "same matching" if replay == matching else "MISMATCH")
print()

reps = 20000
da_singletons = []
for rep in range(reps):
    _, lg = sequential_da(20, Seed(master_seed=13, replication_index=rep))
    da_singletons.append(singleton_count_from_da(lg))
collector = [run_collector(20, Seed(master_seed=17, replication_index=rep)).singleton_count
             for rep in range(reps)]
print(f"mean singletons over {reps} runs at n = 20:")
print(f"  from deferred acceptance : {np.mean(da_singletons):.4f}")
print(f"  from plain collector runs: {np.mean(collector):.4f}")
print(f"  harmonic number H_20     : {sum(1 / k for k in range(1, 21)):.4f}")

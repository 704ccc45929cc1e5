"""The lazy Monte Carlo engines against an eager reference, in law.

The replication engines in `envylab.experiments` reveal student
preferences lazily and, under deferred acceptance, decide school
priorities by deferred decisions. The reference draws a full market with
`generate_market`, runs the public eager mechanism and reads the statistics
off the envy graph, so it shares no random stream and no engine code with
them. At small n both must give draws from one distribution.
"""

import numpy as np
import pytest
from scipy import stats

from envylab import (
    ExperimentConfig,
    Seed,
    build_envy_graph,
    deferred_acceptance,
    envy_nobody_count,
    generate_market,
    match_ranks,
    rsd,
    ttc,
    unenvied_count,
)
from envylab.experiments import _replicate
from envylab.market import derive_generator

N = 8
REPS = 20_000
STATISTICS = ("unenvied", "envy_nobody", "total_proposals")
MIN_BIN = 100  # sparse values are pooled until a bin holds this many draws


def _eager_sample(mechanism: str) -> np.ndarray:
    rows = []
    for rep in range(REPS):
        market = generate_market(N, Seed(master_seed=31, replication_index=rep))
        if mechanism == "da":
            matching = deferred_acceptance(market)
        else:
            order = derive_generator(37, rep).permutation(N)
            matching = rsd(market, order) if mechanism == "rsd" else ttc(market, order)
        graph = build_envy_graph(market, matching)
        rows.append((unenvied_count(graph), envy_nobody_count(graph),
                     int(match_ranks(market, matching).sum())))
    return np.array(rows)


@pytest.fixture(scope="module")
def eager():
    return {mechanism: _eager_sample(mechanism) for mechanism in ("da", "rsd", "ttc")}


def _pooled_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 x k counts over value bins; sparse values, both tails included, are pooled."""
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    edges = []  # inclusive upper edge of each bin
    filled = 0
    for value, count in zip(values, counts):
        filled += count
        if filled >= MIN_BIN:
            edges.append(value)
            filled = 0
    edges[-1] = values[-1]  # a sparse upper tail joins the last full bin
    return np.array([np.bincount(np.searchsorted(edges, x), minlength=len(edges))
                     for x in (a, b)])


@pytest.mark.parametrize("mechanism,queue", [("da", "fifo"), ("da", "lifo"), ("da", "random"),
                                             ("rsd", "lifo"), ("ttc", "lifo")])
def test_lazy_engine_matches_eager_reference_in_law(mechanism, queue, eager):
    config = ExperimentConfig(sizes=(N,), replications=REPS, mechanisms=(mechanism,),
                              master_seed=29, queue_discipline=queue)
    lazy = np.array([_replicate(N, mechanism, rep, config)[:3] for rep in range(REPS)])
    for k, name in enumerate(STATISTICS):
        table = _pooled_table(lazy[:, k], eager[mechanism][:, k])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3, f"{mechanism}/{queue} {name}: p = {p_value:.2e}\n{table}"


@pytest.mark.parametrize("mechanism", ["da", "rsd", "ttc"])
def test_one_replication_at_n_100000(mechanism):
    # an n x n table at this size would need tens of gigabytes
    n = 100_000
    config = ExperimentConfig(sizes=(n,), replications=1, mechanisms=(mechanism,))
    unenvied, envy_nobody, total, mean_rank = _replicate(n, mechanism, 0, config)
    assert 1 <= unenvied <= n
    assert 1 <= envy_nobody <= n
    assert total >= n
    assert mean_rank == total / n

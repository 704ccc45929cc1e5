"""envylab: envy statistics in random one-to-one matching markets.

Simulates deferred acceptance (one proposal at a time, on an eager market
or with lazily revealed preferences), random serial dictatorship, and top
trading cycles on uniformly random markets; builds envy graphs; and
checks the closed-form expectations (H_n unenvied students, about n/H_n
students who envy nobody under deferred acceptance, (n+1)/2 top choices
under serial dictatorship) by Monte Carlo and exact enumeration.
"""

from .coupon import CollectorRun, run_collector, singleton_count_from_da
from .envy import (
    EnvyGraph,
    build_envy_graph,
    envy_nobody_count,
    match_ranks,
    unenvied_count,
)
from .experiments import (
    DEFAULT_SIZE_SWEEP,
    AggregateRecord,
    ExperimentConfig,
    ReplicationRecord,
    aggregate_series,
    read_csv,
    read_per_replication_csv,
    run_experiment,
    write_csv,
    write_per_replication_csv,
)
from .market import (
    MarketInstance,
    Seed,
    complete_profile,
    generate_market,
)
from .mechanisms import (
    Matching,
    ProposalLog,
    blocking_pairs,
    completed_market,
    deferred_acceptance,
    rsd,
    sequential_da,
    sequential_da_on_market,
    ttc,
)
from .oracle import (
    EnumerationSizeError,
    ExactExpectation,
    all_stable_matchings,
    enumerate_expected_rsd,
    enumerate_expected_unenvied_da,
    harmonic_exact,
)
from .theory import (
    Prediction,
    geometric_rank_pmf,
    harmonic,
    predict,
    rsd_position_unenvied_prob,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRecord",
    "CollectorRun",
    "DEFAULT_SIZE_SWEEP",
    "EnumerationSizeError",
    "EnvyGraph",
    "ExactExpectation",
    "ExperimentConfig",
    "MarketInstance",
    "Matching",
    "Prediction",
    "ProposalLog",
    "ReplicationRecord",
    "Seed",
    "aggregate_series",
    "all_stable_matchings",
    "blocking_pairs",
    "build_envy_graph",
    "complete_profile",
    "completed_market",
    "deferred_acceptance",
    "enumerate_expected_rsd",
    "enumerate_expected_unenvied_da",
    "envy_nobody_count",
    "generate_market",
    "geometric_rank_pmf",
    "harmonic",
    "harmonic_exact",
    "match_ranks",
    "predict",
    "read_csv",
    "read_per_replication_csv",
    "rsd",
    "rsd_position_unenvied_prob",
    "run_collector",
    "run_experiment",
    "sequential_da",
    "sequential_da_on_market",
    "singleton_count_from_da",
    "ttc",
    "unenvied_count",
    "write_csv",
    "write_per_replication_csv",
]

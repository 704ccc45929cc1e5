"""The benchmark's workloads and the envylab command line each one runs.

A workload is a plain dict so that run.py can hand it to the workload
process as JSON. `command` is the envylab subcommand; the remaining keys
fix its size, replication count and worker count. `--threads` is always
explicit, so ENVYLAB_THREADS can never choose the worker count.
"""

from __future__ import annotations

import os

MECHANISMS = ["da", "rsd", "ttc"]

WORKLOADS = {
    # n = 100: per-proposal Python loops, per-replication seeding,
    # aggregation and a 3,000-row CSV; the 80 KB tables fit in L2. The only
    # Monte Carlo workload with two workers, so a pool change shows here.
    "mc_n100": {"command": "simulate", "n": 100, "mechanisms": MECHANISMS,
                "reps": 1000, "threads": 2, "band_check": True,
                "moves": "ROADMAP 4 (worker pool), 1-2 (seeding, aggregation, CSV writing)",
                "unchanged": "ROADMAP 3 should gain least here: the n x n tables are small"},
    # n = 3000: the O(n^2) eager tables (72 MB each) dominate and envy takes
    # its degree-only branch. The plain single-worker baseline.
    "mc_n3000": {"command": "simulate", "n": 3000, "mechanisms": MECHANISMS,
                 "reps": 3, "threads": 1, "band_check": False,
                 "moves": "ROADMAP 3 (O(n log n) lazy engine): wall_s and peak_rss_mib",
                 "unchanged": "ROADMAP 4 (worker pool): one worker, so no change"},
    # Exhaustive enumeration of 46,673 tiny markets: per-call overhead in
    # MarketInstance, the oracle and round-based DA; no Monte Carlo engine.
    "verify_n3": {"command": "verify", "max_n": 3, "threads": 2,
                  "moves": "per-call overhead in market, oracle and mechanisms; ROADMAP 4 (oracle pool)",
                  "unchanged": "ROADMAP 3 (lazy Monte Carlo engine is not on this path)"},
}

# Thread variables pinned for every workload process, so that no layer adds
# threads beyond the stated worker count.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def output_paths(out_dir: str) -> tuple[str, str]:
    """Aggregate and per-replication CSV paths of a simulate workload."""
    return os.path.join(out_dir, "aggregate.csv"), os.path.join(out_dir, "per_replication.csv")


def workload_argv(spec: dict, seed: int, out_dir: str) -> list[str]:
    """The exact argv passed to envylab.cli.main for one timed call."""
    threads = ["--threads", str(spec["threads"])]
    if spec["command"] == "verify":
        return ["verify", "--max-n", str(spec["max_n"])] + threads
    aggregate, per_rep = output_paths(out_dir)
    return ["simulate", "--sizes", str(spec["n"]), "--mechanisms", ",".join(spec["mechanisms"]),
            "--reps", str(spec["reps"]), "--seed", str(seed % 2**64)] + threads + \
           ["--out", aggregate, "--per-replication", per_rep]


def warmup_spec(spec: dict) -> dict:
    """The same command at the smallest size: the warm-up call of set-up."""
    if spec["command"] == "verify":
        return dict(spec, max_n=1)
    return dict(spec, n=4, reps=2, band_check=False)


def table_bytes(spec: dict) -> int:
    """Bytes of one n x n int64 table at the workload's largest size."""
    n = spec["max_n"] if spec["command"] == "verify" else spec["n"]
    return n * n * 8

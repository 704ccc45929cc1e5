"""Correctness checks on a workload's outputs.

Every check is counted, passed or failed; `failed_ratio` is failed over
attempted. The checkers read only the files and text the envylab command
line produced, so a corrupted output shows up as a failed check.
"""

from __future__ import annotations

import os

from envylab.coupon import singleton_count_from_da
from envylab.envy import build_envy_graph, unenvied_count
from envylab.experiments import (
    DEFAULT_METRICS,
    read_csv,
    read_per_replication_csv,
    write_csv,
    write_per_replication_csv,
)
from envylab.market import Seed, derive_generator
from envylab.mechanisms import blocking_pairs, completed_market, sequential_da

BAND_SE = 3  # the acceptance suite's band: |mean - prediction| <= 3 SE


class Checks:
    """Counts attempted checks and keeps the label of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _round_trips(path: str, read, write, scratch: str) -> bool:
    """Reading the file and writing the records back reproduces its bytes."""
    write(read(path), scratch)
    try:
        with open(path, "rb") as a, open(scratch, "rb") as b:
            return a.read() == b.read()
    finally:
        os.remove(scratch)


def check_simulate(checks: Checks, spec: dict, rc: int, stdout: str,
                   aggregate_path: str, per_rep_path: str,
                   reference: bytes | None) -> bytes | None:
    """Check one `simulate` call; returns the aggregate CSV bytes.

    `reference` is the aggregate CSV of the run's first call with the same
    seed; every later call must reproduce it byte for byte.
    """
    n, mechanisms, reps = spec["n"], spec["mechanisms"], spec["reps"]
    lines = stdout.splitlines()
    checks.check(rc == 0, "simulate exit code 0")
    checks.check(f"wrote {aggregate_path}" in lines and f"wrote {per_rep_path}" in lines,
                 "simulate reports both CSVs written")
    try:
        records = read_csv(aggregate_path)
        rows = read_per_replication_csv(per_rep_path)
    except (OSError, ValueError) as exc:
        checks.check(False, f"CSVs parse: {exc}")
        return None
    checks.check([(r.n, r.mechanism, r.metric) for r in records]
                 == [(n, m, metric) for m in mechanisms for metric in DEFAULT_METRICS],
                 "aggregate CSV has one row per mechanism and metric")
    checks.check([(r.n, r.mechanism, r.replication) for r in rows]
                 == [(n, m, rep) for m in mechanisms for rep in range(reps)],
                 "per-replication CSV has one row per mechanism and replication")
    checks.check(_round_trips(aggregate_path, read_csv, write_csv, aggregate_path + ".rt"),
                 "aggregate CSV round-trips through read_csv/write_csv")
    checks.check(_round_trips(per_rep_path, read_per_replication_csv, write_per_replication_csv,
                              per_rep_path + ".rt"),
                 "per-replication CSV round-trips")
    checks.check(all(1 <= r.unenvied <= n for r in rows), "1 <= unenvied <= n")
    checks.check(all(1 <= r.envy_nobody <= n for r in rows), "1 <= envy_nobody <= n")
    checks.check(all(r.total_proposals >= n for r in rows), "total_proposals >= n")
    checks.check(all(r.mean_rank == float(f"{r.total_proposals / n:.6g}") for r in rows),
                 "mean_rank == total_proposals / n to 6 significant digits")
    with open(aggregate_path, "rb") as fh:
        data = fh.read()
    if reference is not None:
        checks.check(data == reference, "aggregate CSV byte-identical across repeats")
    if spec.get("band_check"):
        for r in records:
            if r.prediction_exact:
                checks.check(abs(r.mean - r.prediction) <= BAND_SE * r.std_error,
                             f"{r.mechanism} {r.metric} mean {r.mean} within {BAND_SE} SE "
                             f"({r.std_error}) of {r.prediction}")
    return data


def check_verify(checks: Checks, spec: dict, rc: int, stdout: str) -> None:
    """Check one `verify` call: exit 0, six passed checks per size, none failed."""
    lines = stdout.splitlines()
    checks.check(rc == 0, "verify exit code 0")
    checks.check("all checks passed" in lines, "verify prints 'all checks passed'")
    checks.check(sum(line.startswith("[PASS]") for line in lines) == 6 * spec["max_n"]
                 and not any(line.startswith("[FAIL]") for line in lines),
                 "verify passes six checks per size and fails none")


def check_da_runs(checks: Checks, n: int, seed_words: list[int]) -> None:
    """Deferred acceptance laws on fresh lazy runs, one per seed word.

    Each run is `sequential_da(n, Seed(word))` through the public API, seeded
    with a seed word of the per-replication CSV. It is not the program's own
    replication, whose stream comes from private helpers: these checks test
    the laws on markets of the workload's size, not the CSV's numbers. For
    each run: the completed market has no blocking pair, and the number of
    schools drawn exactly once equals the number of unenvied students.
    """
    for word in seed_words:
        matching, log = sequential_da(n, Seed(word))
        market = completed_market(log, derive_generator(word))
        checks.check(not blocking_pairs(market, matching), f"da n={n} seed {word}: no blocking pairs")
        unenvied = unenvied_count(build_envy_graph(market, matching))
        checks.check(singleton_count_from_da(log) == unenvied,
                     f"da n={n} seed {word}: singleton count == unenvied count")

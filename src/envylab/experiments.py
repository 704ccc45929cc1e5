"""Monte Carlo experiment runner: replication loop, aggregation, CSV.

Each replication derives its own generator from (master_seed, mechanism,
size, replication index), so results are bit-identical no matter how many
worker threads execute them. One thread pool serves a whole run: a cell's
replications are split into one contiguous block per worker, and the
results are read back and aggregated, one pass of mean/variance updates,
in replication order.

A replication never builds an n x n table. Every engine reads one chunked
stream of uniform school draws (`market._school_draws`), so a run costs
time and memory of the order of the draws it reads, about n*H_n, rather
than n^2:

- deferred acceptance runs `mechanisms._da_lazy_run`, the lazy engine
  that also serves the public `sequential_da`: each student's ranking is
  revealed into her own row and school priorities are decided by
  deferred decisions;
- serial dictatorship lets students choose in index order, which has the
  law of a uniform random order because students are i.i.d. It is one
  pass over the raw draws: a school is taken at its first draw and envied
  exactly when it is drawn again, so a chooser's draws end at the next
  first occurrence of a school;
- top trading cycles starts from the endowment "student i owns school i",
  uniform in law for the same reason, and reads a student's next school
  only when everything she has read is gone, discarding her repeats
  against one set of read (student, school) pairs.

Each CSV's columns are the fields of its record class, in order.
`AggregateRecord` gives the aggregate header:

    n,mechanism,metric,mean,std_error,replications,prediction,prediction_exact

`ReplicationRecord` gives the optional per-replication header:

    n,mechanism,replication,seed,unenvied,envy_nobody,total_proposals,mean_rank

One writer and one reader serve both by field type: floats carry 6
significant digits, bools are true/false, ints and strings are as they are.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from itertools import chain, islice
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .market import MAX_SEED, _school_draws, derive_generator
from .mechanisms import QUEUE_DISCIPLINES, _da_lazy_run
from .theory import MECHANISMS, harmonic, predict

MECHANISM_ID = {"da": 0, "rsd": 1, "ttc": 2}
METRICS = ("unenvied", "envy_nobody", "mean_rank")
DEFAULT_METRICS = ("unenvied", "envy_nobody")
# The smallest swept size stays inside the regime where the asymptotic
# top-choice prediction n/H_n is accurate to better than 15%; at n = 10 the
# true mean is ~19% above it.
DEFAULT_SIZE_SWEEP = (50, 100, 250, 500, 1000)


def resolve_threads(requested: int | None) -> int:
    """Explicit value, else ENVYLAB_THREADS, else available parallelism; at least 1."""
    source, value = "threads", requested
    if requested is None:
        source, value = "ENVYLAB_THREADS", os.environ.get("ENVYLAB_THREADS")
        if not value:
            return os.cpu_count() or 1
    try:
        threads = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if threads < 1:
        raise ValueError(f"{source} must be >= 1, got {threads}")
    return threads


def _as_int(name: str, value) -> int:
    """`value` as an int if it is an integer of any kind (int, bool, numpy integer)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; equal configs produce byte-identical output."""

    sizes: tuple[int, ...]
    replications: int = 2000
    mechanisms: tuple[str, ...] = ("da",)
    master_seed: int = 0
    output_path: str | None = None
    per_replication_path: str | None = None
    metrics: tuple[str, ...] = DEFAULT_METRICS
    queue_discipline: str = "lifo"
    threads: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_as_int("sizes", n) for n in self.sizes))
        for name in ("replications", "master_seed", "threads"):
            value = getattr(self, name)
            if value is not None:  # threads=None picks the default
                object.__setattr__(self, name, _as_int(name, value))
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.output_path is not None and self.per_replication_path is not None and \
                os.path.realpath(self.output_path) == os.path.realpath(self.per_replication_path):
            raise ValueError(f"output_path and per_replication_path must differ, "
                             f"both name {self.output_path!r}")
        if not self.mechanisms:
            raise ValueError("mechanisms must be nonempty")
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}; choose from {MECHANISMS}")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
        for name in ("sizes", "mechanisms", "metrics"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {','.join(map(str, values))}")
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(f"unknown queue_discipline {self.queue_discipline!r}; "
                             f"choose from {QUEUE_DISCIPLINES}")


class _Record:
    """Base of the CSV records: a subclass's dataclass fields, in order, are its columns."""

    def __eq__(self, other):
        """Field by field, with nan equal to nan, so a record read back equals the one written."""
        if type(other) is not type(self):
            return NotImplemented
        # nan is the only value unequal to itself
        return all(a == b or a != a and b != b for a, b in zip(astuple(self), astuple(other)))


@dataclass(eq=False)
class AggregateRecord(_Record):
    """One (size, mechanism, metric) aggregate with its prediction."""

    n: int
    mechanism: str
    metric: str
    mean: float
    std_error: float
    replications: int
    prediction: float
    prediction_exact: bool


@dataclass(eq=False)
class ReplicationRecord(_Record):
    """Raw metrics of a single replication."""

    n: int
    mechanism: str
    replication: int
    seed: int
    unenvied: int
    envy_nobody: int
    total_proposals: int
    mean_rank: float


CSV_HEADER = tuple(get_type_hints(AggregateRecord))
PER_REPLICATION_HEADER = tuple(get_type_hints(ReplicationRecord))


def _sig6(x: float) -> float:
    """Round through the 6-significant-digit CSV representation."""
    return float(f"{x:.6g}")


def aggregate_series(values: Sequence[float]) -> tuple[float, float]:
    """One-pass mean and standard error, accumulated in the given order.

    The standard error is the sample standard deviation over sqrt(count);
    with a single value it is nan (undefined, flagged as not-a-value).
    """
    count = 0
    mean = 0.0
    m2 = 0.0
    for x in values:
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    if count < 2:
        return mean, float("nan")
    return mean, math.sqrt(m2 / (count - 1) / count)


# ---------------------------------------------------------------------------
# One replication per mechanism
# ---------------------------------------------------------------------------

def _da_replication(n: int, rng: np.random.Generator,
                    queue_discipline: str = "lifo") -> tuple[int, int, int, float]:
    """Envy metrics of one lazy deferred acceptance run.

    A student is unenvied exactly when her school received one distinct
    proposal; she envies nobody exactly when she proposed once.
    """
    per_school, per_student = _da_lazy_run(n, rng, queue_discipline)
    unenvied = per_school.count(1)
    envy_nobody = per_student.count(1)
    total = sum(per_student)
    return unenvied, envy_nobody, total, total / n


def _rsd_replication(n: int, rng: np.random.Generator) -> tuple[int, int, int, float]:
    """One serial dictatorship run, students choosing in index order.

    One pass over the raw draws. A school is taken at its first draw, so
    chooser i reads up to the next first occurrence of a school, and every
    school drawn again is envied. `last[s]` is the last chooser who read s,
    so her own repeats are not counted as reads.
    """
    taken = bytearray(n)
    envied = bytearray(n)
    last = [-1] * n
    i = reads = total = envy_nobody = 0
    for s in _school_draws(n, rng):
        if taken[s]:
            envied[s] = 1
            if last[s] != i:
                last[s] = i
                reads += 1
            continue
        taken[s] = 1
        total += reads + 1
        envy_nobody += not reads
        reads = 0
        i += 1
        if i == n:
            break
    return n - envied.count(1), envy_nobody, total, total / n


def _ttc_replication(n: int, rng: np.random.Generator) -> tuple[int, int, int, float]:
    """One top trading cycles run in which student i owns school i.

    This is the pointer chase of `mechanisms.ttc`, except that a student
    reads her next school only when every school she has read is gone, so
    her row always ends at her pointer. Reads come from `_school_draws`; a
    draw student i has already read is discarded. Read (i, s) pairs are
    kept as keys i*n + s in one set rather than scanned in her row, because
    the rows of late traders grow to about n/2.
    """
    draws = _school_draws(n, rng)
    rows = [[s] for s in islice(draws, n)]  # nobody has read anything yet
    read = {i * n + row[0] for i, row in enumerate(rows)}
    assigned = bytearray(n)
    removed = bytearray(n)
    envied = bytearray(n)
    stamp = [-1] * n
    chase = 0
    for start in range(n):
        # a chase may resolve a cycle that excludes its own starting node,
        # so repeat until the start itself has traded
        while not assigned[start]:
            chase += 1
            path = []
            i = start
            while stamp[i] != chase:
                stamp[i] = chase
                path.append(i)
                row = rows[i]
                s = row[-1]
                while removed[s]:
                    # she prefers s to every later read, her match among
                    # them, so she envies its holder
                    envied[s] = 1
                    base = i * n
                    for s in draws:
                        if base + s not in read:
                            break
                    read.add(base + s)
                    row.append(s)
                i = s  # school s is owned by student s
            # i closed a cycle within the current path; everyone on it trades
            for j in path[path.index(i):]:
                assigned[j] = 1
                removed[rows[j][-1]] = 1
    reads = list(map(len, rows))
    total = sum(reads)
    return n - envied.count(1), reads.count(1), total, total / n


def _replicate(n: int, mechanism: str, rep: int, config: ExperimentConfig):
    """One replication's metrics, plus its seed word when a per-replication CSV is requested.

    The seed word is the 64-bit audit word of the replication's seed
    sequence; reading it does not advance the generator.
    """
    rng = derive_generator(config.master_seed, MECHANISM_ID[mechanism], n, rep)
    if mechanism == "da":
        result = _da_replication(n, rng, config.queue_discipline)
    elif mechanism == "rsd":
        result = _rsd_replication(n, rng)
    else:
        result = _ttc_replication(n, rng)
    if config.per_replication_path is None:
        return result
    return result + (int(rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]),)


def _metric_series(results: list[tuple[int, int, int, float]], metric: str) -> list[float]:
    if metric == "unenvied":
        return [r[0] for r in results]
    if metric == "envy_nobody":
        return [r[1] for r in results]
    return [r[3] for r in results]  # mean_rank


def _metric_prediction(metric: str, n: int, mechanism: str) -> tuple[float, bool]:
    pred = predict(n, mechanism)
    if metric == "unenvied":
        return pred.unenvied_mean, pred.unenvied_exact
    if metric == "envy_nobody":
        return pred.envy_nobody_mean, pred.envy_nobody_exact
    # mean rank: asymptotically H_n under deferred acceptance; exactly
    # (n+1)(H_{n+1} - 1)/n under serial dictatorship (position k's match
    # rank is the minimum of a uniform random (n-k+1)-subset of 1..n), and
    # by distributional equivalence under TTC with random endowments.
    if mechanism == "da":
        return harmonic(n), False
    return (n + 1) * (harmonic(n + 1) - 1.0) / n, True


def run_experiment(config: ExperimentConfig) -> list[AggregateRecord]:
    """Run all (size, mechanism) cells and return aggregate records.

    One pool of `threads` workers, but never more workers than replications,
    serves the whole run. Each worker runs one contiguous block of a cell's
    replications, and results are reduced in replication order, so output
    is identical for any thread count. Writes the aggregate CSV (and
    optionally the per-replication CSV) when paths are configured.
    """
    reps = config.replications
    threads = min(resolve_threads(config.threads), reps)
    _check_writable([config.output_path, config.per_replication_path])
    records: list[AggregateRecord] = []
    per_rep: list[ReplicationRecord] = []
    blocks = [range(reps * k // threads, reps * (k + 1) // threads) for k in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run_blocks = map if pool is None else pool.map
        for n in config.sizes:
            for mechanism in config.mechanisms:
                chunks = run_blocks(lambda block: [_replicate(n, mechanism, r, config) for r in block],
                                    blocks)
                results = [result for chunk in chunks for result in chunk]
                for metric in config.metrics:
                    mean, se = aggregate_series(_metric_series(results, metric))
                    prediction, exact = _metric_prediction(metric, n, mechanism)
                    records.append(AggregateRecord(
                        n=n, mechanism=mechanism, metric=metric,
                        mean=_sig6(mean), std_error=_sig6(se),
                        replications=reps,
                        prediction=_sig6(prediction), prediction_exact=exact))
                if config.per_replication_path is not None:
                    for rep, (unenvied, envy_nobody, total, mean_rank, seed) in enumerate(results):
                        per_rep.append(ReplicationRecord(
                            n=n, mechanism=mechanism, replication=rep, seed=seed,
                            unenvied=unenvied, envy_nobody=envy_nobody,
                            total_proposals=total, mean_rank=_sig6(mean_rank)))
    if config.output_path is not None:
        write_csv(records, config.output_path)
    if config.per_replication_path is not None:
        write_per_replication_csv(per_rep, config.per_replication_path)
    return records


def _check_writable(paths: Sequence[str | None]) -> None:
    """Raise OSError now, not after the sweep, if an output path cannot be written.

    Opens in append mode so an existing file keeps its bytes, and removes a
    file the probe itself created, so a failed run leaves no partial output.
    """
    for path in paths:
        if path is None:
            continue
        existed = os.path.exists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

# Cell text by field type (csv writes int and str fields as they are), and back
_FORMAT = {float: "{:.6g}".format, bool: lambda b: "true" if b else "false"}
_PARSE = {int: int, str: str, float: float, bool: {"true": True, "false": False}.__getitem__}


def _write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV, header line first; every CSV envylab writes goes through here."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(chain([header], rows))


def _write_records(cls: type[_Record], records: Iterable[_Record], path: str) -> None:
    columns = get_type_hints(cls)  # field name -> type, in field order
    records = list(records)  # read once per column
    cells = [map(operator.attrgetter(name), records) for name in columns]
    cells = [map(_FORMAT[t], c) if t in _FORMAT else c for c, t in zip(cells, columns.values())]
    _write_rows(path, list(columns), zip(*cells))


def _read_records(cls: type[_Record], path: str) -> list:
    """Parse a CSV of `cls` records; malformed rows are reported with line numbers."""
    columns = get_type_hints(cls)
    parsers = [_PARSE[t] for t in columns.values()]
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != list(columns):
            raise ValueError(f"{path}:1: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(columns):
                raise ValueError(f"{path}:{lineno}: expected {len(columns)} columns, got {len(row)}")
            try:
                records.append(cls(*[parse(cell) for parse, cell in zip(parsers, row)]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
    return records


def write_csv(records: Iterable[AggregateRecord], path: str) -> None:
    _write_records(AggregateRecord, records, path)


def read_csv(path: str) -> list[AggregateRecord]:
    """Parse an aggregate CSV; malformed rows are reported with line numbers."""
    return _read_records(AggregateRecord, path)


def write_per_replication_csv(records: Iterable[ReplicationRecord], path: str) -> None:
    _write_records(ReplicationRecord, records, path)


def read_per_replication_csv(path: str) -> list[ReplicationRecord]:
    return _read_records(ReplicationRecord, path)

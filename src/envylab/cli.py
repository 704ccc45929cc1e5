"""Command-line front end: simulate, predict, verify, and coupon.

Exit codes: 0 on success, 1 when a check or the run itself fails, 2 on
usage errors (bad flags, size-guard violations). All subcommands are
deterministic given --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from fractions import Fraction

import numpy as np

from . import mechanisms, oracle
from .coupon import run_collector
from .experiments import (
    DEFAULT_SIZE_SWEEP,
    ExperimentConfig,
    _check_writable,
    _write_rows,
    aggregate_series,
    resolve_threads,
    run_experiment,
)
from .market import MarketInstance, Seed
from .theory import harmonic, predict

_USAGE_ERROR = 2
_CHECK_ERROR = 1


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="envylab",
                                     description="Envy statistics in random matching markets")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep with CSV output")
    sim.add_argument("--sizes", type=_int_list, default=list(DEFAULT_SIZE_SWEEP),
                     help="comma-separated market sizes (default: %(default)s)")
    sim.add_argument("--reps", type=int, default=2000,
                     help="replications per cell (default: %(default)s)")
    sim.add_argument("--mechanisms", type=_str_list, default=["da"],
                     help="comma-separated subset of da,rsd,ttc (default: da)")
    sim.add_argument("--seed", type=int, default=42, help="64-bit master seed")
    sim.add_argument("--out", default=None, help="aggregate CSV path")
    sim.add_argument("--per-replication", default=None, dest="per_replication",
                     help="optional per-replication CSV path")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: ENVYLAB_THREADS or available parallelism)")
    sim.add_argument("--queue", choices=mechanisms.QUEUE_DISCIPLINES, default="lifo",
                     help="queue discipline for deferred acceptance runs")

    prd = sub.add_parser("predict", help="closed-form expectations for one size")
    prd.add_argument("--n", type=int, required=True, help="market size")

    ver = sub.add_parser("verify", help="exact small-market checks by exhaustive enumeration")
    ver.add_argument("--max-n", type=int, default=3, dest="max_n",
                     help="verify sizes 1..max_n (guard at %(default)s)")
    ver.add_argument("--allow-large", action="store_true", dest="allow_large",
                     help="lift the size guard (enumeration cost grows as (n!)^(2n))")
    ver.add_argument("--threads", type=int, default=None,
                     help="worker processes, each running a block of student tables "
                          "(default: ENVYLAB_THREADS or available parallelism; "
                          "capped at the CPU count)")

    cpn = sub.add_parser("coupon", help="coupon collector statistics")
    cpn.add_argument("--n", type=int, required=True, help="number of types")
    cpn.add_argument("--reps", type=int, default=2000, help="independent runs")
    cpn.add_argument("--seed", type=int, default=42, help="64-bit master seed")
    cpn.add_argument("--out", default=None, help="optional per-run CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    handler = {"simulate": cmd_simulate, "predict": cmd_predict,
               "verify": cmd_verify, "coupon": cmd_coupon}[args.command]
    return handler(args)


def entry_point() -> None:
    sys.exit(main())


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _USAGE_ERROR


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        config = ExperimentConfig(sizes=tuple(args.sizes), replications=args.reps,
                                  mechanisms=tuple(args.mechanisms), master_seed=args.seed,
                                  output_path=args.out, per_replication_path=args.per_replication,
                                  queue_discipline=args.queue,
                                  threads=resolve_threads(args.threads))
    except ValueError as exc:
        return _fail_usage(str(exc))
    try:
        records = run_experiment(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_ERROR
    _print_summary(records)
    if args.out:
        print(f"wrote {args.out}")
    if args.per_replication:
        print(f"wrote {args.per_replication}")
    return 0


def _print_summary(records) -> None:
    header = f"{'n':>6}  {'mechanism':<9}  {'metric':<11}  {'mean':>12}  {'std_error':>10}  " \
             f"{'prediction':>12}  exact"
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r.n:>6}  {r.mechanism:<9}  {r.metric:<11}  {r.mean:>12.6g}  "
              f"{r.std_error:>10.4g}  {r.prediction:>12.6g}  {'yes' if r.prediction_exact else 'no'}")


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    if args.n < 1:
        return _fail_usage("n must be >= 1")
    n = args.n
    print(f"expected counts at n = {n}  (H_n = {harmonic(n):.6f})")
    header = f"{'mechanism':<9}  {'unenvied':>12}  {'exact':<5}  {'envy_nobody':>12}  {'exact':<5}"
    print(header)
    print("-" * len(header))
    for mechanism in ("da", "rsd"):
        p = predict(n, mechanism)
        print(f"{mechanism:<9}  {p.unenvied_mean:>12.6f}  {'yes' if p.unenvied_exact else 'no':<5}  "
              f"{p.envy_nobody_mean:>12.6f}  {'yes' if p.envy_nobody_exact else 'no':<5}")
    print("(ttc matches rsd: random-endowment trading is distribution-equivalent)")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.max_n < 1:
        return _fail_usage("max-n must be >= 1")
    if args.max_n > oracle.PROFILE_ENUMERATION_CAP and not args.allow_large:
        return _fail_usage(
            f"max-n {args.max_n} exceeds the enumeration guard "
            f"({oracle.PROFILE_ENUMERATION_CAP}); profile spaces grow as (n!)^(2n). "
            f"Pass --allow-large to proceed anyway.")
    if args.max_n > oracle.PROFILE_ENUMERATION_CAP:
        print(f"warning: enumerating n > {oracle.PROFILE_ENUMERATION_CAP} may take "
              f"an impractically long time", file=sys.stderr)
    try:
        threads = resolve_threads(args.threads)  # worker processes for the DA pass
    except ValueError as exc:
        return _fail_usage(str(exc))
    workers = min(threads, _student_tables(args.max_n), os.cpu_count() or 1)
    try:
        sums = _verify_sums(args.max_n, workers)
    except BrokenExecutor as exc:
        print(f"error: a verify worker process died: {exc}", file=sys.stderr)
        return _CHECK_ERROR
    failures = sum(_report_size(n, *size_sums) for n, size_sums in sums.items())
    if failures:
        print(f"{failures} check(s) FAILED")
        return _CHECK_ERROR
    print("all checks passed")
    return 0


def _student_tables(n: int) -> int:
    return math.factorial(n) ** n


def _verify_sums(max_n: int, workers: int) -> dict[int, list[int]]:
    """Per size 1..max_n, the sums of `_verify_block` over its blocks.

    Each size's student tables are split into at most `workers` contiguous
    blocks. With one worker the blocks run here; otherwise one pool of
    forked worker processes runs every size's blocks and is shut down
    before this returns. Forked workers start in milliseconds and run the
    modules exactly as the parent holds them; spawned ones would re-import
    numpy and envylab (about 0.4 s more per `--max-n 3` run on 2 vCPU, the
    whole gain) and would need the caller's main module to be import-safe.
    `verify` runs no thread of its own when it forks.
    """
    jobs = []
    for n in range(1, max_n + 1):
        tables = _student_tables(n)
        k = min(workers, tables)
        jobs += [(n, range(tables * b // k, tables * (b + 1) // k)) for b in range(k)]
    sizes, blocks = zip(*jobs)
    if workers == 1:
        results = list(map(_verify_block, sizes, blocks))
    else:
        import multiprocessing  # imported here: a top-level import slows every CLI start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_verify_block, sizes, blocks))
    sums = {n: [0] * 5 for n in range(1, max_n + 1)}
    for n, result in zip(sizes, results):
        sums[n] = [total + part for total, part in zip(sums[n], result)]
    return sums


def _verify_block(n: int, tables: range) -> tuple[int, int, int, int, int]:
    """The DA pass and its cross-checks over one block of student tables.

    Returns (unenvied_sum, profiles, equal, no_blocking, dominant): the
    oracle's count of unenvied students summed over the block's profiles,
    the number of profiles, and the number on which deferred acceptance
    equals the student optimum, has no blocking pair, and weakly dominates
    every stable matching. The mechanism cross-checks ride on the oracle's
    pass, so each profile's stable set is enumerated once. The profiles
    reuse (n!)^n tables per side, so each table is validated once per
    block, in a `MarketInstance(rows, rows)`, and a profile's market pairs
    two of them.
    """
    equal = 0
    no_blocking = 0
    dominant = 0
    validated: dict[tuple, MarketInstance] = {}

    def table(rows):
        market = validated.get(rows)
        if market is None:
            market = validated[rows] = MarketInstance(student_prefs=np.array(rows),
                                                      school_priorities=np.array(rows))
        return market

    def check_mechanisms(prefs, prios, rank, stable, optimal):
        nonlocal equal, no_blocking, dominant
        market = MarketInstance._pair(table(prefs), table(prios))
        da_matching = mechanisms.deferred_acceptance(market)
        assignment = tuple(da_matching.assignment.tolist())
        equal += assignment == optimal
        no_blocking += not mechanisms.blocking_pairs(market, da_matching)
        own = [rank[i][s] for i, s in enumerate(assignment)]
        dominant += all(own[i] <= rank[i][other[i]] for other in stable for i in range(n))

    exact = oracle.enumerate_expected_unenvied_da(n, size_cap=n, visit=check_mechanisms,
                                                  tables=tables)
    count = exact.profile_count
    return int(exact.unenvied_mean * count), count, equal, no_blocking, dominant


def _report(ok: bool, message: str) -> int:
    print(f"[{'PASS' if ok else 'FAIL'}] {message}")
    return 0 if ok else 1


def _report_size(n: int, unenvied_sum: int, total: int, equal: int, no_blocking: int,
                 dominant: int) -> int:
    """Print one size's checks from its summed block results; returns failure count."""
    failures = 0
    h = oracle.harmonic_exact(n)
    unenvied_mean = Fraction(unenvied_sum, total)
    failures += _report(
        unenvied_mean == h,
        f"n={n}: E[unenvied | deferred acceptance] = {unenvied_mean} "
        f"== H_{n} = {h}  ({total} profiles)")

    exact_rsd = oracle.enumerate_expected_rsd(n, size_cap=n)
    failures += _report(
        exact_rsd.unenvied_mean == h,
        f"n={n}: E[unenvied | serial dictatorship] = {exact_rsd.unenvied_mean} == H_{n} = {h}")
    failures += _report(
        exact_rsd.envy_nobody_mean == Fraction(n + 1, 2),
        f"n={n}: E[envy nobody | serial dictatorship] = {exact_rsd.envy_nobody_mean} "
        f"== (n+1)/2 = {Fraction(n + 1, 2)}")

    failures += _report(equal == total,
                        f"n={n}: deferred acceptance equals the enumerated student-optimal "
                        f"stable matching on {equal}/{total} profiles")
    failures += _report(no_blocking == total,
                        f"n={n}: zero blocking pairs on {no_blocking}/{total} profiles")
    failures += _report(dominant == total,
                        f"n={n}: output weakly dominates every stable matching on "
                        f"{dominant}/{total} profiles")
    return failures


# ---------------------------------------------------------------------------
# coupon
# ---------------------------------------------------------------------------

def cmd_coupon(args) -> int:
    if args.n < 1:
        return _fail_usage("n must be >= 1")
    if args.reps < 1:
        return _fail_usage("reps must be >= 1")
    if not 0 <= args.seed < 2**64:
        return _fail_usage("seed must be a 64-bit unsigned integer")
    try:
        _check_writable([args.out])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_ERROR
    runs = [run_collector(args.n, Seed(master_seed=args.seed, replication_index=rep))
            for rep in range(args.reps)]
    singleton_mean, singleton_se = aggregate_series([r.singleton_count for r in runs])
    stop_mean, stop_se = aggregate_series([r.stopping_time for r in runs])
    h = harmonic(args.n)
    print(f"coupon collector with n = {args.n} types, {args.reps} runs, seed {args.seed}")
    print(f"  singleton types : {singleton_mean:.6g} +/- {singleton_se:.4g}   "
          f"(H_n = {h:.6g})")
    print(f"  stopping time   : {stop_mean:.6g} +/- {stop_se:.4g}   "
          f"(n * H_n = {args.n * h:.6g})")
    if args.out:
        try:
            _write_rows(args.out, ["replication", "stopping_time", "singleton_count"],
                        ([rep, r.stopping_time, r.singleton_count] for rep, r in enumerate(runs)))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _CHECK_ERROR
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    entry_point()

"""One workload in a fresh process: warm-up, then a timed loop or traced passes.

run.py starts this script with src/ on PYTHONPATH, the thread variables
pinned and ENVYLAB_THREADS removed. It prints one JSON object as its last
line of standard output.

    --setup-only   import envylab and make the warm-up call, then exit
    --trace 0      call envylab.cli.main with the workload's argv until
                   --seconds have passed; report wall and CPU time per call
    --trace 1      one untraced call and the DA law checks, then traced
                   calls until --seconds have passed; report the per-layer
                   table and exact counts
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import re
import resource
import statistics
import sys
import time

import numpy as np

import envylab
from checks import Checks, check_da_runs, check_simulate, check_verify
from envylab.cli import main as cli_main
from envylab.experiments import read_per_replication_csv
from tracing import SPAN_CSV_HEADER, Tracer
from workloads import MECHANISMS, output_paths, warmup_spec, workload_argv

DA_CHECK_RUNS = 3  # lazy DA runs checked for blocking pairs and the singleton identity


def timed_call(argv: list[str], tracer: Tracer | None = None) -> tuple[int | None, str, float, float]:
    """(exit code, stdout, wall seconds, user+sys CPU seconds) of one cli.main call.

    An exception out of cli.main is printed to the captured stdout and gives
    exit code None, so the checks count it as a failure.
    """
    out = io.StringIO()
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if tracer:
            tracer.start()
        try:
            rc = cli_main(argv)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check, not a dead run
            rc = None
            print(f"cli.main raised {exc!r}")
        finally:
            if tracer:
                tracer.stop()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return rc, out.getvalue(), wall, cpu


class Workload:
    """Runs and checks one workload's calls, keeping the first CSV as reference."""

    def __init__(self, spec: dict, seed: int, out_dir: str, checks: Checks):
        self.spec = spec
        self.argv = workload_argv(spec, seed, out_dir)
        self.out_dir = out_dir
        self.checks = checks
        self.reference: bytes | None = None
        self.stdout = ""

    def call(self, tracer: Tracer | None = None) -> tuple[float, float]:
        rc, self.stdout, wall, cpu = timed_call(self.argv, tracer)
        if self.spec["command"] == "verify":
            check_verify(self.checks, self.spec, rc, self.stdout)
        else:
            data = check_simulate(self.checks, self.spec, rc, self.stdout,
                                  *output_paths(self.out_dir), self.reference)
            if self.reference is None:
                self.reference = data
        return wall, cpu


def repeat_until(seconds: float, fn) -> list:
    """Call fn at least once, and again while another call fits in `seconds`."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def warm_up(spec: dict, seed: int, out_dir: str) -> None:
    warm_dir = os.path.join(out_dir, "warmup")
    os.makedirs(warm_dir, exist_ok=True)
    rc, _, _, _ = timed_call(workload_argv(warmup_spec(spec), seed, warm_dir))
    if rc != 0:
        raise SystemExit(f"warm-up call exited with {rc}")


def run_timed(spec: dict, seed: int, seconds: float, out_dir: str, checks: Checks) -> dict:
    workload = Workload(spec, seed, out_dir, checks)
    samples = repeat_until(seconds, workload.call)
    return {"wall_s": [w for w, _ in samples], "cpu_s": [c for _, c in samples]}


def output_counts(spec: dict, out_dir: str, stdout: str) -> dict[str, int]:
    """Exact counts read from one untraced call's outputs."""
    counts = {f"mechanisms.proposals.{mech}": 0 for mech in MECHANISMS}
    counts["experiments.csv_bytes"] = 0
    counts["oracle.profiles"] = sum(int(m) for m in re.findall(r"\((\d+) profiles\)", stdout))
    if spec["command"] == "simulate":
        aggregate, per_rep = output_paths(out_dir)
        rows = read_per_replication_csv(per_rep)
        for mech in spec["mechanisms"]:
            counts[f"mechanisms.proposals.{mech}"] = sum(
                r.total_proposals for r in rows if r.mechanism == mech)
        counts["experiments.csv_bytes"] = os.path.getsize(aggregate) + os.path.getsize(per_rep)
    return counts


def da_seed_words(out_dir: str) -> list[int]:
    """The first DA_CHECK_RUNS DA seed words of the per-replication CSV."""
    rows = read_per_replication_csv(output_paths(out_dir)[1])
    return [r.seed for r in rows if r.mechanism == "da"][:DA_CHECK_RUNS]


def run_traced(spec: dict, seed: int, seconds: float, out_dir: str, checks: Checks) -> dict:
    start = time.perf_counter()
    workload = Workload(spec, seed, out_dir, checks)
    wall, cpu = workload.call()
    counts = output_counts(spec, out_dir, workload.stdout)
    counts["experiments.cpu_per_wall"] = cpu / wall
    if spec["command"] == "simulate" and "da" in spec["mechanisms"]:
        check_da_runs(checks, spec["n"], da_seed_words(out_dir))

    tables: list[dict] = []
    spans_csv = gzip.open(os.path.join(out_dir, "spans.csv.gz"), "wt", compresslevel=1)

    def one_pass():
        tracer = Tracer()
        workload.call(tracer)
        tracer.write_csv(spans_csv, len(tables))
        tables.append(tracer.layer_table())

    with spans_csv:
        spans_csv.write(SPAN_CSV_HEADER)
        repeat_until(max(0.0, seconds - (time.perf_counter() - start)), one_pass)
    calls = [{name: row["calls"] for name, row in table.items()} for table in tables]
    checks.check(all(c == calls[0] for c in calls), "span counts repeat across traced passes")

    layers = {name: {"calls": row["calls"],
                     "total_s": statistics.median(t.get(name, row)["total_s"] for t in tables),
                     "self_s": statistics.median(t.get(name, row)["self_s"] for t in tables)}
              for name, row in tables[0].items()}
    proposals = counts["mechanisms.proposals.da"]
    engine = layers.get("mechanisms._run_sequential", {}).get("total_s", 0.0)
    counts["mechanisms.ns_per_proposal"] = engine / proposals * 1e9 if proposals else 0
    counts["trace.untraced_wall_s"] = wall
    counts["trace.traced_wall_s"] = layers["cli.main"]["total_s"] if "cli.main" in layers else 0
    return {"passes": len(tables), "layers": layers, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True, dest="out_dir")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args()
    spec = json.loads(args.spec)

    warm_up(spec, args.seed, args.out_dir)
    if args.setup_only:
        return 0
    checks = Checks()
    if args.trace:
        result = run_traced(spec, args.seed, args.seconds, args.out_dir, checks)
    else:
        result = run_timed(spec, args.seed, args.seconds, args.out_dir, checks)
    result.update(
        attempted=checks.attempted, failed=checks.failed, failures=checks.failures[:20],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "envylab": envylab.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

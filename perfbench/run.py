"""envylab benchmark: run one workload in a fresh process, check it, report metrics.

    python3 perfbench/run.py --workload mc_n100 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; envylab is imported from src/.
With --trace 0 the report has every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric, taken from a separate traced pass.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every check passed, 1 when a check failed or the workload
process did not finish, and 2 when the checkout has no envylab source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import PINNED_ENV, WORKLOADS, table_bytes, workload_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 24
TIME_LIMIT_S = 170  # every run, set-up included, ends well inside 180 s


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env() -> dict[str, str]:
    """The environment of a workload process: src/ importable, threads pinned."""
    env = {k: v for k, v in os.environ.items() if k != "ENVYLAB_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_bytes(level: int) -> int | None:
    """Size of the CPU's level-2 or level-3 cache as getconf reports it."""
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def provenance(name: str, spec: dict, seed: int, out_dir: str, versions: dict) -> dict:
    table = table_bytes(spec)
    l2, l3 = cache_bytes(2), cache_bytes(3)
    return {
        "git_sha": git_sha(), "workload": name, "seed": seed,
        "argv": workload_argv(spec, seed, out_dir), "workers": spec["threads"],
        "nproc": os.cpu_count(), "versions": versions,
        "env": dict(PINNED_ENV, ENVYLAB_THREADS="unset"),
        "l2_bytes": l2, "l3_bytes": l3, "table_bytes": table,
        "table_fits_l2": None if l2 is None else table <= l2,
        "table_fits_l3": None if l3 is None else table <= l3,
    }


def child_cmd(spec: dict, args, out_dir: str) -> list[str]:
    return [sys.executable, CHILD, "--spec", json.dumps(spec),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", out_dir]


def measure_setup(cmd: list[str], env: dict, deadline: float) -> float:
    """Wall time of a fresh process that imports envylab and makes the warm-up call."""
    start = time.perf_counter()
    # a pipe, not DEVNULL: waiting on the pipe wakes at exit, while a bare wait
    # with a timeout polls in steps of up to 50 ms
    subprocess.run(cmd + ["--setup-only"], cwd=ROOT, env=env, check=True, capture_output=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - start


def run_child(cmd: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_value(result: dict, metric: str) -> float:
    """A per-layer metric: an exact count, or a field of a span name's row."""
    if metric in result["counts"]:
        return result["counts"][metric]
    layer, field = metric.rsplit(".", 1)
    if field not in ("calls", "total_s", "self_s"):
        raise KeyError(metric)
    return result["layers"].get(layer, {}).get(field, 0)


def report_timed(result: dict, setup: list[float]) -> dict[str, float]:
    values = {}
    for metric, samples in (("wall_s", result["wall_s"]), ("cpu_s", result["cpu_s"]),
                            ("setup_s", setup)):
        q1, median, q3 = quartiles(samples)
        values[metric] = median
        print(f"{metric:<14} median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  samples {len(samples)}")
    values["peak_rss_mib"] = result["peak_rss_mib"]
    print(f"{'peak_rss_mib':<14} {result['peak_rss_mib']:.1f} MiB  (ru_maxrss of the workload process)")
    return values


def report_traced(result: dict) -> None:
    print(f"traced passes {result['passes']}; per span name, medians over passes:")
    print(f"  {'layer':<42} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(result["layers"].items()):
        print(f"  {name:<42} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    counts = result["counts"]
    print(f"traced wall {counts['trace.traced_wall_s']:.4f} s  vs  untraced wall "
          f"{counts['trace.untraced_wall_s']:.4f} s; peak RSS of the traced process "
          f"{result['peak_rss_mib']:.1f} MiB")


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description="envylab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "envylab", "__init__.py")):
        print(f"error: no envylab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = workloads[args.workload]
    out_dir = os.path.join("perfbench", "out", args.workload)  # relative to ROOT, the child's cwd
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, out_dir))
    env = child_env()
    cmd = child_cmd(spec, args, out_dir)

    try:
        # set-up samples are split around the workload process, so that they
        # span the same stretch of machine time as the timed calls
        setup_samples = 0 if args.trace else SETUP_SAMPLES
        setup = [measure_setup(cmd, env, deadline) for _ in range(setup_samples // 2)]
        result = run_child(cmd, env, deadline)
        setup += [measure_setup(cmd, env, deadline) for _ in range(setup_samples - len(setup))]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: workload process failed: {exc!r}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    prov = provenance(args.workload, spec, args.seed, out_dir, result["versions"])
    with open(os.path.join(ROOT, out_dir, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    if args.trace:
        report_traced(result)
        declared, lookup = bench["per_layer"], lambda m: layer_value(result, m)
    else:
        values = report_timed(result, setup)
        declared, lookup = bench["end_to_end"], values.__getitem__
    try:
        metrics = {m["name"]: {"value": lookup(m["name"]), "unit": m["unit"]} for m in declared}
    except KeyError as exc:
        print(f"error: the run produced no value for metric {exc}", file=sys.stderr)
        return 1
    if args.trace:
        for name, m in metrics.items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"{name:<46} {value} {m['unit']}")

    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_ratio':<14} {failed / attempted:.4f} ratio  ({failed} failed / {attempted} attempted)")
    for label in result["failures"]:
        print(f"FAILED CHECK: {label}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over two sets of seeds and record the baseline.

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json with its run_seconds, once per seed
of each set (`run.py --trace 0`), then once traced (first seed). For each
set, workload and end-to-end metric it records the values, median,
quartiles and spread: the distance between the quartiles as a share of the
median. It flags a spread above a third of the metric's bound, and a pair
of set medians whose later one is worse than the earlier by more than the
bound. Writes perfbench/baseline.json; exits 1 when a spread other than
setup_s's exceeds its bound or the set medians disagree by more than it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import quartiles
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One benchmark run: (its JSON result line, its provenance line)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    prov = next((line[len("provenance "):] for line in lines if line.startswith("provenance ")), "{}")
    return json.loads(lines[-1]), prov


def summarise(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    summary: dict = {"seconds": seconds, "seed_sets": SEED_SETS, "workloads": {}}
    for w in bench["workloads"]:
        summary["workloads"][w["name"]] = {
            "why": w["why"], "moves": WORKLOADS[w["name"]]["moves"],
            "unchanged": WORKLOADS[w["name"]]["unchanged"],
            "checks": {"attempted": 0, "failed": 0}, "sets": [], "set_median_change": {}}

    steady = True
    for seeds in SEED_SETS:
        for name, entry in summary["workloads"].items():
            values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in seeds:
                result, prov = run(name, seed, seconds, 0)
                entry["checks"]["attempted"] += result["attempted"]
                entry["checks"]["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    values[metric].append(m["value"])
            entry["provenance"] = json.loads(prov)
            stats = {}
            for m in bench["end_to_end"]:
                s = stats[m["name"]] = dict(summarise(values[m["name"]]), unit=m["unit"])
                flag = ""
                if s["spread"] > m["bound"] / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                if s["spread"] > m["bound"] and m["name"] != "setup_s":
                    flag, steady = "  SPREAD ABOVE BOUND", False
                print(f"seeds {seeds[0]}-{seeds[-1]} {name:<10} {m['name']:<13} median {s['median']:<10.4f} "
                      f"q1 {s['q1']:<10.4f} q3 {s['q3']:<10.4f} spread {s['spread']:.4f} "
                      f"(bound {m['bound']}){flag}", flush=True)
            entry["sets"].append(stats)

    for name, entry in summary["workloads"].items():
        for m in bench["end_to_end"]:
            first, second = (stats[m["name"]]["median"] for stats in entry["sets"])
            change = (second - first) / first
            worse = change if m["better"] == "lower" else -change
            entry["set_median_change"][m["name"]] = change
            flag = ""
            if worse > m["bound"]:
                flag, steady = "  WORSE BY MORE THAN THE BOUND", False
            print(f"{name:<10} {m['name']:<13} set medians {first:.4f} -> {second:.4f} "
                  f"({change:+.4f}, bound {m['bound']}){flag}", flush=True)
        checks = entry["checks"]
        checks["failed_ratio"] = checks["failed"] / checks["attempted"]
        print(f"{name:<10} failed_ratio  {checks['failed']}/{checks['attempted']}", flush=True)
        result, _ = run(name, SEED_SETS[0][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}

    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes; it tests the benchmark, not envylab.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric of BENCHMARK.json is printed with its unit in
both modes, that the output checker counts corrupted outputs and crashes
as failures, and that the tracer's self times add up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
from checks import Checks, check_simulate, check_verify  # noqa: E402
from envylab.cli import main as cli_main  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, output_paths, workload_argv  # noqa: E402

TINY = {
    "mc_n100": dict(WORKLOADS["mc_n100"], n=6, reps=5, band_check=False),
    "mc_n3000": dict(WORKLOADS["mc_n3000"], n=7, reps=2),
    "verify_n3": dict(WORKLOADS["verify_n3"], max_n=2),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace)], workloads=TINY)
    assert rc == 0
    *report, last = out.getvalue().strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(m["name"] + " ") and f" {m['unit']}" in line for line in report), \
            f"{m['name']} is not printed with its unit {m['unit']}"
    assert any(line.startswith("failed_ratio ") and " ratio " in line for line in report)


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set(row, col, value):
    def edit(rows):
        rows[row][col] = value
    return edit


CORRUPTIONS = {
    "unenvied_zero": ("per_rep", _set(1, 4, "0")),
    "envy_nobody_above_n": ("per_rep", _set(1, 5, "99")),
    "too_few_proposals": ("per_rep", _set(1, 6, "1")),
    "mean_rank_off": ("per_rep", _set(1, 7, "0.5")),
    "row_missing": ("per_rep", lambda rows: rows.pop()),
    "aggregate_mean_changed": ("aggregate", _set(1, 3, "99")),
    "aggregate_header_broken": ("aggregate", _set(0, 0, "size")),
}


@pytest.fixture
def tiny_output(tmp_path):
    spec = TINY["mc_n100"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(workload_argv(spec, 7, str(tmp_path)))
    aggregate, per_rep = output_paths(str(tmp_path))
    with open(aggregate, "rb") as fh:
        reference = fh.read()
    return spec, rc, out.getvalue(), aggregate, per_rep, reference


def test_checker_passes_clean_output(tiny_output):
    checks = Checks()
    check_simulate(checks, *tiny_output)
    assert checks.attempted > 0 and checks.failed == 0, checks.failures


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checker_counts_corrupted_output(tiny_output, name):
    spec, rc, stdout, aggregate, per_rep, reference = tiny_output
    target, edit = CORRUPTIONS[name]
    _edit_csv(aggregate if target == "aggregate" else per_rep, edit)
    checks = Checks()
    check_simulate(checks, spec, rc, stdout, aggregate, per_rep, reference)
    assert checks.failed >= 1


def test_checker_counts_nonzero_exit(tiny_output):
    spec, rc, *rest = tiny_output
    checks = Checks()
    check_simulate(checks, spec, 1, *rest)
    assert checks.failures == ["simulate exit code 0"]


def test_checker_counts_band_miss(tiny_output):
    spec, rc, stdout, aggregate, per_rep, _ = tiny_output
    _edit_csv(aggregate, _set(1, 3, "99"))  # da unenvied mean, exact prediction H_6
    checks = Checks()
    check_simulate(checks, dict(spec, band_check=True), rc, stdout, aggregate, per_rep, None)
    assert any("within 3 SE" in label for label in checks.failures)


def test_checker_counts_failed_verify():
    stdout = "\n".join(["[PASS] a"] * 5 + ["[FAIL] b", "1 check(s) FAILED"])
    checks = Checks()
    check_verify(checks, {"max_n": 1}, 1, stdout)
    assert checks.failed == 3


def test_failed_workload_process_prints_a_failed_result():
    broken = {"mc_n100": dict(TINY["mc_n100"], n=0)}  # a usage error: the warm-up call exits 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "mc_n100", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                      workloads=broken)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 1 and not result["correct"] and result["failed"] >= 1


def test_exception_in_cli_main_is_a_failed_check(tmp_path, monkeypatch):
    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(child, "cli_main", crash)
    checks = Checks()
    child.Workload(TINY["verify_n3"], 1, str(tmp_path), checks).call()
    assert checks.failed == 3 and checks.attempted == 3


def _traced_table(tmp_path, threads):
    spec = dict(TINY["mc_n100"], threads=threads)
    tracer = Tracer()
    rc, _, _, _ = child.timed_call(workload_argv(spec, 5, str(tmp_path)), tracer)
    assert rc == 0
    return spec, tracer, tracer.layer_table()


def test_tracer_self_times_add_up_to_the_call(tmp_path):
    spec, _, table = _traced_table(tmp_path, threads=1)
    modules = [row for name, row in table.items() if "." not in name]
    assert sum(row["self_s"] for row in modules) == pytest.approx(table["cli.main"]["total_s"], rel=1e-6)
    assert table["cli.main"]["calls"] == 1
    assert table["experiments._replicate"]["calls"] == spec["reps"] * len(spec["mechanisms"])
    for name, row in table.items():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9, name


def test_tracer_puts_worker_spans_under_the_pool(tmp_path):
    spec, tracer, table = _traced_table(tmp_path, threads=2)
    spans = list(tracer.spans())
    pool_owner = {sid for sid, _, name, _, _, _ in spans if name == "experiments.run_experiment"}
    workers = [s for s in spans if s[2] == "experiments._replicate"]
    assert len(workers) == spec["reps"] * len(spec["mechanisms"])
    assert all(parent in pool_owner and thread > 0 for _, parent, _, thread, _, _ in workers)
    assert 0 <= table["experiments.run_experiment"]["self_s"] <= table["experiments.run_experiment"]["total_s"]

"""Experiment runner: determinism, aggregation, CSV round trips."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

import envylab.experiments
from envylab import (
    ExperimentConfig,
    aggregate_series,
    harmonic,
    harmonic_exact,
    read_csv,
    read_per_replication_csv,
    run_experiment,
    write_csv,
    write_per_replication_csv,
)
from envylab.experiments import (
    CSV_HEADER,
    PER_REPLICATION_HEADER,
    ReplicationRecord,
    _metric_prediction,
    _sig6,
)


def small_config(tmp_path, **overrides):
    defaults = dict(sizes=(10, 20), replications=60, mechanisms=("da", "rsd", "ttc"),
                    master_seed=2024, output_path=str(tmp_path / "agg.csv"), threads=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(5,), replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(5,), mechanisms=("boston",))
    for metric in ("welfare", "top_choice"):
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=(5,), metrics=(metric,))
    for repeated in ({"sizes": (20, 20)}, {"sizes": (5,), "mechanisms": ("da", "da")},
                     {"sizes": (5,), "metrics": ("unenvied", "unenvied")}):
        with pytest.raises(ValueError, match="must not repeat a value"):
            ExperimentConfig(**repeated)
    # a non-integer is refused, not truncated
    for field, value in (("sizes", (5.7,)), ("master_seed", 1.9), ("threads", 1.5),
                         ("replications", 2.5)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(**{"sizes": (5,), field: value})


def test_config_rejects_unknown_queue_discipline():
    # checked up front, even for a run without deferred acceptance
    with pytest.raises(ValueError, match="queue_discipline"):
        ExperimentConfig(sizes=(5,), replications=2, mechanisms=("rsd",), queue_discipline="stack")


def test_identical_configs_yield_byte_identical_csv(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    run_experiment(small_config(tmp_path, output_path=str(path_a), threads=1))
    run_experiment(small_config(tmp_path, output_path=str(path_b), threads=4))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_csv_round_trip(tmp_path):
    records = run_experiment(small_config(tmp_path))
    assert read_csv(str(tmp_path / "agg.csv")) == records


def test_single_replication_marks_std_error_undefined(tmp_path):
    records = run_experiment(small_config(tmp_path, replications=1, sizes=(6,),
                                          mechanisms=("da",)))
    assert all(math.isnan(r.std_error) for r in records)
    parsed = read_csv(str(tmp_path / "agg.csv"))
    assert all(math.isnan(r.std_error) for r in parsed)
    assert parsed == records


def test_empty_record_list_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"
    assert read_csv(str(path)) == []


@pytest.mark.parametrize("reader, header, row", [
    (read_csv, CSV_HEADER, "10,da,unenvied,2.9,0.1,50,2.92897,true"),
    (read_per_replication_csv, PER_REPLICATION_HEADER, "10,da,0,7,3,4,25,2.5"),
], ids=["aggregate", "per_replication"])
def test_malformed_rows_are_reported_with_line_numbers(tmp_path, reader, header, row):
    path = tmp_path / "bad.csv"
    head = ",".join(header) + "\n"
    path.write_text(head + row + "\n" + row.rsplit(",", 3)[0] + "\n")
    with pytest.raises(ValueError, match=r":3: expected 8 columns, got 5"):
        reader(str(path))
    for bad in ("x" + row[2:], row.rsplit(",", 1)[0] + ",zz"):  # an int cell, the last cell
        path.write_text(head + bad + "\n")
        with pytest.raises(ValueError, match=r":2: malformed row"):
            reader(str(path))
    path.write_text("n,mech\n")
    with pytest.raises(ValueError, match=r":1: bad header"):
        reader(str(path))


def test_per_replication_csv_round_trip(tmp_path):
    # seeds at both ends of the 64-bit range, a nan and a 6-digit float
    records = [ReplicationRecord(n=10, mechanism=mechanism, replication=rep, seed=seed,
                                 unenvied=3, envy_nobody=4, total_proposals=25, mean_rank=mean_rank)
               for rep, (mechanism, seed, mean_rank) in enumerate(
                   [("da", 0, 2.5), ("rsd", 2**64 - 1, float("nan")), ("ttc", 12345, _sig6(1 / 3))])]
    path = tmp_path / "per.csv"
    write_per_replication_csv(records, str(path))
    assert read_per_replication_csv(str(path)) == records


def test_docs_quote_the_csv_headers():
    """README's "CSV schemas" and the module docstring quote the headers the records define."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schemas = readme.split("### CSV schemas", 1)[1].split("\n### ", 1)[0]
    for text in (schemas, envylab.experiments.__doc__):
        quoted = [line.strip() for line in text.splitlines() if line.strip().startswith("n,")]
        assert quoted == [",".join(CSV_HEADER), ",".join(PER_REPLICATION_HEADER)]


def test_per_replication_rows_reproduce_aggregates(tmp_path):
    per_path = tmp_path / "per.csv"
    config = small_config(tmp_path, per_replication_path=str(per_path),
                          metrics=("unenvied", "envy_nobody", "mean_rank"))
    records = run_experiment(config)
    rows = read_per_replication_csv(str(per_path))
    assert len(rows) == len(config.sizes) * len(config.mechanisms) * config.replications
    for record in records:
        cell = [r for r in rows if r.n == record.n and r.mechanism == record.mechanism]
        cell.sort(key=lambda r: r.replication)
        if record.metric == "unenvied":
            series = [r.unenvied for r in cell]
        elif record.metric == "envy_nobody":
            series = [r.envy_nobody for r in cell]
        else:  # mean_rank is total_proposals / n exactly
            series = [r.total_proposals / r.n for r in cell]
        mean, se = aggregate_series(series)
        assert _sig6(mean) == record.mean
        assert _sig6(se) == record.std_error


def test_pool_has_at_most_one_worker_per_replication(tmp_path, monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            blocks = list(blocks)
            assert all(blocks), "an empty block was scheduled"
            return map(fn, blocks)

    monkeypatch.setattr(envylab.experiments, "ThreadPoolExecutor", SerialPool)
    for reps, threads, expected in ((3, 8, [3]), (5, 2, [2]), (1, 4, [])):
        workers.clear()
        config = small_config(tmp_path, replications=reps, threads=threads,
                              output_path=str(tmp_path / f"pooled{threads}.csv"))
        run_experiment(config)
        assert workers == expected
        serial = small_config(tmp_path, replications=reps, threads=1,
                              output_path=str(tmp_path / "serial.csv"))
        run_experiment(serial)
        assert (tmp_path / f"pooled{threads}.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_replication_seeds_are_distinct(tmp_path):
    per_path = tmp_path / "per.csv"
    run_experiment(small_config(tmp_path, per_replication_path=str(per_path)))
    rows = read_per_replication_csv(str(per_path))
    seeds = [(r.mechanism, r.n, r.replication, r.seed) for r in rows]
    assert len({s[-1] for s in seeds}) == len(seeds)


def test_means_within_three_standard_errors_of_exact_predictions(tmp_path):
    config = small_config(tmp_path, sizes=(30,), replications=600,
                          mechanisms=("da", "rsd"))
    for record in run_experiment(config):
        if record.prediction_exact:
            assert abs(record.mean - record.prediction) <= 3 * record.std_error, record


def test_mean_rank_prediction_matches_brute_force_at_n3():
    # enumerate every (preference profile, order) pair at n = 3 and average
    # the chosen ranks exactly
    n = 3
    perms = list(itertools.permutations(range(n)))
    total = Fraction(0)
    count = 0
    for prefs in itertools.product(perms, repeat=n):
        for order in perms:
            taken = [False] * n
            for i in order:
                for rank, s in enumerate(prefs[i], start=1):
                    if not taken[s]:
                        taken[s] = True
                        total += rank
                        break
            count += 1
    exact = total / (count * n)
    assert exact == (n + 1) * (harmonic_exact(n + 1) - 1) / n
    predicted, is_exact = _metric_prediction("mean_rank", n, "rsd")
    assert is_exact
    assert math.isclose(predicted, float(exact), rel_tol=1e-12)


def test_default_config_sweeps_da_headline_metrics():
    config = ExperimentConfig(sizes=(10, 50, 100, 500, 1000), replications=2,
                              master_seed=9, threads=1)
    records = run_experiment(config)
    assert len(records) == 10  # 5 sizes x 2 headline metrics
    assert {r.mechanism for r in records} == {"da"}
    assert {r.metric for r in records} == {"unenvied", "envy_nobody"}
    for r in records:
        if r.metric == "unenvied":
            assert r.prediction == _sig6(harmonic(r.n))
            assert r.prediction_exact
        else:
            assert r.prediction == _sig6(r.n / harmonic(r.n))
            assert not r.prediction_exact
    at_1000 = {r.metric: r.prediction for r in records if r.n == 1000}
    assert math.isclose(at_1000["unenvied"], 7.48547, rel_tol=1e-5)
    assert math.isclose(at_1000["envy_nobody"], 133.592, rel_tol=1e-5)

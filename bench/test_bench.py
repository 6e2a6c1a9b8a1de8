"""Tests of the benchmark itself, at tiny budgets: `python -m pytest bench -q`."""

import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from agecalc import bounds, cli, simulate  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys, tmp_path):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY, work_dir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    for fn in (bounds.optimize_theta, cli.main, simulate.EmpiricalTail.add):
        assert not hasattr(fn, "__wrapped__")


def test_dominance_check_counts_a_bound_shrunk_below_the_quantile():
    label, scenario = workloads.dominance_plan()[0]
    tails = simulate.run_replications(scenario, 30_000, 1, 11, burn_in=1_000)
    bound = bounds.optimize_theta(scenario, "delay").value
    res = workloads.JobResult()
    workloads.check_dominance(res, label, "delay", tails.delay, bound, 1e-3)
    assert (res.attempted, res.failed) == (1, 0)
    shrunk = 0.5 * tails.delay.quantile(1e-3)
    workloads.check_dominance(res, label, "delay", tails.delay, shrunk, 1e-3)
    assert (res.attempted, res.failed) == (2, 1)


def test_tails_check_counts_bounds_shrunk_below_the_quantiles(tmp_path):
    workloads.make_tails(5, workloads.TINY, tmp_path)
    config = str(tmp_path / "tails.cfg")
    _, sim_csv, _ = workloads._run_cli(["simulate", "--config", config, "--workers", "1"])
    _, bound_csv, _ = workloads._run_cli(["bound", "--config", config])
    ok = workloads.JobResult()
    workloads.check_tails(ok, sim_csv, bound_csv, workloads.TAILS_W, workloads.TAILS_EPS)
    assert ok.attempted > 0 and ok.failed == 0

    sim_rows = list(csv.DictReader(io.StringIO(sim_csv)))
    simulated = {(r["metric"], r["epsilon"]): float(r["value"]) for r in sim_rows}
    rows = list(csv.DictReader(io.StringIO(bound_csv)))
    for r in rows:
        r["value"] = repr(0.5 * simulated[(r["metric"], r["epsilon"])])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    bad = workloads.JobResult()
    workloads.check_tails(bad, sim_csv, out.getvalue(), workloads.TAILS_W, workloads.TAILS_EPS)
    sufficient = sum("insufficient_samples" not in r["flag"] for r in sim_rows)
    assert sufficient > 0
    assert bad.attempted == ok.attempted and bad.failed == sufficient


def test_tracer_splits_self_time_from_children():
    t = tracer.Tracer()
    label, scenario = workloads.dominance_plan()[0]
    with t.job():
        simulate.run_replications(scenario, 30_000, 1, 3, burn_in=1_000)
    m = t.layer_metrics()
    assert m["simulate.replications_s"] >= m["simulate.fifo_s"] + m["simulate.count_upto_s"]
    assert m["models.sample_values"] >= 30_000
    assert m["simulate.events_per_update"] > 0
    assert 0 <= m["uncovered_share"] < 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

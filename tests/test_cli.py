import contextlib
import csv
import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from agecalc import (
    EventTriggered,
    Exponential,
    Metric,
    Scenario,
    SweepSpec,
    optimize_theta,
    params_for_utilization,
    round_threshold,
    sweep_rows,
)
from agecalc import cli, simulate, sweeps
from agecalc.cli import CSV_HEADER, build_parser, main, parse_config
from agecalc.sweeps import EVENT_TRIGGERED, FIGURES, SWEEP_FIGURES, TIME_TRIGGERED
from simulated import nan_in_second_service_draw

ROOT = Path(__file__).resolve().parents[1]


# (source, metric) pairs of each figure preset: bound rows (and fig3's exact
# rows) of the preset's own metrics, simulation rows of all three
SIMULATED = {("simulation", m) for m in ("delay", "peak_aoi", "peak_doi")}
FIGURE_ROWS = {
    "fig3": {("bound", "delay"), ("exact", "delay")} | SIMULATED,
    **{n: {("bound", "delay"), ("bound", "peak_aoi")} for n in ("fig4a", "fig4b", "fig4c", "fig5")},
    **{n: {("bound", "peak_aoi"), ("bound", "peak_doi")} for n in ("fig6a", "fig6b", "fig6c")},
    "fig7": {("bound", "peak_aoi"), ("bound", "peak_doi")} | SIMULATED,
    "fig8": SIMULATED,
}


# summary keys whose values state bounds: curve minima, the time-triggered
# delay spread and fig3's tt_dominance bounds
BOUND_KEY = re.compile(r"(time|event)_triggered_min_\w+|(et_)?min_\w+_bound|tt_delay_spread|bound")


def _bound_entries(summary):
    """(key, value) of every float a summary states as a bound, nested too."""
    for key, value in summary.items():
        if isinstance(value, dict):
            yield from _bound_entries(value)
        elif BOUND_KEY.fullmatch(key):
            for v in value if isinstance(value, list) else [value]:
                yield key, v


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSweeps:
    def test_utilization_mapping(self):
        w, alpha = params_for_utilization(0.25, event_rate=0.5, service_rate=0.25)
        assert w == pytest.approx(16.0)
        assert alpha == pytest.approx(8.0)

    def test_coupling_on_interval_axis(self):
        spec = SweepSpec(event_rate=0.5, service_rate=0.25, axis="w", grid=(2.0,))
        rows = sweep_rows(spec)
        # w=2 couples to threshold 1; both policies present and equally loaded
        tt = [r for r in rows if r.policy == TIME_TRIGGERED]
        et = [r for r in rows if r.policy == EVENT_TRIGGERED]
        assert tt and et
        assert tt[0].utilization == pytest.approx(et[0].utilization, rel=1e-12)

    def test_stability_boundary_flagged(self):
        spec = SweepSpec(event_rate=0.5, service_rate=0.25, axis="utilization",
                         grid=(1.0,))
        rows = sweep_rows(spec)
        assert rows
        assert all(r.flag == "infeasible" and r.value is None for r in rows)

    def test_utilization_column_consistent(self):
        spec = SweepSpec(event_rate=0.5, service_rate=0.25, axis="utilization",
                         grid=(0.25, 0.5))
        for r in sweep_rows(spec):
            assert r.utilization == pytest.approx(r.axis_value, abs=1e-9)

    def test_subunit_threshold_rows_flagged(self):
        # w small enough that the coupled threshold drops below 1
        spec = SweepSpec(event_rate=0.1, service_rate=2.0, axis="w", grid=(3.0,))
        rows = sweep_rows(spec)
        et = [r for r in rows if r.policy == EVENT_TRIGGERED]
        assert et and all(r.flag == "infeasible" for r in et)
        assert {r.metric for r in et} == {"delay", "peak_aoi", "peak_doi"}

    def test_round_threshold(self):
        assert round_threshold(1.5) == 2
        assert round_threshold(2.49) == 2
        assert round_threshold(0.3) == 1
        assert round_threshold(8.0) == 8


BASE_CONFIG = """
# deterministic system with spare capacity
lambda = 0.5
mu = 0.25
event_kind = deterministic
service_kind = deterministic
policy = time
w = 5
epsilon = 1e-6
"""

SIM_CONFIG = """
lambda = 0.5
mu = 1.0
event_kind = exponential
service_kind = exponential
policy = event
alpha = 1
epsilon = 1e-2,1e-3
samples = 60000
seed = 4242
burn_in = 2000
"""


# (command, config) pairs that must be rejected as config errors, even with
# --allow-vacuous; every sweep config has the grid a sweep requires, so that
# the error is the one named
GRID = "grid = 0.5\n"
INVALID_INPUTS = {
    "sweep-lambda-0": ("sweep", "lambda = 0\nmu = 0.25\n" + GRID),
    "sweep-mu-negative": ("sweep", "lambda = 0.5\nmu = -1\n" + GRID),
    "sweep-mu-inf": ("sweep", "lambda = 0.5\nmu = inf\n" + GRID),
    "sweep-lambda-inf-deterministic": (
        "sweep", "lambda = inf\nmu = 0.25\nevent_kind = deterministic\n" + GRID),
    "sweep-unknown-kind": ("sweep", "lambda = 0.5\nmu = 0.25\nservice_kind = pareto\n" + GRID),
    "sweep-epsilon-inf": ("sweep", "lambda = 0.5\nmu = 0.25\nepsilon = inf\n" + GRID),
    "sweep-couple-alpha": ("sweep", "lambda = 0.5\nmu = 0.25\ncouple_alpha = true\n" + GRID),
    "bound-epsilon-inf": ("bound", BASE_CONFIG.replace("epsilon = 1e-6", "epsilon = 1e-3,inf")),
    "bound-lambda-0-deterministic": ("bound", BASE_CONFIG.replace("lambda = 0.5", "lambda = 0")),
    "bound-lambda-inf": ("bound", SIM_CONFIG.replace("lambda = 0.5", "lambda = inf")),
    "bound-mu-inf": ("bound", SIM_CONFIG.replace("mu = 1.0", "mu = inf")),
    "bound-w-inf": ("bound", BASE_CONFIG.replace("w = 5", "w = inf")),
    "bound-w-twice": ("bound", BASE_CONFIG.replace("w = 5", "w = 13\nw = 3")),
    "bound-alpha-inf": ("bound", SIM_CONFIG.replace("alpha = 1", "alpha = inf")),
    "simulate-alpha-inf": ("simulate", SIM_CONFIG.replace("alpha = 1", "alpha = inf")),
    "simulate-mu-inf": ("simulate", SIM_CONFIG.replace("mu = 1.0", "mu = inf")),
    "simulate-w-nan": ("simulate", BASE_CONFIG.replace("w = 5", "w = nan")),
    "simulate-epsilon-inf": ("simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon = inf")),
    "simulate-epsilon-above-1": (
        "simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon = 1e-2,2")),
    "simulate-seed-negative": ("simulate", SIM_CONFIG.replace("seed = 4242", "seed = -1")),
    "simulate-samples-negative": (
        "simulate", SIM_CONFIG.replace("samples = 60000", "samples = -5")),
}

# (command, flag) pairs of flags a command does not read, which it rejects
UNREAD_FLAGS = [
    (command, flag)
    for command in ("bound", "sweep")
    for flag in (["--samples", "10"], ["--seed", "1"], ["--workers", "1"])
] + [("figure", ["--allow-vacuous"])]


class TestCli:
    @pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
    def test_invalid_input_exit_2(self, case, tmp_path, capsys):
        command, text = INVALID_INPUTS[case]
        cfg = _write(tmp_path, "bad.cfg", text)
        out = tmp_path / "bad.csv"
        argv = [command, "--config", cfg, "--out", str(out), "--allow-vacuous"]
        if command == "simulate":
            argv += ["--workers", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                             ids=["%s %s" % (c, f[0]) for c, f in UNREAD_FLAGS])
    def test_unread_flag_exit_2(self, command, flag, tmp_path, capsys):
        cfg = _write(tmp_path, "dd1.cfg", BASE_CONFIG)
        argv = [command, "fig3"] if command == "figure" else [command, "--config", cfg]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in capsys.readouterr().err

    def test_bound_command_deterministic_values(self, tmp_path, capsys):
        cfg = _write(tmp_path, "dd1.cfg", BASE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        delay = next(r for r in rows if r["metric"] == "delay")
        aoi = next(r for r in rows if r["metric"] == "peak_aoi")
        assert float(delay["value"]) == pytest.approx(4.0, abs=0.05)
        assert float(aoi["value"]) == pytest.approx(9.0, abs=0.05)
        assert delay["source"] == "bound"
        assert delay["scenario"] == "dd1"

    def test_simulate_deterministic_output(self, tmp_path):
        cfg = _write(tmp_path, "mm1.cfg", SIM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_burn_in_past_a_chunk_same_csv_at_any_workers(self, tmp_path):
        # two 2M-update replications whose burn-in ends in their second
        # chunk: the pooled workers skip it across the chunk boundary
        cfg = _write(
            tmp_path, "burn.cfg",
            "lambda = 0.5\nmu = 0.25\npolicy = time\nw = 13\n"
            "epsilon = 1e-2,1e-3\nseed = 7\nsamples = 4000000\nburn_in = 300000\n",
        )
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / ("w%s.csv" % workers)
            assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_rounds_threshold(self, tmp_path):
        cfg = _write(
            tmp_path, "frac.cfg",
            SIM_CONFIG.replace("alpha = 1", "alpha = 1.6").replace(
                "samples = 60000", "samples = 30000"
            ),
        )
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        body = out.read_text()
        assert "alpha_rounded:1.6->2" in body

    def test_empty_list_exit_2(self, tmp_path, capsys):
        # an empty epsilon or grid list, an empty item in one, and a sweep
        # without a grid are config errors, never a CSV of the header alone
        cases = [
            ("bound", BASE_CONFIG.replace("epsilon = 1e-6", "epsilon =")),
            ("bound", BASE_CONFIG.replace("epsilon = 1e-6", "epsilon = 1e-3,,1e-2")),
            ("simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon =")),
            ("simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon = 1e-2,")),
            ("sweep", "lambda = 0.5\nmu = 0.25\ngrid =\n"),
            ("sweep", "lambda = 0.5\nmu = 0.25\ngrid = 0.5,,0.6\n"),
            ("sweep", "lambda = 0.5\nmu = 0.25\n"),
        ]
        out = tmp_path / "l.csv"
        for command, text in cases:
            cfg = _write(tmp_path, "list.cfg", text)
            argv = [command, "--config", cfg, "--out", str(out)]
            assert main(argv + (["--workers", "1"] if command == "simulate" else [])) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and ("epsilon" in err or "grid" in err)
            assert not out.exists()

    def test_sweep_grid_values_must_be_positive_exit_2(self, tmp_path, capsys):
        # a zero utilization has no update interval, and a negative interval
        # no time-triggered system: both are config errors, not empty rows
        for axis, grid in (("utilization", "0, 0.5"), ("w", "-3, 13"), ("w", "13, inf")):
            cfg = _write(
                tmp_path, "grid.cfg",
                "lambda = 0.5\nmu = 0.25\nsweep_axis = %s\ngrid = %s\n" % (axis, grid),
            )
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 2
            assert "grid values must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_unwritable_out_exit_2_before_the_work(self, command, tmp_path, capsys, monkeypatch):
        cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG)
        ran = []
        monkeypatch.setattr(cli, "bound_rows", lambda *a, **k: ran.append("bound_rows"))
        monkeypatch.setattr(cli, "_simulate", lambda *a, **k: ran.append("_simulate"))
        extra = ["--workers", "1"] if command == "simulate" else []
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: cannot write --out %s: " % out)
            assert err.count("\n") == 1
        assert ran == [] and sorted(os.listdir(tmp_path)) == ["sim.cfg"]

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_failed_write_exit_2_leaves_no_file(self, command, tmp_path, capsys, monkeypatch):
        # a disk that fills after the first bytes: the partial CSV is removed
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG)
        out = tmp_path / "x.csv"
        def open_on_full_disk(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(cli, "open", open_on_full_disk, raising=False)
        extra = ["--workers", "1"] if command == "simulate" else []
        assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err == "usage error: cannot write --out %s: %s\n" % (
            out, os.strerror(errno.ENOSPC))
        assert not out.exists()

    def test_config_errors_exit_2(self, tmp_path):
        bad = _write(tmp_path, "bad.cfg", "unknown_key = 3\n")
        assert main(["bound", "--config", bad]) == 2
        missing = _write(tmp_path, "missing.cfg", "lambda = 0.5\n")
        assert main(["bound", "--config", missing]) == 2
        assert main(["bound", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("key", ["seed", "samples"])
    def test_negative_config_integer_names_key_and_line(self, key, tmp_path, capsys):
        # rejected as the config is read, before a run makes its directory
        command, text = INVALID_INPUTS["simulate-%s-negative" % key]
        cfg = _write(tmp_path, "neg.cfg", text)
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key + " "))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "n.csv")]) == 2
        assert "%s:%d: bad value for %s: must be >= " % (cfg, lineno, key) in capsys.readouterr().err

    def test_negative_burn_in_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "neg.cfg", SIM_CONFIG.replace("burn_in = 2000", "burn_in = -5"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "n.csv")]) == 2
        assert "burn_in" in capsys.readouterr().err

    def test_simulator_nan_exit_3_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        # a nan from the simulator is an internal numerical failure, not a
        # config error: the tails refuse it, the run exits 3, and no CSV is
        # written
        monkeypatch.setattr(simulate, "sample", nan_in_second_service_draw(simulate.sample))
        cfg = _write(
            tmp_path, "tt.cfg",
            "lambda = 0.5\nmu = 1\npolicy = time\nw = 2\nepsilon = 1e-3\nsamples = 200000\n",
        )
        out = tmp_path / "n.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "1"]) == 3
        assert "ValueError: samples must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_below_one_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "mm1.cfg", SIM_CONFIG)
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--config", cfg, "--workers", workers])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_samples_below_one_exit_2(self, capsys):
        for samples in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["figure", "fig3", "--samples", samples])
            assert exc.value.code == 2
            assert "--samples" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "mm1.cfg", SIM_CONFIG)
        for argv in (["figure", "fig3"], ["simulate", "--config", cfg]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "-3"])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_figure_budget_below_burn_in_exit_2(self, capsys):
        assert main(["figure", "fig3", "--samples", "5"]) == 2
        assert "too small for burn_in" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(SWEEP_FIGURES))
    def test_bound_only_figure_rejects_samples_exit_2(self, name, capsys):
        assert main(["figure", name, "--samples", "5"]) == 2
        assert "--samples does not apply" in capsys.readouterr().err

    def test_bound_only_figure_output_ignores_seed_and_workers(self, tmp_path, capsys):
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(["figure", "fig4a", "--out", str(plain)]) == 0
        assert main(["figure", "fig4a", "--out", str(flagged), "--seed", "3",
                     "--workers", "2"]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_unknown_figure_exit_2(self):
        assert main(["figure", "fig99"]) == 2

    def test_vacuous_epsilon_needs_flag(self, tmp_path):
        cfg = _write(tmp_path, "vac.cfg", BASE_CONFIG.replace("epsilon = 1e-6", "epsilon = 2"))
        assert main(["bound", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 2
        out = tmp_path / "v2.csv"
        assert main(["bound", "--config", cfg, "--out", str(out), "--allow-vacuous"]) == 0
        assert "vacuous" in out.read_text()

    def test_figure_summary_json(self, tmp_path, capsys):
        out = tmp_path / "fig6a.csv"
        assert main(["figure", "fig6a", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["min_aoi_bound"] == pytest.approx(88.0, rel=0.05)
        assert summary["min_doi_bound"] == pytest.approx(44.0, rel=0.05)
        text = out.read_text()
        assert text.startswith(CSV_HEADER)
        assert "peak_doi" in text

    def test_figure_summary_floats_have_the_csv_digits(self, tmp_path, capsys):
        # summary floats are rounded as the CSV prints its values, so a move
        # below the 12th significant digit changes no byte of either output
        assert main(["figure", "fig4b", "--out", str(tmp_path / "fig4b.csv")]) == 0
        printed = []
        json.loads(capsys.readouterr().out, parse_float=lambda t: printed.append(t) or 0.0)
        assert len(printed) == 8
        for t in printed:
            assert float(t) == float(format(float(t), ".12g")), t

    def test_printed_bounds_are_not_below_their_values(self):
        # over the bound rows of the seven sweep presets, a bound prints
        # rounded up, less than one unit of its 12th significant digit above
        # its value, where nearest rounding prints some below it; every
        # other number keeps nearest rounding
        rows = [r for name in sorted(SWEEP_FIGURES) for r in FIGURES[name]()[0]]
        rows.sort(key=lambda r: r.sort_key())
        lines = cli.render_csv(rows).splitlines()
        header = lines[0].split(",")
        below = 0
        for row, line in zip(rows, lines[1:]):
            printed = dict(zip(header, line.split(",")))
            assert printed["theta_star"] == cli._fmt(row.theta_star)
            assert printed["utilization"] == cli._fmt(row.utilization)
            assert row.source == "bound"
            if row.value is None or not math.isfinite(row.value):
                assert printed["value"] == cli._fmt(row.value)
                continue
            value = float(printed["value"])
            assert row.value <= value <= row.value + 1e-11 * abs(row.value), line
            below += float(format(row.value, ".12g")) < row.value
        assert len(lines) == len(rows) + 1 and below > 0

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_summary_bounds_print_as_their_rows(self, name, tmp_path, capsys):
        # every summary entry that states a bound prints as the CSV row of
        # that bound, rounded up: never below the value computed for it
        out = tmp_path / (name + ".csv")
        budget = [] if name in SWEEP_FIGURES else ["--samples", "30000"]
        assert main(["figure", name, "--out", str(out), "--workers", "1"] + budget) == 0
        summary = json.loads(capsys.readouterr().out)
        rows, _ = FIGURES[name]() if name in SWEEP_FIGURES else FIGURES[name](30000, 0, 1)
        computed = [r.value for r in rows if r.source == "bound" and r.value is not None]
        printed = {float(r["value"]) for r in csv.DictReader(out.read_text().splitlines())
                   if r["source"] == "bound" and r["value"]}
        entries = list(_bound_entries(summary))
        for key, p in entries:
            v = min(computed, key=lambda c: abs(c - p))
            assert p in printed and v <= p <= v + 1e-11 * abs(v), (key, p, v)
        assert entries or name in ("fig7", "fig8")  # their summaries state samples only

    def test_figure_fig5_event_curve_bends_up(self):
        # with deterministic service the event-triggered age bound bends
        # sharply upward at high utilization: the top of the sweep sits far
        # above the curve minimum (5x is crossed near utilization 0.93;
        # verified against a dense brute-force theta sweep)
        from agecalc.sweeps import FIGURES

        rows, _ = FIGURES["fig5"]()
        et_aoi = sorted(
            (r.utilization, r.value)
            for r in rows
            if r.policy == EVENT_TRIGGERED and r.metric == "peak_aoi" and r.value is not None
        )
        values = [v for _, v in et_aoi]
        assert et_aoi[-1][0] >= 0.94  # the sweep reaches high utilization
        assert et_aoi[-1][1] >= 5.0 * min(values)

    def test_figure_fig3_dataset_shape(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "fig3", "--out", str(out), "--samples", "50000",
                     "--seed", "5"]) == 0
        # 40,000 samples back the quantiles at 1e-2 and 1e-3 but not at 1e-4
        dominance = json.loads(capsys.readouterr().out)["tt_dominance"]
        assert dominance["1e-04"]["insufficient_samples"] is True
        assert "insufficient_samples" not in dominance["1e-02"]
        assert "insufficient_samples" not in dominance["1e-03"]
        lines = out.read_text().splitlines()
        hdr = lines[0].split(",")
        rows = [dict(zip(hdr, l.split(","))) for l in lines[1:]]
        kinds = {(r["policy"], r["source"]) for r in rows}
        assert (TIME_TRIGGERED, "bound") in kinds
        assert (EVENT_TRIGGERED, "bound") in kinds
        assert (EVENT_TRIGGERED, "exact") in kinds
        assert (TIME_TRIGGERED, "simulation") in kinds

    def test_figure_fig3_bounds_each_row_once(self, monkeypatch):
        # the tail slope's two bounds, at SLOPE_EPS, are rows of the
        # event-triggered curve: one optimize_theta call per bound row, and
        # the summary's slope is that of the two optimized bounds bit for bit
        calls = []
        optimize = sweeps.optimize_theta

        def counted(scenario, metric):
            calls.append(metric)
            return optimize(scenario, metric)

        monkeypatch.setattr(sweeps, "optimize_theta", counted)
        rows, summary = sweeps.figure_fig3(30_000, 5, 1)
        assert len(calls) == sum(r.source == "bound" for r in rows) == 66
        monkeypatch.undo()
        eps_lo, eps_hi = sweeps.SLOPE_EPS
        b_lo, b_hi = (
            optimize_theta(Scenario(Exponential(0.5), Exponential(1.0), EventTriggered(1), eps),
                           Metric.DELAY).value
            for eps in sweeps.SLOPE_EPS
        )
        slope = (math.log(eps_lo) - math.log(eps_hi)) / (b_lo - b_hi)
        assert summary["bound_tail_slope"] == slope

    def test_figure_fig8_summary_flags_insufficient_samples(self, tmp_path, capsys):
        out = tmp_path / "fig8.csv"
        assert main(["figure", "fig8", "--out", str(out), "--samples", "20000",
                     "--seed", "5", "--workers", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        for key in ("aoi_at_1e-4", "doi_at_1e-4"):
            assert summary[key].pop("insufficient_samples") is True
            assert len(summary[key]) == 6

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_preset_rows(self, name, tmp_path, capsys):
        out = tmp_path / (name + ".csv")
        budget = [] if name in SWEEP_FIGURES else ["--samples", "30000"]
        assert main(["figure", name, "--out", str(out), "--workers", "1"] + budget) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)
        header, *lines = out.read_text().splitlines()
        assert header == CSV_HEADER
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert {(r["source"], r["metric"]) for r in rows} == FIGURE_ROWS[name]

    def test_module_entry_point(self, tmp_path):
        cfg = _write(tmp_path, "dd1.cfg", BASE_CONFIG)
        # the child imports agecalc from src, as plain pytest's pythonpath does
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "agecalc", "bound", "--config", cfg],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(CSV_HEADER)

    @contextlib.contextmanager
    def _child_simulate(self, tmp_path, samples, workers, **popen):
        """`python -m agecalc simulate --workers <workers>` in a child session
        whose TMPDIR is tmp_path / "tmp", where its replications are handed
        over; stdout and stderr go to tmp_path / "out" and "err". On exit the
        session is killed, so a run that fails the test leaves no worker."""
        cfg = _write(
            tmp_path, "tt.cfg",
            "lambda = 0.5\nmu = 0.25\npolicy = time\nw = 13\nepsilon = 1e-2\n"
            "seed = 3\nsamples = %d\n" % samples,
        )
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "agecalc", "simulate", "--config", cfg, "--workers", str(workers)],
                stdout=out, stderr=err, start_new_session=True,
                env=dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp)), **popen,
            )
        try:
            yield proc, tmp
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_os_error_in_a_worker_exit_2_in_one_line(self, tmp_path, workers):
        # a 1 MB file size limit fails the third chunk writes, in the workers
        # or in the one process, as a full TMPDIR does: one line, no
        # traceback, and no file left behind
        resource = pytest.importorskip("resource")

        def limit_file_size():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, hard))

        child = self._child_simulate(tmp_path, 4_000_000, workers, preexec_fn=limit_file_size)
        with child as (proc, tmp):
            proc.wait(timeout=120)
        err = (tmp_path / "err").read_text()
        assert proc.returncode == 2, err
        assert err == "error: simulate failed: %s\n" % os.strerror(errno.EFBIG)
        assert (tmp_path / "out").read_text() == "" and list(tmp.iterdir()) == []

    def test_raw_queries_pass_a_file_size_limit(self, tmp_path):
        # three 2M-update replications, each array's file 16 MB, pass a
        # 40 MB file size limit, and the raw tails' queries write nothing:
        # the run exits 0 with the CSV of a run without the limit, and no
        # file left
        resource = pytest.importorskip("resource")

        def limit_file_size():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (40 << 20, hard))

        results = []
        for run, popen in (("limited", {"preexec_fn": limit_file_size}), ("free", {})):
            (tmp_path / run).mkdir()
            with self._child_simulate(tmp_path / run, 6_000_000, 1, **popen) as (proc, tmp):
                proc.wait(timeout=120)
            assert proc.returncode == 0, (tmp_path / run / "err").read_text()
            assert list(tmp.iterdir()) == []
            results.append((tmp_path / run / "out").read_text())
        assert results[0] == results[1] and results[0].startswith(CSV_HEADER)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_removes_the_temporary_directory(self, tmp_path, workers):
        # 20 replications of 2M updates: the run is stopped while it writes
        # replications under TMPDIR
        with self._child_simulate(tmp_path, 40_000_000, workers) as (proc, tmp):
            deadline = time.monotonic() + 60
            while not any(p.name.startswith("agecalc-") for p in tmp.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
        assert proc.returncode == 128 + signal.SIGTERM, (tmp_path / "err").read_text()
        assert list(tmp.iterdir()) == []

    def test_numpy_random_loads_with_the_cli(self):
        # a SIGTERM that arrives while numpy.random initialises is lost: the
        # one-process run above then went on to exit 0
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        code = "import sys, agecalc.cli; assert 'numpy.random' in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)

    def test_only_a_pool_loads_multiprocessing(self, tmp_path):
        # the CLI, a one-process run and a bound never import the pool;
        # a run on two workers does
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        cfg = _write(tmp_path, "dd1.cfg", BASE_CONFIG)
        code = (
            "import sys, agecalc.cli\n"
            "from agecalc import Exponential, Scenario, TimeTriggered, run_replications\n"
            "def pool():\n"
            "    return [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "assert pool() == [], 'import'\n"
            "scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)\n"
            "run_replications(scenario, 3000, 2, 5, burn_in=100, workers=1)\n"
            "assert pool() == [], 'workers=1'\n"
            "assert agecalc.cli.main(['bound', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "assert pool() == [], 'bound'\n"
            "run_replications(scenario, 3000, 2, 5, burn_in=100, workers=2)\n"
            "assert len(pool()) == 2, 'workers=2'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code, cfg, str(tmp_path / "b.csv")],
            env=dict(os.environ, PYTHONPATH=path), check=True,
        )

    def test_main_restores_the_sigterm_handler(self, tmp_path):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            cfg = _write(tmp_path, "dd1.cfg", BASE_CONFIG)
            assert main(["bound", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_workers_default_to_the_usable_cpus(self, monkeypatch):
        # under a cpuset the affinity mask is smaller than the host's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert build_parser().parse_args(["simulate", "--config", "x.cfg"]).workers == 2
        assert build_parser().parse_args(["figure", "fig3"]).workers == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().parse_args(["figure", "fig3"]).workers == 64

    def test_parse_config_types(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "t.cfg", SIM_CONFIG))
        assert cfg["alpha"] == 1.0
        assert cfg["epsilon"] == [1e-2, 1e-3]
        assert cfg["samples"] == 60000
        assert cfg["seed"] == 4242

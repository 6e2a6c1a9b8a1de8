import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agecalc import SweepSpec, params_for_utilization, round_threshold, sweep_rows
from agecalc.cli import CSV_HEADER, build_parser, main, parse_config
from agecalc.sweeps import EVENT_TRIGGERED, FIGURES, SWEEP_FIGURES, TIME_TRIGGERED

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
        spec = SweepSpec(event_rate=0.5, service_rate=0.25, axis="w", grid=(2.0,),
                         couple_alpha=True)
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
        spec = SweepSpec(event_rate=0.1, service_rate=2.0, axis="w", grid=(3.0,),
                         couple_alpha=True)
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
# --allow-vacuous
INVALID_INPUTS = {
    "sweep-lambda-0": ("sweep", "lambda = 0\nmu = 0.25\n"),
    "sweep-mu-negative": ("sweep", "lambda = 0.5\nmu = -1\n"),
    "sweep-mu-inf": ("sweep", "lambda = 0.5\nmu = inf\n"),
    "sweep-lambda-inf-deterministic": (
        "sweep", "lambda = inf\nmu = 0.25\nevent_kind = deterministic\n"),
    "sweep-unknown-kind": ("sweep", "lambda = 0.5\nmu = 0.25\nservice_kind = pareto\n"),
    "sweep-epsilon-inf": ("sweep", "lambda = 0.5\nmu = 0.25\nepsilon = inf\n"),
    "bound-epsilon-inf": ("bound", BASE_CONFIG.replace("epsilon = 1e-6", "epsilon = 1e-3,inf")),
    "bound-lambda-0-deterministic": ("bound", BASE_CONFIG.replace("lambda = 0.5", "lambda = 0")),
    "bound-lambda-inf": ("bound", SIM_CONFIG.replace("lambda = 0.5", "lambda = inf")),
    "bound-mu-inf": ("bound", SIM_CONFIG.replace("mu = 1.0", "mu = inf")),
    "bound-w-inf": ("bound", BASE_CONFIG.replace("w = 5", "w = inf")),
    "bound-alpha-inf": ("bound", SIM_CONFIG.replace("alpha = 1", "alpha = inf")),
    "simulate-alpha-inf": ("simulate", SIM_CONFIG.replace("alpha = 1", "alpha = inf")),
    "simulate-mu-inf": ("simulate", SIM_CONFIG.replace("mu = 1.0", "mu = inf")),
    "simulate-w-nan": ("simulate", BASE_CONFIG.replace("w = 5", "w = nan")),
    "simulate-epsilon-inf": ("simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon = inf")),
    "simulate-epsilon-above-1": (
        "simulate", SIM_CONFIG.replace("epsilon = 1e-2,1e-3", "epsilon = 1e-2,2")),
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

    def test_sweep_empty_grid_header_only(self, tmp_path):
        cfg = _write(tmp_path, "sweep.cfg", "lambda = 0.5\nmu = 0.25\ngrid =\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == CSV_HEADER + "\n"

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

    def test_config_errors_exit_2(self, tmp_path):
        bad = _write(tmp_path, "bad.cfg", "unknown_key = 3\n")
        assert main(["bound", "--config", bad]) == 2
        missing = _write(tmp_path, "missing.cfg", "lambda = 0.5\n")
        assert main(["bound", "--config", missing]) == 2
        assert main(["bound", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_negative_burn_in_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "neg.cfg", SIM_CONFIG.replace("burn_in = 2000", "burn_in = -5"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "n.csv")]) == 2
        assert "burn_in" in capsys.readouterr().err

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

"""The three benchmark workloads: their inputs, jobs and correctness checks.

A job is one closed-loop unit of work: the caller starts the next job only
after the previous one returned. A workload's `make_*` function builds the
job's inputs from the seed once; calling the job does the work and returns
a `JobResult` with the checks it made and the CSV bytes it produced.

- dominance: criterion 7's 12-scenario plan, three optimized bounds and one
  serial raw-mode replication per scenario. Loads the simulator; bounds are
  about 1 % of it; makes no CLI call and never reaches histogram tails.
- design: the bound-only figure presets through `cli.main`, then the
  deviation-optimal threshold and interval searches. Loads bounds,
  envelopes, models and sweeps; never simulates.
- tails-cli: `agecalc simulate` and `agecalc bound` on one time-triggered
  config whose tails pass the raw-sample limit. Loads the process pool,
  histogram binning and the parent-side merge; bounds are a few calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from agecalc import bounds, cli, simulate, sweeps
from agecalc.bounds import Metric, Scenario
from agecalc.envelopes import EventTriggered, TimeTriggered
from agecalc.models import Exponential
from agecalc.simulate import DEFAULT_BURN_IN

ALL_METRICS = (Metric.DELAY, Metric.PEAK_AOI, Metric.PEAK_DOI)

# Bound once at import, before any tracing swaps `cli.render_csv`: the
# dominance workload makes no CLI call and hashes its rows outside the
# CLI layer's accounting.
_render_csv = cli.render_csv


@dataclass(frozen=True)
class Sizes:
    """Sample budgets and preset lists; FULL is the benchmark, TINY the smoke test."""

    dominance_updates: int
    dominance_burn_in: int
    design_presets: Tuple[str, ...]
    tails_samples: int


FULL = Sizes(
    dominance_updates=2_000_000,
    dominance_burn_in=10_000,
    design_presets=("fig4a", "fig4b", "fig4c", "fig5", "fig6a", "fig6b", "fig6c"),
    # 12 replications of 2M updates: every pooled tail holds 23.88M samples,
    # past the 10^7 raw limit, so the merge runs in histogram mode.
    tails_samples=24_000_000,
)
TINY = Sizes(
    dominance_updates=30_000,
    dominance_burn_in=1_000,
    design_presets=("fig6a",),
    tails_samples=60_000,
)

TAILS_W = 13.0
TAILS_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DOMINANCE_EPS = 1e-3


@dataclass
class JobResult:
    """Checks made by one job, the CSV bytes it produced and the work it did:
    optimize_theta results (None where only a traced job can count them),
    simulated updates, and the updates of its longest replication."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    csv: bytes = b""
    bound_results: Optional[int] = 0
    updates: int = 0
    largest_replication: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# dominance


def dominance_plan() -> List[Tuple[str, Scenario]]:
    """Criterion 7's 12 scenarios: both policies, both event and service
    kinds, utilizations 0.25 / 0.5 / 0.8; event rate 1 for the
    event-triggered rows keeps the coupled threshold integral."""
    plan = []
    mu = 0.25
    for u, triples in (
        (0.25, (("tt", "exponential", "exponential"), ("tt", "deterministic", "deterministic"),
                ("et", "exponential", "exponential"), ("et", "deterministic", "deterministic"))),
        (0.5, (("tt", "exponential", "deterministic"), ("tt", "deterministic", "exponential"),
               ("et", "exponential", "deterministic"), ("et", "deterministic", "exponential"))),
        (0.8, (("tt", "exponential", "exponential"), ("tt", "deterministic", "deterministic"),
               ("et", "exponential", "exponential"), ("et", "deterministic", "deterministic"))),
    ):
        for policy_kind, event_kind, service_kind in triples:
            if policy_kind == "tt":
                lam = 0.5
                policy = TimeTriggered(interval=1.0 / (u * mu))
            else:
                lam = 1.0
                policy = EventTriggered(threshold=round(lam / (u * mu)))
            scenario = Scenario(
                sweeps.make_model(event_kind, lam), sweeps.make_model(service_kind, mu),
                policy, DOMINANCE_EPS,
            )
            label = "%s-%s-%s-u%02.0f" % (policy_kind, event_kind[0], service_kind[0], u * 100)
            plan.append((label, scenario))
    return plan


def check_dominance(res: JobResult, label: str, metric: str, tail, bound: float,
                    eps: float) -> None:
    """The empirical violation of a bound may exceed eps by at most 3 sigma."""
    freq = tail.exceed_fraction(bound)
    limit = eps + 3.0 * math.sqrt(eps * (1.0 - eps) / tail.n_samples)
    res.check(freq <= limit, "%s %s: violation %.5g above %.5g (bound %.6g)"
              % (label, metric, freq, limit, bound))


def make_dominance(seed: int, sizes: Sizes, workdir: Path) -> Callable[[], JobResult]:
    plan = dominance_plan()
    base_seeds = [seed * 1000 + i for i in range(len(plan))]

    def job() -> JobResult:
        res = JobResult()
        rows = []
        for (label, scenario), base_seed in zip(plan, base_seeds):
            results = [bounds.optimize_theta(scenario, m) for m in ALL_METRICS]
            # the certified integer bound for the deviation metric
            checked = {
                Metric.DELAY.value: results[0].value,
                Metric.PEAK_AOI.value: results[1].value,
                Metric.PEAK_DOI.value: float(results[2].value_int),
            }
            tails = simulate.run_replications(
                scenario, sizes.dominance_updates, 1, base_seed,
                burn_in=sizes.dominance_burn_in,
            )
            res.bound_results += len(results)
            res.updates += sizes.dominance_updates
            for metric, tail in tails.by_name().items():
                check_dominance(res, label, metric, tail, checked[metric], DOMINANCE_EPS)
            rows += sweeps.simulation_rows(label, scenario, "epsilon", DOMINANCE_EPS,
                                           tails, (DOMINANCE_EPS,))
            rows += [
                sweeps.CsvRow(
                    scenario=label, policy=sweeps._policy_name(scenario.policy), axis="epsilon",
                    axis_value=DOMINANCE_EPS, utilization=scenario.utilization,
                    metric=r.metric.value, source="bound", epsilon=DOMINANCE_EPS,
                    value=checked[r.metric.value], theta_star=r.theta_star,
                )
                for r in results
            ]
        res.largest_replication = sizes.dominance_updates
        res.csv = _render_csv(rows).encode()
        return res

    return job


def warm_dominance() -> None:
    label, scenario = dominance_plan()[0]
    bound = bounds.optimize_theta(scenario, Metric.DELAY).value
    tails = simulate.run_replications(scenario, 20_000, 1, 0, burn_in=1_000)
    tails.delay.exceed_fraction(bound)


# ---------------------------------------------------------------------------
# design


def _run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """`cli.main` in-process with the CSV (stdout) and summary (stderr) captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def check_design_minima(res: JobResult, summary: Dict) -> None:
    """Criterion 4: fig6a minima 88 (age) and 44 (deviation) at utilization 0.30."""
    for key, target in (("min_aoi_bound", 88.0), ("min_doi_bound", 44.0)):
        v = summary.get(key)
        res.check(v is not None and abs(v - target) <= 0.05 * target,
                  "fig6a %s %r not within 5%% of %g" % (key, v, target))
    for key in ("argmin_utilization", "argmin_utilization_doi"):
        v = summary.get(key)
        res.check(v is not None and abs(v - 0.30) <= 0.05,
                  "fig6a %s %r not within 0.05 of 0.30" % (key, v))


def check_design_optima(res: JobResult, alpha_star: int, et_min: float,
                        w_star: float, tt_min: float) -> None:
    """Criterion 6: threshold 8, interval in [12, 14], optima within 10 %."""
    res.check(alpha_star == 8, "threshold argmin %r, expected 8" % (alpha_star,))
    res.check(12.0 <= w_star <= 14.0, "interval argmin %.3f outside [12, 14]" % w_star)
    res.check(abs(tt_min - et_min) / et_min <= 0.10,
              "optima %.4f and %.4f differ by more than 10%%" % (tt_min, et_min))


def make_design(seed: int, sizes: Sizes, workdir: Path) -> Callable[[], JobResult]:
    # The presets draw no random numbers: the seed only orders them, so the
    # work is the same on every seed.
    presets = list(sizes.design_presets)
    random.Random(seed).shuffle(presets)

    def job() -> JobResult:
        # The searches also call optimize_theta: only a traced job counts them.
        res = JobResult(bound_results=None)
        parts = []
        for name in presets:
            rc, out, err = _run_cli(["figure", name, "--seed", str(seed), "--workers", "1"])
            res.check(rc == 0, "figure %s exited %d" % (name, rc))
            parts.append(out)
            if name == "fig6a":
                check_design_minima(res, json.loads(err) if rc == 0 else {})
        events, service = Exponential(0.5), Exponential(0.25)
        alpha_star, et_min = sweeps.best_event_threshold(events, service, 1e-6)
        w_star, tt_min = sweeps.best_update_interval(events, service, 1e-6)
        check_design_optima(res, alpha_star, et_min, w_star, tt_min)
        res.csv = "".join(parts).encode()
        return res

    return job


def warm_design() -> None:
    scenario = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(13.0), 1e-6)
    cli.render_csv(sweeps.bound_rows("warmup", scenario, "epsilon", 1e-6))


# ---------------------------------------------------------------------------
# tails-cli


def _read_rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_tails(res: JobResult, sim_csv: str, bound_csv: str, w: float,
                eps_values: Sequence[float]) -> None:
    """One row per (metric, epsilon) from each command; simulated quantiles
    nondecreasing as epsilon shrinks; peak age at least w; every
    sufficiently sampled simulated quantile at most the bound."""
    sim, bnd = _read_rows(sim_csv), _read_rows(bound_csv)
    want = sorted((m.value, e) for m in ALL_METRICS for e in eps_values)
    for label, rows in (("simulate", sim), ("bound", bnd)):
        got = sorted((r["metric"], float(r["epsilon"])) for r in rows)
        res.check(got == want, "%s: rows %r, expected one per (metric, epsilon)" % (label, got))
    bound_of = {(r["metric"], float(r["epsilon"])): r["value"] for r in bnd}
    for metric in ALL_METRICS:
        curve = sorted(((float(r["epsilon"]), float(r["value"])) for r in sim
                        if r["metric"] == metric.value), reverse=True)
        values = [v for _, v in curve]
        res.check(all(a <= b for a, b in zip(values, values[1:])),
                  "%s quantiles %r decrease as epsilon shrinks" % (metric.value, values))
    aoi = [float(r["value"]) for r in sim if r["metric"] == Metric.PEAK_AOI.value]
    res.check(bool(aoi) and min(aoi) >= w, "peak_aoi quantiles %r below w=%g" % (aoi, w))
    for r in sim:
        if "insufficient_samples" in r["flag"].split(";"):
            continue
        key = (r["metric"], float(r["epsilon"]))
        bound = bound_of.get(key, "")
        res.check(bound != "" and float(r["value"]) <= float(bound),
                  "%s eps=%s: simulated %s above bound %r" % (key[0], r["epsilon"],
                                                           r["value"], bound))


def make_tails(seed: int, sizes: Sizes, workdir: Path) -> Callable[[], JobResult]:
    config = workdir / "tails.cfg"
    config.write_text(
        "lambda = 0.5\nmu = 0.25\npolicy = time\nw = %r\nepsilon = %s\n"
        "samples = %d\nseed = %d\n"
        % (TAILS_W, ",".join("%g" % e for e in TAILS_EPS), sizes.tails_samples, seed)
    )
    workers = str(nproc())
    # the split `agecalc simulate` makes of the sample budget
    n_updates, n_reps = sweeps._split_budget(sizes.tails_samples, DEFAULT_BURN_IN)

    def job() -> JobResult:
        res = JobResult(updates=n_updates * n_reps, largest_replication=n_updates)
        rc_sim, sim_csv, _ = _run_cli(["simulate", "--config", str(config),
                                       "--workers", workers])
        rc_bound, bound_csv, _ = _run_cli(["bound", "--config", str(config)])
        res.check(rc_sim == 0, "simulate exited %d" % rc_sim)
        res.check(rc_bound == 0, "bound exited %d" % rc_bound)
        check_tails(res, sim_csv, bound_csv, TAILS_W, TAILS_EPS)
        res.bound_results = sum(r["value"] != "" for r in _read_rows(bound_csv))
        res.csv = (sim_csv + bound_csv).encode()
        return res

    return job


def warm_tails() -> None:
    scenario = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(TAILS_W), 1e-6)
    tails = simulate.run_replications(scenario, 20_000, 1, 0, burn_in=1_000)
    cli.render_csv(sweeps.simulation_rows("warmup", scenario, "epsilon", 0.0, tails, TAILS_EPS))


WORKLOADS = {
    "dominance": (make_dominance, warm_dominance),
    "design": (make_design, warm_design),
    "tails-cli": (make_tails, warm_tails),
}

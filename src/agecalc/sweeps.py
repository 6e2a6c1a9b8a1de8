"""Experiment sweeps: bound curves, simulation cross-checks, figure presets.

Rows use one flat record shape shared by all commands so that every output
CSV has the same schema. Sweeps couple the update interval w of the
time-triggered system with the event threshold of the event-triggered
system through alpha = lambda * w, which equalizes the mean utilization of
both systems; a utilization axis value u maps to w = 1/(u*mu) and
alpha = lambda/(u*mu). Bound curves keep the real-valued alpha; the
simulator needs an integer threshold, so simulation rows round it (half up,
minimum 1) and record the rounding in the flag column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    Metric,
    NoFeasibleTheta,
    Scenario,
    exact_mm1_tail,
    optimize_theta,
)
from .envelopes import EventTriggered, TimeTriggered, TriggerPolicy
from .models import Deterministic, DistributionModel, Exponential
from .simulate import (
    DEFAULT_BURN_IN,
    EmpiricalTail,
    InsufficientSamples,
    MetricTails,
    run_replications,
)

CSV_HEADER = (
    "scenario,policy,axis,axis_value,utilization,metric,source,epsilon,value,theta_star,flag"
)

TIME_TRIGGERED = "time_triggered"
EVENT_TRIGGERED = "event_triggered"

ALL_METRICS = (Metric.DELAY, Metric.PEAK_AOI, Metric.PEAK_DOI)


@dataclass(frozen=True)
class CsvRow:
    scenario: str
    policy: str
    axis: str
    axis_value: float
    utilization: float
    metric: str
    source: str  # bound | simulation | exact
    epsilon: float
    value: Optional[float]
    theta_star: Optional[float]
    flag: str = ""

    def sort_key(self):
        return (
            self.scenario,
            self.policy,
            self.axis,
            self.axis_value,
            self.metric,
            self.source,
            self.epsilon,
        )


@dataclass(frozen=True)
class SweepSpec:
    """Parameter sweep over the update interval or the utilization axis."""

    event_rate: float
    service_rate: float
    event_kind: str = "exponential"
    service_kind: str = "exponential"
    epsilon: float = 1e-6
    axis: str = "utilization"  # "w" or "utilization"
    grid: Sequence[float] = ()
    couple_alpha: bool = True

    def __post_init__(self) -> None:
        if self.axis not in ("w", "utilization"):
            raise ValueError("axis must be 'w' or 'utilization', got %r" % (self.axis,))


def make_model(kind: str, rate: float) -> DistributionModel:
    """Build a distribution from its mean rate: exponential(rate) or the
    deterministic value 1/rate."""
    if kind == "exponential":
        return Exponential(rate=rate)
    if kind == "deterministic":
        return Deterministic(value=1.0 / rate)
    raise ValueError("unknown distribution kind %r" % (kind,))


def params_for_utilization(u: float, event_rate: float, service_rate: float) -> Tuple[float, float]:
    """Map a utilization axis value to (w, alpha) with equal mean load."""
    w = 1.0 / (u * service_rate)
    return w, event_rate * w


def round_threshold(alpha: float) -> int:
    """Nearest integer threshold the simulator accepts, at least 1."""
    return max(1, int(math.floor(alpha + 0.5)))


class SampleBudgetError(ValueError):
    """A simulation sample budget too small for the burn-in."""


def _policy_name(policy: TriggerPolicy) -> str:
    return TIME_TRIGGERED if isinstance(policy, TimeTriggered) else EVENT_TRIGGERED


def bound_rows(
    scenario_id: str,
    scenario: Scenario,
    axis: str,
    axis_value: float,
    metrics: Sequence[Metric] = ALL_METRICS,
) -> List[CsvRow]:
    """Optimized-bound rows for one scenario, one per metric; infeasible
    scenarios produce value-less rows flagged accordingly."""
    rows = []
    name = _policy_name(scenario.policy)
    for metric in metrics:
        try:
            res = optimize_theta(scenario, metric)
            flag = "vacuous" if res.vacuous else ""
            value, theta = res.value, res.theta_star
        except NoFeasibleTheta:
            flag, value, theta = "infeasible", None, None
        rows.append(
            CsvRow(
                scenario=scenario_id,
                policy=name,
                axis=axis,
                axis_value=axis_value,
                utilization=scenario.utilization,
                metric=metric.value,
                source="bound",
                epsilon=scenario.epsilon,
                value=value,
                theta_star=theta,
                flag=flag,
            )
        )
    return rows


def simulation_rows(
    scenario_id: str,
    scenario: Scenario,
    axis: str,
    axis_value: float,
    tails: MetricTails,
    eps_values: Sequence[float],
    extra_flag: str = "",
) -> List[CsvRow]:
    """Empirical quantile rows with a 3-sigma binomial error note per row."""
    rows = []
    name = _policy_name(scenario.policy)
    for metric, tail in (
        (Metric.DELAY, tails.delay),
        (Metric.PEAK_AOI, tails.peak_aoi),
        (Metric.PEAK_DOI, tails.peak_doi),
    ):
        n = tail.n_samples
        for eps in eps_values:
            tokens = []
            if extra_flag:
                tokens.append(extra_flag)
            sigma3 = 3.0 * math.sqrt(eps * (1.0 - eps) / n)
            tokens.append("sigma3:%.3e" % sigma3)
            q, insufficient = _quantile(tail, eps)
            if insufficient:
                tokens.append("insufficient_samples")
            rows.append(
                CsvRow(
                    scenario=scenario_id,
                    policy=name,
                    axis=axis,
                    axis_value=eps if axis == "epsilon" else axis_value,
                    utilization=scenario.utilization,
                    metric=metric.value,
                    source="simulation",
                    epsilon=eps,
                    value=q,
                    theta_star=None,
                    flag=";".join(tokens),
                )
            )
    return rows


def _quantile(tail: EmpiricalTail, eps: float) -> Tuple[float, bool]:
    """(tail.quantile(eps), whether fewer than 10/eps samples back it).

    The InsufficientSamples warning is suppressed: callers record the
    shortfall in their output instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsufficientSamples)
        return tail.quantile(eps), tail.n_samples < 10.0 / eps


def _summary_quantile(tail: EmpiricalTail, eps: float, entry: Dict) -> float:
    """tail.quantile(eps) for a figure summary; sets
    entry["insufficient_samples"] when fewer than 10/eps samples back it."""
    q, insufficient = _quantile(tail, eps)
    if insufficient:
        entry["insufficient_samples"] = True
    return q


def sweep_rows(spec: SweepSpec, scenario_id: str = "sweep") -> List[CsvRow]:
    """Bound rows over the requested axis for both coupled policies.

    Axis values implying utilization >= 1 still produce rows; they come back
    flagged infeasible. On a w axis the event-triggered rows appear only
    when couple_alpha is set.
    """
    event_model = make_model(spec.event_kind, spec.event_rate)
    service_model = make_model(spec.service_kind, spec.service_rate)
    rows: List[CsvRow] = []
    for x in spec.grid:
        if spec.axis == "utilization":
            w, alpha = params_for_utilization(x, spec.event_rate, spec.service_rate)
        else:
            w, alpha = x, spec.event_rate * x
        policies: List[TriggerPolicy] = []
        try:
            policies.append(TimeTriggered(interval=w))
        except ValueError:
            pass
        if spec.axis == "utilization" or spec.couple_alpha:
            try:
                policies.append(EventTriggered(threshold=alpha))
            except ValueError:
                # coupled threshold below 1; no event-triggered system exists
                # at this axis value
                for metric in ALL_METRICS:
                    rows.append(
                        CsvRow(
                            scenario=scenario_id,
                            policy=EVENT_TRIGGERED,
                            axis=spec.axis,
                            axis_value=x,
                            utilization=float("nan"),
                            metric=metric.value,
                            source="bound",
                            epsilon=spec.epsilon,
                            value=None,
                            theta_star=None,
                            flag="infeasible",
                        )
                    )
        for policy in policies:
            scenario = Scenario(
                event_model=event_model,
                service_model=service_model,
                policy=policy,
                epsilon=spec.epsilon,
            )
            rows.extend(bound_rows(scenario_id, scenario, spec.axis, x))
    return rows


# ---------------------------------------------------------------------------
# Figure presets. Parameters follow the published experiments at desk scale;
# simulation budgets are counts of simulated updates per scenario.

UTILIZATION_GRID = tuple(np.geomspace(0.05, 0.95, 50))
EPS_GRID = tuple(10.0 ** np.linspace(-9, -1, 33))
SIM_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SIM_EPS_WIDE = (1.0, 0.5, 0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_SAMPLES = 10_000_000
_REP_SIZE = 2_000_000


def _split_budget(samples: int, burn_in: int) -> Tuple[int, int]:
    """(n_updates, n_reps) splitting a sample budget into replications."""
    n_reps = max(1, samples // _REP_SIZE)
    n_updates = math.ceil(samples / n_reps)
    if n_updates < burn_in + 2:
        raise SampleBudgetError(
            "sample budget %d too small for burn_in %d" % (samples, burn_in)
        )
    return n_updates, n_reps


def _simulate(scenario, samples, seed, workers, burn_in=DEFAULT_BURN_IN) -> MetricTails:
    n_updates, n_reps = _split_budget(samples, burn_in)
    return run_replications(
        scenario, n_updates, n_reps, seed, burn_in=burn_in, workers=workers
    )


def _bound_curve_over_eps(scenario_id, policy, event_model, service_model,
                          metrics, eps_values, axis="epsilon") -> List[CsvRow]:
    rows = []
    for eps in eps_values:
        scenario = Scenario(event_model, service_model, policy, eps)
        rows.extend(bound_rows(scenario_id, scenario, axis, eps, metrics))
    return rows


def figure_fig3(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Sojourn-time tail decay: periodic vs single-event-triggered sampling,
    exponential events rate 0.5, exponential service rate 1."""
    event_model = Exponential(rate=0.5)
    service_model = Exponential(rate=1.0)
    tt = TimeTriggered(interval=2.0)
    et = EventTriggered(threshold=1)
    rows = _bound_curve_over_eps("fig3", tt, event_model, service_model,
                                 (Metric.DELAY,), EPS_GRID)
    rows += _bound_curve_over_eps("fig3", et, event_model, service_model,
                                  (Metric.DELAY,), EPS_GRID)
    for eps in EPS_GRID:
        rows.append(
            CsvRow(
                scenario="fig3",
                policy=EVENT_TRIGGERED,
                axis="epsilon",
                axis_value=eps,
                utilization=0.5,
                metric=Metric.DELAY.value,
                source="exact",
                epsilon=eps,
                value=exact_mm1_tail(0.5, 1.0, eps),
                theta_star=None,
            )
        )
    tt_scenario = Scenario(event_model, service_model, tt, 1e-6)
    tails = _simulate(tt_scenario, samples, seed, workers)
    rows += simulation_rows("fig3", tt_scenario, "epsilon", 0.0, tails, SIM_EPS)

    slope = bound_tail_slope(event_model, service_model, et)
    dominance = {}
    for eps in (1e-2, 1e-3, 1e-4):
        b = optimize_theta(
            Scenario(event_model, service_model, tt, eps), Metric.DELAY
        ).value
        entry = dominance["%.0e" % eps] = {"bound": b}
        q = _summary_quantile(tails.delay, eps, entry)
        entry.update(simulated=q, below=bool(q <= b))
    summary = {
        "bound_tail_slope": slope,
        "exact_slope": -0.5,
        "slope_rel_err": abs(slope + 0.5) / 0.5,
        "tt_dominance": dominance,
    }
    return rows, summary


def bound_tail_slope(
    event_model,
    service_model,
    policy,
    eps_lo: float = 1e-9,
    eps_hi: float = 1e-8,
    metric: Metric = Metric.DELAY,
) -> float:
    """Decay rate d(ln eps)/d(bound) of the optimized bound curve, estimated
    at the deep end of the tail where the curve approaches its asymptote."""
    b_lo = optimize_theta(Scenario(event_model, service_model, policy, eps_lo), metric).value
    b_hi = optimize_theta(Scenario(event_model, service_model, policy, eps_hi), metric).value
    return (math.log(eps_lo) - math.log(eps_hi)) / (b_lo - b_hi)


def _figure_delay_aoi_sweep(name: str, event_rate: float, service_kind: str
                            ) -> Tuple[List[CsvRow], Dict]:
    spec = SweepSpec(
        event_rate=event_rate,
        service_rate=0.25,
        event_kind="exponential",
        service_kind=service_kind,
        epsilon=1e-6,
        axis="w",
        grid=tuple(1.0 / (np.asarray(UTILIZATION_GRID) * 0.25)),
        couple_alpha=True,
    )
    all_rows = sweep_rows(spec, name)
    rows = [r for r in all_rows if r.metric in (Metric.DELAY.value, Metric.PEAK_AOI.value)]
    summary = _min_summary(rows, axis_label="w")
    return rows, summary


def figure_fig4a(samples, seed, workers):
    """Delay and age bounds vs update interval, event rate 0.25."""
    return _figure_delay_aoi_sweep("fig4a", 0.25, "exponential")


def figure_fig4b(samples, seed, workers):
    """Delay and age bounds vs update interval, event rate 0.5."""
    return _figure_delay_aoi_sweep("fig4b", 0.5, "exponential")


def figure_fig4c(samples, seed, workers):
    """Delay and age bounds vs update interval, event rate 1."""
    return _figure_delay_aoi_sweep("fig4c", 1.0, "exponential")


def figure_fig5(samples, seed, workers):
    """Same sweep as fig4b with deterministic service times (value 4)."""
    rows, summary = _figure_delay_aoi_sweep("fig5", 0.5, "deterministic")
    tt_delay = [
        r for r in rows
        if r.policy == TIME_TRIGGERED and r.metric == Metric.DELAY.value
        and r.value is not None and r.axis_value > 4.0
    ]
    tt_aoi = [
        r for r in rows
        if r.policy == TIME_TRIGGERED and r.metric == Metric.PEAK_AOI.value
        and r.value is not None and r.axis_value > 4.0
    ]
    summary["tt_delay_spread"] = [
        min(r.value for r in tt_delay), max(r.value for r in tt_delay)
    ]
    summary["tt_aoi_minus_w_spread"] = [
        min(r.value - r.axis_value for r in tt_aoi),
        max(r.value - r.axis_value for r in tt_aoi),
    ]
    return rows, summary


def _figure_doi_sweep(name: str, event_kind: str, service_kind: str
                      ) -> Tuple[List[CsvRow], Dict]:
    spec = SweepSpec(
        event_rate=0.5,
        service_rate=0.25,
        event_kind=event_kind,
        service_kind=service_kind,
        epsilon=1e-6,
        axis="utilization",
        grid=UTILIZATION_GRID,
    )
    all_rows = sweep_rows(spec, name)
    rows = [r for r in all_rows if r.metric in (Metric.PEAK_AOI.value, Metric.PEAK_DOI.value)]
    tt_aoi = _curve(rows, TIME_TRIGGERED, Metric.PEAK_AOI.value)
    tt_doi = _curve(rows, TIME_TRIGGERED, Metric.PEAK_DOI.value)
    et_doi = _curve(rows, EVENT_TRIGGERED, Metric.PEAK_DOI.value)
    summary = {
        "min_aoi_bound": min(v for _, v in tt_aoi),
        "argmin_utilization": min(tt_aoi, key=lambda p: p[1])[0],
        "min_doi_bound": min(v for _, v in tt_doi),
        "argmin_utilization_doi": min(tt_doi, key=lambda p: p[1])[0],
        "et_min_doi_bound": min(v for _, v in et_doi) if et_doi else None,
    }
    return rows, summary


def _curve(rows, policy, metric):
    return [
        (r.axis_value, r.value)
        for r in rows
        if r.policy == policy and r.metric == metric and r.value is not None
    ]


def figure_fig6a(samples, seed, workers):
    """Age and deviation bounds vs utilization: deterministic events."""
    return _figure_doi_sweep("fig6a", "deterministic", "exponential")


def figure_fig6b(samples, seed, workers):
    """Age and deviation bounds vs utilization: exponential events."""
    return _figure_doi_sweep("fig6b", "exponential", "exponential")


def figure_fig6c(samples, seed, workers):
    """Age and deviation bounds vs utilization: deterministic service."""
    return _figure_doi_sweep("fig6c", "exponential", "deterministic")


def _fig7_scenarios() -> Tuple[Scenario, Scenario]:
    event_model = Exponential(rate=0.5)
    service_model = Exponential(rate=0.25)
    tt = Scenario(event_model, service_model, TimeTriggered(interval=13.0), 1e-6)
    et = Scenario(event_model, service_model, EventTriggered(threshold=8), 1e-6)
    return tt, et


def figure_fig7(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Tail decay of age and deviation at the deviation-optimal parameters
    (interval 13 and threshold 8), bounds plus simulation."""
    tt, et = _fig7_scenarios()
    metrics = (Metric.PEAK_AOI, Metric.PEAK_DOI)
    rows = _bound_curve_over_eps("fig7", tt.policy, tt.event_model, tt.service_model,
                                 metrics, EPS_GRID)
    rows += _bound_curve_over_eps("fig7", et.policy, et.event_model, et.service_model,
                                  metrics, EPS_GRID)
    tails = {}
    for label, scenario in (("tt", tt), ("et", et)):
        t = _simulate(scenario, samples, seed, workers)
        tails[label] = t
        rows += simulation_rows("fig7", scenario, "epsilon", 0.0, t, SIM_EPS_WIDE)
    summary = {
        "et_min_doi_sample": tails["et"].peak_doi.quantile(1.0),
        "et_threshold": 8,
        "tt_min_aoi_sample": tails["tt"].peak_aoi.quantile(1.0),
        "tt_interval": 13.0,
        "tt_min_doi_sample": tails["tt"].peak_doi.quantile(1.0),
    }
    return rows, summary


def best_event_threshold(
    event_model, service_model, epsilon: float, search_upto: int = 40
) -> Tuple[int, float]:
    """Integer event threshold minimizing the deviation bound."""
    best = (None, math.inf)
    for a in range(1, search_upto + 1):
        try:
            res = optimize_theta(
                Scenario(event_model, service_model, EventTriggered(threshold=a), epsilon),
                Metric.PEAK_DOI,
            )
        except NoFeasibleTheta:
            continue
        if res.value < best[1]:
            best = (a, res.value)
    if best[0] is None:
        raise NoFeasibleTheta("no stable threshold up to %d" % search_upto)
    return best


def best_update_interval(
    event_model, service_model, epsilon: float,
    grid: Sequence[float] = tuple(np.linspace(4.5, 40.0, 356)),
) -> Tuple[float, float]:
    """Update interval minimizing the deviation bound over a fine grid."""
    best = (None, math.inf)
    for w in grid:
        try:
            res = optimize_theta(
                Scenario(event_model, service_model, TimeTriggered(interval=w), epsilon),
                Metric.PEAK_DOI,
            )
        except NoFeasibleTheta:
            continue
        if res.value < best[1]:
            best = (w, res.value)
    if best[0] is None:
        raise NoFeasibleTheta("no stable interval in grid")
    return best


def figure_fig8(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Empirical age and deviation tails around the optimal parameters:
    intervals 7/13/19 and thresholds 4/8/12."""
    event_model = Exponential(rate=0.5)
    service_model = Exponential(rate=0.25)
    rows: List[CsvRow] = []
    summary: Dict = {"aoi_at_1e-4": {}, "doi_at_1e-4": {}}
    for w in (7.0, 13.0, 19.0):
        scenario = Scenario(event_model, service_model, TimeTriggered(interval=w), 1e-6)
        tails = _simulate(scenario, samples, seed, workers)
        rows += simulation_rows("fig8-w%g" % w, scenario, "epsilon", 0.0, tails, SIM_EPS_WIDE)
        _summarize_fig8(summary, "w=%g" % w, tails)
    for a in (4, 8, 12):
        scenario = Scenario(event_model, service_model, EventTriggered(threshold=a), 1e-6)
        tails = _simulate(scenario, samples, seed, workers)
        rows += simulation_rows("fig8-a%d" % a, scenario, "epsilon", 0.0, tails, SIM_EPS_WIDE)
        _summarize_fig8(summary, "alpha=%d" % a, tails)
    return rows, summary


def _summarize_fig8(summary: Dict, label: str, tails: MetricTails) -> None:
    for key, tail in (("aoi_at_1e-4", tails.peak_aoi), ("doi_at_1e-4", tails.peak_doi)):
        summary[key][label] = _summary_quantile(tail, 1e-4, summary[key])


FIGURES = {
    "fig3": figure_fig3,
    "fig4a": figure_fig4a,
    "fig4b": figure_fig4b,
    "fig4c": figure_fig4c,
    "fig5": figure_fig5,
    "fig6a": figure_fig6a,
    "fig6b": figure_fig6b,
    "fig6c": figure_fig6c,
    "fig7": figure_fig7,
    "fig8": figure_fig8,
}


def _min_summary(rows: List[CsvRow], axis_label: str) -> Dict:
    summary: Dict = {}
    for policy in (TIME_TRIGGERED, EVENT_TRIGGERED):
        for metric in (Metric.DELAY.value, Metric.PEAK_AOI.value):
            curve = _curve(rows, policy, metric)
            if not curve:
                continue
            x, v = min(curve, key=lambda p: p[1])
            summary["%s_min_%s" % (policy, metric)] = v
            summary["%s_argmin_%s_%s" % (policy, metric, axis_label)] = x
    return summary

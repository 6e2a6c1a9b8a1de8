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
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
        make_model(self.event_kind, self.event_rate)
        make_model(self.service_kind, self.service_rate)
        for g in self.grid:
            if not 0 < g < math.inf:
                raise ValueError("grid values must be finite and positive, got %r" % (g,))


def make_model(kind: str, rate: float) -> DistributionModel:
    """Build a distribution from its mean rate: exponential(rate) or the
    deterministic value 1/rate."""
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite, got %r" % (rate,))
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
    if not math.isfinite(alpha):
        raise ValueError("threshold must be finite, got %r" % (alpha,))
    return max(1, int(math.floor(alpha + 0.5)))


class SampleBudgetError(ValueError):
    """A simulation sample budget too small for the burn-in."""


def _policy_name(policy: TriggerPolicy) -> str:
    return TIME_TRIGGERED if isinstance(policy, TimeTriggered) else EVENT_TRIGGERED


def _row(scenario_id: str, scenario: Scenario, axis: str, axis_value: float, metric: Metric,
         source: str, value: Optional[float], theta_star: Optional[float] = None,
         flag: str = "") -> CsvRow:
    """One output row of a scenario; its policy name, utilization and
    epsilon come from the scenario."""
    return CsvRow(
        scenario=scenario_id,
        policy=_policy_name(scenario.policy),
        axis=axis,
        axis_value=axis_value,
        utilization=scenario.utilization,
        metric=metric.value,
        source=source,
        epsilon=scenario.epsilon,
        value=value,
        theta_star=theta_star,
        flag=flag,
    )


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
    for metric in metrics:
        try:
            res = optimize_theta(scenario, metric)
            flag = "vacuous" if res.vacuous else ""
            value, theta = res.value, res.theta_star
        except NoFeasibleTheta:
            flag, value, theta = "infeasible", None, None
        rows.append(_row(scenario_id, scenario, axis, axis_value, metric, "bound",
                         value, theta, flag))
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
            rows.append(_row(scenario_id, replace(scenario, epsilon=eps), axis,
                             eps if axis == "epsilon" else axis_value, metric,
                             "simulation", q, flag=";".join(tokens)))
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


def sweep_rows(
    spec: SweepSpec, scenario_id: str = "sweep", metrics: Sequence[Metric] = ALL_METRICS
) -> List[CsvRow]:
    """Bound rows of the given metrics over the requested axis for both
    coupled policies.

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
        policies: List[TriggerPolicy] = [TimeTriggered(interval=w)]
        if spec.axis == "utilization" or spec.couple_alpha:
            try:
                policies.append(EventTriggered(threshold=alpha))
            except ValueError:
                # coupled threshold below 1; no event-triggered system exists
                # at this axis value
                for metric in metrics:
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
            rows.extend(bound_rows(scenario_id, scenario, spec.axis, x, metrics))
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


def _eps_curve(scenario_id: str, scenario: Scenario, metrics: Sequence[Metric]) -> List[CsvRow]:
    """Bound rows of the scenario at every epsilon of EPS_GRID."""
    rows = []
    for eps in EPS_GRID:
        rows += bound_rows(scenario_id, replace(scenario, epsilon=eps), "epsilon", eps, metrics)
    return rows


def figure_fig3(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Sojourn-time tail decay: periodic vs single-event-triggered sampling,
    exponential events rate 0.5, exponential service rate 1."""
    tt = Scenario(Exponential(rate=0.5), Exponential(rate=1.0), TimeTriggered(interval=2.0), 1e-6)
    et = replace(tt, policy=EventTriggered(threshold=1))
    rows = _eps_curve("fig3", tt, (Metric.DELAY,)) + _eps_curve("fig3", et, (Metric.DELAY,))
    rows += [
        _row("fig3", replace(et, epsilon=eps), "epsilon", eps, Metric.DELAY, "exact",
             exact_mm1_tail(0.5, 1.0, eps))
        for eps in EPS_GRID
    ]
    tails = _simulate(tt, samples, seed, workers)
    rows += simulation_rows("fig3", tt, "epsilon", 0.0, tails, SIM_EPS)

    slope = bound_tail_slope(tt.event_model, tt.service_model, et.policy)
    dominance = {}
    for eps in (1e-2, 1e-3, 1e-4):
        b = optimize_theta(replace(tt, epsilon=eps), Metric.DELAY).value
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


# Sweep presets, name -> (event kind, event rate, service kind, axis), all at
# service rate 0.25 and epsilon 1e-6. A "w" sweep bounds delay and age over
# the update interval, a "utilization" sweep age and deviation.
SWEEP_FIGURES = {
    "fig4a": ("exponential", 0.25, "exponential", "w"),
    "fig4b": ("exponential", 0.5, "exponential", "w"),
    "fig4c": ("exponential", 1.0, "exponential", "w"),
    "fig5": ("exponential", 0.5, "deterministic", "w"),
    "fig6a": ("deterministic", 0.5, "exponential", "utilization"),
    "fig6b": ("exponential", 0.5, "exponential", "utilization"),
    "fig6c": ("exponential", 0.5, "deterministic", "utilization"),
}
SWEEP_SERVICE_RATE = 0.25
INTERVAL_GRID = tuple(1.0 / (np.asarray(UTILIZATION_GRID) * SWEEP_SERVICE_RATE))


def _sweep_figure(name: str, samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Bound curves of one SWEEP_FIGURES entry; the budget arguments are unused."""
    event_kind, event_rate, service_kind, axis = SWEEP_FIGURES[name]
    if axis == "w":
        metrics, grid = (Metric.DELAY, Metric.PEAK_AOI), INTERVAL_GRID
    else:
        metrics, grid = (Metric.PEAK_AOI, Metric.PEAK_DOI), UTILIZATION_GRID
    spec = SweepSpec(event_rate, SWEEP_SERVICE_RATE, event_kind, service_kind,
                     axis=axis, grid=grid)
    rows = sweep_rows(spec, name, metrics)
    summary = _interval_summary(rows, spec) if axis == "w" else _utilization_summary(rows)
    return rows, summary


def _curve(rows: List[CsvRow], policy: str, metric: Metric,
           min_axis: float = -math.inf) -> List[Tuple[float, float]]:
    """(axis_value, value) of one policy's valued rows beyond min_axis."""
    return [
        (r.axis_value, r.value)
        for r in rows
        if r.policy == policy and r.metric == metric.value and r.value is not None
        and r.axis_value > min_axis
    ]


def _interval_summary(rows: List[CsvRow], spec: SweepSpec) -> Dict:
    """Minimum and argmin of every curve; with deterministic service also the
    time-triggered spreads where w exceeds the service time (no queueing)."""
    summary: Dict = {}
    for policy in (TIME_TRIGGERED, EVENT_TRIGGERED):
        for metric in (Metric.DELAY, Metric.PEAK_AOI):
            curve = _curve(rows, policy, metric)
            if curve:
                x, v = min(curve, key=lambda p: p[1])
                summary["%s_min_%s" % (policy, metric.value)] = v
                summary["%s_argmin_%s_w" % (policy, metric.value)] = x
    if spec.service_kind == "deterministic":
        service_time = 1.0 / spec.service_rate
        delay = [v for _, v in _curve(rows, TIME_TRIGGERED, Metric.DELAY, service_time)]
        aoi = [v - x for x, v in _curve(rows, TIME_TRIGGERED, Metric.PEAK_AOI, service_time)]
        summary["tt_delay_spread"] = [min(delay), max(delay)]
        summary["tt_aoi_minus_w_spread"] = [min(aoi), max(aoi)]
    return summary


def _utilization_summary(rows: List[CsvRow]) -> Dict:
    """Time-triggered age and deviation minima, and the event-triggered one."""
    tt_aoi = _curve(rows, TIME_TRIGGERED, Metric.PEAK_AOI)
    tt_doi = _curve(rows, TIME_TRIGGERED, Metric.PEAK_DOI)
    et_doi = _curve(rows, EVENT_TRIGGERED, Metric.PEAK_DOI)
    return {
        "min_aoi_bound": min(v for _, v in tt_aoi),
        "argmin_utilization": min(tt_aoi, key=lambda p: p[1])[0],
        "min_doi_bound": min(v for _, v in tt_doi),
        "argmin_utilization_doi": min(tt_doi, key=lambda p: p[1])[0],
        "et_min_doi_bound": min(v for _, v in et_doi) if et_doi else None,
    }


def figure_fig7(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Tail decay of age and deviation at the deviation-optimal parameters
    (interval 13 and threshold 8), bounds plus simulation."""
    tt = Scenario(Exponential(rate=0.5), Exponential(rate=0.25), TimeTriggered(interval=13.0), 1e-6)
    et = replace(tt, policy=EventTriggered(threshold=8))
    rows: List[CsvRow] = []
    tails = {}
    for label, scenario in (("tt", tt), ("et", et)):
        rows += _eps_curve("fig7", scenario, (Metric.PEAK_AOI, Metric.PEAK_DOI))
        tails[label] = _simulate(scenario, samples, seed, workers)
        rows += simulation_rows("fig7", scenario, "epsilon", 0.0, tails[label], SIM_EPS_WIDE)
    summary = {
        "et_min_doi_sample": tails["et"].peak_doi.quantile(1.0),
        "et_threshold": 8,
        "tt_min_aoi_sample": tails["tt"].peak_aoi.quantile(1.0),
        "tt_interval": 13.0,
        "tt_min_doi_sample": tails["tt"].peak_doi.quantile(1.0),
    }
    return rows, summary


def _argmin_doi(event_model, service_model, epsilon: float, params: Iterable,
                make_policy: Callable[..., TriggerPolicy], failure: str) -> Tuple:
    """(param, bound) of the first parameter whose policy gives the smallest
    deviation bound; raises NoFeasibleTheta(failure) when none is stable."""
    best = (None, math.inf)
    for p in params:
        try:
            scenario = Scenario(event_model, service_model, make_policy(p), epsilon)
            res = optimize_theta(scenario, Metric.PEAK_DOI)
        except NoFeasibleTheta:
            continue
        if res.value < best[1]:
            best = (p, res.value)
    if best[0] is None:
        raise NoFeasibleTheta(failure)
    return best


def best_event_threshold(
    event_model, service_model, epsilon: float, search_upto: int = 40
) -> Tuple[int, float]:
    """Integer event threshold minimizing the deviation bound."""
    return _argmin_doi(event_model, service_model, epsilon, range(1, search_upto + 1),
                       EventTriggered, "no stable threshold up to %d" % search_upto)


def best_update_interval(
    event_model, service_model, epsilon: float,
    grid: Sequence[float] = tuple(np.linspace(4.5, 40.0, 356)),
) -> Tuple[float, float]:
    """Update interval minimizing the deviation bound over a fine grid."""
    return _argmin_doi(event_model, service_model, epsilon, grid,
                       TimeTriggered, "no stable interval in grid")


def figure_fig8(samples: int, seed: int, workers: int) -> Tuple[List[CsvRow], Dict]:
    """Empirical age and deviation tails around the optimal parameters:
    intervals 7/13/19 and thresholds 4/8/12."""
    runs = [("w%g" % w, "w=%g" % w, TimeTriggered(interval=w)) for w in (7.0, 13.0, 19.0)]
    runs += [("a%d" % a, "alpha=%d" % a, EventTriggered(threshold=a)) for a in (4, 8, 12)]
    rows: List[CsvRow] = []
    summary: Dict = {"aoi_at_1e-4": {}, "doi_at_1e-4": {}}
    for suffix, label, policy in runs:
        scenario = Scenario(Exponential(rate=0.5), Exponential(rate=0.25), policy, 1e-6)
        tails = _simulate(scenario, samples, seed, workers)
        rows += simulation_rows("fig8-" + suffix, scenario, "epsilon", 0.0, tails, SIM_EPS_WIDE)
        for key, tail in (("aoi_at_1e-4", tails.peak_aoi), ("doi_at_1e-4", tails.peak_doi)):
            summary[key][label] = _summary_quantile(tail, 1e-4, summary[key])
    return rows, summary


FIGURES: Dict[str, Callable[[int, int, int], Tuple[List[CsvRow], Dict]]] = {
    "fig3": figure_fig3,
    "fig7": figure_fig7,
    "fig8": figure_fig8,
    **{name: partial(_sweep_figure, name) for name in SWEEP_FIGURES},
}

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

import decimal
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
    # not printed: a bound's real root, which ties of the integer deviation
    # bound `value` break on
    root: Optional[float] = None

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

    def __post_init__(self) -> None:
        if self.axis not in ("w", "utilization"):
            raise ValueError("axis must be 'w' or 'utilization', got %r" % (self.axis,))
        make_model(self.event_kind, self.event_rate)
        make_model(self.service_kind, self.service_rate)
        for g in self.grid:
            if not 0 < g < math.inf:
                raise ValueError("grid values must be finite and positive, got %r" % (g,))


_BOUND_DIGITS = decimal.Context(prec=12, rounding=decimal.ROUND_CEILING)
_BOUND_ULPS = 4  # the nudge that covers the rounding of the bound's own arithmetic


def round_bound(x):
    """A bound as the output states it: rounded up to 12 significant digits
    after a nudge of _BOUND_ULPS ulps upward, so that the printed value is
    never below the computed one. Anything but a finite float passes through."""
    if not isinstance(x, float) or not math.isfinite(x):
        return x
    for _ in range(_BOUND_ULPS):
        x = math.nextafter(x, math.inf)
    # the nearest float to the rounded-up decimal is not below x, and prints
    # as that decimal
    return float(_BOUND_DIGITS.plus(decimal.Decimal(x)))


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
         flag: str = "", root: Optional[float] = None) -> CsvRow:
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
        root=root,
    )


def bound_rows(
    scenario_id: str,
    scenario: Scenario,
    axis: str,
    axis_value: float,
    metrics: Sequence[Metric] = ALL_METRICS,
) -> List[CsvRow]:
    """Optimized-bound rows for one scenario, one per metric; infeasible
    scenarios produce value-less rows flagged accordingly. The deviation
    tail bound holds at integer counts only, so its value is the certified
    integer, and the real root it is found from rides along unprinted."""
    rows = []
    for metric in metrics:
        try:
            res = optimize_theta(scenario, metric)
            flag = "vacuous" if res.vacuous else ""
            value = res.value if res.value_int is None else res.value_int
            root, theta = res.value, res.theta_star
        except NoFeasibleTheta:
            flag, value, root, theta = "infeasible", None, None, None
        rows.append(_row(scenario_id, scenario, axis, axis_value, metric, "bound",
                         value, theta, flag, root))
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
    """Empirical quantile rows with a 3-sigma binomial error note per row,
    and `insufficient_samples` where fewer than 10/eps samples back the
    quantile (the InsufficientSamples warning is suppressed). Each tail
    answers all of eps_values in one batch."""
    rows = []
    for name, tail in tails.by_name().items():
        n = tail.n_samples
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientSamples)
            values = tail.quantiles(eps_values)
        for eps, q in zip(eps_values, values):
            tokens = []
            if extra_flag:
                tokens.append(extra_flag)
            sigma3 = 3.0 * math.sqrt(eps * (1.0 - eps) / n)
            tokens.append("sigma3:%.3e" % sigma3)
            if n < 10.0 / eps:
                tokens.append("insufficient_samples")
            rows.append(_row(scenario_id, replace(scenario, epsilon=eps), axis,
                             eps if axis == "epsilon" else axis_value, Metric(name),
                             "simulation", q, flag=";".join(tokens)))
    return rows


def _simulated(rows: List[CsvRow], metric: Metric, eps: float, entry: Dict) -> float:
    """The simulated quantile of `metric` at `eps` among simulation_rows'
    rows, for a figure summary; sets entry["insufficient_samples"] when the
    row is flagged so."""
    (row,) = [r for r in rows if r.metric == metric.value and r.epsilon == eps]
    if "insufficient_samples" in row.flag.split(";"):
        entry["insufficient_samples"] = True
    return row.value


def sweep_rows(
    spec: SweepSpec, scenario_id: str = "sweep", metrics: Sequence[Metric] = ALL_METRICS
) -> List[CsvRow]:
    """Bound rows of the given metrics over the requested axis for both
    coupled policies.

    Axis values implying utilization >= 1 still produce rows; they come back
    flagged infeasible, as do the event-triggered rows where the coupled
    threshold falls below 1.
    """
    event_model = make_model(spec.event_kind, spec.event_rate)
    service_model = make_model(spec.service_kind, spec.service_rate)
    rows: List[CsvRow] = []
    for x in spec.grid:
        if spec.axis == "utilization":
            w, alpha = params_for_utilization(x, spec.event_rate, spec.service_rate)
        else:
            w, alpha = x, spec.event_rate * x
        tt = Scenario(event_model, service_model, TimeTriggered(interval=w), spec.epsilon)
        tt_rows = bound_rows(scenario_id, tt, spec.axis, x, metrics)
        rows += tt_rows
        try:
            et = replace(tt, policy=EventTriggered(threshold=alpha))
        except ValueError:
            # no event-triggered system exists at this axis value
            rows += [replace(r, policy=EVENT_TRIGGERED, utilization=math.nan, value=None,
                             theta_star=None, flag="infeasible", root=None) for r in tt_rows]
            continue
        rows += bound_rows(scenario_id, et, spec.axis, x, metrics)
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
    tt_rows = _eps_curve("fig3", tt, (Metric.DELAY,))
    et_rows = _eps_curve("fig3", et, (Metric.DELAY,))
    rows = tt_rows + et_rows
    rows += [
        _row("fig3", replace(et, epsilon=eps), "epsilon", eps, Metric.DELAY, "exact",
             exact_mm1_tail(0.5, 1.0, eps))
        for eps in EPS_GRID
    ]
    simulated = simulation_rows("fig3", tt, "epsilon", 0.0, _simulate(tt, samples, seed, workers),
                                SIM_EPS)
    rows += simulated

    # SLOPE_EPS and 1e-2 ... 1e-4 are in EPS_GRID, and 1e-2 ... 1e-4 in SIM_EPS
    slope = _decay_rate({r.epsilon: r.value for r in et_rows})
    bound_at = {r.epsilon: r.value for r in tt_rows}
    dominance = {}
    for eps in (1e-2, 1e-3, 1e-4):
        b = bound_at[eps]
        entry = dominance["%.0e" % eps] = {"bound": round_bound(b)}
        q = _simulated(simulated, Metric.DELAY, eps, entry)
        entry.update(simulated=q, below=bool(q <= b))
    summary = {
        "bound_tail_slope": slope,
        "exact_slope": -0.5,
        "slope_rel_err": abs(slope + 0.5) / 0.5,
        "tt_dominance": dominance,
    }
    return rows, summary


SLOPE_EPS = (1e-9, 1e-8)


def _decay_rate(bound_at: Dict[float, float]) -> float:
    """Decay rate d(ln eps)/d(bound) of a bound curve between its bounds at
    the two SLOPE_EPS, the deep end of the tail, where the curve approaches
    its asymptote."""
    eps_lo, eps_hi = SLOPE_EPS
    return (math.log(eps_lo) - math.log(eps_hi)) / (bound_at[eps_lo] - bound_at[eps_hi])


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


def _sweep_figure(name: str) -> Tuple[List[CsvRow], Dict]:
    """Bound curves of one SWEEP_FIGURES entry; draws no samples."""
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
           min_axis: float = -math.inf) -> List[CsvRow]:
    """One policy's valued rows of a metric beyond min_axis."""
    return [
        r for r in rows
        if r.policy == policy and r.metric == metric.value and r.value is not None
        and r.axis_value > min_axis
    ]


def _curve_min(rows: List[CsvRow], policy: str, metric: Metric) -> Tuple:
    """(argmin, minimum rounded up as a bound) at the first smallest value of
    one policy's curve, where the real roots break ties of the flat integer
    deviation curve; (None, None) when the curve is empty."""
    curve = _curve(rows, policy, metric)
    if not curve:
        return None, None
    best = min(curve, key=lambda r: (r.value, r.root))
    return best.axis_value, round_bound(best.value)


def _interval_summary(rows: List[CsvRow], spec: SweepSpec) -> Dict:
    """Minimum and argmin of every curve; with deterministic service also the
    time-triggered spreads where w exceeds the service time (no queueing)."""
    summary: Dict = {}
    for policy in (TIME_TRIGGERED, EVENT_TRIGGERED):
        for metric in (Metric.DELAY, Metric.PEAK_AOI):
            x, v = _curve_min(rows, policy, metric)
            if x is not None:
                summary["%s_min_%s" % (policy, metric.value)] = v
                summary["%s_argmin_%s_w" % (policy, metric.value)] = x
    if spec.service_kind == "deterministic":
        service_time = 1.0 / spec.service_rate
        delay = [r.value for r in _curve(rows, TIME_TRIGGERED, Metric.DELAY, service_time)]
        aoi = [r.value - r.axis_value
               for r in _curve(rows, TIME_TRIGGERED, Metric.PEAK_AOI, service_time)]
        summary["tt_delay_spread"] = [round_bound(min(delay)), round_bound(max(delay))]
        summary["tt_aoi_minus_w_spread"] = [min(aoi), max(aoi)]
    return summary


def _utilization_summary(rows: List[CsvRow]) -> Dict:
    """Minimum and argmin utilization of the time-triggered age and deviation
    curves and of the event-triggered deviation curve."""
    tt_aoi_x, tt_aoi = _curve_min(rows, TIME_TRIGGERED, Metric.PEAK_AOI)
    tt_doi_x, tt_doi = _curve_min(rows, TIME_TRIGGERED, Metric.PEAK_DOI)
    et_doi_x, et_doi = _curve_min(rows, EVENT_TRIGGERED, Metric.PEAK_DOI)
    return {
        "min_aoi_bound": tt_aoi,
        "argmin_utilization": tt_aoi_x,
        "min_doi_bound": tt_doi,
        "argmin_utilization_doi": tt_doi_x,
        "et_min_doi_bound": et_doi,
        "et_argmin_utilization_doi": et_doi_x,
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
    certified deviation bound, the integer `value_int`, whose real roots
    break ties as `_curve_min` breaks them; raises NoFeasibleTheta(failure)
    when none is stable."""
    best, key = None, (math.inf, math.inf)
    for p in params:
        try:
            scenario = Scenario(event_model, service_model, make_policy(p), epsilon)
            res = optimize_theta(scenario, Metric.PEAK_DOI)
        except NoFeasibleTheta:
            continue
        if (res.value_int, res.value) < key:
            best, key = p, (res.value_int, res.value)
    if best is None:
        raise NoFeasibleTheta(failure)
    return best, key[0]


MAX_THRESHOLD = 40
INTERVAL_SEARCH_GRID = tuple(np.linspace(4.5, 40.0, 356))


def best_event_threshold(event_model, service_model, epsilon: float) -> Tuple[int, float]:
    """Integer event threshold up to MAX_THRESHOLD minimizing the deviation bound."""
    return _argmin_doi(event_model, service_model, epsilon, range(1, MAX_THRESHOLD + 1),
                       EventTriggered, "no stable threshold up to %d" % MAX_THRESHOLD)


def best_update_interval(event_model, service_model, epsilon: float) -> Tuple[float, float]:
    """Update interval minimizing the deviation bound over INTERVAL_SEARCH_GRID."""
    return _argmin_doi(event_model, service_model, epsilon, INTERVAL_SEARCH_GRID,
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
        simulated = simulation_rows("fig8-" + suffix, scenario, "epsilon", 0.0, tails,
                                    SIM_EPS_WIDE)
        rows += simulated
        # 1e-4 is in SIM_EPS_WIDE
        for key, metric in (("aoi_at_1e-4", Metric.PEAK_AOI), ("doi_at_1e-4", Metric.PEAK_DOI)):
            summary[key][label] = _simulated(simulated, metric, 1e-4, summary[key])
    return rows, summary


# name -> preset; the SWEEP_FIGURES presets take no arguments, the others
# the simulation budget (samples, seed, workers)
FIGURES: Dict[str, Callable[..., Tuple[List[CsvRow], Dict]]] = {
    "fig3": figure_fig3,
    "fig7": figure_fig7,
    "fig8": figure_fig8,
    **{name: partial(_sweep_figure, name) for name in SWEEP_FIGURES},
}

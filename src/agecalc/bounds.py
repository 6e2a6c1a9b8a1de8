"""Statistical tail bounds of delay, peak age, and peak deviation.

The delay and age bounds come from a geometric-series estimate of the
moment generating function of the sojourn time at a max-plus server:

  M_delay(theta) <= exp(theta*rho_s) / (1 - exp(-theta*(rho_a - rho_s)))
  M_age(theta)   <= exp(theta*2*rho_s) / (1 - exp(-theta*(rho_a - rho_s)))
                    + exp(theta*(rho_s+rho_a_upper))

with rho_a the arrival lower envelope rate, valid whenever
rho_a > rho_s (stability); the service envelope's sigma is 0 for iid
service times. Chernoff inversion turns an MGF bound M into the
epsilon-quantile bound (ln M - ln eps)/theta; the free parameter theta is
optimized numerically. Deviation (event-count) bounds multiply the MGF bound
by a geometric factor in the event-count domain and invert the same way.

The MGF bounds are computed and returned in log space
(`log_delay_mgf_bound`, `log_aoi_mgf_bound`), and `invert_to_quantile`
takes ln M, so that near-boundary or large theta values do not overflow;
stability at a theta is `EnvelopeSet.stable`. Every bound takes a float or
an array of theta and is +inf where it is vacuous: where the system is
unstable, where a needed MGF diverges, and, for the deviation bound, where
ln M_I(-theta) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .envelopes import EnvelopeSet, TimeTriggered, TriggerPolicy, envelope_set
from .models import DistributionModel, Theta


class NoFeasibleTheta(RuntimeError):
    """No theta satisfies stability; utilization is too high for the calculus."""


class Metric(str, Enum):
    DELAY = "delay"
    PEAK_AOI = "peak_aoi"
    PEAK_DOI = "peak_doi"


@dataclass(frozen=True)
class Scenario:
    """One system: event process, service process, sampling policy, target epsilon."""

    event_model: DistributionModel
    service_model: DistributionModel
    policy: TriggerPolicy
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be a positive finite probability")

    @property
    def utilization(self) -> float:
        """Mean service time over mean update spacing; must be < 1 for stability."""
        return self.service_model.mean / self.policy.spacing(self.event_model)


@dataclass(frozen=True)
class BoundResult:
    """Optimized bound: the certified value and the theta that achieves it.

    `value` is in time units for delay/age and in event counts for the
    deviation metric; `value_int` carries the integer (ceiled) deviation
    bound and is None for the time metrics. A vacuous result (epsilon >= 1
    or a negative inversion) is flagged, never clamped.
    """

    metric: Metric
    epsilon: float
    theta_star: float
    value: float
    value_int: Optional[int] = None
    vacuous: bool = False


# ---------------------------------------------------------------------------
# MGF bounds, in log space


def _log_geometric_term(theta: Theta, gap: Theta) -> Theta:
    # -ln(1 - exp(-theta*gap)), +inf where gap <= 0 (no geometric convergence)
    converges = gap > 0
    with np.errstate(divide="ignore"):
        term = -np.log(-np.expm1(-theta * np.where(converges, gap, np.inf)))
    return np.where(converges, term, np.inf)[()]


def log_delay_mgf_bound(env: EnvelopeSet) -> Theta:
    """Upper bound of ln E[exp(theta*T)] at env.theta for the steady stream
    of updates; +inf where the system is unstable."""
    gap = env.rho_arrival_lower - env.rho_service
    return env.theta * env.rho_service + _log_geometric_term(env.theta, gap)


def log_aoi_mgf_bound(env: EnvelopeSet) -> Theta:
    """Upper bound of ln E[exp(theta*peak_age)] at env.theta; strictly above
    log_delay_mgf_bound.

    +inf where the system is unstable and, through the idle term, where the
    arrival upper envelope rate is infinite (event-model MGF diverges).
    """
    gap = env.rho_arrival_lower - env.rho_service
    queue_term = env.theta * (2.0 * env.rho_service) + _log_geometric_term(env.theta, gap)
    idle_term = env.theta * (env.rho_service + env.rho_arrival_upper)
    return np.logaddexp(queue_term, idle_term)


def invert_to_quantile(log_mgf_bound: Theta, theta: Theta, epsilon: float) -> Theta:
    """Chernoff inversion of a log MGF bound ln M: the epsilon-quantile bound
    (ln M - ln eps)/theta."""
    if not np.all(theta > 0):
        raise ValueError("theta must be positive, got %r" % (theta,))
    if not epsilon > 0:
        raise ValueError("epsilon must be positive, got %r" % (epsilon,))
    return (log_mgf_bound - math.log(epsilon)) / theta


def exact_mm1_tail(arrival_rate: float, service_rate: float, epsilon: float) -> float:
    """Exact sojourn-time quantile of the M|M|1 queue: -ln(eps)/(mu - lambda)."""
    if arrival_rate >= service_rate:
        raise ValueError(
            "needs arrival_rate < service_rate, got %g >= %g" % (arrival_rate, service_rate)
        )
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1], got %r" % (epsilon,))
    return -math.log(epsilon) / (service_rate - arrival_rate)


# ---------------------------------------------------------------------------
# Deviation (event-count) bounds


class DoiBound(NamedTuple):
    real: Theta
    integer: Theta  # integer-valued floats; +inf where real is


def _scenario_env(scenario: Scenario, theta: Theta) -> EnvelopeSet:
    return envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)


def _doi_terms(scenario: Scenario, theta: Theta) -> Tuple[Theta, Theta, float, int]:
    """Terms of the policy's deviation tail bound at theta,

      P[peak deviation > phi] <= exp(log_m + log_residual) * M_I(-theta)**(phi - alpha + one),

    as (log_m, log_residual, alpha, one). Time-triggered: the age MGF bound
    and the residual-time term, with alpha = one = 0. Event-triggered: the
    delay MGF bound and no residual term, with alpha the threshold and
    one = 1, so the bound holds for phi >= threshold - 1. The count offset
    stays two terms so that each caller rounds its closed form in one order.
    """
    env = _scenario_env(scenario, theta)
    policy = scenario.policy
    if isinstance(policy, TimeTriggered):
        return log_aoi_mgf_bound(env), scenario.event_model.log_residual_mgf(theta), 0, 0
    return log_delay_mgf_bound(env), 0.0, policy.threshold, 1


def doi_tail_probability(scenario: Scenario, theta: Theta, phi: float) -> Theta:
    """Bound of P[peak deviation > phi] at theta, a float or an array.

    Time-triggered: age MGF bound times the residual-time factor times the
    geometric factor M_I(-theta)**phi. Event-triggered: delay MGF bound times
    M_I(-theta)**(phi - threshold + 1), defined for phi >= threshold - 1.
    The value may exceed 1 (vacuous) and is reported as-is, +inf where the
    MGF bound is.
    """
    if not np.all(theta > 0):
        raise ValueError("theta must be positive, got %r" % (theta,))
    if phi < 0 or int(phi) != phi:
        raise ValueError("phi must be a nonnegative integer, got %r" % (phi,))
    log_m, log_residual, alpha, one = _doi_terms(scenario, theta)
    k = phi - alpha + one
    if k < 0:
        raise ValueError(
            "phi must be >= threshold - 1 for event-triggered systems, got %r" % (phi,)
        )
    log_mi = scenario.event_model.log_mgf(-theta)
    with np.errstate(over="ignore"):
        return np.exp(log_m + log_residual + k * log_mi)


def doi_epsilon_bound(scenario: Scenario, theta: Theta) -> DoiBound:
    """Solve the deviation tail bound for the epsilon-quantile at theta, a
    float or an array.

    Returns both the real-valued solution (used for plotting sweep curves)
    and the ceiled integer bound, at least threshold - 1 for event-triggered
    systems. For non-memoryless event models the residual-time factor is
    estimated by 1, which keeps the bound valid at the cost of a slight
    slack for the time-triggered system. Both are +inf where the MGF bound
    is, and where ln M_I(-theta) = 0 (no event-count decay).
    """
    log_m, log_residual, alpha, one = _doi_terms(scenario, theta)
    log_mi = scenario.event_model.log_mgf(-theta)
    decays = log_mi != 0.0
    with np.errstate(over="ignore"):  # a subnormal ln M_I(-theta) overflows to +inf
        real = (math.log(scenario.epsilon) - log_m - log_residual) / np.where(decays, log_mi, -1.0)
    real = np.where(decays, real + alpha - one, np.inf)[()]
    return DoiBound(real=real, integer=np.maximum(np.ceil(real), math.ceil(alpha) - one))


# ---------------------------------------------------------------------------
# Theta optimization

_GRID_POINTS = 200
_REFINE_RTOL = 1e-6
_THETA_CAP = 1e3


def _theta_limit(scenario: Scenario, metric: Metric) -> float:
    """Supremum of usable theta: smallest MGF singularity among the MGFs
    this metric evaluates at +theta, capped when all are everywhere finite."""
    limit = scenario.service_model.mgf_limit
    if metric is Metric.PEAK_AOI:
        limit = min(limit, scenario.policy.upper_rate_limit(scenario.event_model))
    if math.isinf(limit):
        return _THETA_CAP
    return limit - 2.0 * 1e-9


def _objective(scenario: Scenario, metric: Metric, theta: Theta) -> Theta:
    """Bound value at theta, a float or an array; +inf outside the feasible set."""
    if metric is Metric.PEAK_DOI:
        return doi_epsilon_bound(scenario, theta).real
    env = _scenario_env(scenario, theta)
    log_m = log_delay_mgf_bound(env) if metric is Metric.DELAY else log_aoi_mgf_bound(env)
    return invert_to_quantile(log_m, theta, scenario.epsilon)


def optimize_theta(scenario: Scenario, metric: Metric) -> BoundResult:
    """Minimize the bound over theta: a log grid up to the usable limit,
    then linear grids between the best probe's two neighbours until they lie
    within _REFINE_RTOL of each other; each grid is one array evaluation.

    Every probed theta yields a valid bound, so the minimum over all probes
    is sound even if the true minimizer lies between them. Raises
    NoFeasibleTheta when no probe of the log grid satisfies the stability
    condition.
    """
    metric = Metric(metric)
    theta_hi = _theta_limit(scenario, metric)
    probes = np.geomspace(theta_hi * 1e-9, theta_hi, _GRID_POINTS)
    best_theta, best_value = math.nan, math.inf
    while True:
        values = _objective(scenario, metric, probes)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_theta, best_value = float(probes[i]), float(values[i])
        if not math.isfinite(best_value):
            raise NoFeasibleTheta(
                "no stable theta found (utilization %.4f)" % scenario.utilization
            )
        a, b = probes[max(0, i - 1)], probes[min(_GRID_POINTS - 1, i + 1)]
        if b - a <= _REFINE_RTOL * 0.5 * (a + b):
            break
        probes = np.linspace(a, b, _GRID_POINTS)

    value_int = None
    vacuous = scenario.epsilon >= 1.0 or best_value < 0.0
    if metric is Metric.PEAK_DOI:
        value_int = int(doi_epsilon_bound(scenario, best_theta).integer)
    return BoundResult(
        metric=metric,
        epsilon=scenario.epsilon,
        theta_star=best_theta,
        value=best_value,
        value_int=value_int,
        vacuous=vacuous,
    )

"""Statistical tail bounds of delay, peak age, and peak deviation.

The delay and age bounds come from a geometric-series estimate of the
moment generating function of the sojourn time at a max-plus server:

  M_delay(theta) <= exp(theta*(sigma+rho_s)) / (1 - exp(-theta*(rho_a - rho_s)))
  M_age(theta)   <= exp(theta*(sigma+2*rho_s)) / (1 - exp(-theta*(rho_a - rho_s)))
                    + exp(theta*(sigma+rho_s+rho_a_upper))

with rho_a the arrival lower envelope rate, valid whenever
rho_a > rho_s (stability). Chernoff inversion turns an MGF bound M into the
epsilon-quantile bound (ln M - ln eps)/theta; the free parameter theta is
optimized numerically. Deviation (event-count) bounds multiply the MGF bound
by a geometric factor in the event-count domain and invert the same way.

The MGF bounds are computed and returned in log space
(`log_delay_mgf_bound`, `log_aoi_mgf_bound`), and `invert_to_quantile`
takes ln M, so that near-boundary or large theta values do not overflow;
stability at a theta is `EnvelopeSet.stable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .envelopes import EnvelopeSet, TimeTriggered, TriggerPolicy, envelope_set
from .models import DistributionModel, DomainError


class InstabilityError(ValueError):
    """Arrival lower rate does not exceed the service rate at this theta."""


class NoFeasibleTheta(RuntimeError):
    """No theta satisfies stability; utilization is too high for the calculus."""


class InfiniteDoI(RuntimeError):
    """Degenerate event model with log M(-theta) = 0; no finite deviation bound."""


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


def _log_geometric_term(theta: float, gap: float) -> float:
    # -ln(1 - exp(-theta*gap)) for theta, gap > 0
    return -math.log(-math.expm1(-theta * gap))


def log_delay_mgf_bound(env: EnvelopeSet) -> float:
    """Upper bound of ln E[exp(theta*T)] at env.theta for the steady stream
    of updates; raises InstabilityError."""
    gap = env.rho_arrival_lower - env.rho_service
    if gap <= 0:
        raise InstabilityError(
            "rho_arrival_lower=%g <= rho_service=%g at theta=%g"
            % (env.rho_arrival_lower, env.rho_service, env.theta)
        )
    head = env.theta * (env.sigma_service + env.rho_service)
    return head + _log_geometric_term(env.theta, gap)


def log_aoi_mgf_bound(env: EnvelopeSet) -> float:
    """Upper bound of ln E[exp(theta*peak_age)] at env.theta; strictly above
    log_delay_mgf_bound.

    Needs the arrival upper envelope rate; raises DomainError when it is
    infinite (event-model MGF diverges at theta).
    """
    if not math.isfinite(env.rho_arrival_upper):
        raise DomainError("arrival upper envelope diverges at theta=%g" % env.theta)
    gap = env.rho_arrival_lower - env.rho_service
    if gap <= 0:
        raise InstabilityError(
            "rho_arrival_lower=%g <= rho_service=%g at theta=%g"
            % (env.rho_arrival_lower, env.rho_service, env.theta)
        )
    queue_term = env.theta * (env.sigma_service + 2.0 * env.rho_service) + _log_geometric_term(
        env.theta, gap
    )
    idle_term = env.theta * (env.sigma_service + env.rho_service + env.rho_arrival_upper)
    return float(np.logaddexp(queue_term, idle_term))


def invert_to_quantile(log_mgf_bound: float, theta: float, epsilon: float) -> float:
    """Chernoff inversion of a log MGF bound ln M: the epsilon-quantile bound
    (ln M - ln eps)/theta."""
    if not theta > 0:
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
    real: float
    integer: int


def _scenario_env(scenario: Scenario, theta: float) -> EnvelopeSet:
    return envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)


def _log_event_mgf_neg(scenario: Scenario, theta: float) -> float:
    v = scenario.event_model.log_mgf(-theta)
    if v == 0.0:
        raise InfiniteDoI("event model has log M(-theta) = 0 at theta=%g" % theta)
    return v


def _doi_terms(scenario: Scenario, theta: float) -> Tuple[float, float, float, int]:
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


def _exp_or_inf(v: float) -> float:
    return math.inf if v > 709.0 else math.exp(v)


def doi_tail_probability(scenario: Scenario, theta: float, phi: float) -> float:
    """Bound of P[peak deviation > phi] at one theta.

    Time-triggered: age MGF bound times the residual-time factor times the
    geometric factor M_I(-theta)**phi. Event-triggered: delay MGF bound times
    M_I(-theta)**(phi - threshold + 1), defined for phi >= threshold - 1.
    The value may exceed 1 (vacuous) and is reported as-is.
    """
    if not theta > 0:
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
    return _exp_or_inf(log_m + log_residual + k * log_mi)


def doi_epsilon_bound(scenario: Scenario, theta: float) -> DoiBound:
    """Solve the deviation tail bound for the epsilon-quantile at one theta.

    Returns both the real-valued solution (used for plotting sweep curves)
    and the ceiled integer bound, at least threshold - 1 for event-triggered
    systems. For non-memoryless event models the residual-time factor is
    estimated by 1, which keeps the bound valid at the cost of a slight
    slack for the time-triggered system.
    """
    log_m, log_residual, alpha, one = _doi_terms(scenario, theta)
    log_mi = _log_event_mgf_neg(scenario, theta)
    real = (math.log(scenario.epsilon) - log_m - log_residual) / log_mi + alpha - one
    return DoiBound(real=real, integer=max(math.ceil(real), math.ceil(alpha) - one))


# ---------------------------------------------------------------------------
# Theta optimization

_GRID_POINTS = 200
_REFINE_RTOL = 1e-6
_THETA_CAP = 1e3
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _theta_limit(scenario: Scenario, metric: Metric) -> float:
    """Supremum of usable theta: smallest MGF singularity among the MGFs
    this metric evaluates at +theta, capped when all are everywhere finite."""
    limit = scenario.service_model.mgf_limit
    if metric is Metric.PEAK_AOI:
        limit = min(limit, scenario.policy.upper_rate_limit(scenario.event_model))
    if math.isinf(limit):
        return _THETA_CAP
    return limit - 2.0 * 1e-9


def _objective(scenario: Scenario, metric: Metric, theta: float) -> float:
    """Bound value at one theta; +inf outside the feasible set."""
    try:
        if metric is Metric.PEAK_DOI:
            return doi_epsilon_bound(scenario, theta).real
        env = _scenario_env(scenario, theta)
        if metric is Metric.DELAY:
            log_m = log_delay_mgf_bound(env)
        else:
            log_m = log_aoi_mgf_bound(env)
        return invert_to_quantile(log_m, theta, scenario.epsilon)
    except (DomainError, InstabilityError, InfiniteDoI, OverflowError):
        return math.inf


def optimize_theta(
    scenario: Scenario,
    metric: Metric,
    grid_points: int = _GRID_POINTS,
    refine_rtol: float = _REFINE_RTOL,
) -> BoundResult:
    """Minimize the bound over theta: coarse log grid, then golden-section.

    Every probed theta yields a valid bound, so the result is sound even if
    the true minimizer lies between probes. Raises NoFeasibleTheta when no
    probe satisfies the stability condition.
    """
    metric = Metric(metric)
    theta_hi = _theta_limit(scenario, metric)
    grid = np.geomspace(theta_hi * 1e-9, theta_hi, grid_points)
    values = np.array([_objective(scenario, metric, th) for th in grid])
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        raise NoFeasibleTheta(
            "no stable theta found (utilization %.4f)" % scenario.utilization
        )
    best_theta, best_value = float(grid[i]), float(values[i])

    a = float(grid[max(0, i - 1)])
    b = float(grid[min(len(grid) - 1, i + 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _objective(scenario, metric, c)
    fd = _objective(scenario, metric, d)
    while (b - a) > refine_rtol * 0.5 * (a + b):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _objective(scenario, metric, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _objective(scenario, metric, d)
        for th, fv in ((c, fc), (d, fd)):
            if fv < best_value:
                best_theta, best_value = th, fv

    value_int = None
    vacuous = scenario.epsilon >= 1.0 or best_value < 0.0
    if metric is Metric.PEAK_DOI:
        value_int = doi_epsilon_bound(scenario, best_theta).integer
    return BoundResult(
        metric=metric,
        epsilon=scenario.epsilon,
        theta_star=best_theta,
        value=best_value,
        value_int=value_int,
        vacuous=vacuous,
    )

"""Sampling policies and exponential (sigma, rho)-envelope extraction.

Arrival and service processes are characterized at a Chernoff parameter
theta > 0 by envelope rates:

  service upper envelope: E[exp(theta*S(v,n))] <= exp(theta*(sigma + rho*(n-v+1)))
  arrival lower envelope: E[exp(-theta*A(v,n))] <= exp(-theta*rho_lower*(n-v))
  arrival upper envelope: E[exp(theta*A(v,n))]  <= exp(theta*rho_upper*(n-v))

For iid increments the envelopes are tight and follow directly from the
per-increment log-MGF. Each policy class computes its own arrival rates
(`lower_rate`, `upper_rate`), its mean update `spacing`, and the arrivals
and sampled event counts of a simulated run (`arrivals`, `sampled_counts`).
All quantities are evaluated on demand at a given theta; nothing is
tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .models import DistributionModel, DomainError


@dataclass(frozen=True)
class TimeTriggered:
    """Updates generated periodically, every `interval` time units.

    Both arrival rates equal the interval and ignore the event model.
    """

    interval: float

    def __post_init__(self) -> None:
        if not self.interval > 0:
            raise ValueError("interval must be positive, got %r" % (self.interval,))

    def lower_rate(self, event_model: DistributionModel, theta: float) -> float:
        return self.interval

    def upper_rate(self, event_model: DistributionModel, theta: float) -> float:
        return self.interval

    def upper_rate_limit(self, event_model: DistributionModel) -> float:
        """Supremum of the theta at which upper_rate is finite."""
        return math.inf

    def spacing(self, event_model: DistributionModel) -> float:
        """Mean time between updates."""
        return self.interval

    def check_simulable(self) -> None:
        """Every interval can be simulated."""

    def arrivals(self, events, first: int, m: int) -> np.ndarray:
        """Arrival times of the m updates from 1-based index `first` on."""
        return self.interval * np.arange(first, first + m, dtype=np.float64)

    def sampled_counts(self, events, arrivals: np.ndarray, first: int) -> np.ndarray:
        """Events sampled by the updates at these arrivals; ties count."""
        return events.count_upto(arrivals)


@dataclass(frozen=True)
class EventTriggered:
    """An update is generated once `threshold` new sensor events occurred.

    The simulator requires an integer threshold; bound computations accept
    real values so that utilization sweeps can couple the threshold to the
    update interval without rounding artifacts.
    """

    threshold: float

    def __post_init__(self) -> None:
        if not self.threshold >= 1:
            raise ValueError("threshold must be >= 1, got %r" % (self.threshold,))

    def lower_rate(self, event_model: DistributionModel, theta: float) -> float:
        """-(threshold/theta) * ln M_I(-theta); defined for every theta > 0."""
        return -(self.threshold / theta) * event_model.log_mgf(-theta)

    def upper_rate(self, event_model: DistributionModel, theta: float) -> float:
        """(threshold/theta) * ln M_I(theta); +inf where the event MGF diverges."""
        try:
            return (self.threshold / theta) * event_model.log_mgf(theta)
        except DomainError:
            return math.inf

    def upper_rate_limit(self, event_model: DistributionModel) -> float:
        """Supremum of the theta at which upper_rate is finite."""
        return event_model.mgf_limit

    def spacing(self, event_model: DistributionModel) -> float:
        """Mean time between updates: threshold * mean inter-event time."""
        return self.threshold * event_model.mean

    def check_simulable(self) -> None:
        """Raise ValueError unless the threshold is an integer."""
        if int(self.threshold) != self.threshold:
            raise ValueError(
                "simulation needs an integer event threshold, got %r" % (self.threshold,)
            )

    def arrivals(self, events, first: int, m: int) -> np.ndarray:
        """Arrival times of the next m updates: every threshold-th event taken.

        The copy is needed: `take` returns a view into the event store that
        the stream's next call may overwrite.
        """
        alpha = int(self.threshold)
        return events.take(alpha * m)[alpha - 1::alpha].astype(np.float64, copy=True)

    def sampled_counts(self, events, arrivals: np.ndarray, first: int) -> np.ndarray:
        """Events sampled by updates first, first+1, ...: exactly n*threshold."""
        alpha = int(self.threshold)
        return alpha * np.arange(first, first + len(arrivals), dtype=np.int64)


TriggerPolicy = Union[TimeTriggered, EventTriggered]


@dataclass(frozen=True)
class EnvelopeSet:
    """Envelope rates of one scenario evaluated at a single theta.

    rho_arrival_upper is +inf when the event-model MGF diverges at theta;
    operations that need the upper envelope reject that case. `stable` is
    the geometric-convergence condition rho_arrival_lower > rho_service.
    """

    theta: float
    sigma_service: float
    rho_service: float
    rho_arrival_lower: float
    rho_arrival_upper: float
    stable: bool


def service_envelope(service: DistributionModel, theta: float) -> Tuple[float, float]:
    """Envelope (sigma, rho) of an iid service process at theta > 0.

    sigma is 0 for iid service times; rho is log(M(theta))/theta, which is
    exactly the service time for a Deterministic model.
    """
    if not theta > 0:
        raise ValueError("theta must be positive, got %r" % (theta,))
    return 0.0, service.envelope_rate(theta)


def envelope_set(
    policy: TriggerPolicy,
    event_model: DistributionModel,
    service_model: DistributionModel,
    theta: float,
) -> EnvelopeSet:
    """Evaluate all envelope rates of a scenario at one theta.

    Raises DomainError if the service MGF diverges at theta; a diverging
    event-model MGF only makes rho_arrival_upper infinite.
    """
    sigma_s, rho_s = service_envelope(service_model, theta)
    lower = policy.lower_rate(event_model, theta)
    return EnvelopeSet(
        theta=theta,
        sigma_service=sigma_s,
        rho_service=rho_s,
        rho_arrival_lower=lower,
        rho_arrival_upper=policy.upper_rate(event_model, theta),
        stable=lower > rho_s,
    )


__all__ = [
    "TimeTriggered",
    "EventTriggered",
    "TriggerPolicy",
    "EnvelopeSet",
    "service_envelope",
    "envelope_set",
    "DomainError",
]

"""Sampling policies and exponential (sigma, rho)-envelope extraction.

Arrival and service processes are characterized at a Chernoff parameter
theta > 0 by envelope rates:

  service upper envelope: E[exp(theta*S(v,n))] <= exp(theta*(sigma + rho*(n-v+1)))
  arrival lower envelope: E[exp(-theta*A(v,n))] <= exp(-theta*rho_lower*(n-v))
  arrival upper envelope: E[exp(theta*A(v,n))]  <= exp(theta*rho_upper*(n-v))

For iid increments the envelopes are tight, sigma is 0, and the rates
follow directly from the per-increment log-MGF. Each policy class computes
its own arrival rates (`lower_rate`, `upper_rate`), its mean update
`spacing`, and the arrivals and sampled event counts of a simulated run
(`arrivals`, `sampled_counts`).
All quantities are evaluated on demand at a given theta, a float or an
array of theta values; nothing is tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .models import DistributionModel, Theta


@dataclass(frozen=True)
class TimeTriggered:
    """Updates generated periodically, every `interval` time units.

    Both arrival rates equal the interval and ignore the event model.
    """

    interval: float

    def __post_init__(self) -> None:
        if not 0 < self.interval < math.inf:
            raise ValueError("interval must be positive and finite, got %r" % (self.interval,))

    def lower_rate(self, event_model: DistributionModel, theta: Theta) -> float:
        return self.interval

    def upper_rate(self, event_model: DistributionModel, theta: Theta) -> float:
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
        if not 1 <= self.threshold < math.inf:
            raise ValueError("threshold must be >= 1 and finite, got %r" % (self.threshold,))

    def lower_rate(self, event_model: DistributionModel, theta: Theta) -> Theta:
        """-(threshold/theta) * ln M_I(-theta); defined for every theta > 0."""
        return -(self.threshold / theta) * event_model.log_mgf(-theta)

    def upper_rate(self, event_model: DistributionModel, theta: Theta) -> Theta:
        """(threshold/theta) * ln M_I(theta); +inf where the event MGF diverges."""
        return (self.threshold / theta) * event_model.log_mgf(theta)

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
    """Envelope rates of one scenario at theta, a float or an array.

    The service envelope is sigma = 0 plus rho_service per update, the
    log-MGF rate of iid service times; rho_service is +inf where the service
    MGF diverges, rho_arrival_upper where the event-model MGF does. `stable`
    is the geometric-convergence condition rho_arrival_lower > rho_service.
    A rate that does not depend on theta (a time-triggered interval, a
    deterministic service time) stays a float; the other fields, and
    `stable` where they enter it, have the shape of theta.
    """

    theta: Theta
    rho_service: Theta
    rho_arrival_lower: Theta
    rho_arrival_upper: Theta
    stable: Union[bool, np.ndarray]


def envelope_set(
    policy: TriggerPolicy,
    event_model: DistributionModel,
    service_model: DistributionModel,
    theta: Theta,
) -> EnvelopeSet:
    """Evaluate all envelope rates of a scenario at theta > 0."""
    if not np.all(theta > 0):
        raise ValueError("theta must be positive, got %r" % (theta,))
    rho_s = service_model.envelope_rate(theta)
    lower = policy.lower_rate(event_model, theta)
    return EnvelopeSet(
        theta=theta,
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
    "envelope_set",
]

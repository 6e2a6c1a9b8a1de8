"""Distribution models for inter-event times and service times.

Every model is a nonnegative random variable with a closed-form moment
generating function M(theta) = E[exp(theta*X)]. The tail calculus only
works for light-tailed models, so each model class answers everything the
calculus and the simulator ask of a distribution: `log_mgf(theta)`, its
validity limit `mgf_limit`, the `mean`, the log-MGF `envelope_rate(theta)`
per unit of theta, the residual-time term `log_residual_mgf(theta)` and
`sample(rng, size)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Reject theta this close to an MGF singularity. The bound optimizer probes
# near the boundary, where exp() would overflow.
MGF_GUARD = 1e-9


class DomainError(ValueError):
    """MGF requested at or beyond its singularity; restrict the theta range."""


def _log_exponential_mgf(model, theta: float) -> float:
    # -ln(1 - theta/rate), guarded below the singularity at theta = rate
    if theta > model.rate - MGF_GUARD:
        raise DomainError(
            "MGF of %r diverges at theta=%g (singularity %g)" % (model, theta, model.rate)
        )
    return -math.log1p(-theta / model.rate)


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("rate must be positive, got %r" % (self.rate,))

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def mgf_limit(self) -> float:
        """Supremum of the theta values for which the MGF is finite."""
        return self.rate

    def log_mgf(self, theta: float) -> float:
        """ln M(theta) = -ln(1 - theta/rate); DomainError within MGF_GUARD of rate."""
        return _log_exponential_mgf(self, theta)

    def envelope_rate(self, theta: float) -> float:
        """ln M(theta)/theta, the envelope rate of iid increments at theta > 0."""
        return self.log_mgf(theta) / theta

    def log_residual_mgf(self, theta: float) -> float:
        """ln of the residual inter-event time's MGF at -theta: memoryless, so
        the residual is an ordinary inter-event time."""
        return self.log_mgf(-theta)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Deterministic:
    """Constant value; MGF exp(theta*value) is finite for every theta."""

    value: float

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("value must be positive, got %r" % (self.value,))

    @property
    def mean(self) -> float:
        return self.value

    @property
    def mgf_limit(self) -> float:
        return math.inf

    def log_mgf(self, theta: float) -> float:
        """ln M(theta) = theta*value, finite at every theta."""
        return theta * self.value

    def envelope_rate(self, theta: float) -> float:
        """The value itself, without the round trip through log M(theta)/theta."""
        return self.value

    def log_residual_mgf(self, theta: float) -> float:
        """0: the residual-time factor is estimated by 1, always an upper bound."""
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


@dataclass(frozen=True)
class Erlang:
    """Sum of `shape` iid exponentials with the given rate (mean shape/rate)."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 1 or int(self.shape) != self.shape:
            raise ValueError("shape must be a positive integer, got %r" % (self.shape,))
        if not self.rate > 0:
            raise ValueError("rate must be positive, got %r" % (self.rate,))

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def mgf_limit(self) -> float:
        return self.rate

    def log_mgf(self, theta: float) -> float:
        """ln M(theta) = -shape*ln(1 - theta/rate); DomainError within MGF_GUARD of rate."""
        return self.shape * _log_exponential_mgf(self, theta)

    def envelope_rate(self, theta: float) -> float:
        return self.log_mgf(theta) / theta

    def log_residual_mgf(self, theta: float) -> float:
        """0: the residual-time factor is estimated by 1, always an upper bound."""
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size)


DistributionModel = Union[Exponential, Deterministic, Erlang]


def sample(model: DistributionModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw iid samples as a float array of the given size."""
    return model.sample(rng, size)

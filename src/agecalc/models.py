"""Distribution models for inter-event times and service times.

Every model is a nonnegative random variable with a closed-form moment
generating function M(theta) = E[exp(theta*X)]. The tail calculus only
works for light-tailed models, so each model class answers everything the
calculus and the simulator ask of a distribution: `log_mgf(theta)`, its
validity limit `mgf_limit`, the `mean`, the log-MGF `envelope_rate(theta)`
per unit of theta, the residual-time term `log_residual_mgf(theta)` and
`sample(rng, size, out=None)`. The theta-valued methods take a float or an
array of theta and return +inf where the MGF diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Treat theta this close to an MGF singularity as beyond it. The bound
# optimizer probes near the boundary, where exp() would overflow.
MGF_GUARD = 1e-9

# A theta argument: one float, or an array evaluated element-wise.
Theta = Union[float, np.ndarray]


def _positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, value))


def _log_exponential_mgf(model, theta: Theta) -> Theta:
    # -ln(1 - theta/rate), +inf within MGF_GUARD of the singularity at theta = rate
    edge = model.rate - MGF_GUARD
    inside = -np.log1p(-np.minimum(theta, edge) / model.rate)
    return np.where(theta > edge, np.inf, inside)[()]


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self) -> None:
        _positive_finite("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def mgf_limit(self) -> float:
        """Supremum of the theta values for which the MGF is finite."""
        return self.rate

    def log_mgf(self, theta: Theta) -> Theta:
        """ln M(theta) = -ln(1 - theta/rate); +inf within MGF_GUARD of rate."""
        return _log_exponential_mgf(self, theta)

    def envelope_rate(self, theta: Theta) -> Theta:
        """ln M(theta)/theta, the envelope rate of iid increments at theta > 0."""
        return self.log_mgf(theta) / theta

    def log_residual_mgf(self, theta: Theta) -> Theta:
        """ln of the residual inter-event time's MGF at -theta: memoryless, so
        the residual is an ordinary inter-event time."""
        return self.log_mgf(-theta)

    def sample(
        self, rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The bits of rng.exponential(1/rate, size), which scales the same
        standard draws by the same factor."""
        x = rng.standard_exponential(size, out=out)
        x *= 1.0 / self.rate
        return x


@dataclass(frozen=True)
class Deterministic:
    """Constant value; MGF exp(theta*value) is finite for every theta."""

    value: float

    def __post_init__(self) -> None:
        _positive_finite("value", self.value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def mgf_limit(self) -> float:
        return math.inf

    def log_mgf(self, theta: Theta) -> Theta:
        """ln M(theta) = theta*value, finite at every theta."""
        return theta * self.value

    def envelope_rate(self, theta: Theta) -> float:
        """The value itself, without the round trip through log M(theta)/theta."""
        return self.value

    def log_residual_mgf(self, theta: Theta) -> float:
        """0: the residual-time factor is estimated by 1, always an upper bound."""
        return 0.0

    def sample(
        self, rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        x = np.empty(size) if out is None else out
        x.fill(self.value)
        return x


@dataclass(frozen=True)
class Erlang:
    """Sum of `shape` iid exponentials with the given rate (mean shape/rate)."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not 1 <= self.shape < math.inf or int(self.shape) != self.shape:
            raise ValueError("shape must be a positive integer, got %r" % (self.shape,))
        _positive_finite("rate", self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def mgf_limit(self) -> float:
        return self.rate

    def log_mgf(self, theta: Theta) -> Theta:
        """ln M(theta) = -shape*ln(1 - theta/rate); +inf within MGF_GUARD of rate."""
        return self.shape * _log_exponential_mgf(self, theta)

    def envelope_rate(self, theta: Theta) -> Theta:
        return self.log_mgf(theta) / theta

    def log_residual_mgf(self, theta: Theta) -> float:
        """0: the residual-time factor is estimated by 1, always an upper bound."""
        return 0.0

    def sample(
        self, rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The bits of rng.gamma(shape, 1/rate, size), which scales the same
        standard draws by the same factor."""
        x = rng.standard_gamma(self.shape, size, out=out)
        x *= 1.0 / self.rate
        return x


DistributionModel = Union[Exponential, Deterministic, Erlang]


def sample(
    model: DistributionModel,
    rng: np.random.Generator,
    size: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw `size` iid samples as a float array, written into `out` (a float64
    array of that length) when given; returns the array written."""
    return model.sample(rng, size, out)

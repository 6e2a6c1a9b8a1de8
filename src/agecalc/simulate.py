"""Discrete-event simulation of the sensor / sampler / FIFO queue chain.

The chain is: a stream of sensor events, a sampling policy that turns events
or clock ticks into update messages, a single work-conserving FIFO queue,
and a monitor. Per update n the simulator records

  delay      T(n)   = D(n) - A(n)
  peak age   A(n)   -> D(n+1) - A(n)
  peak count deviation  C(D(n+1)) - C(A(n))

where C(t) counts sensor events up to and including time t. The FIFO queue
follows D(n) = max(A(n), D(n-1)) + L(n) from an empty start, evaluated in
vectorized form through the equivalent running-maximum identity.

Everything is deterministic given a base seed: replication r draws its event
and service streams from Philox generators keyed by
SeedSequence(base_seed, spawn_key=(r, stream_id)) with stream_id 0 for
events and 1 for service. Event times are generated lazily in blocks and
counted with a forward cursor, so memory stays bounded at any sample count.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .bounds import Scenario
from .models import DistributionModel, sample

STREAM_EVENTS = 0
STREAM_SERVICE = 1

_BLOCK = 1 << 16
_CHUNK = 1 << 18
DEFAULT_BURN_IN = 10_000


class EventStreamExhausted(RuntimeError):
    """A capped event stream cannot cover the requested time or index."""


class InsufficientSamples(UserWarning):
    """Fewer than 10/epsilon samples back the requested quantile."""


def derive_rng(base_seed: int, replication: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one (replication, stream) pair.

    Streams are statistically independent across replications and ids, and
    reproducible from the base seed alone.
    """
    seq = np.random.SeedSequence(base_seed, spawn_key=(replication, stream_id))
    return np.random.Generator(np.random.Philox(seq))


class EventStream:
    """Lazily generated, nondecreasing sensor event times starting after 0.

    Supports three streaming queries: `take(k)` returns the next k event
    times in order, `count_upto(ts)` returns the number of events at or
    before each time of a nondecreasing array, and `discard_through(t)`
    releases memory for events that no future query will look at. With
    `max_events` set, queries beyond the cap raise EventStreamExhausted.
    """

    def __init__(
        self,
        model: DistributionModel,
        seed: Union[int, np.random.Generator],
        max_events: Optional[int] = None,
    ):
        self.model = model
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.max_events = max_events
        self._buf = np.empty(0)
        self._first = 1  # global 1-based index of _buf[0]
        self._generated = 0
        self._last_time = 0.0
        self._taken = 0  # events already consumed by take()

    def _grow(self, k: int) -> np.ndarray:
        if self.max_events is not None:
            k = min(k, self.max_events - self._generated)
            if k <= 0:
                raise EventStreamExhausted(
                    "event stream capped at %d events" % self.max_events
                )
        draws = sample(self.model, self.rng, k)
        block = self._last_time + np.cumsum(draws)
        self._last_time = float(block[-1])
        self._generated += k
        return block

    def _extend_to_time(self, t: float) -> None:
        parts = [self._buf]
        try:
            while self._last_time <= t:
                parts.append(self._grow(_BLOCK))
        finally:
            if len(parts) > 1:
                self._buf = np.concatenate(parts)

    def _extend_to_index(self, n: int) -> None:
        parts = [self._buf]
        try:
            while self._generated < n:
                parts.append(self._grow(max(n - self._generated, _BLOCK)))
        finally:
            if len(parts) > 1:
                self._buf = np.concatenate(parts)

    def take(self, k: int) -> np.ndarray:
        """Next k event times, consuming them from the take cursor."""
        self._extend_to_index(self._taken + k)
        i0 = self._taken - (self._first - 1)
        out = self._buf[i0:i0 + k]
        self._taken += k
        return out

    def count_upto(self, times: np.ndarray) -> np.ndarray:
        """Event counts at each time of a nondecreasing array; ties count.

        Times must not precede a previous discard_through() point.
        """
        times = np.asarray(times, dtype=np.float64)
        if len(times):
            self._extend_to_time(float(times[-1]))
        return (self._first - 1) + np.searchsorted(self._buf, times, side="right")

    def discard_through(self, t: float) -> None:
        """Forget events at or before t; only call when no future query needs them."""
        k = int(np.searchsorted(self._buf, t, side="right"))
        if self._taken:
            k = min(k, self._taken - (self._first - 1))
        if k > 0:
            self._buf = self._buf[k:]
            self._first += k


def _fifo_chunk(
    arrivals: np.ndarray,
    service: np.ndarray,
    service_sum: float,
    run_max: float,
) -> Tuple[np.ndarray, float, float]:
    # D(n) = S(n) + max_{v<=n} (A(v) - S(v) + L(v)) with S the running service
    # total; run_max carries the maximum across chunk boundaries.
    s = service_sum + np.cumsum(service)
    g = arrivals - s + service
    np.maximum.accumulate(g, out=g)
    np.maximum(g, run_max, out=g)
    dep = s + g
    return dep, float(s[-1]), float(g[-1])


# ---------------------------------------------------------------------------
# Empirical tails


class EmpiricalTail:
    """Empirical complementary CDF of metric samples.

    Holds raw samples up to `raw_limit` and switches to a fixed-width
    histogram (plus an overflow bin) beyond it; the histogram makes quantiles
    conservative by at most one `bin_width`.
    """

    def __init__(self, raw_limit: int = 10_000_000, bins: int = 10_000):
        self.raw_limit = raw_limit
        self.bins = bins
        self._chunks: List[np.ndarray] = []
        self._sorted: Optional[np.ndarray] = None
        self._n = 0
        self._min = math.inf
        self._max = -math.inf
        self._edges: Optional[np.ndarray] = None
        self._lower: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None

    @property
    def n_samples(self) -> int:
        return self._n

    @property
    def bin_width(self) -> float:
        """Quantile resolution: 0 while raw samples are kept."""
        if self._edges is None:
            return 0.0
        return float(self._edges[1] - self._edges[0])

    def add(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.float64)
        if len(samples) == 0:
            return
        self._n += len(samples)
        self._min = min(self._min, float(samples.min()))
        self._max = max(self._max, float(samples.max()))
        self._sorted = None
        if self._edges is not None:
            self._bin(samples)
            return
        self._chunks.append(samples)
        if self._n > self.raw_limit:
            self._to_histogram()

    def _to_histogram(self) -> None:
        hi = self._max if self._max > 0 else 1.0
        self._edges = np.linspace(0.0, 2.0 * hi, self.bins + 1)
        # bin j holds lower[j] < x <= lower[j + 1]; bin 0 is open below and
        # the last bin (overflow) open above
        self._lower = np.concatenate(([-math.inf], self._edges[1:], [math.inf]))
        self._counts = np.zeros(self.bins + 1, dtype=np.int64)  # last bin = overflow
        for chunk in self._chunks:
            self._bin(chunk)
        self._chunks = []

    def _bin(self, samples: np.ndarray) -> None:
        # Same bins as searchsorted(edges, x, side="left") - 1 clipped to
        # [0, bins], in constant time per sample: guess ceil(x / width) - 1,
        # then one step against the true linspace edges corrects the rounding
        # of both (exact while the width is a normal float, as edges[k] is
        # k * width rounded). The quotient is clipped before the integer cast
        # so that +inf and huge values land in the overflow bin.
        bins, lower = self.bins, self._lower
        with np.errstate(over="ignore"):
            q = samples / self._edges[1]
        np.ceil(q, out=q)
        np.clip(q, 1.0, bins + 1.0, out=q)
        idx = q.astype(np.intp)
        idx -= 1
        idx += samples > lower[1:][idx]
        idx -= samples <= lower[idx]
        np.maximum(idx, 0, out=idx)  # only -inf steps below bin 0
        self._counts += np.bincount(idx, minlength=bins + 1)

    def _sorted_samples(self) -> np.ndarray:
        if self._sorted is None:
            pooled = np.concatenate(self._chunks) if self._chunks else np.empty(0)
            self._sorted = np.sort(pooled)
        return self._sorted

    def quantile(self, epsilon: float) -> float:
        """Smallest recorded value exceeded by at most a fraction epsilon.

        Warns InsufficientSamples when fewer than 10/epsilon samples exist.
        """
        if not 0 < epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1], got %r" % (epsilon,))
        if self._n == 0:
            raise ValueError("no samples recorded")
        if self._n < 10.0 / epsilon:
            warnings.warn(
                "quantile at epsilon=%g from only %d samples" % (epsilon, self._n),
                InsufficientSamples,
                stacklevel=2,
            )
        allowed = math.floor(epsilon * self._n + 1e-9)
        if self._edges is None:
            s = self._sorted_samples()
            return float(s[max(len(s) - 1 - allowed, 0)])
        above = np.cumsum(self._counts[::-1])[::-1]  # above[j] = samples in bins >= j
        # smallest upper edge whose strict exceedance is within the allowance
        j = int(np.searchsorted(-above[1:], -allowed, side="left"))
        if j >= self.bins:
            return self._max  # inside the overflow bin
        return max(float(self._edges[j + 1]), self._min)

    def exceed_fraction(self, x: float) -> float:
        """Fraction of samples strictly greater than x (upper estimate of at
        most one bin in histogram mode)."""
        if self._n == 0:
            raise ValueError("no samples recorded")
        if self._edges is None:
            s = self._sorted_samples()
            return float(len(s) - np.searchsorted(s, x, side="right")) / self._n
        j = int(np.searchsorted(self._edges, x, side="left")) - 1
        j = min(max(j, 0), self.bins)
        return float(self._counts[j:].sum()) / self._n

    @classmethod
    def from_samples(cls, samples, **kwargs) -> "EmpiricalTail":
        tail = cls(**kwargs)
        tail.add(np.asarray(samples))
        return tail


# ---------------------------------------------------------------------------
# Replicated runs


@dataclass
class MetricTails:
    """Pooled empirical tails of the three per-update metrics."""

    delay: EmpiricalTail
    peak_aoi: EmpiricalTail
    peak_doi: EmpiricalTail

    def by_name(self) -> dict:
        return {"delay": self.delay, "peak_aoi": self.peak_aoi, "peak_doi": self.peak_doi}


def _simulate_one(
    scenario: Scenario,
    n_updates: int,
    base_seed: int,
    replication: int,
    burn_in: int,
    chunk: int = _CHUNK,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One replication: burned-in sample arrays (delay, peak_aoi, peak_doi)."""
    policy = scenario.policy
    policy.check_simulable()
    events = EventStream(
        scenario.event_model, derive_rng(base_seed, replication, STREAM_EVENTS)
    )
    rng_service = derive_rng(base_seed, replication, STREAM_SERVICE)

    t_out = np.empty(n_updates)
    a_out = np.empty(n_updates - 1)
    f_out = np.empty(n_updates - 1)

    service_sum, run_max = 0.0, -math.inf
    arr_last = 0.0
    count_last = 0
    done = 0
    while done < n_updates:
        m = min(chunk, n_updates - done)
        first = done + 1  # 1-based index of the chunk's first update
        arr = policy.arrivals(events, first, m)
        service = sample(scenario.service_model, rng_service, m)
        dep, service_sum, run_max = _fifo_chunk(arr, service, service_sum, run_max)

        t_out[done:done + m] = dep - arr

        events.discard_through(float(arr[0]))
        ca = policy.sampled_counts(events, arr, first)
        cd = events.count_upto(dep)

        if done > 0:
            a_out[done - 1] = dep[0] - arr_last
            f_out[done - 1] = cd[0] - count_last
        a_out[done:done + m - 1] = dep[1:] - arr[:-1]
        f_out[done:done + m - 1] = cd[1:] - ca[:-1]
        arr_last = float(arr[-1])
        count_last = int(ca[-1])
        done += m

    return t_out[burn_in:], a_out[burn_in:], f_out[burn_in:]


def run_replications(
    scenario: Scenario,
    n_updates: int,
    n_reps: int,
    base_seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    workers: int = 1,
    raw_limit: int = 10_000_000,
) -> MetricTails:
    """Simulate n_reps independent replications and pool their metric tails.

    Results are bit-identical for a given base seed regardless of the worker
    count: each replication derives its own streams from the base seed, and
    replications are merged in index order as they arrive. The pool has
    min(workers, n_reps) processes.
    """
    scenario.policy.check_simulable()
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0, got %d" % burn_in)
    if n_updates < burn_in + 2:
        raise ValueError(
            "n_updates=%d leaves no samples after burn_in=%d" % (n_updates, burn_in)
        )
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1, got %d" % workers)

    tails = MetricTails(
        delay=EmpiricalTail(raw_limit=raw_limit),
        peak_aoi=EmpiricalTail(raw_limit=raw_limit),
        peak_doi=EmpiricalTail(raw_limit=raw_limit),
    )
    workers = min(workers, n_reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque(
                pool.submit(_simulate_one, scenario, n_updates, base_seed, r, burn_in)
                for r in range(n_reps)
            )
            _merge_in_order(tails, (pending.popleft().result() for _ in range(n_reps)))
    else:
        _merge_in_order(
            tails,
            (_simulate_one(scenario, n_updates, base_seed, r, burn_in) for r in range(n_reps)),
        )
    return tails


def _merge_in_order(
    tails: MetricTails, results: Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> None:
    """Add each replication's samples to the tails as the iterator yields them.

    The order matters: histogram edges depend on the pooled maximum at the
    moment the raw limit is crossed.
    """
    for t, a, f in results:
        tails.delay.add(t)
        tails.peak_aoi.add(a)
        tails.peak_doi.add(f)
        # drop this replication before waiting for the next one
        del t, a, f

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
discarded once no later update reads them, so memory stays bounded at any
sample count.

With a process pool, every replication hands its samples to the parent
through a file: the worker writes its three arrays with `ndarray.tofile`
into a temporary directory (under TMPDIR), and the parent maps the file
read-only and unlinks it at once, so no sample array is pickled. The parent
adds the replications to the tails in index order, as a serial run does,
and keeps at most `workers` of them submitted beyond the one it is adding.
A file's pages stay on disk until its tail bins them or sorts them into an
array of its own: at most the replications up to the one that takes the
tails past their raw limit, plus `workers` in flight, at 24 bytes per
update (about 384 MB with the default raw limit, 2M-update replications
and 2 workers).
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import Scenario
from .models import DistributionModel, sample

STREAM_EVENTS = 0
STREAM_SERVICE = 1

_BLOCK = 1 << 16
_CHUNK = 1 << 18
_BIN_BLOCK = 1 << 15  # samples binned per pass: the temporaries stay in L2
_COUNT_BLOCK = 1 << 10  # times counted per pass against one slice of events
DEFAULT_BURN_IN = 10_000


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

    Events are addressed by their global 1-based index, and every query is
    positional: `take(start, k)` returns the times of events start+1 ...
    start+k, `count_upto(ts)` returns the number of events at or before each
    time of a nondecreasing array, and `discard(count)` releases events
    1 ... count, which no later query may read.

    Events live in one store, written once where they are generated: the
    live window `_store[_lo:_hi]` holds the events from global 1-based index
    `_first` on. Discarded events leave the window; when new events do not
    fit after it, the window moves to the front of the store if that copy
    is no larger than the discarded prefix, and otherwise into a new store
    with a quarter of headroom.
    """

    def __init__(self, model: DistributionModel, seed: Union[int, np.random.Generator]):
        self.model = model
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self._store = np.empty(0)
        self._lo = self._hi = 0
        self._first = 1  # global 1-based index of _store[_lo]
        self._generated = 0
        self._last_time = 0.0

    def _grow(self, k: int) -> None:
        live = self._hi - self._lo
        if self._hi + k > len(self._store):
            if live <= self._lo and live + k <= len(self._store):
                store = self._store
            else:
                store = np.empty((live + k) * 5 // 4)
            store[:live] = self._store[self._lo:self._hi]
            self._store, self._lo, self._hi = store, 0, live
        # draw into the store, cumsum in place, then += _last_time: the
        # operands of _last_time + cumsum(draws), so the same bits, with no
        # array besides the store
        block = sample(self.model, self.rng, k, out=self._store[self._hi:self._hi + k])
        np.cumsum(block, out=block)
        block += self._last_time
        self._last_time = float(block[-1])
        self._hi += k
        self._generated += k

    def take(self, start: int, k: int) -> np.ndarray:
        """Times of events start+1 ... start+k.

        The result is a view into the store, valid until the next call on
        the stream; copy it to keep it longer. Raises ValueError if any of
        these events has been discarded.
        """
        if start < self._first - 1:
            raise ValueError("take(%d, ...) reads discarded events" % start)
        while self._generated < start + k:
            self._grow(max(start + k - self._generated, _BLOCK))
        i0 = self._lo + start - (self._first - 1)
        return self._store[i0:i0 + k]

    def count_upto(self, times: np.ndarray) -> np.ndarray:
        """Event counts at each time of a nondecreasing array; ties count.

        Times must not precede the last discarded event.
        """
        times = np.asarray(times, dtype=np.float64)
        n = len(times)
        counts = np.empty(n, dtype=np.intp)
        if n == 0:
            return counts
        t = float(times[-1])
        while self._last_time <= t:
            self._grow(_BLOCK)
        live = self._store[self._lo:self._hi]
        # anchors: the counts at every _COUNT_BLOCK-th time and at the last
        # one. The counts of the times from one anchor to the next lie
        # between theirs, so each block searches only the events in between,
        # a slice that stays in L2, and the counts are exactly those of a
        # search of the whole window.
        anchors = np.searchsorted(live, times[np.r_[0:n:_COUNT_BLOCK, n - 1]], side="right")
        anchors = anchors.tolist()
        for b, i in enumerate(range(0, n, _COUNT_BLOCK)):
            lo, hi = anchors[b], anchors[b + 1]
            found = np.searchsorted(live[lo:hi], times[i:i + _COUNT_BLOCK], side="right")
            np.add(found, lo + self._first - 1, out=counts[i:i + _COUNT_BLOCK])
        return counts

    def discard(self, count: int) -> None:
        """Forget events 1 ... count, which must all have been generated."""
        if count > self._generated:
            raise ValueError("discard(%d) past the %d events generated" % (count, self._generated))
        k = count - (self._first - 1)
        if k > 0:
            self._lo += k
            self._first += k


def _fifo_chunk(
    arrivals: np.ndarray,
    service: np.ndarray,
    service_sum: float,
    run_max: float,
) -> Tuple[np.ndarray, float, float]:
    # D(n) = S(n) + max_{v<=n} (A(v) - S(v) + L(v)) with S the running service
    # total; run_max carries the maximum across chunk boundaries.
    s = np.cumsum(service)
    s += service_sum
    service_sum = float(s[-1])
    g = arrivals - s
    g += service
    np.maximum.accumulate(g, out=g)
    np.maximum(g, run_max, out=g)
    s += g  # the departures
    return s, service_sum, float(g[-1])


# ---------------------------------------------------------------------------
# Empirical tails


def _histogram_edges(hi: float, bins: int) -> np.ndarray:
    """Bin edges of a tail whose pooled maximum is hi when it crosses its raw limit."""
    return np.linspace(0.0, 2.0 * (hi if hi > 0 else 1.0), bins + 1)


def _bin(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Samples per bin of the linspace `edges`, plus a last, overflow bin.

    Same bins as searchsorted(edges, x, side="left") - 1 clipped to
    [0, bins], in constant time per sample: guess ceil(x / width) - 1, then
    one step against the true linspace edges corrects the rounding of both
    (exact while the width is a normal float, as edges[k] is k * width
    rounded). The quotient is clipped before the integer cast so that +inf
    and huge values land in the overflow bin. Each sample is binned on its
    own, so doing it in blocks of _BIN_BLOCK changes no count.
    """
    bins = len(edges) - 1
    # bin j holds lower[j] < x <= lower[j + 1]; bin 0 is open below and the
    # last bin (overflow) open above
    lower = np.concatenate(([-math.inf], edges[1:], [math.inf]))
    upper = lower[1:]
    counts = np.zeros(bins + 1, dtype=np.int64)
    m = min(len(samples), _BIN_BLOCK)
    q_buf, idx_buf, step_buf = np.empty(m), np.empty(m, dtype=np.intp), np.empty(m, dtype=bool)
    for i in range(0, len(samples), _BIN_BLOCK):
        x = samples[i:i + _BIN_BLOCK]
        q, idx, step = q_buf[:len(x)], idx_buf[:len(x)], step_buf[:len(x)]
        with np.errstate(over="ignore"):
            np.divide(x, edges[1], out=q)
        np.ceil(q, out=q)
        np.clip(q, 1.0, bins + 1.0, out=q)
        np.copyto(idx, q, casting="unsafe")
        idx -= 1
        idx += np.greater(x, np.take(upper, idx, out=q), out=step)
        idx -= np.less_equal(x, np.take(lower, idx, out=q), out=step)
        np.maximum(idx, 0, out=idx)  # only -inf steps below bin 0
        counts += np.bincount(idx, minlength=bins + 1)
    return counts


class EmpiricalTail:
    """Empirical complementary CDF of metric samples.

    Holds raw samples up to `raw_limit` and switches to a fixed-width
    histogram (plus an overflow bin) beyond it, which bins every later `add`;
    the histogram makes quantiles conservative by at most one `bin_width`.
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
        if self._edges is not None:
            self._counts += _bin(samples, self._edges)
            return
        self._sorted = None
        self._chunks.append(samples)
        if self._n > self.raw_limit:
            self._to_histogram()

    def _to_histogram(self) -> None:
        self._edges = _histogram_edges(self._max, self.bins)
        self._counts = np.zeros(self.bins + 1, dtype=np.int64)  # last bin = overflow
        # free each raw chunk once binned, so the memory it holds (an array
        # or a file mapping's pages) falls while the rest are binned
        chunks, self._chunks = self._chunks, []
        while chunks:
            self._counts += _bin(chunks.pop(0), self._edges)

    def _sorted_samples(self) -> np.ndarray:
        if self._sorted is None:
            # concatenate always copies, so the in-place sort never touches
            # a caller's array. The sorted copy holds the same samples as the
            # chunks, so it becomes the only chunk and the arrays the tail
            # held are released.
            self._sorted = np.concatenate(self._chunks or [np.empty(0)])
            self._sorted.sort()
            self._chunks = [self._sorted]
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
    def from_samples(cls, samples) -> "EmpiricalTail":
        tail = cls()
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
        # no later query reads the events the previous chunk's last update sampled
        events.discard(count_last)
        arr = policy.arrivals(events, first, m)
        service = sample(scenario.service_model, rng_service, m)
        dep, service_sum, run_max = _fifo_chunk(arr, service, service_sum, run_max)

        np.subtract(dep, arr, out=t_out[done:done + m])

        ca = policy.sampled_counts(events, arr, first)
        cd = events.count_upto(dep)

        if done > 0:
            a_out[done - 1] = dep[0] - arr_last
            f_out[done - 1] = cd[0] - count_last
        np.subtract(dep[1:], arr[:-1], out=a_out[done:done + m - 1])
        np.subtract(cd[1:], ca[:-1], out=f_out[done:done + m - 1])
        arr_last = float(arr[-1])
        count_last = int(ca[-1])
        done += m

    return t_out[burn_in:], a_out[burn_in:], f_out[burn_in:]


def _write_samples(path: str, samples: Sequence[np.ndarray]) -> None:
    # write(), not a writable mapping, so that a full disk raises OSError
    # here instead of killing the worker with SIGBUS on a page fault
    with open(path, "wb") as f:
        for x in samples:
            x.tofile(f)


def _simulate_to_file(
    scenario: Scenario,
    n_updates: int,
    base_seed: int,
    replication: int,
    burn_in: int,
    path: str,
) -> Tuple[str, List[int]]:
    """One replication written to `path`, its arrays back to back in the
    order of _simulate_one's: only the path and the lengths are pickled."""
    samples = _simulate_one(scenario, n_updates, base_seed, replication, burn_in)
    _write_samples(path, samples)
    return path, [len(x) for x in samples]


def _mapped(path: str, lengths: Sequence[int]) -> List[np.ndarray]:
    """The arrays _simulate_to_file wrote, as read-only views of one mapping
    of the file. The file is unlinked at once; the mapping keeps its pages."""
    data = np.memmap(path, dtype=np.float64, mode="r")
    os.unlink(path)
    return np.split(data, np.cumsum(lengths)[:-1])


def _pooled(
    pool: ProcessPoolExecutor, tmp: str, args: tuple, n_reps: int, burn_in: int, workers: int
) -> Iterator[List[np.ndarray]]:
    """Replications 0 ... n_reps - 1 in index order, each handed over through
    a file in `tmp`. At most `workers` replications are submitted beyond the
    one being yielded, so a failed run stops after at most that many more."""
    futures = deque()
    for r in range(n_reps):
        path = os.path.join(tmp, str(r))
        futures.append(pool.submit(_simulate_to_file, *args, r, burn_in, path))
        if len(futures) > workers:
            yield _mapped(*futures.popleft().result())
    while futures:
        yield _mapped(*futures.popleft().result())


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
    every replication's arrays are added to the tails in index order, which
    bin them once past raw_limit. The pool has min(workers, n_reps)
    processes and runs at most `workers` replications ahead of the one
    being added, so a failed run simulates at most that many beyond it. The
    files through which the workers hand over their samples live in a
    directory under TMPDIR that is removed when the call returns or raises.
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

    tails = (
        EmpiricalTail(raw_limit=raw_limit),
        EmpiricalTail(raw_limit=raw_limit),
        EmpiricalTail(raw_limit=raw_limit),
    )
    workers = min(workers, n_reps)
    args = (scenario, n_updates, base_seed)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # entered before the pool, so it is removed after the workers stop
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="agecalc-"))
            pool = ProcessPoolExecutor(max_workers=workers)
            # on an error, the replications no worker has taken yet are cancelled
            stack.callback(pool.shutdown, cancel_futures=True)
            replications = _pooled(pool, tmp, args, n_reps, burn_in, workers)
        else:
            replications = (_simulate_one(*args, r, burn_in) for r in range(n_reps))
        for samples in replications:
            for tail, x in zip(tails, samples):
                tail.add(x)
            # drop this replication before waiting for the next one
            del samples, x
    return MetricTails(*tails)

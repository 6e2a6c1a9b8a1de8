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
sample count. A replication runs in chunks of _CHUNK updates. The chunk
size is part of the seed contract, as the block size is: it changes no
draw, but the FIFO adds its running service total once per chunk, and an
event-triggered chunk grows the event stream in one block, which adds the
stream's last time once, so it sets the rounding of every delay and peak
age.

Every replication hands its metrics to the tails through a file in a
temporary directory (under TMPDIR), whether a pool worker runs it or the
calling process does: each chunk of its delay and peak-age arrays is
written at that array's offset, with `os.pwrite`, as soon as the chunk is
computed, so a replication holds one chunk per array (2^16 updates,
512 KB), never the whole replication. Peak deviation is an event count, and
its tail, a `CountTail`, holds one count per value, exact at any sample
count, so each chunk's deviations are counted past the burn-in instead,
and the replication returns one count per value, a few hundred integers,
with each array's length, minimum and maximum. The caller opens each array
on its own, as a slice of the file that it reads with `os.preadv` and
never maps, unlinks the file at once and adds the replications to the
tails in index order, so no sample array is pickled and the tails are the
same at any worker count; a pool keeps at most `workers` replications
submitted beyond the one being added. Each slice knows its array's
extremes, so the delay and peak-age tails, `EmpiricalTail`s, check that
every sample is finite without a read, and read an array only to bin it or
to answer a query, a block at a time into one buffer. A raw tail answers
each query, or each batch of quantiles, in one pass over the slices it
holds and writes no file: it selects the largest samples the requested
ranks need into one buffer of at most all its samples, 16 bytes per sample
a quantile at epsilon may leave above it, plus a block.

A file's blocks stay on disk until the last slice of it is dropped: at
most the replications up to the one that takes the delay and peak-age
tails past their raw limit, plus `workers` in flight with a pool, at 16
bytes per update (with the default raw limit and 2M-update replications,
about 192 MB in one process and 256 MB with 2 workers). A pool forked
while earlier tails hold files keeps those blocks until its workers exit.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import tempfile
import warnings
import weakref
from collections import deque
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
# numpy loads numpy.random on first use; loaded with this module, it is never
# loaded inside a run, where the Cython initialisation of its modules drops
# an exception a signal handler raises (the CLI's exit on SIGTERM), so that
# the run would go on to the end
import numpy.random  # noqa: F401

from .bounds import Scenario
from .models import DistributionModel, sample

STREAM_EVENTS = 0
STREAM_SERVICE = 1

_BLOCK = 1 << 16
_CHUNK = 1 << 16
_BIN_BLOCK = 1 << 15  # samples binned per pass: the temporaries stay in L2
_COUNT_BLOCK = 1 << 10  # times counted per pass against one slice of events
DEFAULT_BURN_IN = 10_000
DEFAULT_RAW_LIMIT = 10_000_000  # raw samples a tail keeps before it bins them
_BINS = 10_000  # histogram bins below the overflow bin


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


class _FileSlice:
    """`n` float64 samples at byte `offset` of an open file that has no name
    any more, read with `os.preadv` into the caller's arrays, never mapped:
    what a slice holds stays on disk and in the page cache, outside the
    process's resident memory. The file is closed when the slice is
    dropped. `min()` and `max()` return `lo` and `hi`, the samples'
    extremes as the slice's maker knows them, without a read."""

    def __init__(self, f: BinaryIO, offset: int, n: int, lo: float, hi: float):
        self._fd, self._offset, self._n = f.fileno(), offset, n
        self._lo, self._hi = lo, hi
        weakref.finalize(self, f.close)

    def __len__(self) -> int:
        return self._n

    def min(self) -> float:
        return self._lo

    def max(self) -> float:
        return self._hi

    def read_into(self, start: int, out: np.ndarray) -> np.ndarray:
        """Samples start ... start + len(out) - 1 read into `out`, returned."""
        data, offset = memoryview(out).cast("B"), self._offset + 8 * start
        while data:
            got = os.preadv(self._fd, [data], offset)
            if not got:
                raise EOFError("sample file ends at byte %d" % offset)
            data, offset = data[got:], offset + got
        return out


_Samples = Union[np.ndarray, _FileSlice]


def _blocks(samples: _Samples, size: int) -> Iterator[np.ndarray]:
    """The samples in consecutive blocks of `size`: views of an array, or
    reads of a file slice into one reused buffer, each valid until the next
    block is taken."""
    n = len(samples)
    if isinstance(samples, np.ndarray):
        for i in range(0, n, size):
            yield samples[i:i + size]
        return
    buf = np.empty(min(size, n))
    for i in range(0, n, size):
        yield samples.read_into(i, buf[:min(size, n - i)])


def _bin(samples: _Samples, edges: np.ndarray) -> np.ndarray:
    """Finite samples per bin of the linspace `edges`, plus a last, overflow
    bin.

    Same bins as searchsorted(edges, x, side="left") - 1 clipped to
    [0, bins], in constant time per sample: guess ceil(x / width) - 1, then
    one step against the true linspace edges corrects the rounding of both
    (exact while the width is a normal float, as edges[k] is k * width
    rounded). The quotient is clipped before the integer cast so that huge
    values, whose quotient may overflow, land in the overflow bin; bin 0 is
    open below, so no finite sample steps below it. Each sample is binned
    on its own, so doing it in blocks of _BIN_BLOCK changes no count.
    """
    bins = len(edges) - 1
    # bin j holds lower[j] < x <= lower[j + 1]; bin 0 is open below and the
    # last bin (overflow) open above
    lower = np.concatenate(([-math.inf], edges[1:], [math.inf]))
    upper = lower[1:]
    counts = np.zeros(bins + 1, dtype=np.int64)
    m = min(len(samples), _BIN_BLOCK)
    q_buf, idx_buf, step_buf = np.empty(m), np.empty(m, dtype=np.intp), np.empty(m, dtype=bool)
    for x in _blocks(samples, _BIN_BLOCK):
        q, idx, step = q_buf[:len(x)], idx_buf[:len(x)], step_buf[:len(x)]
        with np.errstate(over="ignore"):
            np.divide(x, edges[1], out=q)
        np.ceil(q, out=q)
        np.clip(q, 1.0, bins + 1.0, out=q)
        np.copyto(idx, q, casting="unsafe")
        idx -= 1
        idx += np.greater(x, np.take(upper, idx, out=q), out=step)
        idx -= np.less_equal(x, np.take(lower, idx, out=q), out=step)
        counts += np.bincount(idx, minlength=bins + 1)
    return counts


def _allowances(epsilons: Sequence[float], n: int) -> List[int]:
    """floor(epsilon * n + 1e-9) for each epsilon, the samples its quantile
    may leave above it; warns InsufficientSamples at the query's caller for
    each epsilon with n < 10/epsilon."""
    allowed = []
    for epsilon in epsilons:
        if not 0 < epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1], got %r" % (epsilon,))
        if n == 0:
            raise ValueError("no samples recorded")
        if n < 10.0 / epsilon:
            warnings.warn(
                "quantile at epsilon=%g from only %d samples" % (epsilon, n),
                InsufficientSamples,
                stacklevel=3,
            )
        allowed.append(math.floor(epsilon * n + 1e-9))
    return allowed


class _Extremes:
    """The values of the `need` largest of n finite samples offered, kept in
    one buffer of min(2 * need + _BIN_BLOCK, n) floats. Until the buffer
    first fills, every array or file slice that fits is copied into it
    whole, a file slice read straight into it. Otherwise, of each block of
    the samples, those above the bound, the need-th largest value kept so
    far, are appended; when they would not fit, the buffer is partitioned
    in place down to its `need` largest, which sets the bound. A sample
    equal to the bound changes none of the need values, so it is not
    kept."""

    def __init__(self, need: int, n: int):
        self.need = need
        self.bound = -math.inf  # below every finite sample
        self.buf = np.empty(min(2 * need + _BIN_BLOCK, n))
        self.mask = np.empty(min(n, _BIN_BLOCK), dtype=bool)
        self.fill = 0

    def offer(self, samples: _Samples) -> None:
        m = len(samples)
        if self.bound == -math.inf and self.fill + m <= len(self.buf):
            out = self.buf[self.fill:self.fill + m]
            if isinstance(samples, _FileSlice):
                samples.read_into(0, out)
            else:
                out[:] = samples
            self.fill += m
            return
        for x in _blocks(samples, _BIN_BLOCK):
            mask = np.greater(x, self.bound, out=self.mask[:len(x)])
            k = np.count_nonzero(mask)
            if self.fill + k > len(self.buf):
                # then the buffer holds 2 * need + _BIN_BLOCK, and
                # fill > 2 * need, so the largest need, moved to the front,
                # overlap nothing they are copied from
                kept, cut = self.buf[:self.fill], self.fill - self.need
                kept.partition(cut)
                self.buf[:self.need] = kept[cut:]
                self.bound = float(self.buf[0])
                self.fill = self.need
            np.compress(mask, x, out=self.buf[self.fill:self.fill + k])
            self.fill += k

    def largest(self) -> np.ndarray:
        """The need largest values, the largest first, sorted in the buffer
        itself, which takes no copy of it."""
        s = self.buf[:self.fill]
        s.sort()
        return s[::-1][:self.need]


class EmpiricalTail:
    """Empirical complementary CDF of finite real-valued metric samples.

    Every sample must be finite: an `add` with a nan or infinite sample
    raises ValueError and leaves the tail as it was. The tail holds raw
    samples up to `raw_limit` and switches to a fixed-width histogram (plus
    an overflow bin) beyond it, which bins every later `add`; the histogram
    makes quantiles conservative by at most one `bin_width`. Its edges run
    from 0 to twice the pooled maximum at the switch. File slices are not
    read until they are binned or queried, so samples the tail is given in
    a file stay on disk. While raw, the tail keeps the arrays and slices it
    was given and answers each query exactly, as a sort of all its samples
    would, in at most one pass over them that writes no file: an exceedance
    fraction counts, and a batch of quantiles (`quantiles`) selects the
    largest samples its ranks need, in one buffer of at most n samples:
    16 bytes per sample that the smallest epsilon lets exceed its quantile,
    plus a block.
    """

    def __init__(self, raw_limit: int = DEFAULT_RAW_LIMIT):
        self.raw_limit = raw_limit
        self._chunks: List[_Samples] = []
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

    def add(self, samples: _Samples) -> None:
        """Record finite samples, a 1-D array or a file slice, whose extremes
        the slice knows without a read. An array of any other shape, or
        samples whose extremes are not finite (any nan or infinite sample),
        raise ValueError and leave the tail as it was."""
        if not isinstance(samples, _FileSlice):
            samples = np.asarray(samples, dtype=np.float64)
            if samples.ndim != 1:
                raise ValueError("samples must be a 1-D array, got shape %r" % (samples.shape,))
        if len(samples) == 0:
            return
        lo, hi = float(samples.min()), float(samples.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("samples must be finite, got extremes %r and %r" % (lo, hi))
        self._n += len(samples)
        self._min, self._max = min(self._min, lo), max(self._max, hi)
        if self._edges is not None:
            self._counts += _bin(samples, self._edges)
            return
        self._chunks.append(samples)
        if self._n > self.raw_limit:
            self._to_histogram()

    def _to_histogram(self) -> None:
        self._edges = _histogram_edges(self._max, _BINS)
        self._counts = np.zeros(_BINS + 1, dtype=np.int64)  # last bin = overflow
        # free each raw chunk once binned, so the memory or file it holds is
        # released while the rest are binned
        chunks, self._chunks = self._chunks, []
        while chunks:
            self._counts += _bin(chunks.pop(0), self._edges)

    def _raw_blocks(self) -> Iterator[np.ndarray]:
        for chunk in self._chunks:
            yield from _blocks(chunk, _BIN_BLOCK)

    def _order_statistics(self, ranks: Sequence[int]) -> List[float]:
        """s[k] for each rank k of the raw samples s sorted. s[0] is the
        minimum and s[n - 1] the maximum; every other rank k is read from
        the n - k largest samples, selected in one pass into a copy, so that
        no caller's array is touched."""
        n = self._n
        known = {0: self._min, n - 1: self._max}
        top = [k for k in ranks if k not in known]
        if top:
            side = _Extremes(n - min(top), n)
            for chunk in self._chunks:
                side.offer(chunk)
            largest = side.largest()
        return [known[k] if k in known else float(largest[n - 1 - k]) for k in ranks]

    def _at(self, allowed: Sequence[int]) -> List[float]:
        if self._edges is None:
            return self._order_statistics([max(self._n - 1 - a, 0) for a in allowed])
        above = np.cumsum(self._counts[::-1])[::-1]  # above[j] = samples in bins >= j
        # smallest upper edge whose strict exceedance is within the
        # allowance; j = _BINS is inside the overflow bin
        found = np.searchsorted(-above[1:], [-a for a in allowed], side="left")
        return [
            self._max if j >= _BINS else max(float(self._edges[j + 1]), self._min)
            for j in found.tolist()
        ]

    def quantile(self, epsilon: float) -> float:
        """Smallest recorded value exceeded by at most a fraction epsilon.

        Warns InsufficientSamples when fewer than 10/epsilon samples exist.
        """
        return self._at(_allowances((epsilon,), self._n))[0]

    def quantiles(self, epsilons: Sequence[float]) -> List[float]:
        """[quantile(e) for e in epsilons], with one pass over the raw
        samples at most, or one cumulative count of the histogram."""
        return self._at(_allowances(epsilons, self._n))

    def exceed_fraction(self, x: float) -> float:
        """Fraction of samples strictly greater than x (upper estimate of at
        most one bin in histogram mode)."""
        if self._n == 0:
            raise ValueError("no samples recorded")
        if self._edges is None:
            # (n - np.searchsorted(s, x, side="right")) / n of the sorted
            # samples s: the samples not <= x, and none for a nan x, which
            # sorts past every sample
            if math.isnan(x):
                return 0.0
            mask = np.empty(min(self._n, _BIN_BLOCK), dtype=bool)
            at_most = sum(
                np.count_nonzero(np.less_equal(b, x, out=mask[:len(b)]))
                for b in self._raw_blocks()
            )
            return float(self._n - at_most) / self._n
        j = int(np.searchsorted(self._edges, x, side="left")) - 1
        j = min(max(j, 0), _BINS)
        return float(self._counts[j:].sum()) / self._n


class CountTail:
    """Empirical complementary CDF of nonnegative integer samples, such as
    peak deviation's event counts: `counts[v]` samples of each value v.
    Count arrays of any lengths merge in any order, and every query is
    answered as a raw EmpiricalTail of the samples would answer it."""

    bin_width = 0.0  # exact: no sample is binned

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.n_samples = 0

    def add(self, counts: np.ndarray) -> None:
        """Record counts[v] samples of each value v, from a 1-D array of
        nonnegative integers that fit in int64. Any other input raises
        ValueError and leaves the tail as it was."""
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.dtype.kind not in "iu" or (
            len(counts) and (counts.min() < 0 or counts.max() > np.iinfo(np.int64).max)
        ):
            raise ValueError("counts must be a 1-D array of nonnegative integers within int64")
        counts = counts.astype(np.int64, copy=False)
        grow = len(counts) - len(self.counts)
        if grow > 0:
            self.counts = np.pad(self.counts, (0, grow))
        self.counts[:len(counts)] += counts
        self.n_samples += int(counts.sum())

    def _at(self, allowed: Sequence[int]) -> List[float]:
        # s[max(n - 1 - allowed, 0)] of the sorted samples s
        ranks = [max(self.n_samples - 1 - a, 0) for a in allowed]
        return np.searchsorted(np.cumsum(self.counts), ranks, side="right").astype(float).tolist()

    def quantile(self, epsilon: float) -> float:
        """Smallest recorded value exceeded by at most a fraction epsilon.

        Warns InsufficientSamples when fewer than 10/epsilon samples exist.
        """
        return self._at(_allowances((epsilon,), self.n_samples))[0]

    def quantiles(self, epsilons: Sequence[float]) -> List[float]:
        """[quantile(e) for e in epsilons], from one cumulative count."""
        return self._at(_allowances(epsilons, self.n_samples))

    def exceed_fraction(self, x: float) -> float:
        """Fraction of samples strictly greater than x."""
        if self.n_samples == 0:
            raise ValueError("no samples recorded")
        # the values above x, found by a search that takes ±inf and nan
        j = int(np.searchsorted(np.arange(len(self.counts)), x, side="right"))
        return float(self.counts[j:].sum()) / self.n_samples


# ---------------------------------------------------------------------------
# Replicated runs


@dataclass
class MetricTails:
    """Pooled empirical tails of the three per-update metrics."""

    delay: EmpiricalTail
    peak_aoi: EmpiricalTail
    peak_doi: CountTail

    def by_name(self) -> dict:
        return {"delay": self.delay, "peak_aoi": self.peak_aoi, "peak_doi": self.peak_doi}


def _simulate_chunks(
    scenario: Scenario,
    n_updates: int,
    base_seed: int,
    replication: int,
    chunk: int,
) -> Iterator[Tuple[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """One replication, chunk by chunk, without burn-in.

    For the chunk of updates done ... done + m - 1 (0-based), yields done and
    three arrays: its m delays, and the peak ages and peak deviations (event
    counts) of updates max(done - 1, 0) ... done + m - 2, as a peak needs the
    next update's departure. The arrays are buffers of one chunk, which the
    next chunk overwrites.
    """
    policy = scenario.policy
    policy.check_simulable()
    events = EventStream(
        scenario.event_model, derive_rng(base_seed, replication, STREAM_EVENTS)
    )
    rng_service = derive_rng(base_seed, replication, STREAM_SERVICE)
    size = min(chunk, n_updates)
    t_buf, a_buf, f_buf = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)

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
        carry = 1 if done > 0 else 0
        t_out, a_out, f_out = t_buf[:m], a_buf[:m - 1 + carry], f_buf[:m - 1 + carry]

        np.subtract(dep, arr, out=t_out)

        ca = policy.sampled_counts(events, arr, first)
        cd = events.count_upto(dep)

        if carry:
            a_out[0] = dep[0] - arr_last
            f_out[0] = cd[0] - count_last
        np.subtract(dep[1:], arr[:-1], out=a_out[carry:])
        np.subtract(cd[1:], ca[:-1], out=f_out[carry:])
        arr_last = float(arr[-1])
        count_last = int(ca[-1])
        yield done, (t_out, a_out, f_out)
        done += m


def _write_at(f: BinaryIO, x: np.ndarray, offset: int) -> None:
    # write(), not a writable mapping, so that a full disk raises OSError
    # here instead of killing the process with SIGBUS on a page fault; and
    # not ndarray.tofile, whose OSError drops the errno
    data = memoryview(x).cast("B")
    while data:
        written = os.pwrite(f.fileno(), data, offset)
        data, offset = data[written:], offset + written


def _simulate_to_file(
    scenario: Scenario,
    n_updates: int,
    base_seed: int,
    replication: int,
    burn_in: int,
    path: str,
    chunk: int = _CHUNK,
) -> Tuple[str, List[Tuple[int, float, float]], np.ndarray]:
    """One replication's burned-in delay and peak-age arrays written to
    `path`, back to back, and its burned-in peak deviations counted
    (counts[v] of the value v). Returns the path, each array's
    (length, min, max) and the counts, all that a pool pickles, so the
    caller need not read an array to learn them.

    Each chunk is written at its offsets, and its deviations counted, as
    soon as it is computed, so a replication holds one chunk per array,
    never the whole of it."""
    lengths = (n_updates - burn_in, n_updates - 1 - burn_in)
    starts = (0, 8 * lengths[0])
    extremes = [[math.inf, -math.inf] for _ in lengths]
    doi = CountTail()
    with open(path, "wb", buffering=0) as f:
        chunks = _simulate_chunks(scenario, n_updates, base_seed, replication, chunk)
        for done, (t, a, dev) in chunks:
            peak = max(done - 1, 0)  # the update of the chunk's first peak
            doi.add(np.bincount(dev[max(burn_in - peak, 0):]))
            for x, first, start, ext in zip((t, a), (done, peak), starts, extremes):
                # the first burn_in values of each array are not written
                x = x[max(burn_in - first, 0):]
                if len(x):
                    _write_at(f, x, start + 8 * (max(first, burn_in) - burn_in))
                    ext[0] = min(ext[0], float(x.min()))
                    ext[1] = max(ext[1], float(x.max()))
    return path, [(n, lo, hi) for n, (lo, hi) in zip(lengths, extremes)], doi.counts


def _opened(path: str, shapes: Sequence[Tuple[int, float, float]]) -> List[_FileSlice]:
    """The arrays _simulate_to_file wrote, each a slice of the file, with
    its extremes, through a descriptor of its own. The file is unlinked at
    once; its blocks are freed when the last of the slices is dropped."""
    slices, offset = [], 0
    for n, lo, hi in shapes:
        slices.append(_FileSlice(open(path, "rb", buffering=0), offset, n, lo, hi))
        offset += 8 * n
    os.unlink(path)
    return slices


def ProcessPoolExecutor(**options):
    """concurrent.futures.ProcessPoolExecutor(**options), imported here, where
    the only pool is made, so that a serial run or a bound never loads
    multiprocessing. run_replications calls it with SIGTERM held, so a
    SIGTERM during the import waits until the pool's shutdown is
    registered."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(**options)


@contextlib.contextmanager
def _sigterm_held() -> Iterator[None]:
    """SIGTERM held back until the block ends. A handler that raises, as the
    CLI's does, would otherwise stop a pool while it forks its workers, or a
    run between creating its directory and registering its removal, and so
    leave processes or files that no cleanup reaches."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _pooled(
    pool: ProcessPoolExecutor, tmp: str, args: tuple, n_reps: int, burn_in: int, workers: int
) -> Iterator[Tuple[str, List[Tuple[int, float, float]], np.ndarray]]:
    """_simulate_to_file's results for replications 0 ... n_reps - 1, in
    index order, each written to a file in `tmp` by a worker. At most
    `workers` replications are submitted beyond the one being yielded, so a
    failed run stops after at most that many more."""
    futures = deque()
    for r in range(n_reps + workers):
        if r < n_reps:
            path = os.path.join(tmp, str(r))
            with _sigterm_held():  # the first submit forks the workers
                futures.append(pool.submit(_simulate_to_file, *args, r, burn_in, path))
        if r >= workers:
            yield futures.popleft().result()


def run_replications(
    scenario: Scenario,
    n_updates: int,
    n_reps: int,
    base_seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    workers: int = 1,
    raw_limit: int = DEFAULT_RAW_LIMIT,
) -> MetricTails:
    """Simulate n_reps independent replications and pool their metric tails.

    Results are bit-identical for a given base seed regardless of the worker
    count: each replication derives its own streams from the base seed, and
    every replication's delay and peak-age arrays are added to the tails in
    index order, which bin them once past raw_limit. Peak deviations are
    counted per integer value where each chunk is simulated, and the
    peak-deviation tail merges each replication's counts: exact at any
    sample count, in any order. Every replication hands its delay and
    peak-age arrays over through a file, 16 bytes per update, in a
    directory under TMPDIR that is removed when the call returns or raises.
    With workers > 1, a pool of min(workers, n_reps) processes runs the
    replications, at most `workers` ahead of the one being added, so a
    failed run simulates at most that many beyond it; otherwise this
    process runs each in turn.
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

    tails = MetricTails(EmpiricalTail(raw_limit), EmpiricalTail(raw_limit), CountTail())
    workers = min(workers, n_reps)
    args = (scenario, n_updates, base_seed)
    with contextlib.ExitStack() as stack:
        with _sigterm_held():
            # entered before the pool, so it is removed after the workers stop
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="agecalc-"))
            if workers > 1:
                # forked with SIGTERM held, which each worker releases first
                pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=signal.pthread_sigmask,
                    initargs=(signal.SIG_UNBLOCK, {signal.SIGTERM}),
                )
                # on an error, the replications no worker has taken yet are cancelled
                stack.callback(pool.shutdown, cancel_futures=True)
                replications = _pooled(pool, tmp, args, n_reps, burn_in, workers)
            else:
                replications = (
                    _simulate_to_file(*args, r, burn_in, os.path.join(tmp, str(r)))
                    for r in range(n_reps)
                )
        for path, shapes, counts in replications:
            tails.peak_doi.add(counts)
            # each slice is dropped once its tail has it: one that was binned
            # closes its descriptor before the next is read
            slices = _opened(path, shapes)
            for tail in (tails.delay, tails.peak_aoi):
                tail.add(slices.pop(0))
    return tails

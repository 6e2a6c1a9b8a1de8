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
events and 1 for service. Beyond the seed, the model sets every bit, and
the event model picks one of two event sources (`_events`): a random
model's event i is at the running sum of its first i event draws (an
`EventStream`), a deterministic model's at spacing * i, rounded once (an
`_EventLattice`, which draws and stores nothing). The FIFO's service total
is the running sum of the service draws. Each running sum is carried from
one draw into the next, so no size sets a byte. A replication is
simulated in pieces of at most _PIECE updates and about _PIECE_EVENTS
events, which the stream draws lazily and discards once no later piece
reads them. Each discard moves the events that stay live to the front of
the store, and the store grows, with a quarter of headroom, only when a
draw does not fit after them. So a replication's working set is one
piece's arrays and a store of _STORE events, one piece's window (768 KiB),
under 2 MiB at any sample count and any events per update.

Every replication hands its metrics to the tails through files in a
temporary directory (under TMPDIR), whether a pool worker runs it or the
calling process does: its delay and peak-age arrays each have a file of
their own, to which each piece is appended as soon as it is computed, so a
replication holds one piece per array (at most 2^13 updates, 64 KB), never
the whole replication. Peak deviation is an event count, and its tail, a
`CountTail`, holds one count per value, exact at any sample count, so each
piece's deviations are counted past the burn-in instead. The replication
returns one (path, length, min, max) record per array and one count per
value, a few hundred integers. The caller adds the replications to the
tails in index order, so no sample array is pickled and the tails are the
same at any worker count; a pool keeps at most `workers` replications
submitted beyond the one being added. The delay and peak-age tails,
`EmpiricalTail`s, take each record as it is: `add` opens its file as a
`_FileSlice`, which reads it with `os.preadv`, never maps it and unlinks it
at once, and checks from the recorded extremes, without a read, that
every sample is finite. A tail reads an array only to answer a query, a
block at a time into one buffer. Every query is exact and writes no file;
a batch of quantiles takes all its ranks by one sample-select in buffers
of a fixed size.

A file's blocks stay on disk until its slice is dropped: all the
replications the tails hold, at 16 bytes per update (about 160 MB for
10M updates). A pool forked while earlier tails hold files keeps those
blocks until its workers exit.
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
from typing import BinaryIO, Iterator, List, Sequence, Tuple, Union

import numpy as np
# numpy loads numpy.random on first use; loaded with this module, it is never
# loaded inside a run, where the Cython initialisation of its modules drops
# an exception a signal handler raises (the CLI's exit on SIGTERM), so that
# the run would go on to the end
import numpy.random  # noqa: F401

from .bounds import Scenario
from .models import Deterministic, DistributionModel, sample

STREAM_EVENTS = 0
STREAM_SERVICE = 1

_PIECE = 1 << 13  # updates simulated at once, at most
_PIECE_EVENTS = 1 << 16  # events the updates of a piece sample, on average
_DRAW = 1 << 14  # events a count draws at once
# events the store holds at least: one piece's window with two draws ahead.
# Once a piece's events are discarded only the backlog and the draw ahead
# stay live, and the discard moves them to the front of the store, a copy
# of one or two draws (16 to 33 Ki events)
_STORE = _PIECE_EVENTS + 2 * _DRAW
_SCAN_BLOCK = 1 << 14  # samples a tail query reads and compares at once: they stay in L2
_COUNT_BLOCK = 1 << 10  # times counted per pass against one slice of events
DEFAULT_BURN_IN = 10_000
_GATHER = 1 << 16  # samples a quantile query gathers between its pivots: 512 KB
_SUBSAMPLE = 1 << 13  # samples read at random to place a query's first pivots
_WINDOW = 16  # consecutive samples per random read
_DEVIATIONS = 3.0  # binomial deviations between a rank and each of its pivots
_SELECT_KEY = 0x5E1EC7  # Philox key of the random reads: they set no answer


class InsufficientSamples(UserWarning):
    """Fewer than 10/epsilon samples back the requested quantile."""


def derive_rng(base_seed: int, replication: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one (replication, stream) pair.

    Streams are statistically independent across replications and ids, and
    reproducible from the base seed alone.
    """
    seq = np.random.SeedSequence(base_seed, spawn_key=(replication, stream_id))
    return np.random.Generator(np.random.Philox(seq))


def _anchors(times: np.ndarray) -> np.ndarray:
    """The anchor times of a nonempty float64 array of times to count: every
    _COUNT_BLOCK-th time and the last. Raises ValueError if the last time is
    not finite or the anchors are not nondecreasing."""
    t = float(times[-1])
    if not math.isfinite(t):
        raise ValueError("count_upto needs a finite last time, got %r" % t)
    n = len(times)
    marks = times[np.minimum(np.arange(0, n + _COUNT_BLOCK, _COUNT_BLOCK), n - 1)]
    if not (marks[1:] >= marks[:-1]).all():  # a nan anchor fails too
        raise ValueError("count_upto needs nondecreasing times")
    return marks


class EventStream:
    """Lazily generated, nondecreasing sensor event times starting after 0,
    of a random event model; deterministic events are an `_EventLattice`.

    Events are addressed by their global 1-based index, and every query is
    positional: `take(start, k)` returns the times of events start+1 ...
    start+k, `at(indices)` those of the events at these indices,
    `count_upto(ts)` the number of events at or before each time of a
    nondecreasing array, and `discard(count)` releases events 1 ... count,
    which no later query may read.

    Event i's time is the running sum of the stream's first i draws. The
    stream draws only as far as a query reads: a `take` or `discard` what it
    lacks, a `count_upto` draws of _DRAW events until one passes its last
    time. Each draw carries the running sum into its first element before
    summing in place, so every time has the bits of one cumsum of all the
    draws, whatever the sizes of the draws.

    Drawn events live in one store, written once where they are drawn: the
    live window `_store[:_hi]` holds the events from global 1-based index
    `_first` on. `discard` moves the events that survive it to the front of
    the store, and a draw that does not fit after them moves the window into
    a new store with a quarter of headroom, at least _STORE events.
    """

    def __init__(self, model: DistributionModel, seed: Union[int, np.random.Generator]):
        self.model = model
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self._store = np.empty(0)
        self._hi = 0
        self._first = 1  # global 1-based index of _store[0]
        self._last = 0.0  # the time of the last event drawn

    def _drawn(self) -> int:
        return self._first - 1 + self._hi

    def _draw(self, k: int) -> None:
        """Draw the next k events into the store."""
        if self._hi + k > len(self._store):
            store = np.empty(max((self._hi + k) * 5 // 4, _STORE))
            store[:self._hi] = self._store[:self._hi]
            self._store = store
        # draw into the store, carry the running sum into the first draw and
        # cumsum in place: the operands of one cumsum of all the draws, so
        # the same bits, with no array besides the store
        x = sample(self.model, self.rng, k, out=self._store[self._hi:self._hi + k])
        x[0] += self._last
        np.cumsum(x, out=x)
        self._last = float(x[-1])
        self._hi += k

    def take(self, start: int, k: int) -> np.ndarray:
        """Times of events start+1 ... start+k.

        The result is a view into the store, valid until the next call on
        the stream; copy it to keep it longer. Raises ValueError if k is
        negative or any of these events has been discarded.
        """
        if k < 0:
            raise ValueError("take(..., %d) of a negative count" % k)
        if start < self._first - 1:
            raise ValueError("take(%d, ...) reads discarded events" % start)
        if self._drawn() < start + k:
            self._draw(start + k - self._drawn())
        i0 = start - (self._first - 1)
        return self._store[i0:i0 + k]

    def at(self, indices: np.ndarray) -> np.ndarray:
        """Times of the events at these increasing 1-based indices, in a new
        array: a gather from the `take` of the events they span."""
        lo = int(indices[0])
        return self.take(lo - 1, int(indices[-1]) - lo + 1)[indices - lo]

    def count_upto(self, times: np.ndarray) -> np.ndarray:
        """Event counts at each time of a nondecreasing array; ties count.

        Raises ValueError, before drawing any event, if the last time is
        not finite (an infinite one would draw without end, a nan one would
        count nothing) or if the anchor times, every _COUNT_BLOCK-th time
        and the last, are not nondecreasing. Not checked, as that would read
        every time: the order of the times between two anchors, whose counts
        are then not a search's, and times before the last discarded event,
        which must not occur.
        """
        times = np.asarray(times, dtype=np.float64)
        n = len(times)
        counts = np.empty(n, dtype=np.intp)
        if n == 0:
            return counts
        # the counts of the times from one anchor to the next lie between
        # theirs, so each block searches only the events in between, a slice
        # that stays in L2, and the counts are exactly those of a search of
        # the whole window
        marks = _anchors(times)
        while self._last <= marks[-1]:
            self._draw(_DRAW)
        live = self._store[:self._hi]
        anchors = np.searchsorted(live, marks, side="right").tolist()
        for b, i in enumerate(range(0, n, _COUNT_BLOCK)):
            lo, hi = anchors[b], anchors[b + 1]
            found = np.searchsorted(live[lo:hi], times[i:i + _COUNT_BLOCK], side="right")
            np.add(found, lo + self._first - 1, out=counts[i:i + _COUNT_BLOCK])
        return counts

    def discard(self, count: int) -> None:
        """Forget events 1 ... count; those not drawn yet are drawn first."""
        if count > self._drawn():
            self._draw(count - self._drawn())
        k = count - (self._first - 1)
        if k > 0:
            # the survivors move to the front: numpy copies an overlapping
            # 1-D slice in place, through no buffer
            self._hi -= k
            self._store[:self._hi] = self._store[k:k + self._hi]
            self._first += k


class _EventLattice:
    """Deterministic sensor events: event i at `spacing * i`, rounded once.

    Every time is computed where a query reads it, so nothing is drawn or
    stored, and a count is arithmetic: it answers `at` and `count_upto` as
    an EventStream whose i-th event time were `spacing * i` would, and
    raises the same ValueErrors on times it cannot count.
    """

    def __init__(self, spacing: float):
        self.spacing = spacing

    def at(self, indices: np.ndarray) -> np.ndarray:
        """Times of the events at these 1-based indices, in a new array."""
        return self.spacing * indices

    def count_upto(self, times: np.ndarray) -> np.ndarray:
        """Event counts at each time of a nondecreasing array; ties count."""
        times = np.asarray(times, dtype=np.float64)
        if len(times):
            _anchors(times)
        # floor(t / spacing) is within one of the count, which one step up
        # and one down against the event times themselves make exact; no
        # event is at or before a negative time
        c = np.floor(times / self.spacing)
        c += self.spacing * (c + 1.0) <= times
        c -= self.spacing * c > times
        np.maximum(c, 0.0, out=c)
        return c.astype(np.intp)

    def discard(self, count: int) -> None:
        """Nothing to forget: no event is stored."""


def _events(model: DistributionModel, base_seed: int, replication: int):
    """The sensor events of a replication: a deterministic model's lattice,
    and any other model's EventStream of the replication's event draws."""
    if isinstance(model, Deterministic):
        return _EventLattice(model.value)
    return EventStream(model, derive_rng(base_seed, replication, STREAM_EVENTS))


def _fifo_chunk(
    arrivals: np.ndarray,
    service: np.ndarray,
    total: float,
    run_max: float,
) -> Tuple[np.ndarray, float, float]:
    """Departures of the updates at these arrivals with these service
    times, and the running service total and maximum to carry to the next
    updates, from a queue whose earlier updates' service times sum to
    `total`."""
    # D(n) = S(n) + max_{v<=n} (A(v) - S(v) + L(v)) with S the running service
    # total, carried into the first element as the event times carry theirs;
    # run_max carries the maximum across pieces
    s = service.copy()
    s[0] += total
    np.cumsum(s, out=s)
    total = float(s[-1])
    g = arrivals - s
    g += service
    np.maximum.accumulate(g, out=g)
    np.maximum(g, run_max, out=g)
    s += g  # the departures
    return s, total, float(g[-1])


# ---------------------------------------------------------------------------
# Empirical tails


_Record = Tuple[str, int, float, float]  # (path, length, min, max) of a sample file


class _FileSlice:
    """The `n` float64 samples of the file at `path`, which the slice opens
    and unlinks at once, read with `os.preadv` into the caller's arrays,
    never mapped: what a slice holds stays on disk and in the page cache,
    outside the process's resident memory. The file is closed, and its
    blocks freed, when the slice is dropped."""

    def __init__(self, path: str, n: int):
        f = open(path, "rb", buffering=0)
        weakref.finalize(self, f.close)
        os.unlink(path)
        self._fd, self._n = f.fileno(), n

    def __len__(self) -> int:
        return self._n

    def read_into(self, start: int, out: np.ndarray) -> np.ndarray:
        """Samples start ... start + len(out) - 1 read into `out`, returned."""
        data, offset = memoryview(out).cast("B"), 8 * start
        while data:
            got = os.preadv(self._fd, [data], offset)
            if not got:
                raise EOFError("sample file ends at byte %d" % offset)
            data, offset = data[got:], offset + got
        return out


def _blocks(samples: _FileSlice, size: int) -> Iterator[np.ndarray]:
    """The samples in consecutive blocks of `size`, read into one reused
    buffer, each valid until the next block is taken."""
    n = len(samples)
    buf = np.empty(min(size, n))
    for i in range(0, n, size):
        yield samples.read_into(i, buf[:min(size, n - i)])


def _ranks(epsilons: Sequence[float], n: int) -> List[int]:
    """The rank max(n - 1 - floor(epsilon * n + 1e-9), 0) in the n sorted
    samples of each epsilon's quantile, which leaves at most a fraction
    epsilon above it; warns InsufficientSamples at the query's caller for
    each epsilon with n < 10/epsilon."""
    ranks = []
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
        ranks.append(max(n - 1 - math.floor(epsilon * n + 1e-9), 0))
    return ranks


def _sorted_above(
    x: np.ndarray, low: float, out: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, int, int]:
    """The samples of x at or above low sorted, and the numbers of samples
    below low and of those equal to low left out of the sort, which are
    counted instead: all those equal to low when more than an eighth of x
    is at or above low, where they may be most of it, and none otherwise.
    The samples are compressed into `out` by way of `mask`, two buffers at
    least as long as x."""
    mask = mask[:len(x)]
    keep = np.greater_equal(x, low, out=mask)
    kept = np.count_nonzero(keep)
    below, ties = len(x) - kept, 0
    if kept > len(x) // 8:
        keep = np.greater(x, low, out=mask)
        ties, kept = kept - np.count_nonzero(keep), np.count_nonzero(keep)
    s = np.compress(keep, x, out=out[:kept])
    s.sort()
    return s, below, ties


def _select(chunks: Sequence[_FileSlice], n: int, ranks: Sequence[int]) -> List[float]:
    """s[k] of the n finite samples s in `chunks` sorted, for each rank k, by
    sample-select (Floyd and Rivest, CACM 18(3), 1975) in buffers of one
    size at any n and ranks.

    Each rank keeps an interval (lo, hi) that holds it, with the counts of
    the samples at or below lo and below hi. A round places pivots a <= b a
    few binomial deviations either side of the rank in a sorted subsample of
    its interval. One pass then counts the samples below and at every pivot,
    sorting each block's samples above the lowest lower pivot (those below
    it, and where they are many those at it, are counted: `_sorted_above`),
    and gathers those strictly between a and b into the rank's part of one
    buffer, sized by its expected gather. The rank is then a pivot, a
    gathered sample, or in the side of a pivot its interval narrows to.
    When the gathers would overfill the buffer, every t-th sample between
    the pivots is kept instead, as the next subsample. The first subsample
    is random windows of the samples, which a rank that falls outside its
    pivots takes up again; those reads use a fixed key and set the number
    of passes, never an answer.
    """
    buf = np.empty(min(n, _GATHER))
    first = np.empty(_SUBSAMPLE)
    ends = np.cumsum([len(samples) for samples in chunks])
    rng = np.random.Generator(np.random.Philox(key=_SELECT_KEY))
    at = np.sort(rng.integers(0, n, len(first) // _WINDOW))
    fill = 0
    for p, i in zip(at.tolist(), np.searchsorted(ends, at, side="right").tolist()):
        w = min(_WINDOW, len(chunks[i]))
        start = min(p - int(ends[i]) + len(chunks[i]), len(chunks[i]) - w)
        fill += len(chunks[i].read_into(start, first[fill:fill + w]))
    first = first[:fill]
    first.sort()
    sorted_block, mask = np.empty(min(n, _SCAN_BLOCK)), np.empty(min(n, _SCAN_BLOCK), dtype=bool)
    # rank: (lo, samples at or below lo, hi, samples below hi, subsample or None)
    todo = {k: (-math.inf, 0, math.inf, n, None) for k in ranks}
    found = {}
    while todo:
        plan = []  # (rank, a, b, samples expected strictly between a and b)
        for k, (lo, c_lo, hi, c_hi, sub) in todo.items():
            if sub is None:
                sub = first[np.searchsorted(first, lo, "right"):np.searchsorted(first, hi, "left")]
            m, q = len(sub), (k - c_lo) / (c_hi - c_lo)
            dev = _DEVIATIONS * math.sqrt(m * q * (1.0 - q)) + 1.0
            ia, ib = math.floor(q * m - dev), math.ceil(q * m + dev)
            if ia < 0 and ib >= m > 0:  # a subsample point cuts the interval
                ia = m // 2
            a = float(sub[ia]) if ia >= 0 else lo
            b = float(sub[ib]) if ib < m else hi
            plan.append((k, a, b, (c_hi - c_lo) * (min(ib, m) - max(ia, -1)) / (m + 1)))
        # every sample between a rank's pivots is gathered while the gathers
        # expected fill at most half the buffer; otherwise every step-th
        total = sum(e for *_, e in plan)
        step = max(1, math.ceil(2 * total / len(buf)))
        sizes = [1 + int((len(buf) - len(plan)) * e / total) for *_, e in plan]
        starts = np.cumsum([0] + sizes).tolist()
        fills, skips = list(starts[:-1]), [0] * len(plan)
        pivots = np.array([p for _, a, b, _ in plan for p in (a, b)])
        low = pivots[::2].min()
        lt, le = np.zeros((2, len(pivots)), dtype=np.int64)
        below = ties = 0
        for samples in chunks:
            for x in _blocks(samples, _SCAN_BLOCK):
                s, block_below, block_ties = _sorted_above(x, low, sorted_block, mask)
                below += block_below
                ties += block_ties
                left, right = (np.searchsorted(s, pivots, side) for side in ("left", "right"))
                lt += left
                le += right
                for i, (j0, j1) in enumerate(zip(right[::2].tolist(), left[1::2].tolist())):
                    taken = s[j0 + skips[i]:j1:step]
                    skips[i] = (skips[i] - max(j1 - j0, 0)) % step
                    taken = taken[:starts[i + 1] - fills[i]]
                    buf[fills[i]:fills[i] + len(taken)] = taken
                    fills[i] += len(taken)
        lt += below + ties * (pivots > low)
        le += below + ties
        lt, le = lt.tolist(), le.tolist()
        for i, (k, a, b, _) in enumerate(plan):
            lo, c_lo, hi, c_hi, _ = todo.pop(k)
            lt_a, le_a, lt_b, le_b = lt[2 * i], le[2 * i], lt[2 * i + 1], le[2 * i + 1]
            got = buf[starts[i]:fills[i]]
            if k < lt_a:
                todo[k] = (lo, c_lo, a, lt_a, None)
            elif k >= le_b:
                todo[k] = (b, le_b, hi, c_hi, None)
            elif k < le_a:
                found[k] = a
            elif k >= lt_b:
                found[k] = b
            elif step == 1 and len(got) == lt_b - le_a:
                got.partition(k - le_a)
                found[k] = float(got[k - le_a])
            else:
                got.sort()
                todo[k] = (a, le_a, b, lt_b, got)
    return [found[k] for k in ranks]


class EmpiricalTail:
    """Empirical complementary CDF of finite real-valued metric samples.

    The tail takes the samples of a replication's array as the
    (path, length, min, max) record of its file (`add`), keeps the file as a
    `_FileSlice`, and reads it only to answer a query, so the samples stay
    on disk. Every sample must be finite: a record whose extremes are not
    raises ValueError and leaves the tail as it was. Every query is exact,
    as a sort of all the samples would answer it, and writes no file: an
    exceedance fraction counts in one pass, and a batch of quantiles
    (`quantiles`) takes its ranks by one selection (`_select`), whose
    buffers have a fixed size at any epsilon and sample count.
    """

    bin_width = 0.0  # exact: no sample is binned

    def __init__(self) -> None:
        self._chunks: List[_FileSlice] = []
        self._n = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def n_samples(self) -> int:
        return self._n

    def add(self, record: _Record) -> None:
        """Record the samples of the file a (path, length, min, max) record
        names, as `_simulate_to_file` returns it. The file is opened and its
        name unlinked at once, whatever follows; a record whose extremes are
        not finite (a nan or infinite sample) raises ValueError and leaves
        the tail as it was."""
        path, n, lo, hi = record
        samples = _FileSlice(path, n)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("samples must be finite, got extremes %r and %r" % (lo, hi))
        self._n += n
        self._min, self._max = min(self._min, lo), max(self._max, hi)
        self._chunks.append(samples)

    def _at(self, ranks: Sequence[int]) -> List[float]:
        # s[k] of the samples s sorted, at each rank k. s[0] is the minimum
        # and s[n - 1] the maximum; every other rank is selected
        n = self._n
        known = {0: self._min, n - 1: self._max}
        rest = [k for k in ranks if k not in known]
        if rest:
            known.update(zip(rest, _select(self._chunks, n, rest)))
        return [known[k] for k in ranks]

    def quantile(self, epsilon: float) -> float:
        """Smallest recorded value exceeded by at most a fraction epsilon.

        Warns InsufficientSamples when fewer than 10/epsilon samples exist.
        """
        return self._at(_ranks((epsilon,), self._n))[0]

    def quantiles(self, epsilons: Sequence[float]) -> List[float]:
        """[quantile(e) for e in epsilons], from one selection."""
        return self._at(_ranks(epsilons, self._n))

    def exceed_fraction(self, x: float) -> float:
        """Fraction of samples strictly greater than x."""
        if self._n == 0:
            raise ValueError("no samples recorded")
        # (n - np.searchsorted(s, x, side="right")) / n of the sorted samples
        # s: the samples not <= x, and none for a nan x, which sorts past
        # every sample
        if math.isnan(x):
            return 0.0
        mask = np.empty(min(self._n, _SCAN_BLOCK), dtype=bool)
        at_most = sum(
            np.count_nonzero(np.less_equal(b, x, out=mask[:len(b)]))
            for chunk in self._chunks for b in _blocks(chunk, _SCAN_BLOCK)
        )
        return float(self._n - at_most) / self._n


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

    def _at(self, ranks: Sequence[int]) -> List[float]:
        # s[k] of the sorted samples s, at each rank k
        return np.searchsorted(np.cumsum(self.counts), ranks, side="right").astype(float).tolist()

    def quantile(self, epsilon: float) -> float:
        """Smallest recorded value exceeded by at most a fraction epsilon.

        Warns InsufficientSamples when fewer than 10/epsilon samples exist.
        """
        return self._at(_ranks((epsilon,), self.n_samples))[0]

    def quantiles(self, epsilons: Sequence[float]) -> List[float]:
        """[quantile(e) for e in epsilons], from one cumulative count."""
        return self._at(_ranks(epsilons, self.n_samples))

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
) -> Iterator[Tuple[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """One replication, piece by piece, without burn-in.

    The run is simulated in pieces of at most _PIECE updates and about
    _PIECE_EVENTS events, which change no byte: a random model's event
    stream draws as far as a piece reads, a deterministic model's lattice
    computes what it reads, and the FIFO carries its running service total
    and maximum from piece to piece, so every time is the one the model
    defines, whatever the piece sizes.

    For the piece of updates done ... done + m - 1 (0-based), yields done and
    three arrays: its m delays, and the peak ages and peak deviations (event
    counts) of updates max(done - 1, 0) ... done + m - 2, as a peak needs the
    next update's departure. The arrays are buffers of one piece, which the
    next piece overwrites. Raises ValueError at the first piece whose
    departures are not all finite, before it counts events at them.
    """
    policy = scenario.policy
    policy.check_simulable()
    events = _events(scenario.event_model, base_seed, replication)
    rng_service = derive_rng(base_seed, replication, STREAM_SERVICE)
    per_update = policy.spacing(scenario.event_model) / scenario.event_model.mean
    piece = min(_PIECE, max(int(_PIECE_EVENTS / per_update), 1), n_updates)
    t_buf, a_buf, f_buf = np.empty(piece), np.empty(piece), np.empty(piece, dtype=np.intp)

    total, run_max = 0.0, -math.inf
    arr_last = 0.0
    count_last = 0
    done = 0
    while done < n_updates:
        m = min(piece, n_updates - done)
        first = done + 1  # 1-based index of the piece's first update
        # no later query reads the events the previous piece's last update sampled
        events.discard(count_last)
        arr = policy.arrivals(events, first, m)
        service = sample(scenario.service_model, rng_service, m)
        dep, total, run_max = _fifo_chunk(arr, service, total, run_max)
        if not math.isfinite(dep[-1]):
            # a nan or infinite time, which the running maximum carries to
            # every later departure: no event count can be taken at it
            raise ValueError("samples must be finite, got departure %r of update %d"
                             % (float(dep[-1]), done + m))
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


def _append(f: BinaryIO, x: np.ndarray) -> None:
    # write(), not a writable mapping, so that a full disk raises OSError
    # here instead of killing the process with SIGBUS on a page fault; and
    # not ndarray.tofile, whose OSError drops the errno. `f` is unbuffered,
    # so a short write is retried and the write that fails raises its errno
    data = memoryview(x).cast("B")
    while data:
        data = data[f.write(data):]


def _simulate_to_file(
    scenario: Scenario,
    n_updates: int,
    base_seed: int,
    replication: int,
    burn_in: int,
    path: str,
) -> Tuple[List[_Record], np.ndarray]:
    """One replication's burned-in delay and peak-age arrays, each written
    to a file of its own, `path` + ".delay" and `path` + ".peak_aoi", and its
    burned-in peak deviations counted (counts[v] of the value v). Returns
    each array's (path, length, min, max) and the counts, all that a pool
    pickles, so the caller need not read an array to learn them. An array
    that holds a nan reports a nan extreme.

    Each piece is appended to its files, and its deviations counted, as
    soon as it is computed, so a replication holds one piece per array,
    never the whole of it; the counts reach a `CountTail` once, in the
    caller."""
    names = (path + ".delay", path + ".peak_aoi")
    lengths = (n_updates - burn_in, n_updates - 1 - burn_in)
    lows, highs = ([], []), ([], [])
    counts = np.zeros(0, dtype=np.int64)
    with (
        open(names[0], "wb", buffering=0) as delay,
        open(names[1], "wb", buffering=0) as peak_aoi,
    ):
        pieces = _simulate_chunks(scenario, n_updates, base_seed, replication)
        for done, (t, a, dev) in pieces:
            peak = max(done - 1, 0)  # the update of the piece's first peak
            found = np.bincount(dev[max(burn_in - peak, 0):])
            if len(found) > len(counts):
                counts = np.pad(counts, (0, len(found) - len(counts)))
            counts[:len(found)] += found
            for k, (x, first, f) in enumerate(((t, done, delay), (a, peak, peak_aoi))):
                # the first burn_in values of each array are not written
                x = x[max(burn_in - first, 0):]
                if len(x):
                    _append(f, x)
                    lows[k].append(x.min())
                    highs[k].append(x.max())
    # np.min and np.max keep a nan; Python's min() and max() drop it
    extremes = [(float(np.min(lo)), float(np.max(hi))) for lo, hi in zip(lows, highs)]
    return [(name, n, *ext) for name, n, ext in zip(names, lengths, extremes)], counts


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
) -> Iterator[Tuple[List[_Record], np.ndarray]]:
    """_simulate_to_file's results for replications 0 ... n_reps - 1, in
    index order, each written to files in `tmp` by a worker. At most
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
) -> MetricTails:
    """Simulate n_reps independent replications and pool their metric tails.

    Results are bit-identical for a given base seed regardless of the worker
    count: each replication derives its own streams from the base seed, and
    every replication's delay and peak-age arrays are added to the tails in
    index order. Peak deviations are counted per integer value where each
    piece is simulated, and the peak-deviation tail merges each
    replication's counts: exact at any sample count, in any order. Every
    replication hands its delay and peak-age arrays over through a file per
    array, 16 bytes per update, in a directory under TMPDIR that is removed
    when the call returns or raises; the tails keep each file open, its name
    removed, and its blocks on disk until they are dropped.
    With workers > 1, a pool of min(workers, n_reps) processes runs the
    replications, at most `workers` ahead of the one being added, so a
    failed run simulates at most that many beyond it; otherwise this
    process runs each in turn.

    A scenario of utilization 1 or more raises ValueError before it runs:
    its backlog grows without end, so its tails describe no steady state,
    and the event store grows with the backlog.
    """
    scenario.policy.check_simulable()
    if scenario.utilization >= 1:
        raise ValueError("utilization %g >= 1: the queue is unstable" % scenario.utilization)
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

    tails = MetricTails(EmpiricalTail(), EmpiricalTail(), CountTail())
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
        for records, counts in replications:
            tails.peak_doi.add(counts)
            for tail, record in zip((tails.delay, tails.peak_aoi), records):
                tail.add(record)
    return tails

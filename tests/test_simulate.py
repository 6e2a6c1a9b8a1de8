import collections
import errno
import fcntl
import functools
import gc
import math
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecalc import (
    CountTail,
    Deterministic,
    EmpiricalTail,
    Erlang,
    EventStream,
    EventTriggered,
    Exponential,
    InsufficientSamples,
    Scenario,
    TimeTriggered,
    derive_rng,
    exact_mm1_tail,
    run_replications,
)
from agecalc import simulate
from agecalc.sweeps import EPS_GRID, SIM_EPS
from agecalc.simulate import (
    _BIN_BLOCK,
    _BINS,
    _BLOCK,
    _CHUNK,
    _COUNT_BLOCK,
    STREAM_EVENTS,
    STREAM_SERVICE,
    _bin,
    _fifo_chunk,
    _histogram_edges,
    _simulate_to_file,
)
from simulated import arrays, nan_in_second_service_draw


def _file_backed(x):
    """Whether x is a slice of a file opened read-only whose name is gone."""
    if not isinstance(x, simulate._FileSlice):
        return False
    read_only = fcntl.fcntl(x._fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY
    return read_only and os.fstat(x._fd).st_nlink == 0


def _raw(samples):
    """A raw tail of the samples."""
    tail = EmpiricalTail()
    tail.add(np.asarray(samples))
    return tail


def _read(s):
    """All the samples of a file slice, in an array."""
    return s.read_into(0, np.empty(len(s)))


def _filed(x):
    """The samples of x as a slice of an unnamed file, with x's extremes."""
    fd, path = tempfile.mkstemp()
    with open(fd, "wb", buffering=0) as f:
        simulate._append(f, x)
    return simulate._FileSlice(path, len(x), x.min(), x.max())


BIG = float(np.finfo(np.float64).max)  # the largest finite sample


def _state(tail):
    """All that an add may change of an EmpiricalTail."""
    counts = None if tail._counts is None else tail._counts.tolist()
    chunks = [id(c) for c in tail._chunks]
    return tail.n_samples, tail._min, tail._max, tail.bin_width, counts, chunks


def _traced_peak(fn):
    """The peak of the memory numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _file_resident_bytes():
    """This process's resident pages of files and of shared memory, in bytes."""
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return sum(1024 * int(fields[key].split()[0]) for key in ("RssFile", "RssShmem"))


class InlinePool:
    """Stand-in for ProcessPoolExecutor that runs each job when it is submitted."""

    def __init__(self, max_workers, **options):
        pass

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestGenerateArrivals:
    def test_time_triggered_synchronized_deterministic(self):
        events = EventStream(Deterministic(2.0), 1)
        policy = TimeTriggered(2.0)
        arrivals = policy.arrivals(events, 1, 6)
        assert np.allclose(arrivals, [2, 4, 6, 8, 10, 12])
        # an event exactly at the sampling instant is counted
        assert np.array_equal(policy.sampled_counts(events, arrivals, 1), [1, 2, 3, 4, 5, 6])

    def test_event_triggered_counts_exact(self):
        events = EventStream(Exponential(1.0), 5)
        policy = EventTriggered(3)
        arrivals = policy.arrivals(events, 1, 4)
        assert np.array_equal(policy.sampled_counts(events, arrivals, 1), [3, 6, 9, 12])
        assert np.array_equal(events.count_upto(arrivals), [3, 6, 9, 12])
        # the next chunk continues from update 5
        arrivals = policy.arrivals(events, 5, 2)
        assert np.array_equal(policy.sampled_counts(events, arrivals, 5), [15, 18])
        assert np.array_equal(events.count_upto(arrivals), [15, 18])

    def test_count_by_brute_force(self):
        policy = TimeTriggered(5.0)
        events = EventStream(Exponential(1.0), 6)
        arrivals = policy.arrivals(events, 1, 8)
        counts = policy.sampled_counts(events, arrivals, 1)
        times = EventStream(Exponential(1.0), 6).take(0, 1000)
        assert np.array_equal(counts, [np.count_nonzero(times <= a) for a in arrivals])


def _serve(arrivals, service):
    """Departures of a FIFO queue that starts empty."""
    dep, _, _ = _fifo_chunk(np.asarray(arrivals, dtype=np.float64),
                            np.asarray(service, dtype=np.float64), 0.0, -math.inf)
    return dep


class TestFifoService:
    def test_no_queueing(self):
        assert np.allclose(_serve([1.0, 2.0, 3.0], np.full(3, 1.0)), [2, 3, 4])

    def test_queue_buildup(self):
        assert np.allclose(_serve([1.0, 1.1, 1.2], np.full(3, 2.0)), [3, 5, 7])

    def test_deterministic_system_delay(self):
        w, l = 6.0, 4.0
        arrivals = w * np.arange(1, 11)
        assert np.allclose(_serve(arrivals, np.full(10, l)) - arrivals, l)

    def test_matches_recursion_and_brute_force(self):
        # D(n) = max(A(n), D(n-1)) + L(n) and the max-plus form
        # max_v {A(v) + sum_{m=v..n} L(m)} agree on random traces
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            arrivals = np.cumsum(rng.exponential(1.0, n))
            service = rng.exponential(0.8, n)
            dep = np.empty(n)
            prev = 0.0
            for i in range(n):
                prev = max(arrivals[i], prev) + service[i]
                dep[i] = prev
            brute = np.array(
                [
                    max(arrivals[v] + service[v:i + 1].sum() for v in range(i + 1))
                    for i in range(n)
                ]
            )
            got = _serve(arrivals, service)
            assert np.allclose(got, dep)
            assert np.allclose(got, brute)


class TestPeakMetrics:
    def test_hand_example(self):
        # arrivals 3, 6, ..., 18 and events every 2; with chunk 4 the peak
        # samples at index 3 span the chunk boundary. Served in 1 each, the
        # arrivals at 6 and 12 and the departures at 4, 10 and 16 fall on
        # events: counting ties at only one end would give 1 or 3. Served in
        # 2 each, the departures at 8, 14 and 20 fall on events and the
        # deviations alternate 3, 2 only if ties count.
        for service, aoi_value, doi_values in ((1.0, 4.0, [2, 2, 2, 2, 2]),
                                               (2.0, 5.0, [3, 2, 3, 2, 3])):
            scenario = Scenario(
                Deterministic(2.0), Deterministic(service), TimeTriggered(3.0), 1e-3
            )
            for chunk in (4, simulate._CHUNK):
                delay, aoi, doi = arrays(scenario, 6, 0, 0, burn_in=0, chunk=chunk)
                assert np.array_equal(delay, np.full(6, service))
                assert np.array_equal(aoi, np.full(5, aoi_value))
                assert np.array_equal(doi, doi_values)

    def test_deterministic_everything(self):
        w, l = 6.0, 4.0
        scenario = Scenario(Deterministic(2.0), Deterministic(l), TimeTriggered(w), 1e-3)
        delay, aoi, doi = arrays(scenario, 50, 0, 0, burn_in=0)
        assert np.allclose(delay, l)
        assert np.allclose(aoi, l + w)

    def test_event_triggered_floor_and_order(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.3), EventTriggered(4), 1e-3)
        delay, aoi, doi = arrays(scenario, 400, 11, 0, burn_in=0)
        # C(D(n+1)) - C(A(n)) >= 4: each departure counts at least the
        # events its own update sampled
        assert (doi >= 4).all()
        assert (aoi >= delay[1:]).all()
        # D(n) >= A(n), and D(n+1) - D(n) = aoi(n) - delay(n) >= 0
        assert (delay >= 0).all()
        assert (aoi >= delay[:-1]).all()

    def test_requires_departures(self):
        # the peak metrics of an update need the next update's departure
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        with pytest.raises(ValueError):
            run_replications(scenario, 1, 1, 0, burn_in=0)
        tails = run_replications(scenario, 2, 1, 0, burn_in=0)
        assert tails.delay.n_samples == 2
        assert tails.peak_aoi.n_samples == tails.peak_doi.n_samples == 1


class TestEmpiricalTail:
    def test_quantile_example(self):
        tail = _raw(np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tail.quantile(0.2) == 8.0

    def test_constant_samples(self):
        tail = _raw(np.full(100, 3.25))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tail.quantile(0.07) == 3.25
        assert tail.quantile(1.0) == 3.25

    def test_exponential_quantile_oracle(self):
        rng = np.random.default_rng(9)
        tail = _raw(rng.exponential(1.0, 1_000_000))
        assert tail.quantile(1e-3) == pytest.approx(math.log(1000.0), abs=0.2)

    def test_warns_on_few_samples(self):
        tail = _raw(np.arange(50.0))
        with pytest.warns(InsufficientSamples) as warned:
            tail.quantile(0.01)
        assert warned[0].filename == __file__  # at the query's caller
        # a batch warns once per epsilon that 50 samples do not back
        counted = CountTail()
        counted.add(np.ones(50, dtype=np.int64))
        for t in (tail, counted):
            with pytest.warns(InsufficientSamples) as warned:
                t.quantiles([0.5, 0.01, 0.001])
            assert [w.filename for w in warned] == [__file__] * 2
            assert ["0.01" in str(w.message) for w in warned] == [True, False]

    def test_exceed_fraction(self):
        tail = _raw(np.arange(1.0, 11.0))
        assert tail.exceed_fraction(8.0) == pytest.approx(0.2)
        assert tail.exceed_fraction(10.0) == 0.0
        assert tail.exceed_fraction(0.0) == 1.0

    def test_histogram_mode_close_to_raw(self):
        rng = np.random.default_rng(21)
        data = rng.exponential(1.0, 50_000)
        raw = _raw(data)
        binned = EmpiricalTail(raw_limit=10_000)
        for chunk in np.split(data, 5):
            binned.add(chunk)
        assert binned.bin_width > 0
        for eps in (0.1, 1e-2, 1e-3):
            assert abs(binned.quantile(eps) - raw.quantile(eps)) <= binned.bin_width + 1e-12
        assert binned.quantile(1.0) >= data.min()
        x = raw.quantile(1e-2)
        assert binned.exceed_fraction(x) >= raw.exceed_fraction(x) - 1e-12
        assert binned.exceed_fraction(x) <= raw.exceed_fraction(x) + 2e-2

    @settings(max_examples=200, deadline=None)
    @given(
        hi=st.one_of(st.sampled_from((0.0, -3.0)), st.floats(1e-300, BIG)),
        bins=st.integers(1, 20_000),
        on_edges=st.lists(
            st.tuples(st.integers(0, 20_000), st.sampled_from((-1, 0, 1))), max_size=60
        ),
        others=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60),
    )
    def test_histogram_bins_match_searchsorted(self, hi, bins, on_edges, others):
        # hi is the pooled maximum when the raw limit is crossed: _bin bins
        # finite samples, up to the largest floats, as searchsorted at any
        # bin count, and a tail switching at hi bins every later add with
        # the edges of _BINS bins
        edges = _histogram_edges(hi, bins)
        top = float(edges[-1])
        nudge = {-1: -math.inf, 0: None, 1: math.inf}
        # the edges and their 1-ulp neighbours, which stop at the largest float
        x = [
            edges[k % (bins + 1)] if d == 0
            else min(math.nextafter(edges[k % (bins + 1)], nudge[d]), BIG)
            for k, d in on_edges
        ]
        x += [0.0, -0.0, -1.0, -top, min(1.5 * top, BIG), min(2.0 * top, BIG), 1e300, BIG, -BIG]
        x += others
        x = np.array(x, dtype=np.float64)
        ref = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, bins)
        ref = np.bincount(ref, minlength=bins + 1)
        assert np.array_equal(_bin(x, edges), ref)
        tail = EmpiricalTail(raw_limit=1)
        tail.add(np.array([hi, hi]))
        assert np.array_equal(tail._edges, _histogram_edges(hi, _BINS))
        before = tail._counts.copy()
        tail.add(x)
        assert np.array_equal(tail._counts - before, _bin(x, tail._edges))

    @pytest.mark.parametrize("stage", ["switch", "binned"])
    def test_refuses_a_sample_it_cannot_bin(self, stage):
        # the edges run from 0 to twice the maximum at the switch, so an add
        # that would switch with a nan or infinite sample, or bin one, raises
        # and leaves the tail as it was. Every finite sample bins: a
        # nonpositive maximum gives edges up to 2, and samples above the
        # last edge, up to the largest float, land in the overflow bin
        tail = EmpiricalTail(raw_limit=4)
        tail.add(np.array([1.0, 2.0]))
        if stage == "binned":
            tail.add(np.array([1.0, 2.0, 3.0]))
        bad = [[1.0, 2.0, math.inf], [1.0, 2.0, math.nan], [math.nan, math.inf, 1.0],
               [-math.inf, 1.0, 2.0]]
        for x in bad:
            before = _state(tail)
            with pytest.raises(ValueError, match="finite"):
                tail.add(np.array(x))
            assert _state(tail) == before
        if stage == "binned":
            tail.add(np.array([1e300, BIG]))
            assert tail._counts[-1] == 2 and tail.n_samples == 7
            return
        low = EmpiricalTail(raw_limit=1)
        low.add(np.array([-3.0, -BIG]))
        assert low.bin_width == 2.0 / _BINS and low._counts[0] == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_switch_at_any_finite_maximum(self):
        # twice a maximum above half the largest float overflows: the edges
        # stop at the largest float, so the switch warns of no overflow and
        # the bin width and quantiles stay finite
        tail = EmpiricalTail(raw_limit=1)
        tail.add(np.array([1e308, 1.0]))
        assert math.isfinite(tail.bin_width) and tail.bin_width > 0
        assert tail._edges[-1] == BIG
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientSamples)
            assert all(math.isfinite(q) for q in tail.quantiles([1.0, 0.5]))

    def test_rejects_samples_that_are_not_finite(self):
        # a nan, +inf or -inf sample, in an array or a file slice, in an add
        # that keeps the tail raw, one that would switch it and one after
        # the switch: add raises before it changes the tail, which answers
        # as it did
        tail = EmpiricalTail(raw_limit=1_000)

        def state():
            return _state(tail), tail.quantiles([1.0, 0.5, 0.1]), tail.exceed_fraction(300.5)

        for raw in (True, False):
            tail.add(np.arange(1.0, 601.0))  # the second add switches
            assert (tail.bin_width == 0) == raw
            before = state()
            for bad in (math.nan, math.inf, -math.inf):
                for size in (2, 500):
                    x = np.arange(float(size))
                    x[size // 2] = bad
                    for samples in (x, _filed(x)):
                        with pytest.raises(ValueError, match="finite"):
                            tail.add(samples)
                        assert state() == before

    @settings(max_examples=60, deadline=None)
    @given(
        hi=st.floats(1e-300, 1e300),
        bins=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
        on_edges=st.lists(
            st.tuples(st.integers(0, 20_000), st.sampled_from((-1, 0, 1))), max_size=8
        ),
        gap=st.integers(0, 5),
    )
    def test_block_boundaries_keep_the_bins(self, hi, bins, seed, on_edges, gap):
        # more than two blocks of samples, with edge values, their 1-ulp
        # neighbours, the largest floats and values above 2 * max on both
        # sides of every block boundary, given as an array and as a file slice
        edges = simulate._histogram_edges(hi, bins)
        top = edges[-1]
        nudge = {-1: -math.inf, 0: None, 1: math.inf}
        values = [BIG, -BIG, -0.0, np.nextafter(top, math.inf), 1.5 * top, 1e300]
        values += [
            edges[k % (bins + 1)] if d == 0 else np.nextafter(edges[k % (bins + 1)], nudge[d])
            for k, d in on_edges
        ]
        x = np.random.default_rng(seed).uniform(-0.1 * top, 1.1 * top, 2 * _BIN_BLOCK + 1_000)
        for boundary in (_BIN_BLOCK, 2 * _BIN_BLOCK):
            for i, v in enumerate(values):
                x[boundary - 1 - gap - i] = v
                x[boundary + gap + i] = v
        ref = np.bincount(np.clip(np.searchsorted(edges, x, side="left") - 1, 0, bins),
                          minlength=bins + 1)
        assert np.array_equal(_bin(x, edges), ref)
        assert np.array_equal(_bin(_filed(x), edges), ref)

    def test_raw_tail_keeps_the_chunks_it_was_given(self, tmp_path):
        # a raw tail answers from the caller's arrays and file slices
        # themselves: a query copies, sorts and writes none of them, and
        # crossing raw_limit later bins them as a tail never queried does
        rng = np.random.default_rng(31)
        first, second = rng.exponential(1.0, 100_000), rng.exponential(1.0, 100_000)
        fresh = EmpiricalTail(raw_limit=150_000)
        fresh.add(first.copy())
        fresh.add(second.copy())
        tail = EmpiricalTail(raw_limit=150_000)
        tail.add(first.copy())
        given = tail._chunks[0]
        parts = [first[:40_000], first[40_000:]]
        for k, p in enumerate(parts):
            p.tofile(tmp_path / str(k))
        mapped = EmpiricalTail(raw_limit=150_000)
        slices = [simulate._FileSlice(str(tmp_path / str(k)), len(p), p.min(), p.max())
                  for k, p in enumerate(parts)]
        assert list(tmp_path.iterdir()) == []
        for x in slices:
            assert _file_backed(x)
            mapped.add(x)
        ordered = np.sort(first)
        eps_values = (1.0, 0.5, 1e-1, 1e-2, 1e-3)
        expected = [ordered[max(len(ordered) - 1 - round(eps * len(ordered)), 0)]
                    for eps in eps_values]
        for t in (tail, mapped):
            assert t.quantiles(eps_values) == [t.quantile(eps) for eps in eps_values] == expected
        assert tail._chunks == [given] and mapped._chunks == slices
        assert np.array_equal(given, first) and not os.listdir(tmp_path)
        assert tail.exceed_fraction(2.0) == np.count_nonzero(first > 2.0) / len(first)
        tail.add(second.copy())  # crosses raw_limit: the chunks are binned
        assert tail.bin_width == fresh.bin_width > 0
        assert np.array_equal(tail._counts, fresh._counts)
        for eps in (1e-1, 1e-2, 1e-3):
            assert tail.quantile(eps) == fresh.quantile(eps)
        assert tail.quantiles(eps_values) == fresh.quantiles(eps_values)
        assert tail.exceed_fraction(2.0) == fresh.exceed_fraction(2.0)

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(0, 80), min_size=1, max_size=300),
        repeat=st.sampled_from((1, 1, 1, 400)),
        cuts=st.lists(st.integers(0, 120_000), max_size=6),
    )
    def test_integer_tail_answers_as_raw(self, values, repeat, cuts):
        # nonnegative integer samples in random chunks merged, in order, as
        # the chunks' count arrays of different lengths: the counts are one
        # bincount of all samples, and every quantile and exceedance fraction
        # is raw mode's, bit for bit
        x = np.repeat(np.array(values, dtype=np.float64), repeat)
        n = len(x)
        raw = _raw(x)
        merged = CountTail()
        for part in np.split(x, sorted(c % (n + 1) for c in cuts)):
            merged.add(np.bincount(part.astype(np.intp)))
        assert np.array_equal(merged.counts, np.bincount(x.astype(np.intp)))
        assert merged.n_samples == n and merged.bin_width == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientSamples)
            for eps in (1.0, 0.5, 1e-1, 1e-2, 1e-3, 1.0 / n):
                assert np.float64(merged.quantile(eps)).tobytes() == (
                    np.float64(raw.quantile(eps)).tobytes()
                )
        points = [-math.inf, -0.5, 0.0, float(x.max()), math.inf]
        points += [v + d for v in np.unique(x) for d in (-0.5, 0.5)]
        for p in points:
            assert np.float64(merged.exceed_fraction(p)).tobytes() == (
                np.float64(raw.exceed_fraction(p)).tobytes()
            )

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from((0.0, -0.0, 1.0, -2.5, BIG, -BIG)),
                      st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=60,
        ),
        repeat=st.sampled_from((1, 5, 40)),
        bulk=st.sampled_from((0, 150, 600)),
        order=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 5_000), max_size=4),
        filed=st.lists(st.booleans(), min_size=5, max_size=5),
        eps=st.lists(st.floats(1e-6, 1.0), max_size=4),
        block=st.sampled_from((16, 256, _BIN_BLOCK)),
    )
    def test_raw_queries_match_a_sort(self, values, repeat, bulk, order, cuts, filed, eps,
                                      block):
        # random multisets of finite samples with ties, ±0 and the largest
        # floats, plus a bulk of mostly distinct samples, shuffled and cut
        # into arrays and file slices:
        # every quantile, alone or in a batch, is an order statistic of
        # np.sort's, and every exceedance fraction the searchsorted count
        # above the point. Blocks of 16 and 256 samples let the candidate
        # buffer fill and compact
        rng = np.random.default_rng(order)
        x = np.concatenate((np.repeat(np.array(values), repeat),
                            np.round(rng.standard_normal(bulk), 3)))
        x = rng.permutation(x)
        n = len(x)
        s = np.sort(x)
        tail = EmpiricalTail()
        for part, as_file in zip(np.split(x, sorted(c % (n + 1) for c in cuts)), filed):
            tail.add(_filed(part) if as_file and len(part) else part)
        # below 1/n, the largest; near 1, the second and sixth smallest,
        # ranks below n/2, whose candidates are all the samples
        eps_values = [1.0, 0.5, 0.5 / n, 1.0 / n, min(5.5 / n, 1.0), 0.05]
        eps_values += [max((n - k) / n, 0.5 / n) for k in (1.5, 5.5)] + eps

        def expected(eps_values):
            return [s[max(n - 1 - math.floor(e * n + 1e-9), 0)] for e in eps_values]

        with mock.patch.object(simulate, "_BIN_BLOCK", block), warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientSamples)
            for batch in (eps_values, [e for e in eps_values if e != 0.5]):
                np.testing.assert_array_equal(tail.quantiles(batch), expected(batch))
            singles = [tail.quantile(e) for e in eps_values]
            np.testing.assert_array_equal(singles, expected(eps_values))
        points = [-math.inf, math.inf, math.nan]
        points += [y for v in np.unique(s).tolist()
                   for y in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
        for p in points:
            assert tail.exceed_fraction(p) == float(n - np.searchsorted(s, p, side="right")) / n

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(0, 80), min_size=1, max_size=300),
        repeat=st.sampled_from((1, 400)),
        eps=st.lists(st.floats(1e-9, 1.0), max_size=6),
    )
    def test_count_tail_quantiles_match_a_sort(self, values, repeat, eps):
        # a batch of quantiles is the quantiles one by one, each an order
        # statistic of the sorted samples
        x = np.repeat(np.array(values), repeat)
        n = len(x)
        s = np.sort(x).astype(np.float64)
        tail = CountTail()
        tail.add(np.bincount(x))
        eps_values = [1.0, 0.5, 0.5 / n, 1.0 / n] + eps
        expected = [s[max(n - 1 - math.floor(e * n + 1e-9), 0)] for e in eps_values]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InsufficientSamples)
            assert tail.quantiles(eps_values) == [tail.quantile(e) for e in eps_values] == expected

    def test_integer_tail_warns_and_rejects_as_raw(self):
        counted = CountTail()
        with pytest.raises(ValueError, match="no samples"):
            counted.quantile(0.5)
        with pytest.raises(ValueError, match="no samples"):
            counted.exceed_fraction(1.0)
        counted.add(np.ones(50, dtype=np.uint64))  # the samples 0, 1, ..., 49
        assert counted.counts.dtype == np.int64
        with pytest.warns(InsufficientSamples) as warned:
            counted.quantile(0.01)
        assert warned[0].filename == __file__  # at the query's caller
        with pytest.raises(ValueError, match="epsilon"):
            counted.quantile(0.0)
        # a count tail takes a 1-D array of integer counts within int64 only,
        # never real samples, and checks it before it pads its counts
        for samples in (
            [], [1.0], [1.5], [-1.0], [math.nan], [math.inf], [2, -1], 3,
            np.ones((60, 2), dtype=np.int64), np.full(60, 2**63, dtype=np.uint64),
        ):
            with pytest.raises(ValueError, match="nonnegative integers"):
                counted.add(np.array(samples))
        assert counted.n_samples == 50 and np.array_equal(counted.counts, np.ones(50))

    def test_rejects_samples_that_are_not_1d(self):
        tail = EmpiricalTail()
        for samples in (np.ones((3, 4)), 2.5):
            with pytest.raises(ValueError, match="1-D array"):
                tail.add(samples)
        assert tail.n_samples == 0
        tail.add(np.arange(3.0))
        assert tail.exceed_fraction(0.5) == pytest.approx(2 / 3)

    def test_nonincreasing_quantiles(self):
        rng = np.random.default_rng(2)
        tail = _raw(rng.exponential(1.0, 10_000))
        qs = [tail.quantile(e) for e in (1e-3, 1e-2, 0.1, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("stage", ["raw", "raw-with-ties", "later-add", "histogram"])
    def test_file_backed_tail_answers_as_in_memory(self, tmp_path, stage):
        # the same samples given as file slices and as arrays: each raw
        # answer is that of a sort and a search of all the samples in memory,
        # bit for bit, before and after a later add, and across the switch
        # both bin as a tail given arrays and never queried
        rng = np.random.default_rng(41)
        special = [0.0, -0.0, -1e300, 1e300]
        # ties just below the maximum, among the ranks that quantiles select
        special += [1e300] * 3 if stage == "raw-with-ties" else []
        # the switch fixes the bin edges at twice the maximum, capped at the
        # largest float
        special += [BIG]
        parts = [np.round(rng.exponential(1.0, 1_500), 2) for _ in range(3)]
        parts[0] = np.concatenate((parts[0][:700], special, parts[0][700:]))
        limit = 4_000 if stage == "histogram" else 10_000
        filed, given, fresh = (EmpiricalTail(raw_limit=limit) for _ in range(3))

        def add(k):
            path = str(tmp_path / str(k))
            parts[k].tofile(path)
            filed.add(simulate._FileSlice(path, len(parts[k]), parts[k].min(), parts[k].max()))
            given.add(parts[k].copy())
            fresh.add(parts[k].copy())

        def answers(tail, eps_values, points):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InsufficientSamples)
                q = [tail.quantile(eps) for eps in eps_values]
                assert np.array(tail.quantiles(eps_values)).tobytes() == np.array(q).tobytes()
            return np.array(q + [tail.exceed_fraction(p) for p in points]).tobytes()

        def check(n_parts):
            s = np.sort(np.concatenate(parts[:n_parts]))
            n = len(s)
            eps_values = EPS_GRID + SIM_EPS
            points = [-math.inf, math.nan, math.inf]
            points += [y for v in np.unique(s).tolist()
                       for y in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
            expected = [s[max(n - 1 - math.floor(eps * n + 1e-9), 0)] for eps in eps_values]
            expected += [float(n - np.searchsorted(s, p, side="right")) / n for p in points]
            for tail in (filed, given):
                assert tail.bin_width == 0
                assert answers(tail, eps_values, points) == np.array(expected).tobytes()
            return eps_values, points

        add(0)
        add(1)
        eps_values, points = check(2)
        if stage.startswith("raw"):
            return
        add(2)
        if stage == "later-add":
            check(3)
            return
        assert filed.bin_width == given.bin_width == fresh.bin_width > 0
        for tail in (filed, given):
            assert np.array_equal(tail._counts, fresh._counts) and tail._chunks == []
            assert answers(tail, eps_values, points) == answers(fresh, eps_values, points)

    def test_first_query_keeps_no_sample_in_memory(self):
        # a raw tail given arrays keeps them, and a query adds no copy of
        # them: at epsilon 1e-3 and 1e-1 its peak is the candidates for the
        # rank, 16 bytes per sample the quantile may leave above it, plus a
        # block, sorted where they are; at 0.5 the candidates could reach
        # all samples, so its buffer holds them all, 8 bytes each. None keeps
        # anything once it returns
        n = 1_000_000
        cases = [(eps, 16 * (math.floor(eps * n) + 1)) for eps in (1e-3, 1e-1)]
        for eps, bound in cases + [(0.5, 8 * n)]:
            tracemalloc.start()
            try:
                tail = EmpiricalTail()
                for seed in (1, 2):
                    tail.add(np.random.default_rng(seed).exponential(1.0, n // 2))
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tail.quantile(eps)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert before >= 8 * n
            assert peak - before <= bound + (1 << 20), eps
            assert held - before < 1 << 16

    def test_raw_query_writes_no_file(self, tmp_path):
        # with a file size limit of 0 set once the tail holds its samples,
        # in arrays and in a file slice, a child process's raw queries
        # answer as they do without the limit, each rank found by selection,
        # and no file appears under TMPDIR
        pytest.importorskip("resource")
        code = (
            "import os, resource, signal, sys\n"
            "import numpy as np\n"
            "from agecalc import EmpiricalTail, simulate\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "x = np.random.default_rng(3).exponential(1.0, 100_000)\n"
            "y = x[60_000:]\n"
            "with open(sys.argv[1], 'wb', buffering=0) as f:\n"
            "    simulate._append(f, y)\n"
            "tail = EmpiricalTail()\n"
            "tail.add(x[:60_000].copy())\n"
            "tail.add(simulate._FileSlice(sys.argv[1], len(y), y.min(), y.max()))\n"
            "def answers():\n"
            "    q = tail.quantiles([1.0, 0.5, 1e-1, 1e-3, 1e-5])\n"
            "    return repr(q + [tail.quantile(0.2), tail.exceed_fraction(2.0)])\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (0, hard))\n"
            "print(answers())\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (hard, hard))\n"
            "print(answers())\n"
            "s = np.sort(x)\n"
            "print(repr([float(s[max(len(s) - 1 - round(e * len(s)), 0)])\n"
            "            for e in (1.0, 0.5, 1e-1, 1e-3, 1e-5, 0.2)]\n"
            "           + [float(np.count_nonzero(x > 2.0)) / len(x)]))\n"
        )
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "samples")], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp)),
        )
        assert out.returncode == 0, out.stderr
        limited, free, expected = out.stdout.splitlines()
        assert limited == free == expected
        assert list(tmp.iterdir()) == []


class TestEventStream:
    def test_mean_inter_event_sanity(self):
        for model in (Exponential(0.5), Deterministic(2.0)):
            stream = EventStream(model, 33)
            times = stream.take(0, 200_000)
            gaps = np.diff(np.concatenate([[0.0], times]))
            se = gaps.std() / math.sqrt(len(gaps)) + 1e-12
            assert abs(gaps.mean() - model.mean) <= 3 * se

    def test_counts_match_brute_force(self):
        stream = EventStream(Exponential(1.0), 4)
        ts = np.array([0.5, 2.0, 7.5, 30.0])
        counts = stream.count_upto(ts)
        # reference: regenerate the same stream and count directly
        ref = EventStream(Exponential(1.0), 4)
        times = ref.take(0, 1000)
        expected = np.searchsorted(times, ts, side="right")
        assert np.array_equal(counts, expected)

    def test_discard_preserves_counts(self):
        stream = EventStream(Exponential(1.0), 4)
        before = stream.count_upto(np.array([10.0, 20.0]))
        stream.discard(int(before[0]))
        after = stream.count_upto(np.array([20.0]))
        assert after[0] == before[1]

    def test_take_after_discarding_untaken_events_raises(self):
        stream = EventStream(Exponential(1.0), 5)
        n = int(stream.count_upto(np.array([60_000.0]))[0])
        stream.discard(n)
        with pytest.raises(ValueError, match="discarded"):
            stream.take(0, 3)
        with pytest.raises(ValueError, match="discarded"):
            stream.take(n - 1, 3)
        # the first event past the discard is still there
        expected = EventStream(Exponential(1.0), 5).take(n, 3).copy()
        assert np.array_equal(stream.take(n, 3), expected)

    def test_discard_past_generated_events_raises(self):
        stream = EventStream(Exponential(1.0), 5)
        stream.take(0, 10)
        generated = _BLOCK  # a take of fewer events grows the stream by one block
        stream.discard(generated)
        with pytest.raises(ValueError, match="generated"):
            stream.discard(generated + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from((Exponential(1.0), Deterministic(0.5))),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("take"), st.tuples(
                    st.integers(0, _BLOCK), st.integers(0, 3 * _BLOCK // 2))),
                st.tuples(st.just("count"), st.lists(
                    st.floats(0, 2e5) | st.integers(0, 400_000).map(lambda i: i / 2),
                    max_size=8,
                )),
                st.tuples(st.just("discard"), st.integers(0, 3 * _BLOCK)),
            ),
            max_size=20,
        ),
    )
    def test_interleaved_queries_match_searchsorted(self, model, seed, ops):
        # half-integer times tie with the deterministic events, whose sums
        # are exact; exponential event times are summed per block, so the
        # reference agrees with the stream to rounding and only exact ties
        # with them could count differently
        n_ref = sum(sum(arg) for op, arg in ops if op == "take") + 3 * int(2e5 / model.mean)
        full = EventStream(model, seed).take(0, n_ref).copy()
        stream = EventStream(model, seed)
        # discarded: events 1 ... discarded are gone; known: events up to
        # this index have been generated (taken or counted)
        discarded, known = 0, 0
        for op, arg in ops:
            if op == "take":
                offset, k = arg
                start = discarded + offset
                got = stream.take(start, k)
                assert np.allclose(got, full[start:start + k], rtol=1e-12, atol=0)
                known = max(known, start + k)
            elif op == "count":
                floor = full[discarded - 1] if discarded else 0.0
                times = np.sort(np.maximum(np.array(arg, dtype=np.float64), floor))
                assert full[-1] > times.max(initial=0.0)
                expected = np.searchsorted(full, times, side="right")
                assert np.array_equal(stream.count_upto(times), expected)
                known = max(known, int(expected.max(initial=0)))
            else:
                count = min(arg, known)
                stream.discard(count)
                discarded = max(discarded, count)

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from((Exponential(1.0), Deterministic(0.5))),
        seed=st.integers(0, 2**32 - 1),
        discard=st.integers(0, 2 * _BLOCK),
        n=st.integers(0, 3 * _COUNT_BLOCK + 1),
        step=st.sampled_from((0.0, 0.5, 2.0, 40.0)),
        halves=st.booleans(),
    )
    def test_blocked_counts_match_searchsorted(self, model, seed, discard, n, step, halves):
        # up to three blocks of times and one more, starting at the discard
        # floor, with runs of equal times and, on multiples of 0.5, ties
        # with the deterministic events (whose sums are exact); stream and
        # reference grow in the same block, so their events are the same bits
        full = EventStream(model, seed).take(0, 8 * _BLOCK).copy()
        stream = EventStream(model, seed)
        stream.take(0, len(full))
        stream.discard(discard)
        gaps = np.random.default_rng(seed).exponential(step, n)
        if halves:
            gaps = np.round(2.0 * gaps) / 2.0
        gaps[:1] = 0.0
        times = (full[discard - 1] if discard else 0.0) + np.cumsum(gaps)
        assert full[-1] > times.max(initial=0.0)
        expected = np.searchsorted(full, times, side="right")
        got = stream.count_upto(times)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_take_writes_each_event_once(self):
        # the draws land in the store: no temporary array of the block
        stream = EventStream(Exponential(0.5), 1)
        peak = _traced_peak(lambda: stream.take(0, 1_000_000))
        assert peak <= stream._store.nbytes + 1_000_000

    def test_take_view_lives_until_the_next_call(self):
        stream = EventStream(Exponential(1.0), 8)
        first = stream.take(0, _BLOCK - 10)
        kept = first.copy()
        assert np.array_equal(first, EventStream(Exponential(1.0), 8).take(0, _BLOCK - 10))
        # the next block lands where the discarded events were: a view kept
        # across calls changes, which is why EventTriggered.arrivals copies
        stream.discard(_BLOCK - 10)
        second = stream.take(_BLOCK - 10, _BLOCK)
        assert np.shares_memory(first, second)
        assert not np.array_equal(first, kept)
        # update _BLOCK // 2 arrives with event _BLOCK, past the discard
        arrivals = EventTriggered(2).arrivals(stream, _BLOCK // 2, 10)
        assert not np.shares_memory(arrivals, stream._store)


class _ConcatStream:
    """The event stream before the in-place store: each block is summed into
    a new array and joined to the buffer by concatenation."""

    def __init__(self, model, rng):
        self.model, self.rng = model, rng
        self._buf = np.empty(0)
        self._first = 1
        self._generated = 0
        self._last_time = 0.0
        self._taken = 0

    def _grow(self, k):
        block = self._last_time + np.cumsum(self.model.sample(self.rng, k))
        self._last_time = float(block[-1])
        self._generated += k
        return block

    def take(self, start, k):
        assert start == self._taken  # the old stream took from its own cursor
        parts = [self._buf]
        while self._generated < self._taken + k:
            parts.append(self._grow(max(self._taken + k - self._generated, _BLOCK)))
        self._buf = np.concatenate(parts)
        i0 = self._taken - (self._first - 1)
        self._taken += k
        return self._buf[i0:i0 + k]

    def count_upto(self, times):
        parts = [self._buf]
        while self._last_time <= times[-1]:
            parts.append(self._grow(_BLOCK))
        self._buf = np.concatenate(parts)
        return (self._first - 1) + np.searchsorted(self._buf, times, side="right")

    def discard_through(self, t):
        k = int(np.searchsorted(self._buf, t, side="right"))
        if self._taken:
            k = min(k, self._taken - (self._first - 1))
        if k > 0:
            self._buf = self._buf[k:]
            self._first += k


def _concat_simulate(scenario, n, seed, replication, chunk):
    """arrays computed as the simulator did before the in-place store,
    without burn-in: the concatenating stream, a discard after the arrivals
    and the FIFO expression s = service_sum + cumsum, g = arrivals - s + service."""
    policy = scenario.policy
    events = _ConcatStream(scenario.event_model, derive_rng(seed, replication, STREAM_EVENTS))
    rng_service = derive_rng(seed, replication, STREAM_SERVICE)
    t_out, a_out, f_out = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    service_sum, run_max, arr_last, count_last, done = 0.0, -math.inf, 0.0, 0, 0
    while done < n:
        m = min(chunk, n - done)
        arr = policy.arrivals(events, done + 1, m)
        service = scenario.service_model.sample(rng_service, m)
        s = service_sum + np.cumsum(service)
        g = arr - s + service
        np.maximum.accumulate(g, out=g)
        np.maximum(g, run_max, out=g)
        dep = s + g
        service_sum, run_max = float(s[-1]), float(g[-1])
        t_out[done:done + m] = dep - arr
        events.discard_through(float(arr[0]))
        ca = policy.sampled_counts(events, arr, done + 1)
        cd = events.count_upto(dep)
        if done > 0:
            a_out[done - 1] = dep[0] - arr_last
            f_out[done - 1] = cd[0] - count_last
        a_out[done:done + m - 1] = dep[1:] - arr[:-1]
        f_out[done:done + m - 1] = cd[1:] - ca[:-1]
        arr_last, count_last = float(arr[-1]), int(ca[-1])
        done += m
    return t_out, a_out, f_out


class TestRunReplications:
    def test_matches_concatenating_stream_exactly(self, monkeypatch):
        # the in-place store must write the same bits as the concatenating
        # stream it replaced, whichever way it makes room for a block
        moves = set()

        class SpyStream(EventStream):
            def _grow(self, k):
                store, lo = self._store, self._lo
                super()._grow(k)
                if self._store is not store and len(store):
                    moves.add("reallocate")
                elif lo and not self._lo:
                    moves.add("compact")

        monkeypatch.setattr(simulate, "EventStream", SpyStream)
        n, long = 30_000, 2 * _CHUNK + 5_000
        cases = [
            (Exponential(0.5), TimeTriggered(13.0), Exponential(0.25), 1_000, n),
            (Deterministic(2.0), TimeTriggered(2.0), Deterministic(1.5), 7_000, n),
            (Deterministic(0.3), TimeTriggered(3.7), Exponential(0.5), 2_500, n),
            (Exponential(0.5), EventTriggered(3), Exponential(0.25), 3_000, n),
            (Deterministic(0.3), EventTriggered(3), Deterministic(0.8), 20_000, n),
            # each take of 16 * 5_000 events is larger than one block
            (Exponential(0.5), EventTriggered(16), Exponential(0.05), 5_000, n),
            (Deterministic(2.0), EventTriggered(16), Exponential(0.04), 1_024, n),
            # gamma draws: a chunk's counts span two blocks; takes of 16 * 5_000
            (Erlang(3, 1.5), TimeTriggered(13.0), Exponential(0.25), 20_000, n),
            (Erlang(3, 1.5), EventTriggered(16), Exponential(0.05), 5_000, n),
            # the chunk every run uses, over three chunks
            (Exponential(0.5), TimeTriggered(13.0), Exponential(0.25), _CHUNK, long),
            (Exponential(0.5), EventTriggered(16), Exponential(0.05), _CHUNK, long),
        ]
        for events, policy, service, chunk, n in cases:
            scenario = Scenario(events, service, policy, 1e-3)
            got = arrays(scenario, n, 99, 2, burn_in=0, chunk=chunk)
            ref = _concat_simulate(scenario, n, 99, 2, chunk)
            for x, y in zip(got, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        assert moves == {"reallocate", "compact"}
    def test_deterministic_given_seed(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), EventTriggered(1), 1e-3)
        a = run_replications(scenario, 30_000, 2, 7, burn_in=1_000)
        b = run_replications(scenario, 30_000, 2, 7, burn_in=1_000)
        for eps in (1e-2, 1e-3):
            assert a.delay.quantile(eps) == b.delay.quantile(eps)
            assert a.peak_doi.quantile(eps) == b.peak_doi.quantile(eps)
        assert a.delay.n_samples == b.delay.n_samples

    def test_workers_do_not_change_results(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        a = run_replications(scenario, 20_000, 4, 3, burn_in=1_000, workers=1)
        b = run_replications(scenario, 20_000, 4, 3, burn_in=1_000, workers=2)
        for eps in (1e-2, 1e-3, 1.0):
            assert a.delay.quantile(eps) == b.delay.quantile(eps)
            assert a.peak_aoi.quantile(eps) == b.peak_aoi.quantile(eps)

    def test_workers_do_not_change_histogram_tails(self):
        # 4 x 19,000 samples per metric: the raw limit is crossed while the
        # second replication is merged, and the bin edges (from the maximum
        # of the first two) would differ if the last two were merged first
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        runs = [
            run_replications(
                scenario, 20_000, 4, 3, burn_in=1_000, workers=w, raw_limit=30_000
            ).by_name()
            for w in (1, 2)
        ]
        for name in ("delay", "peak_aoi"):
            a, b = runs[0][name], runs[1][name]
            assert a.bin_width > 0
            assert a.bin_width == b.bin_width
            assert np.array_equal(a._counts, b._counts)
            for eps in (1e-1, 1e-2, 1e-3):
                assert a.quantile(eps) == b.quantile(eps)
        # peak deviation counts each value: the same counts at either worker
        # count, and the quantiles of a raw tail of the same samples
        a, b = runs[0]["peak_doi"], runs[1]["peak_doi"]
        raw = EmpiricalTail()
        for r in range(4):
            raw.add(arrays(scenario, 20_000, 3, r, 1_000)[2])
        assert a.bin_width == b.bin_width == 0
        assert np.array_equal(a.counts, b.counts)
        for eps in (1e-1, 1e-2, 1e-3):
            assert a.quantile(eps) == b.quantile(eps) == raw.quantile(eps)

    def test_workers_do_not_change_deviation_counts(self):
        # event-triggered, a burn-in past the first chunk and a run that is
        # no multiple of it, 3 x 19,999 peak samples against a raw limit of
        # 30,000: delay and peak age switch to histograms at replication 1,
        # and peak deviation keeps one exact count per value at any worker
        # count, the counts of the reference arrays' deviations
        scenario = Scenario(Exponential(1.0), Exponential(0.25), EventTriggered(8), 1e-3)
        burn_in = _CHUNK + 1_000
        n = burn_in + 20_000
        runs = [
            run_replications(scenario, n, 3, 5, burn_in=burn_in, workers=w, raw_limit=30_000)
            for w in (1, 2, 3)
        ]
        deviations = np.concatenate([arrays(scenario, n, 5, r, burn_in)[2] for r in range(3)])
        reference = np.bincount(deviations.astype(np.intp))
        a = runs[0]
        assert a.delay.bin_width > 0 and a.peak_aoi.bin_width > 0
        for b in runs:
            assert b.peak_doi.n_samples == 3 * 19_999
            assert isinstance(b.peak_doi, CountTail)  # no sample is kept
            assert np.array_equal(b.peak_doi.counts, reference)
            for eps in (1.0, 1e-1, 1e-2, 1e-3):
                assert a.peak_doi.quantile(eps) == b.peak_doi.quantile(eps)
            for x in (0.0, 8.0, 8.5, 20.0):
                assert a.peak_doi.exceed_fraction(x) == b.peak_doi.exceed_fraction(x)

    def test_pool_sized_to_replications(self, monkeypatch):
        # a stand-in pool records its size and runs jobs inline: no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, **options):
                sizes.append(max_workers)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        pooled = run_replications(scenario, 3_000, 2, 5, burn_in=100, workers=3)
        assert sizes == [2]
        run_replications(scenario, 3_000, 1, 5, burn_in=100, workers=3)
        assert sizes == [2]
        serial = run_replications(scenario, 3_000, 2, 5, burn_in=100, workers=1)
        assert sizes == [2]
        assert pooled.delay.quantile(0.01) == serial.delay.quantile(0.01)

    def test_submissions_run_at_most_workers_ahead(self, monkeypatch):
        # at 2 workers, replication r is submitted once the parent has taken
        # the result of r - 3: besides the one it adds, at most 2 are in flight
        log = []

        class LoggedFuture(Future):
            def result(self, timeout=None):
                log.append(("result", self.rep))
                return super().result(timeout)

        class InlinePool:
            def __init__(self, max_workers, **options):
                pass

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

            def submit(self, fn, *args):
                log.append(("submit", args[3]))
                future = LoggedFuture()
                future.rep = args[3]
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run_replications(scenario, 20_000, 5, 3, burn_in=1_000, workers=2)
        assert log == [
            ("submit", 0), ("submit", 1), ("submit", 2), ("result", 0),
            ("submit", 3), ("result", 1), ("submit", 4), ("result", 2),
            ("result", 3), ("result", 4),
        ]

    def test_tails_switching_apart_match_raw_adds(self):
        # 2,000 delay and 1,999 peak samples per replication against a raw
        # limit of 3,999: delay switches to a histogram at replication 1, peak
        # age at replication 2, and 3 and 4 are binned where they run.
        # With seed 11, replication 2 holds every metric's largest sample so
        # far, so edges that missed it, or delay edges set anew at
        # replication 2, would differ from the reference. Peak deviation
        # never switches: its counts are those of a raw tail's samples.
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        n, burn_in, reps, limit, seed = 2_001, 1, 5, 3_999, 11
        ref = [EmpiricalTail(raw_limit=limit) for _ in range(2)] + [EmpiricalTail()]
        for r in range(reps):
            for tail, x in zip(ref, arrays(scenario, n, seed, r, burn_in)):
                if r == 2:
                    assert x.max() > tail._max
                tail.add(x)
        for workers in (1, 2):
            got = run_replications(
                scenario, n, reps, seed, burn_in=burn_in, workers=workers, raw_limit=limit
            ).by_name().values()
            for a, b in zip(got, ref):
                if b is ref[2]:
                    counts = np.bincount(np.concatenate(b._chunks).astype(np.intp))
                    assert np.array_equal(a.counts, counts)
                    assert a.n_samples == b.n_samples and a.bin_width == b.bin_width == 0
                else:
                    assert b.bin_width > 0
                    assert np.array_equal(a._counts, b._counts)
                    assert (a.n_samples, a._min, a._max, a.bin_width) == (
                        b.n_samples, b._min, b._max, b.bin_width
                    )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", InsufficientSamples)
                    for eps in (1e-1, 1e-2, 1e-3):
                        assert a.quantile(eps) == b.quantile(eps)

    def test_pooled_results_are_small(self, monkeypatch):
        # 149,000 samples per metric (1.2 MB) and a raw limit of 200,000: the
        # second replication switches the delay and peak-age tails to
        # histograms. No result carries a sample array: every replication
        # hands its delays and peak ages over as a file, which those tails
        # hold as read-only file slices until the switch bins them, and the
        # parent bins the later ones as a serial run does; the workers count
        # the peak deviations
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run = functools.partial(
            run_replications, scenario, 150_000, 4, 3, burn_in=1_000, raw_limit=200_000
        )
        serial = run(workers=1)
        sizes, switched = {}, []

        class InlinePool:
            def __init__(self, max_workers, **options):
                pass

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                sizes[args[3]] = len(pickle.dumps(future.result()))
                return future

        to_histogram = simulate.EmpiricalTail._to_histogram

        def checked_to_histogram(tail):
            switched.append([_file_backed(x) for x in tail._chunks])
            to_histogram(tail)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simulate.EmpiricalTail, "_to_histogram", checked_to_histogram)
        pooled = run(workers=2)
        assert sorted(sizes) == [0, 1, 2, 3]
        assert max(sizes.values()) < 64 * 1024
        assert switched == [[True, True]] * 2  # peak deviation never switches
        assert np.array_equal(pooled.peak_doi.counts, serial.peak_doi.counts)
        for name in ("delay", "peak_aoi"):
            tail, ref = pooled.by_name()[name], serial.by_name()[name]
            assert tail.bin_width > 0
            assert np.array_equal(tail._counts, ref._counts)
            assert (tail.n_samples, tail._min, tail._max, tail.bin_width) == (
                ref.n_samples, ref._min, ref._max, ref.bin_width
            )

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3),
            Scenario(Exponential(1.0), Exponential(0.25), EventTriggered(8), 1e-3),
            # every delay is the service time and most peak ages tie too
            Scenario(Exponential(0.5), Deterministic(1.0), TimeTriggered(2.0), 1e-3),
        ],
        ids=["time", "event-alpha-8", "deterministic-service"],
    )
    def test_pooled_extremes_match_serial(self, monkeypatch, scenario):
        # a pooled tail takes each array's extremes from the worker, not from
        # the array: they, and the bin edges the switch fixes from them, are
        # a serial run's bit for bit
        run = functools.partial(
            run_replications, scenario, 30_000, 4, 3, burn_in=1_000, raw_limit=50_000
        )
        serial = run(workers=1)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        pooled = run(workers=2)
        assert np.array_equal(pooled.peak_doi.counts, serial.peak_doi.counts)
        for name in ("delay", "peak_aoi"):
            tail, ref = pooled.by_name()[name], serial.by_name()[name]
            assert ref.bin_width > 0
            got = np.array([tail._min, tail._max, tail.bin_width])
            assert got.tobytes() == np.array([ref._min, ref._max, ref.bin_width]).tobytes()
            assert np.array_equal(tail._counts, ref._counts)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the kernel's per-process RSS"
    )
    def test_parent_reads_no_page_it_only_stores(self, monkeypatch):
        # 1,000,000 samples (8 MB) per metric and replication; the fourth
        # replication takes the delay and peak-age tails past a raw limit of
        # 3,500,000. Until then they hold the first three as file slices
        # they have not read, since the workers report the extremes, so none
        # of those pages is resident; binning reads each array a block at a
        # time into a buffer and maps no page. The file holds no deviation,
        # which the workers count
        array = 8 * 1_000_000
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        run_replications(scenario, 20_000, 3, 3, burn_in=1_000, workers=2, raw_limit=30_000)
        to_histogram = simulate.EmpiricalTail._to_histogram
        rises = []

        def measured_to_histogram(tail):
            rises.append(_file_resident_bytes() - base)
            to_histogram(tail)

        monkeypatch.setattr(simulate.EmpiricalTail, "_to_histogram", measured_to_histogram)
        base = _file_resident_bytes()
        tails = run_replications(
            scenario, 1_001_000, 4, 3, burn_in=1_000, workers=2, raw_limit=3_500_000
        )
        rises.append(_file_resident_bytes() - base)
        assert tails.delay.bin_width > 0 and tails.peak_aoi.bin_width > 0
        assert len(rises) == 3  # peak deviation never switches
        assert max(rises) < array

    def test_pooled_raw_tails_match_serial(self):
        # 3 x 19,000 samples per metric stay below the raw limit: the delay
        # and peak-age tails of either run hold the replication files, and
        # answer from them, unchanged, query after query; the replications
        # count peak deviation
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        serial = run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=1)
        pooled = run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=2)
        doi, ref = pooled.peak_doi, serial.peak_doi
        assert np.array_equal(doi.counts, ref.counts) and doi.n_samples == ref.n_samples
        for eps in (1e-1, 1e-2, 1e-3):
            assert doi.quantile(eps) == ref.quantile(eps)
        for name in ("delay", "peak_aoi"):
            tail, ref = pooled.by_name()[name], serial.by_name()[name]
            mapped = list(tail._chunks)
            assert len(mapped) == 3 and all(_file_backed(x) for x in mapped)
            assert len(ref._chunks) == 3 and all(_file_backed(x) for x in ref._chunks)
            assert tail.bin_width == 0 and tail.n_samples == ref.n_samples
            samples = np.concatenate([_read(x) for x in mapped])
            assert np.array_equal(samples, np.concatenate([_read(x) for x in ref._chunks]))
            for eps in (1e-1, 1e-2, 1e-3):
                assert tail.quantile(eps) == ref.quantile(eps)
            assert tail.quantiles((1.0, 0.5, 1e-3)) == ref.quantiles((1.0, 0.5, 1e-3))
            assert tail._chunks == mapped
            for x in (2.0, 10.0, float(np.median(samples))):
                assert tail.exceed_fraction(x) == ref.exceed_fraction(x)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_descriptor_outlives_the_tails(self, monkeypatch, tmp_path, workers):
        # the tails hold their replication files, 2 descriptors per
        # replication, which queries neither add to nor close, until the
        # tails are dropped; no file has a name under TMPDIR meanwhile
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        tails = run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=workers)
        assert len(os.listdir("/proc/self/fd")) == before + 2 * 3
        for tail in (tails.delay, tails.peak_aoi):
            tail.quantiles((0.5, 1e-2))
            tail.exceed_fraction(2.0)
        assert len(os.listdir("/proc/self/fd")) == before + 2 * 3
        assert list(tmp_path.iterdir()) == []
        del tails, tail
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_file_outlives_a_run(self, monkeypatch, tmp_path, workers):
        # the chunk writer is looked up in the module when a replication
        # runs, so a patch made before the pool forks reaches the workers,
        # and one run in this process alike
        tmp, seen = tmp_path / "tmp", tmp_path / "seen"
        tmp.mkdir()
        seen.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=workers)
        assert list(tmp.iterdir()) == []

        append, writes = simulate._append, collections.Counter()

        def full_disk_in_0(f, x):
            # each process counts the writes of the replications it runs;
            # the third write of replication 0 is its second chunk's delays
            name = os.path.basename(f.name).split(".")[0]
            (seen / name).touch()
            writes[name] += 1
            if name == "0" and writes[name] > 2:
                assert os.path.getsize(f.name) > 0  # the first chunk is on disk
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), f.name)
            append(f, x)

        monkeypatch.setattr(simulate, "_append", full_disk_in_0)
        n_reps = 40
        with pytest.raises(OSError) as raised:
            # two chunks per replication
            run_replications(
                scenario, _CHUNK + 40_000, n_reps, 5, burn_in=1_000, workers=workers
            )
        assert raised.value.errno == errno.ENOSPC
        assert list(tmp.iterdir()) == []
        # a pool submits replications at most `workers` ahead of the one the
        # parent waits for, so only those already submitted when replication
        # 0 fails can be simulated; one process simulates replication 0 only
        simulated = {int(p.name) for p in seen.iterdir()}
        assert 0 in simulated and n_reps - 1 not in simulated
        assert len(simulated) <= (workers + 1 if workers > 1 else 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_sample_fails_the_run(self, monkeypatch, tmp_path, workers):
        # a nan service time makes every later delay and peak age of its
        # replication nan: the replication reports nan extremes, which the
        # tails refuse without a read, so the run raises and leaves no file
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(simulate, "sample", nan_in_second_service_draw(simulate.sample))
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        with pytest.raises(ValueError, match="finite"):
            # two chunks per replication
            run_replications(scenario, _CHUNK + 40_000, 2, 5, burn_in=1_000, workers=workers)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "policy", [TimeTriggered(2.0), EventTriggered(3)], ids=["time", "event"]
    )
    @pytest.mark.parametrize(
        "n, burn_in",
        [
            (5_000, 0),
            (5_000, 1),
            (5_000, 1_023),  # one less than a chunk
            (5_000, 1_024),  # exactly a chunk
            (5_000, 1_025),
            (5_000, 3_500),  # several chunks
            (4_096, 1_000),  # n a multiple of the chunk
            (1_026, 1_024),  # n = burn_in + 2, across a chunk boundary
            (2, 0),
        ],
    )
    def test_file_holds_the_serial_arrays(self, tmp_path, policy, n, burn_in):
        # chunks of 1,024: each array's file, appended to chunk by chunk,
        # holds the burned-in delay or peak-age array of the chunks
        # _simulate_chunks yields bit for bit, 8 B per update each, the
        # reported extremes are theirs, and the counts are those of the
        # burned-in deviations
        scenario = Scenario(Exponential(0.5), Exponential(1.0), policy, 1e-3)
        delay, aoi, doi = arrays(scenario, n, 99, 1, burn_in, chunk=1_024)
        path = str(tmp_path / "1")
        records, counts = _simulate_to_file(scenario, n, 99, 1, burn_in, path, chunk=1_024)
        assert [name for name, _, _, _ in records] == [path + ".delay", path + ".peak_aoi"]
        for (name, _, _, _), x in zip(records, (delay, aoi)):
            with open(name, "rb") as f:
                assert f.read() == x.tobytes()
        shapes = [record[1:] for record in records]
        expected = [(len(x), x.min(), x.max()) for x in (delay, aoi)]
        assert np.array(shapes).tobytes() == np.array(expected).tobytes()
        lengths = [length for length, _, _ in shapes]
        assert lengths == [n - burn_in, n - 1 - burn_in]
        assert np.array_equal(counts, np.bincount(doi.astype(np.intp)))

    def test_file_path_holds_one_chunk_per_array(self, tmp_path):
        # the worker writes each chunk as it is computed: its peak is below
        # that of the three full-length arrays by those arrays less three chunks
        scenario = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(13.0), 1e-3)
        n = 1_000_000
        whole = _traced_peak(lambda: arrays(scenario, n, 3, 0, 1_000))
        chunked = _traced_peak(
            lambda: _simulate_to_file(scenario, n, 3, 0, 1_000, str(tmp_path / "0"))
        )
        assert whole - chunked >= 8 * (3 * n - 2) - 3 * 8 * _CHUNK

    def test_serial_run_holds_no_deviation_array(self):
        # a serial run counts each chunk's deviations as it is computed: its
        # peak is below that of the three full-length arrays by at least one
        # of them less one chunk
        scenario = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(13.0), 1e-3)
        n = 1_000_000
        whole = _traced_peak(lambda: arrays(scenario, n, 3, 0, 1_000))
        serial = _traced_peak(lambda: run_replications(scenario, n, 1, 3, burn_in=1_000))
        assert whole - serial >= 8 * (n - 1) - 8 * _CHUNK

    def test_failed_chunk_write_keeps_its_errno(self, tmp_path):
        # a file size limit of half the first delay chunk's bytes fails that
        # chunk's write part way, as a full disk does: the short write is
        # followed by one that raises, and the OSError carries its errno
        # (ndarray.tofile's has none). The limit is set in a child process,
        # which it alone constrains.
        pytest.importorskip("resource")
        limit = 8 * (_CHUNK - 1_000) // 2
        code = (
            "import resource, signal, sys\n"
            "from agecalc import Exponential, Scenario, TimeTriggered\n"
            "from agecalc.simulate import _simulate_to_file\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[2]), hard))\n"
            "scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)\n"
            "try:\n"
            "    _simulate_to_file(scenario, 300_000, 5, 0, 1_000, sys.argv[1])\n"
            "except OSError as exc:\n"
            "    print(exc.errno)\n"
        )
        path = tmp_path / "0"
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, str(path), str(limit)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(errno.EFBIG)]
        assert (tmp_path / "0.delay").stat().st_size == limit

    def test_event_store_holds_one_chunk_of_events(self, tmp_path):
        # at threshold 16 a chunk takes 16 * _CHUNK events, which the store
        # holds with a quarter of headroom: 10 MiB in 2^16-update chunks, and
        # with every other chunk buffer the replication stays under 16 MiB,
        # where a 2^18-update chunk's store alone would take 40 MiB
        scenario = Scenario(Exponential(1.0), Exponential(0.25), EventTriggered(16), 1e-3)
        peak = _traced_peak(
            lambda: _simulate_to_file(scenario, 3 * _CHUNK, 5, 0, 1_000, str(tmp_path / "0"))
        )
        assert peak < 16 << 20

    @pytest.mark.parametrize("policy", [TimeTriggered(13.0), EventTriggered(16)])
    def test_chunk_size_changes_no_draw(self, monkeypatch, policy):
        # the chunk size sets where running sums add their offsets, not what
        # is drawn: the event and service draws of a run in 2^16-update
        # chunks are those in 2^18-update chunks, bit for bit, and the
        # metrics differ by rounding only
        n = (1 << 18) + 5_000
        scenario = Scenario(Exponential(0.5), Exponential(0.25), policy, 1e-3)
        streams, draws = {}, {}
        simulate_sample = simulate.sample

        def tagged(base_seed, replication, stream_id):
            rng = derive_rng(base_seed, replication, stream_id)
            streams[id(rng)] = stream_id
            return rng

        def recording(model, rng, k, out=None):
            x = simulate_sample(model, rng, k, out=out)
            draws[chunk][streams[id(rng)]].append(x.copy())
            return x

        monkeypatch.setattr(simulate, "derive_rng", tagged)
        monkeypatch.setattr(simulate, "sample", recording)
        metrics = {}
        for chunk in (1 << 16, 1 << 18):
            draws[chunk] = {STREAM_EVENTS: [], STREAM_SERVICE: []}
            metrics[chunk] = arrays(scenario, n, 11, 3, burn_in=0, chunk=chunk)
        events, service = (
            [np.concatenate(draws[chunk][sid]) for chunk in draws]
            for sid in (STREAM_EVENTS, STREAM_SERVICE)
        )
        assert len(service[0]) == len(service[1]) == n
        assert np.array_equal(service[0], service[1])
        k = min(map(len, events))
        if isinstance(policy, EventTriggered):
            assert k >= 16 * n  # every update's events
        else:
            assert events[0][:k].sum() > 13.0 * n  # the events up to the last arrival
        assert np.array_equal(events[0][:k], events[1][:k])
        (t16, a16, f16), (t18, a18, f18) = metrics.values()
        horizon = n * policy.spacing(scenario.event_model)
        for x, y in ((t16, t18), (a16, a18)):
            assert np.allclose(x, y, rtol=0, atol=1e-12 * horizon)
        assert np.array_equal(f16, f18)

    def test_rejects_workers_below_one(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_replications(scenario, 3_000, 2, 1, burn_in=100, workers=workers)

    def test_rejects_negative_burn_in(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        with pytest.raises(ValueError, match="burn_in"):
            run_replications(scenario, 3_000, 1, 1, burn_in=-5)

    def test_chunked_path_matches_operation_path(self):
        # the streaming path, in chunks shorter than the run, against a brute
        # force over the same streams: the FIFO recursion
        # D(n) = max(A(n), D(n-1)) + L(n) as a loop, and event counts by one
        # search over the whole event array
        n = 5_000
        for policy in (EventTriggered(3), TimeTriggered(2.0)):
            scenario = Scenario(Exponential(0.5), Exponential(1.0), policy, 1e-3)
            t, a, f = arrays(scenario, n, 99, 0, burn_in=0, chunk=1_024)

            times = EventStream(scenario.event_model, derive_rng(99, 0, STREAM_EVENTS)).take(
                0, 1 << 16
            )
            if isinstance(policy, EventTriggered):
                arrivals = times[2::3][:n]
            else:
                arrivals = 2.0 * np.arange(1, n + 1)
            service = scenario.service_model.sample(derive_rng(99, 0, STREAM_SERVICE), n)
            dep = np.empty(n)
            prev = 0.0
            for i in range(n):
                prev = max(arrivals[i], prev) + service[i]
                dep[i] = prev
            assert times[-1] > dep[-1]  # the array holds every event counted
            sampled = np.searchsorted(times, arrivals, side="right")
            at_departure = np.searchsorted(times, dep, side="right")

            assert np.allclose(t, dep - arrivals, rtol=1e-9, atol=1e-9)
            assert np.allclose(a, dep[1:] - arrivals[:-1], rtol=1e-9, atol=1e-9)
            assert np.array_equal(f, at_departure[1:] - sampled[:-1])

    def test_mm1_quantile_matches_exact(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), EventTriggered(1), 1e-3)
        tails = run_replications(scenario, 500_000, 2, 17, burn_in=10_000)
        q = tails.delay.quantile(1e-3)
        assert q == pytest.approx(exact_mm1_tail(0.5, 1.0, 1e-3), rel=0.05)

    def test_validates_budget(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        with pytest.raises(ValueError):
            run_replications(scenario, 5_000, 1, 1, burn_in=10_000)

    def test_integer_threshold_required(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), EventTriggered(1.5), 1e-3)
        with pytest.raises(ValueError):
            run_replications(scenario, 30_000, 1, 1, burn_in=100)

import errno
import functools
import math
import os
import pickle
import tempfile
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecalc import (
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
from agecalc.simulate import (
    _BIN_BLOCK,
    _BLOCK,
    _COUNT_BLOCK,
    STREAM_EVENTS,
    STREAM_SERVICE,
    _bin,
    _fifo_chunk,
    _mapped,
    _simulate_one,
)


def _file_backed(x):
    """Whether x is a view of a read-only file mapping."""
    writeable = x.flags.writeable
    while isinstance(x, np.ndarray):
        if isinstance(x, np.memmap):
            return not writeable and x.mode == "r"
        x = x.base
    return False


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
                delay, aoi, doi = _simulate_one(scenario, 6, 0, 0, burn_in=0, chunk=chunk)
                assert np.array_equal(delay, np.full(6, service))
                assert np.array_equal(aoi, np.full(5, aoi_value))
                assert np.array_equal(doi, doi_values)

    def test_deterministic_everything(self):
        w, l = 6.0, 4.0
        scenario = Scenario(Deterministic(2.0), Deterministic(l), TimeTriggered(w), 1e-3)
        delay, aoi, doi = _simulate_one(scenario, 50, 0, 0, burn_in=0)
        assert np.allclose(delay, l)
        assert np.allclose(aoi, l + w)

    def test_event_triggered_floor_and_order(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.3), EventTriggered(4), 1e-3)
        delay, aoi, doi = _simulate_one(scenario, 400, 11, 0, burn_in=0)
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
        tail = EmpiricalTail.from_samples(np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tail.quantile(0.2) == 8.0

    def test_constant_samples(self):
        tail = EmpiricalTail.from_samples(np.full(100, 3.25))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tail.quantile(0.07) == 3.25
        assert tail.quantile(1.0) == 3.25

    def test_exponential_quantile_oracle(self):
        rng = np.random.default_rng(9)
        tail = EmpiricalTail.from_samples(rng.exponential(1.0, 1_000_000))
        assert tail.quantile(1e-3) == pytest.approx(math.log(1000.0), abs=0.2)

    def test_warns_on_few_samples(self):
        tail = EmpiricalTail.from_samples(np.arange(50.0))
        with pytest.warns(InsufficientSamples):
            tail.quantile(0.01)

    def test_exceed_fraction(self):
        tail = EmpiricalTail.from_samples(np.arange(1.0, 11.0))
        assert tail.exceed_fraction(8.0) == pytest.approx(0.2)
        assert tail.exceed_fraction(10.0) == 0.0
        assert tail.exceed_fraction(0.0) == 1.0

    def test_histogram_mode_close_to_raw(self):
        rng = np.random.default_rng(21)
        data = rng.exponential(1.0, 50_000)
        raw = EmpiricalTail.from_samples(data)
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
        hi=st.one_of(st.sampled_from((0.0, -3.0)), st.floats(1e-300, 1e300)),
        bins=st.integers(1, 20_000),
        on_edges=st.lists(
            st.tuples(st.integers(0, 20_000), st.sampled_from((-1, 0, 1))), max_size=60
        ),
        others=st.lists(st.floats(allow_nan=False), max_size=60),
    )
    def test_histogram_bins_match_searchsorted(self, hi, bins, on_edges, others):
        # hi is the pooled maximum when the raw limit is crossed
        tail = EmpiricalTail(raw_limit=1, bins=bins)
        tail.add(np.array([hi, hi]))
        edges = tail._edges
        top = edges[-1]
        nudge = {-1: -math.inf, 0: None, 1: math.inf}
        x = [
            edges[k % (bins + 1)] if d == 0 else np.nextafter(edges[k % (bins + 1)], nudge[d])
            for k, d in on_edges
        ]
        x += [0.0, -0.0, -1.0, -top, 1.5 * top, 2.0 * top, 1e300] + others
        x = np.array(x, dtype=np.float64)
        before = tail._counts.copy()
        tail.add(x)
        ref = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, bins)
        assert np.array_equal(tail._counts - before, np.bincount(ref, minlength=bins + 1))
        tail.add(np.array([math.inf]))
        assert tail._counts[-1] - before[-1] == np.count_nonzero(ref == bins) + 1

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
        # neighbours, infinities and values above 2 * max on both sides of
        # every block boundary
        edges = simulate._histogram_edges(hi, bins)
        top = edges[-1]
        nudge = {-1: -math.inf, 0: None, 1: math.inf}
        with np.errstate(over="ignore"):
            values = [math.inf, -math.inf, -0.0, np.nextafter(top, math.inf), 1.5 * top, 1e300]
        values += [
            edges[k % (bins + 1)] if d == 0 else np.nextafter(edges[k % (bins + 1)], nudge[d])
            for k, d in on_edges
        ]
        x = np.random.default_rng(seed).uniform(-0.1 * top, 1.1 * top, 2 * _BIN_BLOCK + 1_000)
        for boundary in (_BIN_BLOCK, 2 * _BIN_BLOCK):
            for i, v in enumerate(values):
                x[boundary - 1 - gap - i] = v
                x[boundary + gap + i] = v
        ref = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, bins)
        assert np.array_equal(_bin(x, edges), np.bincount(ref, minlength=bins + 1))

    def test_raw_tail_keeps_one_sorted_copy(self, tmp_path):
        # the first query sorts a copy that replaces the caller's arrays,
        # an array of its own or views of a file mapping alike; the samples
        # are the same, so no later answer changes
        rng = np.random.default_rng(31)
        first, second = rng.exponential(1.0, 100_000), rng.exponential(1.0, 100_000)
        fresh = EmpiricalTail(raw_limit=150_000)
        fresh.add(first.copy())
        fresh.add(second.copy())
        tail = EmpiricalTail(raw_limit=150_000)
        tail.add(first.copy())
        given = weakref.ref(tail._chunks[0])
        path = str(tmp_path / "first")
        simulate._write_samples(path, [first[:40_000], first[40_000:]])
        mapped = EmpiricalTail(raw_limit=150_000)
        for x in _mapped(path, [40_000, 60_000]):
            assert _file_backed(x)
            mapped.add(x)
        mapping = weakref.ref(mapped._chunks[0].base.base)
        assert isinstance(mapping(), np.memmap) and not os.listdir(tmp_path)
        del x
        ordered = np.sort(first)
        for eps in (1e-1, 1e-2, 1e-3):
            expected = ordered[len(ordered) - 1 - round(eps * len(ordered))]
            assert tail.quantile(eps) == mapped.quantile(eps) == expected
        assert given() is None and mapping() is None
        assert np.array_equal(mapped._chunks[0], ordered) and mapped._chunks[0].flags.owndata
        assert tail.exceed_fraction(2.0) == np.count_nonzero(first > 2.0) / len(first)
        tail.add(second.copy())  # crosses raw_limit: the sorted copy is binned
        assert tail.bin_width == fresh.bin_width > 0
        assert np.array_equal(tail._counts, fresh._counts)
        for eps in (1e-1, 1e-2, 1e-3):
            assert tail.quantile(eps) == fresh.quantile(eps)
        assert tail.exceed_fraction(2.0) == fresh.exceed_fraction(2.0)

    def test_nonincreasing_quantiles(self):
        rng = np.random.default_rng(2)
        tail = EmpiricalTail.from_samples(rng.exponential(1.0, 10_000))
        qs = [tail.quantile(e) for e in (1e-3, 1e-2, 0.1, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))


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
        tracemalloc.start()
        try:
            stream.take(0, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    """_simulate_one as it was before the in-place store, without burn-in:
    the concatenating stream, a discard after the arrivals and the FIFO
    expression s = service_sum + cumsum, g = arrivals - s + service."""
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
        n = 30_000
        cases = [
            (Exponential(0.5), TimeTriggered(13.0), Exponential(0.25), 1_000),
            (Deterministic(2.0), TimeTriggered(2.0), Deterministic(1.5), 7_000),
            (Deterministic(0.3), TimeTriggered(3.7), Exponential(0.5), 2_500),
            (Exponential(0.5), EventTriggered(3), Exponential(0.25), 3_000),
            (Deterministic(0.3), EventTriggered(3), Deterministic(0.8), 20_000),
            # each take of 16 * 5_000 events is larger than one block
            (Exponential(0.5), EventTriggered(16), Exponential(0.05), 5_000),
            (Deterministic(2.0), EventTriggered(16), Exponential(0.04), 1_024),
            # gamma draws: a chunk's counts span two blocks; takes of 16 * 5_000
            (Erlang(3, 1.5), TimeTriggered(13.0), Exponential(0.25), 20_000),
            (Erlang(3, 1.5), EventTriggered(16), Exponential(0.05), 5_000),
        ]
        for events, policy, service, chunk in cases:
            scenario = Scenario(events, service, policy, 1e-3)
            got = _simulate_one(scenario, n, 99, 2, burn_in=0, chunk=chunk)
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
        for name in ("delay", "peak_aoi", "peak_doi"):
            a, b = runs[0][name], runs[1][name]
            assert a.bin_width > 0
            assert a.bin_width == b.bin_width
            assert np.array_equal(a._counts, b._counts)
            for eps in (1e-1, 1e-2, 1e-3):
                assert a.quantile(eps) == b.quantile(eps)

    def test_pool_sized_to_replications(self, monkeypatch):
        # a stand-in pool records its size and runs jobs inline: no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
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
            def __init__(self, max_workers):
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
        # limit of 3,999: delay switches to a histogram at replication 1, the
        # peak metrics at replication 2, and 3 and 4 are binned where they run.
        # With seed 11, replication 2 holds every metric's largest sample so
        # far, so edges that missed it, or delay edges set anew at
        # replication 2, would differ from the reference.
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        n, burn_in, reps, limit, seed = 2_001, 1, 5, 3_999, 11
        ref = [EmpiricalTail(raw_limit=limit) for _ in range(3)]
        for r in range(reps):
            for tail, x in zip(ref, _simulate_one(scenario, n, seed, r, burn_in)):
                if r == 2:
                    assert x.max() > tail._max
                tail.add(x)
        for workers in (1, 2):
            got = run_replications(
                scenario, n, reps, seed, burn_in=burn_in, workers=workers, raw_limit=limit
            ).by_name().values()
            for a, b in zip(got, ref):
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
        # second replication switches the tails to histograms. No result
        # carries a sample array: every replication hands its samples over as
        # a file, which the tails hold as read-only mappings until the switch
        # bins them, and the parent bins the later ones as a serial run does
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run = functools.partial(
            run_replications, scenario, 150_000, 4, 3, burn_in=1_000, raw_limit=200_000
        )
        serial = run(workers=1)
        sizes, switched = {}, []

        class InlinePool:
            def __init__(self, max_workers):
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
        assert switched == [[True, True]] * 3
        for name, tail in pooled.by_name().items():
            ref = serial.by_name()[name]
            assert tail.bin_width > 0
            assert np.array_equal(tail._counts, ref._counts)
            assert (tail.n_samples, tail._min, tail._max, tail.bin_width) == (
                ref.n_samples, ref._min, ref._max, ref.bin_width
            )

    def test_pooled_raw_tails_match_serial(self):
        # 3 x 19,000 samples per metric stay below the raw limit: the pooled
        # tails hold the mapped files until the first query sorts them into
        # an array of their own
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        serial = run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=1)
        pooled = run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=2)
        for name, tail in pooled.by_name().items():
            ref = serial.by_name()[name]
            mapped = list(tail._chunks)
            assert len(mapped) == 3 and all(_file_backed(x) for x in mapped)
            assert tail.bin_width == 0 and tail.n_samples == ref.n_samples
            for eps in (1e-1, 1e-2, 1e-3):
                assert tail.quantile(eps) == ref.quantile(eps)
            assert len(tail._chunks) == 1 and tail._chunks[0].flags.owndata
            assert not any(np.shares_memory(tail._chunks[0], x) for x in mapped)
            assert np.array_equal(tail._sorted_samples(), ref._sorted_samples())
            for x in (2.0, 10.0, float(np.median(mapped[0]))):
                assert tail.exceed_fraction(x) == ref.exceed_fraction(x)

    def test_no_file_outlives_a_run(self, monkeypatch, tmp_path):
        # the writer is looked up in the module when a worker runs, so a
        # patch made before the pool forks reaches the workers
        tmp, seen = tmp_path / "tmp", tmp_path / "seen"
        tmp.mkdir()
        seen.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run_replications(scenario, 20_000, 3, 5, burn_in=1_000, workers=2)
        assert list(tmp.iterdir()) == []

        write = simulate._write_samples

        def full_disk_at_0(path, samples):
            (seen / os.path.basename(path)).touch()
            if os.path.basename(path) == "0":
                with open(path, "wb") as f:
                    samples[0][:100].tofile(f)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            write(path, samples)

        monkeypatch.setattr(simulate, "_write_samples", full_disk_at_0)
        n_reps = 40
        with pytest.raises(OSError) as raised:
            run_replications(scenario, 100_000, n_reps, 5, burn_in=1_000, workers=2)
        assert raised.value.errno == errno.ENOSPC
        assert list(tmp.iterdir()) == []
        # replications are submitted at most `workers` ahead of the one the
        # parent waits for, so only those already submitted when replication
        # 0 fails can be simulated
        simulated = {int(p.name) for p in seen.iterdir()}
        assert 0 in simulated and n_reps - 1 not in simulated
        assert len(simulated) <= 2 + 1

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
            t, a, f = _simulate_one(scenario, n, 99, 0, burn_in=0, chunk=1_024)

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

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
    _BLOCK,
    _CHUNK,
    _COUNT_BLOCK,
    _SCAN_BLOCK,
    _STORE,
    STREAM_EVENTS,
    STREAM_SERVICE,
    _fifo_chunk,
    _simulate_to_file,
)
from simulated import arrays, nan_in_second_service_draw, soundness_plan


def _file_backed(x):
    """Whether x is a slice of a file opened read-only whose name is gone."""
    if not isinstance(x, simulate._FileSlice):
        return False
    read_only = fcntl.fcntl(x._fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY
    return read_only and os.fstat(x._fd).st_nlink == 0


def _filed(x):
    """The samples of x in a new file under TMPDIR, as the (path, length,
    min, max) record a replication returns for it, with nan-keeping
    extremes."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    fd, path = tempfile.mkstemp()
    with open(fd, "wb", buffering=0) as f:
        simulate._append(f, x)
    return path, len(x), float(np.min(x)), float(np.max(x))


def _raw(samples):
    """A raw tail of the samples, given in one file."""
    tail = EmpiricalTail()
    tail.add(_filed(samples))
    return tail


def _read(s):
    """All the samples of a file slice, in an array."""
    return s.read_into(0, np.empty(len(s)))


BIG = float(np.finfo(np.float64).max)  # the largest finite sample


def _state(tail):
    """All that an add may change of an EmpiricalTail."""
    return tail.n_samples, tail._min, tail._max, [id(c) for c in tail._chunks]


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
    def test_hand_example(self, monkeypatch):
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
            for chunk in (4, _CHUNK):
                monkeypatch.setattr(simulate, "_CHUNK", chunk)
                delay, aoi, doi = arrays(scenario, 6, 0, 0, burn_in=0)
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

    def test_rejects_samples_that_are_not_finite(self):
        # a nan, +inf or -inf sample in a record's file, or a record that
        # gives one as an extreme of finite samples, after one add and after
        # two: the check reads the record, not the file, and add unlinks the
        # file all the same and raises before it changes the tail, which
        # answers as it did
        tail = EmpiricalTail()

        def state():
            return _state(tail), tail.quantiles([1.0, 0.5, 0.1]), tail.exceed_fraction(300.5)

        for _ in range(2):
            tail.add(_filed(np.arange(1.0, 601.0)))
            before = state()
            for bad in (math.nan, math.inf, -math.inf):
                for size in (2, 500):
                    x = np.arange(float(size))
                    path, n, lo, hi = _filed(x)
                    x[size // 2] = bad
                    given = (path, n, bad, hi) if bad < math.inf else (path, n, lo, bad)
                    for record in (_filed(x), given):
                        with pytest.raises(ValueError, match="finite"):
                            tail.add(record)
                        assert state() == before
                        assert not os.path.exists(record[0])

    def test_raw_tail_keeps_the_chunks_it_was_given(self, tmp_path):
        # a tail opens and unlinks the file of each record it is given and
        # answers from those files themselves: a query copies, sorts and
        # writes none of them
        first = np.random.default_rng(31).exponential(1.0, 100_000)
        parts = [first[:40_000], first[40_000:]]
        tail = EmpiricalTail()
        for k, p in enumerate(parts):
            path = str(tmp_path / str(k))
            p.tofile(path)
            tail.add((path, len(p), float(p.min()), float(p.max())))
        assert list(tmp_path.iterdir()) == []
        slices = list(tail._chunks)
        assert len(slices) == 2 and all(_file_backed(x) for x in slices)
        ordered = np.sort(first)
        eps_values = (1.0, 0.5, 1e-1, 1e-2, 1e-3)
        expected = [ordered[max(len(ordered) - 1 - round(eps * len(ordered)), 0)]
                    for eps in eps_values]
        assert tail.quantiles(eps_values) == [tail.quantile(eps) for eps in eps_values] == expected
        assert tail._chunks == slices and not os.listdir(tmp_path)
        assert np.array_equal(np.concatenate([_read(x) for x in slices]), first)
        assert tail.exceed_fraction(2.0) == np.count_nonzero(first > 2.0) / len(first)

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
        shape=st.sampled_from(("shuffled", "shuffled", "sorted", "reversed", "periodic",
                               "two-valued", "all-equal", "signed-zeros", "tiny", "huge")),
        order=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 5_000), max_size=4),
        eps=st.lists(st.floats(1e-6, 1.0), max_size=4),
        block=st.sampled_from((16, 256, _SCAN_BLOCK)),
        budget=st.sampled_from(((64, 32, 1.0), (512, 64, 0.0), (1 << 16, 1 << 13, 3.0))),
    )
    def test_raw_queries_match_a_sort(self, values, repeat, bulk, shape, order, cuts, eps,
                                      block, budget):
        # random multisets of finite samples with ties, ±0 and the largest
        # floats, plus a bulk of mostly distinct samples, shuffled or
        # sorted either way; or as many samples in a period of the values, unshuffled,
        # as a deterministic scenario's delays, half and half two values,
        # one value or ±0; or the two samples [1e-321, 0.0] or [1e308, 1.0].
        # Cut into files, every quantile, alone or in a batch, is an order
        # statistic of np.sort's, and every exceedance fraction the
        # searchsorted count above the point. Blocks of 16 and 256 samples,
        # a gather budget of 64 or 512 samples, a first subsample of 32 or
        # 64 and pivots 0 or 1 deviation from their rank take the selection
        # through several rounds, gathers that overflow, pivots that miss
        # their rank and pivots tied with it; the default budget takes every
        # input, two samples or thousands, through the same rounds
        rng = np.random.default_rng(order)
        x = np.concatenate((np.repeat(np.array(values), repeat),
                            np.round(rng.standard_normal(bulk), 3)))
        x = {
            "shuffled": rng.permutation(x),
            "periodic": np.resize(values, len(x)),
            "sorted": np.sort(x),
            "reversed": np.sort(x)[::-1].copy(),
            "two-valued": rng.permutation(np.resize([1.0, 2.0], len(x))),
            "all-equal": np.full(len(x), 3.25),
            "signed-zeros": rng.permutation(np.resize([0.0, -0.0], len(x))),
            "tiny": np.array([1e-321, 0.0]),
            "huge": np.array([1e308, 1.0]),
        }[shape]
        n = len(x)
        s = np.sort(x)
        tail = EmpiricalTail()
        for part in np.split(x, sorted(c % (n + 1) for c in cuts)):
            if len(part):
                tail.add(_filed(part))
        # below 1/n, the largest; near 1, the second and sixth smallest,
        # ranks below n/2, whose pivots may start at the lowest sample
        eps_values = [1.0, 0.5, 0.5 / n, 1.0 / n, min(5.5 / n, 1.0), 0.05]
        eps_values += [max((n - k) / n, 0.5 / n) for k in (1.5, 5.5)] + eps

        def expected(eps_values):
            return [s[max(n - 1 - math.floor(e * n + 1e-9), 0)] for e in eps_values]

        gather, subsample, deviations = budget
        # a rank among the lowest n / subsample samples: its first lower
        # pivot is -inf, below every subsample point
        eps_values.append(1.0 - 0.5 / subsample)
        with mock.patch.multiple(simulate, _SCAN_BLOCK=block, _GATHER=gather,
                                 _SUBSAMPLE=subsample, _DEVIATIONS=deviations), \
                warnings.catch_warnings():
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

    def test_ties_with_the_lowest_pivot_are_counted_not_sorted(self, monkeypatch):
        # a tail of one value, as a deterministic scenario's delays, or of
        # two with both ranks at the larger: every sample at the lowest pivot
        # is counted, and the passes sort none
        sizes, above = [], simulate._sorted_above

        def recording(x, low, out, mask):
            s, below, ties = above(x, low, out, mask)
            sizes.append(len(s))
            return s, below, ties

        monkeypatch.setattr(simulate, "_sorted_above", recording)
        n = 200_000
        for x in (np.full(n, 4.0), np.resize([1.0, 4.0], n)):
            sizes.clear()
            assert _raw(x).quantiles([1e-3, 0.25]) == [4.0, 4.0]
            assert sizes and sum(sizes) == 0

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

    def test_nonincreasing_quantiles(self):
        rng = np.random.default_rng(2)
        tail = _raw(rng.exponential(1.0, 10_000))
        qs = [tail.quantile(e) for e in (1e-3, 1e-2, 0.1, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("stage", ["raw", "raw-with-ties", "later-add"])
    def test_file_backed_tail_answers_as_in_memory(self, tmp_path, stage):
        # samples given as files: each answer is that of a sort and a search
        # of all the samples in memory, bit for bit, before and after a
        # later add
        rng = np.random.default_rng(41)
        special = [0.0, -0.0, -1e300, 1e300]
        # ties just below the maximum, among the ranks that quantiles select
        special += [1e300] * 3 if stage == "raw-with-ties" else []
        special += [BIG]
        parts = [np.round(rng.exponential(1.0, 1_500), 2) for _ in range(3)]
        parts[0] = np.concatenate((parts[0][:700], special, parts[0][700:]))
        tail = EmpiricalTail()

        def add(k):
            path = str(tmp_path / str(k))
            parts[k].tofile(path)
            tail.add((path, len(parts[k]), float(parts[k].min()), float(parts[k].max())))

        def answers(eps_values, points):
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
            assert answers(eps_values, points) == np.array(expected).tobytes()

        add(0)
        add(1)
        check(2)
        if stage == "later-add":
            add(2)
            check(3)

    def test_first_query_keeps_no_sample_in_memory(self):
        # a tail keeps its samples in files, and a query reads them into
        # buffers of one fixed size at any epsilon, within 1 MiB, of which
        # none keeps anything once it returns
        n = 1_000_000
        for eps in (0.5, 1e-1, 1e-3):
            tracemalloc.start()
            try:
                tail = EmpiricalTail()
                for seed in (1, 2):
                    tail.add(_filed(np.random.default_rng(seed).exponential(1.0, n // 2)))
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tail.quantile(eps)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert before < 1 << 16
            assert peak - before <= 1 << 20, eps
            assert held - before < 1 << 16

    def test_raw_query_writes_no_file(self, tmp_path):
        # with a file size limit of 0 set once the tail holds its samples,
        # in two files, a child process's raw queries
        # answer as they do without the limit, each rank found by selection,
        # and no file appears under TMPDIR
        pytest.importorskip("resource")
        code = (
            "import os, resource, signal, sys\n"
            "import numpy as np\n"
            "from agecalc import EmpiricalTail, simulate\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "x = np.random.default_rng(3).exponential(1.0, 100_000)\n"
            "tail = EmpiricalTail()\n"
            "for k, y in enumerate((x[:60_000], x[60_000:])):\n"
            "    with open(sys.argv[1] + str(k), 'wb', buffering=0) as f:\n"
            "        simulate._append(f, y)\n"
            "    tail.add((sys.argv[1] + str(k), len(y), float(y.min()), float(y.max())))\n"
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

    @pytest.mark.parametrize(
        "times",
        [[1.0, math.inf], [1.0, math.nan], [5.0, 1.0, 3.0],
         # the anchor at time 1024 precedes the one at time 0; the times
         # between anchors are in order
         np.r_[np.arange(1.0, 1025.0), 0.5, np.arange(1026.0, 1500.0)]],
        ids=["inf-last", "nan-last", "decreasing", "decreasing-anchor"],
    )
    def test_count_upto_rejects_times_it_cannot_count(self, times):
        # an infinite last time would draw without end, a nan one counted
        # nothing, and decreasing times got counts that are not a search's
        # ([9, 9, 9] for [5, 1, 3]); each raises before an event is drawn
        stream = EventStream(Exponential(1.0), 1)
        with pytest.raises(ValueError, match="finite|nondecreasing"):
            stream.count_upto(np.array(times))
        assert stream._drawn() == 0
        ok = np.array([1.0, 3.0, 5.0])
        assert np.array_equal(stream.count_upto(ok), EventStream(Exponential(1.0), 1).count_upto(ok))

    def test_take_rejects_a_negative_count(self):
        stream = EventStream(Exponential(1.0), 1)
        with pytest.raises(ValueError, match="negative"):
            stream.take(0, -3)
        assert len(stream.take(0, 0)) == 0

    def test_discard_past_generated_events_raises(self):
        stream = EventStream(Exponential(1.0), 5)
        stream.take(0, 10)
        generated = _BLOCK  # a take of fewer events grows the stream by one block
        stream.discard(generated)
        with pytest.raises(ValueError, match="generated"):
            stream.discard(generated + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from((Exponential(1.0), Deterministic(0.5), Erlang(3, 1.5))),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("take"), st.tuples(
                    st.integers(0, _BLOCK), st.integers(0, 3 * _BLOCK // 2))),
                st.tuples(st.just("count"), st.lists(
                    st.floats(0, 2e5) | st.integers(0, 400_000).map(lambda i: i / 2),
                    max_size=8,
                )),
                st.tuples(st.just("reserve"), st.integers(0, 4 * _BLOCK)),
                st.tuples(st.just("discard"), st.integers(0, 3 * _BLOCK)),
            ),
            max_size=20,
        ),
        draw=st.sampled_from((61, 1_000, simulate._DRAW)),
        store=st.sampled_from((16, simulate._STORE)),
    )
    def test_interleaved_queries_match_searchsorted(self, model, seed, ops, draw, store):
        # the blocks are drawn lazily, in draws of at most `draw` events for
        # a count, into a store of at least `store`: every take returns, bit
        # for bit, the events of a stream that draws each block it adds
        # whole, and every count is a search of them. Half-integer times tie
        # with the deterministic events, whose sums are exact
        blocks = []

        class Recording(EventStream):
            def reserve(self, count):
                added = len(self._undrawn)
                super().reserve(count)
                if len(self._undrawn) > added:
                    blocks.append(self._undrawn[-1])

        stream = Recording(model, seed)
        # discarded: events 1 ... discarded are gone, the last at time
        # floor; known: events up to this index have been generated (taken,
        # counted or reserved)
        discarded, floor, known, answers = 0, 0.0, 0, []
        with mock.patch.multiple(simulate, _DRAW=draw, _STORE=store):
            for op, arg in ops:
                if op == "take":
                    offset, k = arg
                    start = discarded + offset
                    answers.append((op, start, stream.take(start, k).copy()))
                    known = max(known, start + k)
                elif op == "count":
                    times = np.sort(np.maximum(np.array(arg, dtype=np.float64), floor))
                    answers.append((op, times, stream.count_upto(times)))
                    known = max(known, int(answers[-1][2].max(initial=0)))
                elif op == "reserve":
                    stream.reserve(arg)
                    known = max(known, arg)
                else:
                    count = min(arg, known)
                    if count > discarded:
                        floor = float(stream.take(count - 1, 1)[0])
                        discarded = count
                    stream.discard(count)
        # the same blocks, each drawn whole: base + cumsum(draws)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        full, base = [np.empty(0)], 0.0
        for k in blocks:
            full.append(base + np.cumsum(model.sample(rng, k)))
            base = float(full[-1][-1])
        full = np.concatenate(full)
        for op, arg, got in answers:
            if op == "take":
                assert got.tobytes() == full[arg:arg + len(got)].tobytes()
            else:
                expected = np.searchsorted(full, arg, side="right")
                assert got.dtype == expected.dtype and np.array_equal(got, expected)

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
        first = stream.take(0, _STORE - 10)
        kept = first.copy()
        assert np.array_equal(first, EventStream(Exponential(1.0), 8).take(0, _STORE - 10))
        # the discard leaves no event to move, so the next draw lands at the
        # front of the store, where the discarded events were: a view kept
        # across calls changes, which is why EventTriggered.arrivals copies
        stream.discard(_STORE - 10)
        second = stream.take(_STORE - 10, _STORE)
        assert np.shares_memory(first, second)
        assert not np.array_equal(first, kept)
        # update _STORE // 2 arrives with event _STORE, past the discard
        arrivals = EventTriggered(2).arrivals(stream, _STORE // 2, 10)
        assert not np.shares_memory(arrivals, stream._store)

    def test_discard_moves_an_overlapping_window_in_place(self):
        # a backlog longer than the events discarded: the survivors move to
        # the front of the store over themselves, through no buffer, and
        # every later take and count reads the events of whole-block draws
        # bit for bit, before and after the store grows
        model, seed = Exponential(1.0), 4
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        full, base = [], 0.0
        for k in (_STORE, _BLOCK, _BLOCK, _BLOCK):
            full.append(base + np.cumsum(model.sample(rng, k)))
            base = float(full[-1][-1])
        full = np.concatenate(full)

        def counts_match(lo, hi):
            # every 997th event time, a tie, and the midpoints after them
            ties = full[lo:hi:997]
            times = np.sort(np.r_[ties, (ties[:-1] + full[lo + 1:hi:997][:len(ties) - 1]) / 2])
            expected = np.searchsorted(full, times, side="right")
            return np.array_equal(stream.count_upto(times), expected)

        stream = EventStream(model, seed)
        stream.take(0, _STORE)
        assert _traced_peak(lambda: stream.discard(10)) < 64 << 10
        assert stream.take(10, _STORE - 10).tobytes() == full[10:_STORE].tobytes()
        store = stream._store
        assert counts_match(10, _STORE + _BLOCK + 1_000)
        assert stream._store is not store  # the count's draws outgrew the store
        stream.discard(20)
        assert stream.take(20, 5_000).tobytes() == full[20:5_020].tobytes()
        assert counts_match(20, _STORE + 2 * _BLOCK - 1)
        start = _STORE + 3 * _BLOCK - 50
        assert stream.take(start, 50).tobytes() == full[start:].tobytes()


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
        # stream it replaced, whether a discard moves the window to the
        # front of the store or a draw moves it into a larger one
        moves = set()

        class SpyStream(EventStream):
            def _draw(self, k):
                store = self._store
                super()._draw(k)
                if self._store is not store and len(store):
                    moves.add("reallocate")

            def discard(self, count):
                first = self._first
                super().discard(count)
                if self._first > first and self._hi:
                    moves.add("move")

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
            # an overloaded queue (utilization 2): its departures run ever
            # further past its arrivals, so the store must grow
            (Exponential(1.0), EventTriggered(16), Exponential(1.0 / 32.0), 5_000, n),
            # the chunk every run uses, over three chunks
            (Exponential(0.5), TimeTriggered(13.0), Exponential(0.25), _CHUNK, long),
            (Exponential(0.5), EventTriggered(16), Exponential(0.05), _CHUNK, long),
        ]
        for events, policy, service, chunk, n in cases:
            scenario = Scenario(events, service, policy, 1e-3)
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            got = arrays(scenario, n, 99, 2, burn_in=0)
            ref = _concat_simulate(scenario, n, 99, 2, chunk)
            for x, y in zip(got, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        assert moves == {"reallocate", "move"}
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

    def test_workers_do_not_change_deviation_counts(self):
        # event-triggered, a burn-in past the first chunk and a run that is
        # no multiple of it, 3 x 19,999 peak samples: peak deviation keeps
        # one exact count per value at any worker count, the counts of the
        # reference arrays' deviations
        scenario = Scenario(Exponential(1.0), Exponential(0.25), EventTriggered(8), 1e-3)
        burn_in = _CHUNK + 1_000
        n = burn_in + 20_000
        runs = [
            run_replications(scenario, n, 3, 5, burn_in=burn_in, workers=w)
            for w in (1, 2, 3)
        ]
        deviations = np.concatenate([arrays(scenario, n, 5, r, burn_in)[2] for r in range(3)])
        reference = np.bincount(deviations.astype(np.intp))
        a = runs[0]
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

    def test_pooled_results_are_small(self, monkeypatch):
        # 149,000 samples per metric (1.2 MB) and replication: no result
        # carries a sample array. Every replication hands its delays and
        # peak ages over as a file, which those tails hold as read-only file
        # slices and answer from as a serial run's tails do; the workers
        # count the peak deviations
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        run = functools.partial(run_replications, scenario, 150_000, 4, 3, burn_in=1_000)
        serial = run(workers=1)
        sizes = {}

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

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        pooled = run(workers=2)
        assert sorted(sizes) == [0, 1, 2, 3]
        assert max(sizes.values()) < 64 * 1024
        assert np.array_equal(pooled.peak_doi.counts, serial.peak_doi.counts)
        for name in ("delay", "peak_aoi"):
            tail, ref = pooled.by_name()[name], serial.by_name()[name]
            assert len(tail._chunks) == 4 and all(_file_backed(x) for x in tail._chunks)
            assert (tail.n_samples, tail._min, tail._max) == (ref.n_samples, ref._min, ref._max)
            eps_values = (0.5, 1e-1, 1e-2, 1e-3, 1e-4)
            assert tail.quantiles(eps_values) == ref.quantiles(eps_values)

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
        # the array: they, and the quantiles, are a serial run's bit for bit
        run = functools.partial(run_replications, scenario, 30_000, 4, 3, burn_in=1_000)
        serial = run(workers=1)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        pooled = run(workers=2)
        assert np.array_equal(pooled.peak_doi.counts, serial.peak_doi.counts)
        for name in ("delay", "peak_aoi"):
            tail, ref = pooled.by_name()[name], serial.by_name()[name]
            eps_values = (0.5, 1e-1, 1e-2, 1e-3, 1e-4)
            got = np.array([tail._min, tail._max] + tail.quantiles(eps_values))
            want = np.array([ref._min, ref._max] + ref.quantiles(eps_values))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the kernel's per-process RSS"
    )
    def test_parent_reads_no_page_it_only_stores(self, monkeypatch):
        # 1,000,000 samples (8 MB) per metric and replication: the delay and
        # peak-age tails hold the four replications as file slices they have
        # not read, since the workers report the extremes, so none of those
        # pages is resident; a query reads each array a block at a time into
        # a buffer and maps no page. The file holds no deviation, which the
        # workers count
        array = 8 * 1_000_000
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        warm = run_replications(scenario, 20_000, 4, 3, burn_in=1_000, workers=2)
        warm.delay.quantiles((0.5, 1e-3))
        base = _file_resident_bytes()
        tails = run_replications(scenario, 1_001_000, 4, 3, burn_in=1_000, workers=2)
        rises = [_file_resident_bytes() - base]
        for tail in (tails.delay, tails.peak_aoi):
            tail.quantiles((0.5,) + SIM_EPS)
            tail.exceed_fraction(5.0)
            rises.append(_file_resident_bytes() - base)
        assert max(rises) < array

    def test_pooled_raw_tails_match_serial(self):
        # 3 x 19,000 samples per metric: the delay and peak-age tails of
        # either run hold the replication files, and answer from them,
        # unchanged, query after query; the replications count peak
        # deviation
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
            assert tail.n_samples == ref.n_samples
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
            # the third write of replication 0 is its second piece's delays
            name = os.path.basename(f.name).split(".")[0]
            (seen / name).touch()
            writes[name] += 1
            if name == "0" and writes[name] > 2:
                assert os.path.getsize(f.name) > 0  # the first piece is on disk
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
        # a nan service time makes every later departure of its replication
        # nan: the replication raises at the first, before it counts events
        # at it, so the run raises and leaves no file
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
    def test_file_holds_the_serial_arrays(self, tmp_path, monkeypatch, policy, n, burn_in):
        # chunks of 1,024: each array's file, appended to chunk by chunk,
        # holds the burned-in delay or peak-age array of the chunks
        # _simulate_chunks yields bit for bit, 8 B per update each, the
        # reported extremes are theirs, and the counts are those of the
        # burned-in deviations
        scenario = Scenario(Exponential(0.5), Exponential(1.0), policy, 1e-3)
        monkeypatch.setattr(simulate, "_CHUNK", 1_024)
        delay, aoi, doi = arrays(scenario, n, 99, 1, burn_in)
        path = str(tmp_path / "1")
        records, counts = _simulate_to_file(scenario, n, 99, 1, burn_in, path)
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
        # a file size limit of half a chunk's delay bytes fails the delay
        # write that crosses it part way, as a full disk does: the short
        # write is followed by one that raises, and the OSError carries its
        # errno (ndarray.tofile's has none). The limit is set in a child
        # process, which it alone constrains.
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

    @pytest.mark.parametrize(
        "policy, service",
        [(EventTriggered(16), Exponential(0.25)), (EventTriggered(200), Exponential(0.25)),
         (TimeTriggered(8.0), Exponential(0.25)), (TimeTriggered(200.0), Exponential(0.25)),
         # 2.5 events per update: the update cap, not the events, sets the piece
         (TimeTriggered(2.5), Exponential(0.5)),
         # utilization 0.95: the largest backlog the store holds besides a piece
         (EventTriggered(4), Exponential(1.0 / 3.8))],
        ids=["event-16", "event-200", "time-8", "time-200", "time-2.5", "event-4-u95"],
    )
    def test_working_set_is_bounded(self, tmp_path, policy, service):
        # 2.5 to 200 events per update, three chunks: a replication draws,
        # counts and writes pieces of at most _PIECE updates and about
        # _PIECE_EVENTS events into a store of _STORE events, one piece's
        # window, so its peak stays under 2 MiB at any events per update,
        # where the whole chunk's events took 15 MiB at threshold 16 and
        # 130 MiB at 200, and a store of two windows 2.6 to 3.8 MiB
        scenario = Scenario(Exponential(1.0), service, policy, 1e-3)
        peak = _traced_peak(
            lambda: _simulate_to_file(scenario, 3 * _CHUNK, 5, 0, 1_000, str(tmp_path / "0"))
        )
        assert peak < 2 << 20

    @pytest.mark.parametrize(
        "scenario",
        [pytest.param(scenario, id=label) for label, scenario in soundness_plan()]
        # and time-triggered lambda*w 200, whose pieces of 327 updates leave
        # their window mid-store when the next piece starts
        + [pytest.param(Scenario(Exponential(1.0), Exponential(0.25), TimeTriggered(200.0), 1e-3),
                        id="tt-e-e-lw200")],
    )
    def test_store_never_grows_on_the_dominance_plan(self, monkeypatch, scenario):
        # once a piece's events are discarded only the backlog and the draw
        # ahead stay live, and the discard moves them to the front, so each
        # piece's window fits the store of _STORE events
        sizes = set()

        class SpyStream(EventStream):
            def _draw(self, k):
                super()._draw(k)
                sizes.add(len(self._store))

        monkeypatch.setattr(simulate, "EventStream", SpyStream)
        for _ in simulate._simulate_chunks(scenario, 3 * _CHUNK, 11, 0):
            pass
        assert sizes == {_STORE}

    @pytest.mark.parametrize(
        "events, policy, service, n",
        [
            (Exponential(0.5), TimeTriggered(13.0), Exponential(0.25), 2_600),
            (Deterministic(2.0), TimeTriggered(3.0), Deterministic(1.5), 2_600),
            (Erlang(3, 1.5), TimeTriggered(7.0), Erlang(2, 0.5), 2_600),
            (Exponential(1.0), EventTriggered(16), Exponential(0.05), 2_600),
            (Deterministic(0.5), EventTriggered(3), Exponential(0.5), 2_600),
            (Erlang(3, 1.5), EventTriggered(5), Deterministic(3.0), 2_600),
            # utilization 0.95: departures run past the event block of
            # their chunk well before its last update
            (Exponential(1.0), EventTriggered(4), Exponential(1.0 / 3.8), 3_000),
        ],
    )
    def test_piece_sizes_change_no_byte(self, tmp_path, monkeypatch, events, policy,
                                        service, n):
        # pieces of 7 updates or 50 events, counts that draw 13 events at a
        # time into a store that must move and grow, against the default
        # pieces, over chunks of 1,000 updates and blocks of 512 events:
        # the arrays, the files, their extremes and the deviation counts
        # are the same bytes
        scenario = Scenario(events, service, policy, 1e-3)
        monkeypatch.setattr(simulate, "_BLOCK", 512)
        monkeypatch.setattr(simulate, "_CHUNK", 1_000)
        runs = []
        for limits in ((simulate._PIECE, simulate._PIECE_EVENTS, simulate._DRAW, simulate._STORE),
                       (7, 50, 13, 64)):
            with mock.patch.multiple(simulate, **dict(zip(("_PIECE", "_PIECE_EVENTS", "_DRAW",
                                                            "_STORE"), limits))):
                got = list(arrays(scenario, n, 99, 3, burn_in=0))
                path = str(tmp_path / str(len(runs)))
                records, counts = _simulate_to_file(scenario, n, 99, 3, 100, path)
            for name, *shape in records:
                with open(name, "rb") as f:
                    got += [np.frombuffer(f.read()), np.array(shape)]
            runs.append(got + [counts])
        for x, y in zip(*runs):
            assert x.tobytes() == y.tobytes()
        if n == 3_000:
            # deviation j counts the events up to update j + 2's departure
            # less the alpha * (j + 1) its own update sampled: in each chunk
            # an update before the last departs past the chunk's last event
            alpha = int(policy.threshold)
            reach = runs[0][2] + alpha * np.arange(1, n)
            for end in (1_000, 2_000):
                assert reach[:end - 2].max() > alpha * end

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
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            metrics[chunk] = arrays(scenario, n, 11, 3, burn_in=0)
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

    def test_rejects_an_unstable_queue_before_it_runs(self, monkeypatch):
        # utilization 2 and exactly 1: the backlog grows without end, so no
        # replication is simulated
        monkeypatch.setattr(simulate, "_simulate_to_file", None)
        for service in (Exponential(1.0 / 32.0), Deterministic(16.0)):
            scenario = Scenario(Exponential(1.0), service, EventTriggered(16), 1e-3)
            with pytest.raises(ValueError, match="utilization %g >= 1" % scenario.utilization):
                run_replications(scenario, 3_000, 1, 1, burn_in=100)

    def test_rejects_negative_burn_in(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        with pytest.raises(ValueError, match="burn_in"):
            run_replications(scenario, 3_000, 1, 1, burn_in=-5)

    def test_chunked_path_matches_operation_path(self, monkeypatch):
        # the streaming path, in chunks shorter than the run, against a brute
        # force over the same streams: the FIFO recursion
        # D(n) = max(A(n), D(n-1)) + L(n) as a loop, and event counts by one
        # search over the whole event array
        n = 5_000
        monkeypatch.setattr(simulate, "_CHUNK", 1_024)
        for policy in (EventTriggered(3), TimeTriggered(2.0)):
            scenario = Scenario(Exponential(0.5), Exponential(1.0), policy, 1e-3)
            t, a, f = arrays(scenario, n, 99, 0, burn_in=0)

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

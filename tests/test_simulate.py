import math
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecalc import (
    Deterministic,
    EmpiricalTail,
    EventStream,
    EventStreamExhausted,
    EventTriggered,
    Exponential,
    InsufficientSamples,
    Scenario,
    TimeTriggered,
    UpdateTrace,
    derive_rng,
    empirical_quantile,
    exact_mm1_tail,
    fifo_service,
    generate_arrivals,
    model_mean,
    peak_metrics,
    run_replications,
)
from agecalc import simulate
from agecalc.simulate import STREAM_EVENTS, STREAM_SERVICE, _simulate_one


class TestGenerateArrivals:
    def test_time_triggered_synchronized_deterministic(self):
        events = EventStream(Deterministic(2.0), 1)
        trace = generate_arrivals(TimeTriggered(2.0), events, 6)
        assert np.allclose(trace.arrivals, [2, 4, 6, 8, 10, 12])
        # an event exactly at the sampling instant is counted
        assert np.array_equal(trace.sampled_counts, [1, 2, 3, 4, 5, 6])

    def test_event_triggered_counts_exact(self):
        events = EventStream(Exponential(1.0), 5)
        trace = generate_arrivals(EventTriggered(3), events, 4)
        assert np.array_equal(trace.sampled_counts, [3, 6, 9, 12])

    def test_count_by_brute_force(self):
        trace = generate_arrivals(TimeTriggered(5.0), np.array([1.0, 2.0, 9.0]), 1)
        assert trace.sampled_counts[0] == 2

    def test_event_triggered_needs_enough_events(self):
        with pytest.raises(EventStreamExhausted):
            generate_arrivals(EventTriggered(3), np.array([1.0, 2.0, 3.0, 4.0]), 2)

    def test_capped_stream_raises(self):
        events = EventStream(Exponential(1.0), 5, max_events=10)
        with pytest.raises(EventStreamExhausted):
            generate_arrivals(EventTriggered(4), events, 3)


class TestFifoService:
    def test_no_queueing(self):
        trace = UpdateTrace(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        fifo_service(trace, Deterministic(1.0), 0)
        assert np.allclose(trace.departures, [2, 3, 4])

    def test_queue_buildup(self):
        trace = UpdateTrace(np.array([1.0, 1.1, 1.2]), np.zeros(3))
        fifo_service(trace, Deterministic(2.0), 0)
        assert np.allclose(trace.departures, [3, 5, 7])

    def test_deterministic_system_delay(self):
        w, l = 6.0, 4.0
        trace = UpdateTrace(w * np.arange(1, 11), np.zeros(10))
        fifo_service(trace, Deterministic(l), 0)
        assert np.allclose(trace.departures - trace.arrivals, l)

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
            from agecalc.simulate import _fifo_chunk

            got, _, _ = _fifo_chunk(arrivals, service, 0.0, -math.inf)
            assert np.allclose(got, dep)
            assert np.allclose(got, brute)


class TestPeakMetrics:
    def test_hand_example(self):
        trace = UpdateTrace(np.array([2.0, 4.0]), np.array([1, 2]))
        trace.departures = np.array([3.0, 5.0])
        delay, aoi, doi = peak_metrics(trace, np.array([1.0, 2.5, 4.5]))
        assert np.allclose(delay, [1.0, 1.0])
        assert np.allclose(aoi, [3.0])
        assert np.array_equal(doi, [2])

    def test_deterministic_everything(self):
        w, l = 6.0, 4.0
        events = EventStream(Deterministic(2.0), 0)
        trace = generate_arrivals(TimeTriggered(w), events, 50)
        fifo_service(trace, Deterministic(l), 0)
        delay, aoi, doi = peak_metrics(trace, events)
        assert np.allclose(delay, l)
        assert np.allclose(aoi, l + w)

    def test_event_triggered_floor_and_order(self):
        events = EventStream(Exponential(0.5), 11)
        trace = generate_arrivals(EventTriggered(4), events, 400)
        fifo_service(trace, Exponential(0.3), 12)
        delay, aoi, doi = peak_metrics(trace, events)
        assert (doi >= 4).all()
        assert (aoi >= delay[1:]).all()
        assert (trace.departures >= trace.arrivals).all()
        assert (np.diff(trace.departures) >= 0).all()
        # count consistency along the trace
        assert (trace.departure_counts[1:] >= trace.sampled_counts[1:]).all()

    def test_requires_departures(self):
        trace = UpdateTrace(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            peak_metrics(trace, np.array([1.0]))


class TestEmpiricalTail:
    def test_quantile_example(self):
        tail = EmpiricalTail.from_samples(np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert empirical_quantile(tail, 0.2) == 8.0

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

    def test_nonincreasing_quantiles(self):
        rng = np.random.default_rng(2)
        tail = EmpiricalTail.from_samples(rng.exponential(1.0, 10_000))
        qs = [tail.quantile(e) for e in (1e-3, 1e-2, 0.1, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))


class TestEventStream:
    def test_mean_inter_event_sanity(self):
        for model in (Exponential(0.5), Deterministic(2.0)):
            stream = EventStream(model, 33)
            times = stream.take(200_000)
            gaps = np.diff(np.concatenate([[0.0], times]))
            se = gaps.std() / math.sqrt(len(gaps)) + 1e-12
            assert abs(gaps.mean() - model_mean(model)) <= 3 * se

    def test_counts_match_brute_force(self):
        stream = EventStream(Exponential(1.0), 4)
        ts = np.array([0.5, 2.0, 7.5, 30.0])
        counts = stream.count_upto(ts)
        # reference: regenerate the same stream and count directly
        ref = EventStream(Exponential(1.0), 4)
        times = ref.take(1000)
        expected = np.searchsorted(times, ts, side="right")
        assert np.array_equal(counts, expected)

    def test_discard_preserves_counts(self):
        stream = EventStream(Exponential(1.0), 4)
        before = stream.count_upto(np.array([10.0, 20.0]))
        stream.discard_through(10.0)
        after = stream.count_upto(np.array([20.0]))
        assert after[0] == before[1]


class TestRunReplications:
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

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

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
        # the streaming production path must agree with the plain
        # generate_arrivals + fifo_service + peak_metrics composition
        for policy in (EventTriggered(3), TimeTriggered(2.0)):
            scenario = Scenario(Exponential(0.5), Exponential(1.0), policy, 1e-3)
            t, a, f = _simulate_one(scenario, 5_000, 99, 0, burn_in=0, chunk=1_024)
            events = EventStream(scenario.event_model, derive_rng(99, 0, STREAM_EVENTS))
            trace = generate_arrivals(policy, events, 5_000)
            fifo_service(trace, scenario.service_model, derive_rng(99, 0, STREAM_SERVICE))
            t2, a2, f2 = peak_metrics(trace, events)
            assert np.allclose(t, t2, rtol=1e-9, atol=1e-9)
            assert np.allclose(a, a2, rtol=1e-9, atol=1e-9)
            assert np.array_equal(f, f2)

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

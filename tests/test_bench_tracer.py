"""The benchmark's tracer (bench/tracer.py) against the program it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

from agecalc import EventStream, Exponential, Scenario, TimeTriggered, simulate

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_binding_it_wraps():
    # Tracer() looks up each wrapped binding by name, so a renamed or
    # deleted entry point (say EventStream.count_upto) raises KeyError here
    t = _load_tracer().Tracer()
    stream = EventStream(Exponential(1.0), 1)
    with t.job():
        stream.take(0, 3)
        stream.count_upto(np.array([1.0]))
    spans = [t.names[i] for i in t.name]
    assert spans.count("simulate.take") == 1 and spans.count("simulate.count_upto") == 1
    # leaving the job restores the unwrapped methods
    assert not hasattr(EventStream.take, "__wrapped__")


def test_tracer_reads_every_tail_of_a_run():
    # the tracer notes each run's tails (their bin widths, 0 for tails that
    # are exact) and derives its per-layer figures from the spans: a tail
    # without `bin_width`, or a figure that no longer computes, fails here
    t = _load_tracer().Tracer()
    scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-2)
    with t.job():
        tails = simulate.run_replications(scenario, 3_000, 2, 1, burn_in=100)
        tails.peak_doi.quantile(0.1)
        # the tracer wraps EmpiricalTail's queries alone
        tails.delay.quantile(0.1)
    metrics = t.layer_metrics()
    # no tail bins a sample
    assert t.tail_stats == [(0, 0.0)]
    assert metrics["simulate.histogram_tails"] == 0.0
    assert metrics["simulate.bin_width"] == 0.0
    assert metrics["simulate.tail_add_s"] > 0 and metrics["simulate.tail_query_s"] > 0

"""The benchmark's tracer (bench/tracer.py) against the program it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

from agecalc import EventStream, Exponential

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

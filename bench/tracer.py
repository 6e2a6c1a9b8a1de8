"""Spans and work counts recorded around agecalc's public entry points.

The program itself is not instrumented. While `Tracer.job()` is open,
each entry point in `Tracer._entry_points()` is swapped, at every place a
caller looks it up, for a wrapper that records a span (name, start, end,
parent) and, for some entries, a work count; leaving the block restores
the originals. Spans stay in memory and are written out once, by `save`, when
the run ends. A span's self time is its duration minus the time its child
spans cover.

Worker processes of `run_replications(..., workers > 1)` are forked with the
wrappers in place, but their spans never reach the parent. On tails-cli the
sampling, event-counting and FIFO spans are therefore invisible, and
`simulate.pool_wait_s` is the time the parent spends in `run_replications`
outside its own `EmpiricalTail.add` calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from agecalc import bounds, cli, simulate, sweeps

Measure = Optional[Callable[[tuple, dict, object], float]]


@contextlib.contextmanager
def _swapped(replacements: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each (owner, attribute) to its replacement; restore on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _rows_from_bound(args, kwargs, result) -> float:
    return float(sum(1 for r in args[0] if r.source == "bound"))


def _len_result(args, kwargs, result) -> float:
    return float(len(result))


_RR_SIGNATURE = inspect.signature(simulate.run_replications)


def _replication_size(args, kwargs) -> Tuple[int, int]:
    """(n_updates, n_reps) of a run_replications call."""
    bound = _RR_SIGNATURE.bind(*args, **kwargs)
    return bound.arguments["n_updates"], bound.arguments["n_reps"]


class Tracer:
    """In-memory span table; one root span per traced job."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self.tail_stats: List[Tuple[int, float]] = []  # (histogram tails, delay bin width)
        self.job_walls: List[float] = []
        self._replacements = self._wrap_all()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, measure: Measure) -> Callable:
        nid, open_, close, value = self._id(name), self._open, self._close, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if measure is not None:
                value[sid] = measure(args, kwargs, result)
            return result

        return traced

    def _note_tails(self, args, kwargs, result) -> float:
        widths = [t.bin_width for t in result.by_name().values()]
        self.tail_stats.append((sum(1 for w in widths if w > 0), result.delay.bin_width))
        n_updates, n_reps = _replication_size(args, kwargs)
        return float(n_updates * n_reps)

    def _entry_points(self) -> List[Tuple[str, List[Tuple[object, str]], Measure]]:
        """(span name, the bindings callers look it up through, work count)."""
        tail, stream = simulate.EmpiricalTail, simulate.EventStream
        return [
            ("models.sample", [(simulate, "sample")], _len_result),
            ("envelopes.envelope_set", [(bounds, "envelope_set")], None),
            ("bounds.optimize_theta",
             [(bounds, "optimize_theta"), (sweeps, "optimize_theta")], None),
            ("simulate.take", [(stream, "take")], None),
            ("simulate.count_upto", [(stream, "count_upto")], None),
            ("simulate.fifo", [(simulate, "_fifo_chunk")], None),
            ("simulate.tail_add", [(tail, "add")], None),
            ("simulate.tail_query", [(tail, "quantile"), (tail, "exceed_fraction")], None),
            ("simulate.run_replications",
             [(simulate, "run_replications"), (sweeps, "run_replications")], self._note_tails),
            ("sweeps.bound_rows", [(sweeps, "bound_rows"), (cli, "bound_rows")], _len_result),
            ("sweeps.simulation_rows",
             [(sweeps, "simulation_rows"), (cli, "simulation_rows")], None),
            ("sweeps.best_event_threshold", [(sweeps, "best_event_threshold")], None),
            ("sweeps.best_update_interval", [(sweeps, "best_update_interval")], None),
            ("cli.main", [(cli, "main")], None),
            ("cli.parse_config", [(cli, "parse_config")], None),
            ("cli.render_csv", [(cli, "render_csv")], _rows_from_bound),
        ]

    def _wrap_all(self) -> List[Tuple[object, str, Callable]]:
        # A function bound in two places gets one wrapper set at both.
        replacements = []
        for name, bindings, measure in self._entry_points():
            wrappers: Dict[int, Callable] = {}
            for owner, attr in bindings:
                fn = vars(owner)[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, measure)
                replacements.append((owner, attr, wrappers[id(fn)]))
        return replacements

    @contextlib.contextmanager
    def job(self) -> Iterator[None]:
        """Trace one job: entry points wrapped, under a root span named `job`."""
        with _swapped(self._replacements):
            sid = self._open(self._id("job"))
            try:
                yield
            finally:
                self._close(sid)
                self.job_walls.append(self.end[sid] - self.start[sid])

    def save(self, path: Path) -> None:
        """Write the span table: names, and per span name id, parent, start, end, value."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), value=np.asarray(self.value),
        )

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures per traced job (times in seconds)."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        value = np.asarray(self.value)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = name[parent[has_parent]]

        def nid(span: str) -> int:
            return self._ids.get(span, -2)

        def mask(span: str) -> np.ndarray:
            return name == nid(span)

        jobs = mask("job")
        n_jobs = max(int(jobs.sum()), 1)

        def total(span: str) -> float:
            return float(dur[mask(span)].sum()) / n_jobs

        def own(span: str) -> float:
            return float(self_time[mask(span)].sum()) / n_jobs

        def count(span: str) -> float:
            return float(mask(span).sum()) / n_jobs

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        opt = dur[mask("bounds.optimize_theta")] * 1e6
        samples = mask("models.sample")
        event_samples = samples & (
            (parent_name == nid("simulate.take")) | (parent_name == nid("simulate.count_upto")))
        updates = float(value[mask("simulate.run_replications")].sum())
        merge_adds = mask("simulate.tail_add") & (parent_name == nid("simulate.run_replications"))
        built = float(value[mask("sweeps.bound_rows")].sum())
        emitted = float(value[mask("cli.render_csv") & (parent_name == nid("cli.main"))].sum())
        top_level = has_parent & (parent_name == nid("job"))
        job_time = float(dur[jobs].sum())
        hist = [h for h, _ in self.tail_stats]
        widths = [w for _, w in self.tail_stats]
        return {
            "models.sample_s": total("models.sample"),
            "models.sample_values": float(value[samples].sum()) / n_jobs,
            "envelopes.envelope_set_calls": count("envelopes.envelope_set"),
            "envelopes.envelope_set_s": total("envelopes.envelope_set"),
            "bounds.optimize_theta_calls": count("bounds.optimize_theta"),
            "bounds.optimize_theta_s": total("bounds.optimize_theta"),
            "bounds.optimize_theta_p50_us": float(np.percentile(opt, 50)) if len(opt) else 0.0,
            "bounds.optimize_theta_p99_us": float(np.percentile(opt, 99)) if len(opt) else 0.0,
            "bounds.evals_per_call": ratio(count("envelopes.envelope_set"),
                                           count("bounds.optimize_theta")),
            "simulate.count_upto_s": own("simulate.count_upto"),
            "simulate.take_s": own("simulate.take"),
            "simulate.events_per_update": ratio(float(value[event_samples].sum()), updates),
            "simulate.fifo_s": total("simulate.fifo"),
            "simulate.tail_add_s": total("simulate.tail_add"),
            "simulate.tail_query_s": total("simulate.tail_query"),
            "simulate.histogram_tails": float(max(hist)) if hist else 0.0,
            "simulate.bin_width": float(max(widths)) if widths else 0.0,
            "simulate.replications_s": total("simulate.run_replications"),
            "simulate.pool_wait_s": total("simulate.run_replications")
            - float(dur[merge_adds].sum()) / n_jobs,
            "sweeps.bound_rows_s": total("sweeps.bound_rows"),
            "sweeps.rows_kept_ratio": ratio(emitted, built),
            "cli.parse_config_s": total("cli.parse_config"),
            "cli.render_csv_s": total("cli.render_csv"),
            "uncovered_share": ratio(job_time - float(dur[top_level].sum()), job_time),
        }

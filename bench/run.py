#!/usr/bin/env python3
"""agecalc benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload {dominance,design,tails-cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from its `src/`.
The workload's job is built from the seed, then run again and again, each
job starting when the previous one returned, until another job would not
end within --seconds (at least one job; with --trace 1 at least one
untraced and one traced job, alternating). Human-readable lines come
first; the last line is one JSON object with the keys correct, attempted,
failed and metrics:

  --trace 0  the "end_to_end" metrics of BENCHMARK.json: wall_s (median
             untraced job), setup_s (median over fresh interpreters that
             import numpy and agecalc and make the workload's warm-up call,
             SETUP_PROBES_PER_JOB of them after every job), bounds_per_s
             (optimize_theta results per second of wall_s) and peak_rss_mb
             (the parent's peak RSS plus the largest pool worker's, read
             after the first job and before any setup probe starts);
  --trace 1  its "per_layer" metrics: per traced job, from the spans of
             tracer.py, plus trace_overhead_ratio (median traced over median
             untraced job), updates_per_s and error_rate.

BENCHMARK.json gates dominance and tails-cli only. design (bounds only) runs
by hand: its wall time is pure-Python work, which drifts by up to 1.5x over
minutes on a shared 2-vCPU VM, wider than any bound the gate allows.

`attempted` and `failed` count correctness checks over all jobs. Without
`src/agecalc` beside this directory the command exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
SETUP_PROBES_PER_JOB = 4

# Runs in a fresh interpreter; the clock starts before numpy is imported.
_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import numpy, agecalc, workloads\n"
    "workloads.WORKLOADS[sys.argv[3]][1]()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(workload: str, probes: int) -> list:
    """Set-up times of `probes` fresh interpreters, one after another."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def machine(nproc: int) -> dict:
    import numpy

    info = {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip().lower().replace(" ", "_")] = val.strip()
    return info


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest one.
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent + child) * 1024 / 1e6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("dominance", "design", "tails-cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None, work_dir: Path = WORK_DIR) -> int:
    args = parse_args(argv)
    if not (SRC / "agecalc" / "__init__.py").is_file():
        print("bench: no program at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import agecalc
    import tracer
    import workloads

    if Path(agecalc.__file__).resolve().parent != SRC / "agecalc":
        print("bench: imported agecalc from %s, not from %s" % (agecalc.__file__, SRC),
              file=sys.stderr)
        return 2

    sizes = sizes or workloads.FULL
    make, warm = workloads.WORKLOADS[args.workload]
    warm()
    work_dir.mkdir(parents=True, exist_ok=True)
    trace = tracer.Tracer() if args.trace else None
    walls, results, setups = [], [], []
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        job = make(args.seed, sizes, Path(tmp))
        t0 = time.perf_counter()
        while True:
            if trace is not None and len(results) % 2 == 1:
                with trace.job():
                    results.append(job())
                last = trace.job_walls[-1]
            else:
                start = time.perf_counter()
                results.append(job())
                last = time.perf_counter() - start
                walls.append(last)
                if len(walls) == 1:
                    # One job's peak, as a single CLI call has it: memory the
                    # allocator keeps after a job raises the high-water mark
                    # of the next ones in the same process. Read before any
                    # set-up probe has become a child of this process.
                    peak_rss_mb = _peak_rss_mb()
                if trace is None:
                    # spread over the run, so they see the host as the jobs do
                    setups += setup_seconds(args.workload, SETUP_PROBES_PER_JOB)
            enough = len(results) >= (2 if trace else 1)
            if enough and time.perf_counter() - t0 + last > args.seconds:
                break
        bound_results = results[0].bound_results
        if bound_results is None:
            # design: its optimize_theta calls are counted by a traced job
            counter = trace or tracer.Tracer()
            if trace is None:
                with counter.job():
                    job()
            bound_results = counter.layer_metrics()["bounds.optimize_theta_calls"]
    info = machine(workloads.nproc())

    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    wall = statistics.median(walls)
    hashes = sorted({hashlib.sha256(r.csv).hexdigest() for r in results})

    print("bench workload=%s seed=%d trace=%d jobs=%d" % (
        args.workload, args.seed, args.trace, len(results)))
    print("machine " + json.dumps(info, sort_keys=True))
    print("sizes " + json.dumps({
        "updates_per_job": results[0].updates, "bound_results_per_job": bound_results,
        # one float64 per update in each per-replication sample array
        "largest_replication_array_mb": 8 * results[0].largest_replication / 1e6,
    }, sort_keys=True))
    print("csv_sha256 " + " ".join(hashes))
    print("untraced job walls (s), median of %d: %s" % (
        len(walls), " ".join("%.4f" % w for w in walls)))
    if setups:
        print("setup probes (s), median of %d: %s" % (
            len(setups), " ".join("%.4f" % t for t in setups)))
    print("checks attempted=%d failed=%d error_rate=%g" % (
        attempted, len(failures), len(failures) / attempted))
    for f in failures[:20]:
        print("check failed: " + f)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace is None:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "bounds_per_s": bound_results / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = trace.job_walls
        metrics = trace.layer_metrics()
        metrics["trace_overhead_ratio"] = statistics.median(traced) / wall
        metrics["updates_per_s"] = results[0].updates / wall
        metrics["error_rate"] = len(failures) / attempted
        spans = work_dir / ("spans-%s-seed%d.npz" % (args.workload, args.seed))
        trace.save(spans)
        print("traced job walls (s): " + " ".join("%.4f" % w for w in traced))
        print("spans %d written to %s" % (len(trace.start), spans))
    for name, unit in units.items():
        print("%s %.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

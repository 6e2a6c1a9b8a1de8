"""Command-line front end.

Subcommands:

  bound     optimized tail bounds for one configured scenario
  simulate  empirical quantiles for one configured scenario
  sweep     bound curves over an update-interval or utilization grid
  figure    preset experiment reproductions (fig3 ... fig8)

Configs are flat key = value text files (one scenario per file, # comments).
A sweep couples its two policies at equal mean utilization by
alpha = lambda * w.
Output is a CSV with the fixed header

  scenario,policy,axis,axis_value,utilization,metric,source,epsilon,value,theta_star,flag

written to --out (default stdout) and byte-identical for identical config
and seed, regardless of worker count. Values print to 12 significant
digits, rounded to nearest, except that a `bound` row's value is rounded
up, so that the printed bound is never below the computed one. Figure
commands also emit a JSON summary of their headline quantities at the
CSV's 12 significant digits, its bound values rounded up as the CSV's and
its other floats to nearest: to stdout when the CSV goes to a file, to
stderr when the CSV goes to stdout.

Exit codes: 0 success (including flagged rows), 2 usage or config error
(an --out that cannot be written is one, rejected before the command runs;
a write that fails removes the partial file) or an OSError while the
command runs, such as a full TMPDIR, which every simulation writes to at
any --workers, 3 internal numerical failure, 143 stopped by SIGTERM (a run
first stops its workers, if any, and removes its temporary files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import Scenario
from .envelopes import EventTriggered, TimeTriggered
from .models import DistributionModel
from .simulate import DEFAULT_BURN_IN
from .sweeps import (
    CSV_HEADER,
    DEFAULT_SAMPLES,
    FIGURES,
    SWEEP_FIGURES,
    CsvRow,
    SampleBudgetError,
    SweepSpec,
    bound_rows,
    make_model,
    round_bound,
    round_threshold,
    simulation_rows,
    sweep_rows,
    _simulate,
)

DEFAULT_SEED = 12345


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config files

_FLOAT_KEYS = ("lambda", "mu", "w", "alpha")
_INT_KEYS = ("samples", "seed", "burn_in")
_STR_KEYS = ("policy", "event_kind", "service_kind", "sweep_axis")
_LIST_KEYS = ("epsilon", "grid")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS + _LIST_KEYS


def parse_config(path: str) -> Dict:
    """Read a flat key = value config file into a typed dict."""
    cfg: Dict = {}
    set_on: Dict[str, int] = {}  # the line that set each key
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in set_on:
            raise ConfigError(
                "%s:%d: key %r already set on line %d" % (path, lineno, key, set_on[key])
            )
        set_on[key] = lineno
        try:
            cfg[key] = _coerce(key, value)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %s: %s" % (path, lineno, key, exc))
    return cfg


def _coerce(key: str, value: str):
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        n = int(value)
        low = 1 if key == "samples" else 0
        if n < low:
            raise ValueError("must be >= %d, got %d" % (low, n))
        return n
    if key in _LIST_KEYS:
        return [float(v) for v in value.split(",")]
    return value


def _require(cfg: Dict, key: str):
    if key not in cfg:
        raise ConfigError("config is missing required key %r" % (key,))
    return cfg[key]


def _config_models(cfg: Dict) -> Tuple[DistributionModel, DistributionModel]:
    lam = _require(cfg, "lambda")
    mu = _require(cfg, "mu")
    try:
        event_model = make_model(cfg.get("event_kind", "exponential"), lam)
        service_model = make_model(cfg.get("service_kind", "exponential"), mu)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return event_model, service_model


def _config_policy(cfg: Dict, integer_alpha: bool) -> Tuple:
    """(policy, flag) from the config; rounds alpha when the caller needs an
    integer threshold and records the rounding in the flag."""
    kind = _require(cfg, "policy")
    flag = ""
    try:
        if kind in ("time", "time_triggered"):
            policy = TimeTriggered(interval=_require(cfg, "w"))
        elif kind in ("event", "event_triggered"):
            alpha = _require(cfg, "alpha")
            if integer_alpha:
                rounded = round_threshold(alpha)
                if rounded != alpha:
                    flag = "alpha_rounded:%g->%d" % (alpha, rounded)
                alpha = rounded
            policy = EventTriggered(threshold=alpha)
        else:
            raise ConfigError("unknown policy %r" % (kind,))
    except ValueError as exc:
        raise ConfigError(str(exc))
    return policy, flag


def _config_epsilons(cfg: Dict, allow_vacuous: bool) -> List[float]:
    eps_list = cfg.get("epsilon", [1e-6])
    for eps in eps_list:
        if not 0 < eps < math.inf:
            raise ConfigError("epsilon must be positive and finite, got %r" % (eps,))
        if eps >= 1 and not allow_vacuous:
            raise ConfigError(
                "epsilon %g >= 1 yields a vacuous bound; pass --allow-vacuous" % eps
            )
    return list(eps_list)


# ---------------------------------------------------------------------------
# Commands


def cmd_bound(args) -> Tuple[List[CsvRow], Optional[Dict]]:
    cfg = parse_config(args.config)
    event_model, service_model = _config_models(cfg)
    policy, _ = _config_policy(cfg, integer_alpha=False)
    rows: List[CsvRow] = []
    scenario_id = _scenario_id(args.config)
    for eps in _config_epsilons(cfg, args.allow_vacuous):
        scenario = Scenario(event_model, service_model, policy, eps)
        rows.extend(bound_rows(scenario_id, scenario, "epsilon", eps))
    return rows, None


def cmd_simulate(args) -> Tuple[List[CsvRow], Optional[Dict]]:
    cfg = parse_config(args.config)
    event_model, service_model = _config_models(cfg)
    policy, flag = _config_policy(cfg, integer_alpha=True)
    eps_list = _config_epsilons(cfg, args.allow_vacuous)
    if max(eps_list) > 1:
        raise ConfigError("simulate needs epsilon <= 1, got %g" % max(eps_list))
    samples = args.samples or cfg.get("samples", DEFAULT_SAMPLES)
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    burn_in = cfg.get("burn_in", DEFAULT_BURN_IN)
    scenario = Scenario(event_model, service_model, policy, min(eps_list))
    if scenario.utilization >= 1:
        raise ConfigError("simulate needs utilization < 1, got %g" % scenario.utilization)
    try:
        tails = _simulate(scenario, samples, seed, args.workers, burn_in=burn_in)
    except SampleBudgetError as exc:
        raise ConfigError(str(exc))
    rows = simulation_rows(
        _scenario_id(args.config), scenario, "epsilon", 0.0, tails, eps_list, extra_flag=flag
    )
    return rows, None


def cmd_sweep(args) -> Tuple[List[CsvRow], Optional[Dict]]:
    cfg = parse_config(args.config)
    eps_list = _config_epsilons(cfg, args.allow_vacuous)
    if len(eps_list) != 1:
        raise ConfigError("sweep needs exactly one epsilon value")
    try:
        spec = SweepSpec(
            event_rate=_require(cfg, "lambda"),
            service_rate=_require(cfg, "mu"),
            event_kind=cfg.get("event_kind", "exponential"),
            service_kind=cfg.get("service_kind", "exponential"),
            epsilon=eps_list[0],
            axis=cfg.get("sweep_axis", "utilization"),
            grid=tuple(_require(cfg, "grid")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    return sweep_rows(spec, _scenario_id(args.config)), None


def cmd_figure(args) -> Tuple[List[CsvRow], Optional[Dict]]:
    if args.name not in FIGURES:
        raise ConfigError(
            "unknown figure %r (choose from %s)" % (args.name, ", ".join(sorted(FIGURES)))
        )
    if args.name in SWEEP_FIGURES:
        # --seed and --workers change no byte of a bound-only preset
        if args.samples is not None:
            raise ConfigError("figure %s draws no samples; --samples does not apply" % args.name)
        return FIGURES[args.name]()
    samples = args.samples or DEFAULT_SAMPLES
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    try:
        return FIGURES[args.name](samples, seed, args.workers)
    except SampleBudgetError as exc:
        raise ConfigError(str(exc))


def _scenario_id(config_path: str) -> str:
    base = os.path.basename(config_path)
    return base.rsplit(".", 1)[0] if "." in base else base


# ---------------------------------------------------------------------------
# Output


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".12g")


def _rounded(x):
    """x with every float, in nested dicts and lists too, rounded as `_fmt`
    prints it; a summary's bound values arrive rounded up already, which
    this keeps."""
    if isinstance(x, float):
        return float(format(x, ".12g"))
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    return x


def render_csv(rows: Sequence[CsvRow]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: r.sort_key()):
        lines.append(
            ",".join(
                (
                    r.scenario,
                    r.policy,
                    r.axis,
                    _fmt(r.axis_value),
                    _fmt(r.utilization),
                    r.metric,
                    r.source,
                    _fmt(r.epsilon),
                    _fmt(round_bound(r.value) if r.source == "bound" else r.value),
                    _fmt(r.theta_star),
                    r.flag,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _out_error(out: str) -> Optional[str]:
    """Why --out cannot be written, or None; checked before a command runs,
    so that a bad path is rejected before the work is done."""
    if out == "-":
        return None
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        return "is a directory"
    if not os.path.isdir(parent):
        return "no such directory: %s" % parent
    if not os.access(out if os.path.exists(out) else parent, os.W_OK):
        return "permission denied"
    return None


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    fh = open(out, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
    except OSError:
        if os.path.isfile(out):  # no partial CSV, and never a device node
            os.unlink(out)
        raise


def _int_at_least(text: str, low: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,))
    if n < low:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, n))
    return n


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (under a cpuset, os.cpu_count() counts the host's CPUs)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agecalc",
        description="Tail bounds and simulation for update freshness metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="optimized tail bounds")
    simulate = sub.add_parser("simulate", help="empirical quantiles")
    sweep = sub.add_parser("sweep", help="bound curves over a parameter grid")
    figure = sub.add_parser("figure", help="preset experiment reproduction")
    figure.add_argument("name", help="figure name (%s)" % ", ".join(sorted(FIGURES)))
    # each command registers only the flags it reads
    for p in (bound, simulate, sweep):
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument(
            "--allow-vacuous", action="store_true",
            help="accept epsilon >= 1 (simulate: epsilon = 1) and flag vacuous rows",
        )
    for p in (bound, simulate, sweep, figure):
        p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    for p in (simulate, figure):
        p.add_argument("--seed", type=_nonnegative_int, default=None, help="base seed override")
        p.add_argument(
            "--samples", type=_positive_int, default=None,
            help="simulated updates per scenario",
        )
        p.add_argument(
            "--workers", type=_positive_int, default=_usable_cpus(),
            help="worker processes for replications (default: the usable CPUs)",
        )
    return parser


_COMMANDS = {
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so a run stops its workers, if any,
    # and removes its temporary directory; the caller's handler is restored
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _out_error(args.out)
    if problem is not None:
        print("usage error: cannot write --out %s: %s" % (args.out, problem), file=sys.stderr)
        return 2
    try:
        rows, summary = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s failed: %s" % (args.command, exc.strerror or exc), file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    try:
        _write_output(render_csv(rows), args.out)
    except OSError as exc:
        print("usage error: cannot write --out %s: %s" % (args.out, exc.strerror or exc),
              file=sys.stderr)
        return 2
    if summary is not None:
        text = json.dumps(_rounded(summary), sort_keys=True, indent=2) + "\n"
        if args.out == "-":
            sys.stderr.write(text)
        else:
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

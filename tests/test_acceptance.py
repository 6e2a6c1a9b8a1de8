"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here and nowhere else. The simulation
criteria use 10^7 updates per scenario, so the full module takes a few
minutes of CPU time.
"""

import math

import numpy as np
import pytest

from agecalc import (
    Deterministic,
    EventTriggered,
    Exponential,
    Metric,
    Scenario,
    TimeTriggered,
    best_event_threshold,
    best_update_interval,
    bound_tail_slope,
    doi_epsilon_bound,
    envelope_set,
    exact_mm1_tail,
    invert_to_quantile,
    log_aoi_mgf_bound,
    optimize_theta,
    run_replications,
)
from agecalc.cli import main
from agecalc.simulate import _fifo_chunk, _simulate_one
from agecalc.sweeps import FIGURES, make_model

SAMPLE_BUDGET = 10_000_000
REP_SIZE = 2_000_000
BURN_IN = 10_000


def _report(number, description, check):
    try:
        check()
    except AssertionError:
        print("ACCEPTANCE %d FAIL: %s" % (number, description))
        raise
    print("ACCEPTANCE %d PASS: %s" % (number, description))


def _simulate(scenario, seed, budget=SAMPLE_BUDGET):
    n_reps = max(1, budget // REP_SIZE)
    n_updates = math.ceil(budget / n_reps)
    return run_replications(scenario, n_updates, n_reps, seed, burn_in=BURN_IN)


def test_criterion_1_exact_reference_tail():
    def check():
        for k in range(1, 10):
            eps = 10.0 ** -k
            assert math.isclose(
                exact_mm1_tail(0.5, 1.0, eps), -math.log(eps) / 0.5, rel_tol=1e-15
            )

    _report(1, "exact single-queue tail quantile to machine precision", check)


def test_criterion_2_tail_decay_and_dominance():
    def check():
        events = Exponential(0.5)
        service = Exponential(1.0)
        # decay rate of the optimized bound, measured at the deep end of the
        # examined window eps in [1e-9, 1e-3] where the curve approaches its
        # asymptote; must match the exact rate -(mu - lambda) = -0.5 within 5%
        slope = bound_tail_slope(events, service, EventTriggered(1),
                                 eps_lo=1e-9, eps_hi=1e-8)
        assert abs(slope - (-0.5)) / 0.5 <= 0.05, "slope %.5f" % slope

        tt = TimeTriggered(2.0)
        tails = _simulate(Scenario(events, service, tt, 1e-3), seed=2001)
        for eps in (1e-2, 1e-3, 1e-4):
            bound = optimize_theta(Scenario(events, service, tt, eps), Metric.DELAY).value
            q = tails.delay.quantile(eps)
            assert q <= bound, "eps=%g: simulated %.3f above bound %.3f" % (eps, q, bound)

    _report(2, "tail decay rate within 5% and simulation below the bound", check)


def test_criterion_3_deterministic_queue_exactness():
    def check():
        events = Exponential(0.5)
        service = Deterministic(4.0)
        for w in (5.0, 8.0, 16.0):
            tt = TimeTriggered(w)
            t = optimize_theta(Scenario(events, service, tt, 1e-6), Metric.DELAY).value
            a = optimize_theta(Scenario(events, service, tt, 1e-6), Metric.PEAK_AOI).value
            assert abs(t - 4.0) <= 0.05, "w=%g delay %.4f" % (w, t)
            assert abs(a - (4.0 + w)) <= 0.05, "w=%g age %.4f" % (w, a)

    _report(3, "deterministic system delay 4 and age 4+w within 0.05", check)


def test_criterion_4_utilization_sweep_optimum():
    def check():
        _, summary = FIGURES["fig6a"](0, 0, 1)
        assert summary["min_aoi_bound"] == pytest.approx(88.0, rel=0.05)
        assert summary["min_doi_bound"] == pytest.approx(44.0, rel=0.05)
        assert abs(summary["argmin_utilization"] - 0.30) <= 0.05
        assert abs(summary["argmin_utilization_doi"] - 0.30) <= 0.05

    _report(4, "sweep minima 88 (age) and 44 (deviation) at utilization 0.30", check)


def test_criterion_5_deterministic_events_identity():
    def check():
        lam = 0.5
        events = Deterministic(1.0 / lam)
        service = Exponential(0.25)
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(10_000):
            if checked >= 100:
                break
            w = float(rng.uniform(4.5, 60.0))
            theta = float(rng.uniform(1e-3, 0.2499))
            scenario = Scenario(events, service, TimeTriggered(w), 1e-6)
            env = envelope_set(scenario.policy, events, service, theta)
            if not env.stable:
                continue
            age_eps = invert_to_quantile(log_aoi_mgf_bound(env), theta, 1e-6)
            phi = doi_epsilon_bound(scenario, theta).real
            assert phi == pytest.approx(lam * age_eps, rel=1e-12), (
                "w=%g theta=%g: %.15g vs %.15g" % (w, theta, phi, lam * age_eps)
            )
            checked += 1
        assert checked == 100

    _report(5, "deviation equals rate times age bound at 100 random points", check)


def test_criterion_6_deviation_optimal_parameters():
    def check():
        events = Exponential(0.5)
        service = Exponential(0.25)
        alpha_star, et_min = best_event_threshold(events, service, 1e-6)
        assert alpha_star == 8, "threshold argmin %d" % alpha_star
        w_star, tt_min = best_update_interval(events, service, 1e-6)
        assert 12.0 <= w_star <= 14.0, "interval argmin %.2f" % w_star
        assert abs(tt_min - et_min) / et_min <= 0.10

    _report(6, "deviation optima at threshold 8 and interval near 13, within 10%", check)


def _soundness_plan():
    # 12 scenarios spanning both policies, both event kinds, both service
    # kinds, at utilizations 0.25 / 0.5 / 0.8. Event rate 1 for the
    # event-triggered rows keeps the coupled threshold integral.
    plan = []
    for u, pairs in (
        (0.25, (("tt", "exponential", "exponential"), ("tt", "deterministic", "deterministic"),
                ("et", "exponential", "exponential"), ("et", "deterministic", "deterministic"))),
        (0.5, (("tt", "exponential", "deterministic"), ("tt", "deterministic", "exponential"),
               ("et", "exponential", "deterministic"), ("et", "deterministic", "exponential"))),
        (0.8, (("tt", "exponential", "exponential"), ("tt", "deterministic", "deterministic"),
               ("et", "exponential", "exponential"), ("et", "deterministic", "deterministic"))),
    ):
        for policy_kind, event_kind, service_kind in pairs:
            mu = 0.25
            lam = 0.5 if policy_kind == "tt" else 1.0
            if policy_kind == "tt":
                policy = TimeTriggered(interval=1.0 / (u * mu))
            else:
                alpha = lam / (u * mu)
                assert alpha == int(alpha)
                policy = EventTriggered(threshold=int(alpha))
            scenario = Scenario(
                make_model(event_kind, lam), make_model(service_kind, mu), policy, 1e-3
            )
            assert scenario.utilization == pytest.approx(u, rel=1e-12)
            label = "%s-%s-%s-u%02.0f" % (policy_kind, event_kind[0], service_kind[0], u * 100)
            plan.append((label, scenario))
    return plan


def test_criterion_7_bound_dominance_suite():
    def check():
        eps = 1e-3
        for seed_offset, (label, scenario) in enumerate(_soundness_plan()):
            bounds = {}
            bounds["delay"] = optimize_theta(scenario, Metric.DELAY).value
            bounds["peak_aoi"] = optimize_theta(scenario, Metric.PEAK_AOI).value
            bounds["peak_doi"] = float(optimize_theta(scenario, Metric.PEAK_DOI).value_int)
            tails = _simulate(scenario, seed=7000 + seed_offset)
            for metric, tail in tails.by_name().items():
                freq = tail.exceed_fraction(bounds[metric])
                limit = eps + 3.0 * math.sqrt(eps * (1 - eps) / tail.n_samples)
                assert freq <= limit, (
                    "%s %s: violation %.5g above %.5g (bound %.4f)"
                    % (label, metric, freq, limit, bounds[metric])
                )

    _report(7, "empirical violations below 1e-3 + 3 sigma on all 12 scenarios", check)


def test_criterion_8_structural_invariants():
    def check():
        rng = np.random.default_rng(88)
        # FIFO recursion equals the brute-force server definition
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            arrivals = np.cumsum(rng.exponential(2.0, n))
            service = rng.exponential(1.5, n)
            got, _, _ = _fifo_chunk(arrivals, service, 0.0, -math.inf)
            brute = np.array(
                [
                    max(arrivals[v] + service[v:i + 1].sum() for v in range(i + 1))
                    for i in range(n)
                ]
            )
            assert np.allclose(got, brute, rtol=1e-12, atol=1e-12)

        # peak-age versus next delay on random paths: Poisson arrivals of
        # mean gap 2, exponential service of mean 1.5
        poisson = Scenario(Exponential(0.5), Exponential(1.0 / 1.5), EventTriggered(1), 1e-3)
        for replication in range(50):
            n = int(rng.integers(3, 200))
            delay, aoi, _ = _simulate_one(poisson, n, 88, replication, burn_in=0)
            assert (aoi >= delay[1:] - 1e-12).all()

        # deviation floor and limiting values at the preset parameters
        events = Exponential(0.5)
        service = Exponential(0.25)
        et = Scenario(events, service, EventTriggered(8), 1e-3)
        tails_et = _simulate(et, seed=801, budget=1_000_000)
        assert tails_et.peak_doi.quantile(1.0) == 8.0
        tt = Scenario(events, service, TimeTriggered(13.0), 1e-3)
        tails_tt = _simulate(tt, seed=802, budget=1_000_000)
        assert tails_tt.peak_aoi.quantile(1.0) >= 13.0

    _report(8, "max-plus equality, peak-age ordering, and limiting samples", check)


def test_criterion_9_cli_determinism(tmp_path):
    def check():
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            "lambda = 0.5\nmu = 1.0\npolicy = time\nw = 2\n"
            "epsilon = 1e-2,1e-3\nseed = 31\nsamples = 4000000\n"
        )
        outs = []
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / ("%s.csv" % tag)
            rc = main(
                ["simulate", "--config", str(cfg), "--out", str(out), "--workers", workers]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(["figure", "fig6a", "--out", str(f1)]) == 0
        assert main(["figure", "fig6a", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    _report(9, "byte-identical CSV across repeats and worker counts", check)

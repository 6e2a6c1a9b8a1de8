"""Cross-module checks: analytical MGF bounds against simulated moments,
and distributional claims about the event-triggered arrival process."""

import math

import numpy as np
import pytest

from agecalc import (
    Erlang,
    EventStream,
    EventTriggered,
    Exponential,
    Scenario,
    TimeTriggered,
    doi_tail_probability,
    envelope_set,
    log_aoi_mgf_bound,
    log_delay_mgf_bound,
    run_replications,
)
from agecalc.simulate import _simulate_one


class TestMgfBoundsDominateSimulation:
    def test_delay_mgf_bound_dominates(self):
        # E[exp(theta*T)] for the periodic/exponential queue stays below the
        # analytical MGF bound at the same theta
        theta = 0.25
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        t, _, _ = _simulate_one(scenario, 1_000_000, 404, 0, burn_in=10_000)
        emp = np.exp(theta * t).mean()
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        assert emp <= math.exp(log_delay_mgf_bound(env))

    def test_aoi_mgf_bound_dominates(self):
        theta = 0.25
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-3)
        _, a, _ = _simulate_one(scenario, 1_000_000, 405, 0, burn_in=10_000)
        emp = np.exp(theta * a).mean()
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        assert emp <= math.exp(log_aoi_mgf_bound(env))

    def test_doi_tail_probability_dominates(self):
        # fixed-theta deviation tail bound upper-bounds the empirical
        # frequency of large deviations
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-3)
        bound = doi_tail_probability(scenario, theta=0.1, phi=20)
        _, _, f = _simulate_one(scenario, 2_000_000, 406, 0, burn_in=10_000)
        freq = (f > 20).mean()
        sigma = math.sqrt(max(freq, 1e-9) * (1 - freq) / len(f))
        assert freq <= bound + 3 * sigma
        assert freq < bound  # the bound is comfortably loose here


class TestSimulatorAgainstExactTail:
    def test_mm1_quantiles_within_three_percent(self):
        # single-event-triggered sampling of exponential events through an
        # exponential queue is M|M|1; at 1e7 updates the empirical sojourn
        # quantiles must match the known tail within 3% down to eps = 1e-4
        scenario = Scenario(Exponential(0.5), Exponential(1.0), EventTriggered(1), 1e-4)
        tails = run_replications(scenario, 2_000_000, 5, 303, burn_in=10_000)
        from agecalc import exact_mm1_tail

        for eps in (1e-2, 1e-3, 1e-4):
            q = tails.delay.quantile(eps)
            exact = exact_mm1_tail(0.5, 1.0, eps)
            assert abs(q - exact) / exact <= 0.03, "eps=%g: %.3f vs %.3f" % (eps, q, exact)


class TestEventTriggeredArrivalProcess:
    def test_inter_update_times_are_erlang(self):
        # with exponential events and threshold a, the time between updates
        # is the sum of a exponentials; check mean, variance, and a negative
        # MGF point against the closed form
        lam, alpha, n = 0.5, 4, 200_000
        events = EventStream(Exponential(lam), 77)
        arrivals = EventTriggered(alpha).arrivals(events, 1, n)
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        erlang = Erlang(alpha, lam)
        assert gaps.mean() == pytest.approx(alpha / lam, rel=0.01)
        assert gaps.var() == pytest.approx(alpha / lam**2, rel=0.02)
        theta = -0.3
        emp_mgf = np.exp(theta * gaps).mean()
        se = np.exp(theta * gaps).std() / math.sqrt(n)
        assert abs(emp_mgf - math.exp(erlang.log_mgf(theta))) <= 4 * se

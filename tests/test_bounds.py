import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import agecalc.bounds as bounds_mod
from agecalc import (
    Deterministic,
    Erlang,
    EventTriggered,
    Exponential,
    Metric,
    NoFeasibleTheta,
    Scenario,
    TimeTriggered,
    doi_epsilon_bound,
    doi_tail_probability,
    envelope_set,
    exact_mm1_tail,
    invert_to_quantile,
    log_aoi_mgf_bound,
    log_delay_mgf_bound,
    optimize_theta,
)


def delay_mgf_bound(env):
    return math.exp(log_delay_mgf_bound(env))


def aoi_mgf_bound(env):
    return math.exp(log_aoi_mgf_bound(env))


def _tt_env(theta=0.25, w=2.0, mu=1.0):
    return envelope_set(TimeTriggered(w), Exponential(0.5), Exponential(mu), theta)


class TestDelayMgfBound:
    def test_reference_value(self):
        # independent arithmetic: (4/3) / (1 - exp(-0.25*(2 - 4 ln(4/3))))
        rho_s = 4.0 * math.log(4.0 / 3.0)
        expected = (4.0 / 3.0) / (1.0 - math.exp(-0.25 * (2.0 - rho_s)))
        got = delay_mgf_bound(_tt_env())
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.970, abs=1e-3)

    def test_exceeds_service_mgf(self):
        for theta in (0.05, 0.25, 0.5):
            env = _tt_env(theta=theta)
            assert delay_mgf_bound(env) > math.exp(Exponential(1.0).log_mgf(theta))

    def test_large_theta_deterministic_limit(self):
        # all-deterministic system with spare capacity: the log-bound rate
        # tends to the service time
        env = envelope_set(TimeTriggered(5.0), Deterministic(2.0), Deterministic(4.0), 500.0)
        log_bound = log_delay_mgf_bound(env)
        assert log_bound / 500.0 == pytest.approx(4.0, abs=0.01)

    def test_instability_error(self):
        env = envelope_set(TimeTriggered(1.0), Exponential(0.5), Exponential(1.0), 0.25)
        # w=1 < rho_service is impossible here (rho=1.15 > 1), so this is unstable
        assert not env.stable
        assert log_delay_mgf_bound(env) == math.inf


class TestAoiMgfBound:
    def test_reference_value(self):
        rho_s = 4.0 * math.log(4.0 / 3.0)
        geo = 1.0 - math.exp(-0.25 * (2.0 - rho_s))
        expected = math.exp(2 * 0.25 * rho_s) / geo + math.exp(0.25 * (rho_s + 2.0))
        got = aoi_mgf_bound(_tt_env())
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(11.49, abs=5e-3)

    @given(frac=st.floats(min_value=0.02, max_value=0.75))
    def test_dominates_delay_bound(self, frac):
        env = _tt_env(theta=frac)  # stable for theta <= 0.75 at w=2, mu=1
        assert aoi_mgf_bound(env) > delay_mgf_bound(env)

    def test_large_theta_deterministic_limit(self):
        env = envelope_set(TimeTriggered(5.0), Deterministic(2.0), Deterministic(4.0), 800.0)
        log_bound = log_aoi_mgf_bound(env)
        assert log_bound / 800.0 == pytest.approx(9.0, abs=0.01)

    def test_domain_error_when_upper_missing(self):
        env = envelope_set(EventTriggered(2), Exponential(0.5), Exponential(1.0), 0.7)
        assert math.isinf(env.rho_arrival_upper)
        assert log_aoi_mgf_bound(env) == math.inf

    def test_explicit_upper_rate_argument(self):
        env = _tt_env()
        widened = aoi_mgf_bound(dataclasses.replace(env, rho_arrival_upper=3.0))
        assert widened > aoi_mgf_bound(env)
        same = dataclasses.replace(env, rho_arrival_upper=env.rho_arrival_upper)
        assert aoi_mgf_bound(same) == aoi_mgf_bound(env)


class TestInversion:
    def test_examples(self):
        assert invert_to_quantile(0.0, 0.5, math.exp(-1.0)) == pytest.approx(2.0)
        expected = (math.log(11.49) - math.log(1e-6)) / 0.25
        assert invert_to_quantile(math.log(11.49), 0.25, 1e-6) == pytest.approx(expected, rel=1e-12)
        assert invert_to_quantile(math.log(11.49), 0.25, 1e-6) == pytest.approx(65.03, abs=0.01)
        assert invert_to_quantile(0.0, 0.7, 1.0) == 0.0

    def test_log_bound_beyond_float_range(self):
        # the log age bound at theta=800 is 7200, whose exponential overflows
        # a float; the inversion still gives (7200 - ln 1e-6)/800
        env = envelope_set(TimeTriggered(5.0), Deterministic(2.0), Deterministic(4.0), 800.0)
        log_bound = log_aoi_mgf_bound(env)
        with pytest.raises(OverflowError):
            math.exp(log_bound)
        assert invert_to_quantile(log_bound, 800.0, 1e-6) == pytest.approx(9.0173, abs=1e-4)

    @given(eps1=st.floats(min_value=1e-9, max_value=0.5),
           eps2=st.floats(min_value=1e-9, max_value=0.5))
    def test_nonincreasing_in_epsilon(self, eps1, eps2):
        lo, hi = sorted((eps1, eps2))
        log_m = math.log(5.0)
        assert invert_to_quantile(log_m, 0.3, lo) >= invert_to_quantile(log_m, 0.3, hi)


class TestStability:
    def test_examples(self):
        env = _tt_env()  # rho_arrival_lower=2, rho_service=1.1507
        assert env.stable
        # the condition is strict: equal rates are not stable
        flat = envelope_set(TimeTriggered(4.0), Exponential(0.5), Deterministic(4.0), 0.1)
        assert flat.rho_arrival_lower == flat.rho_service
        assert not flat.stable
        bad = envelope_set(TimeTriggered(0.5), Exponential(0.5), Deterministic(4.0), 0.1)
        assert not bad.stable


class TestExactMm1:
    def test_values(self):
        assert exact_mm1_tail(0.5, 1.0, 1e-6) == pytest.approx(-math.log(1e-6) / 0.5, rel=1e-15)
        assert exact_mm1_tail(0.5, 1.0, 1.0) == 0.0
        assert exact_mm1_tail(0.5, 1.0, math.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_requires_stability(self):
        with pytest.raises(ValueError):
            exact_mm1_tail(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            exact_mm1_tail(2.0, 1.0, 0.5)


class TestOptimizeTheta:
    def test_deterministic_service_delay_is_service_time(self):
        scenario = Scenario(Exponential(0.5), Deterministic(4.0), TimeTriggered(6.0), 1e-6)
        res = optimize_theta(scenario, Metric.DELAY)
        assert res.value == pytest.approx(4.0, abs=0.05)
        assert not res.vacuous

    def test_unstable_scenario_raises(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(1), 1e-6)
        assert scenario.utilization == pytest.approx(2.0)
        with pytest.raises(NoFeasibleTheta):
            optimize_theta(scenario, Metric.DELAY)

    def test_value_is_minimum_over_probes(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-4)
        res = optimize_theta(scenario, Metric.DELAY)
        for theta in (0.1, 0.3, 0.5, 0.7, res.theta_star):
            assert res.value <= bounds_mod._objective(scenario, Metric.DELAY, theta) + 1e-9

    def test_aoi_bound_above_delay_bound(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 1e-6)
        t = optimize_theta(scenario, Metric.DELAY).value
        a = optimize_theta(scenario, Metric.PEAK_AOI).value
        assert a > t

    def test_doi_result_carries_integer(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-6)
        res = optimize_theta(scenario, Metric.PEAK_DOI)
        assert res.value_int == math.ceil(res.value) or res.value_int >= res.value - 1
        assert res.value_int >= 7  # threshold - 1 floor

    def test_vacuous_epsilon_flagged(self):
        scenario = Scenario(Exponential(0.5), Exponential(1.0), TimeTriggered(2.0), 2.0)
        res = optimize_theta(scenario, Metric.DELAY)
        assert res.vacuous


class TestDoiTailProbability:
    def test_event_triggered_floor_equals_delay_bound(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-6)
        theta = 0.1
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        assert doi_tail_probability(scenario, theta, 7) == pytest.approx(
            delay_mgf_bound(env), rel=1e-12
        )

    def test_time_triggered_zero_with_deterministic_events(self):
        scenario = Scenario(Deterministic(2.0), Exponential(0.25), TimeTriggered(8.0), 1e-6)
        theta = 0.1
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        assert doi_tail_probability(scenario, theta, 0) == pytest.approx(
            aoi_mgf_bound(env), rel=1e-12
        )

    def test_threshold_precondition(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-6)
        with pytest.raises(ValueError):
            doi_tail_probability(scenario, 0.1, 6)

    def test_memoryless_residual_factor(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(8.0), 1e-6)
        theta = 0.1
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        mi = math.exp(Exponential(0.5).log_mgf(-theta))
        expected = aoi_mgf_bound(env) * mi * mi**3
        assert doi_tail_probability(scenario, theta, 3) == pytest.approx(expected, rel=1e-12)

    def test_may_exceed_one(self):
        scenario = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-6)
        assert doi_tail_probability(scenario, 0.1, 7) > 1.0


class TestDoiEpsilonBound:
    def test_deterministic_events_identity(self):
        # with deterministic events the real-valued deviation bound equals
        # the event rate times the age bound, at every theta
        lam, mu, w = 0.5, 0.25, 10.0
        scenario = Scenario(Deterministic(1.0 / lam), Exponential(mu), TimeTriggered(w), 1e-6)
        for theta in (0.01, 0.05, 0.1, 0.2):
            env = envelope_set(scenario.policy, scenario.event_model,
                               scenario.service_model, theta)
            aoi_eps = invert_to_quantile(log_aoi_mgf_bound(env), theta, 1e-6)
            got = doi_epsilon_bound(scenario, theta)
            assert got.real == pytest.approx(lam * aoi_eps, rel=1e-12)
            assert got.integer == math.ceil(got.real)

    def test_epsilon_at_bound_gives_threshold_floor(self):
        theta = 0.1
        base = Scenario(Exponential(0.5), Exponential(0.25), EventTriggered(8), 1e-6)
        env = envelope_set(base.policy, base.event_model, base.service_model, theta)
        at_bound = Scenario(base.event_model, base.service_model, base.policy,
                            delay_mgf_bound(env))
        got = doi_epsilon_bound(at_bound, theta)
        assert got.integer == 7
        assert got.real == pytest.approx(7.0, abs=1e-9)

    @given(eps1=st.floats(min_value=1e-9, max_value=0.9),
           eps2=st.floats(min_value=1e-9, max_value=0.9))
    def test_nonincreasing_in_epsilon(self, eps1, eps2):
        lo, hi = sorted((eps1, eps2))
        theta = 0.1
        s_lo = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(10.0), lo)
        s_hi = Scenario(Exponential(0.5), Exponential(0.25), TimeTriggered(10.0), hi)
        assert doi_epsilon_bound(s_lo, theta).real >= doi_epsilon_bound(s_hi, theta).real
        assert doi_epsilon_bound(s_lo, theta).integer >= doi_epsilon_bound(s_hi, theta).integer

    @given(frac=st.floats(min_value=0.05, max_value=0.9),
           alpha=st.integers(min_value=1, max_value=12))
    def test_event_triggered_integer_floor(self, frac, alpha):
        theta = frac * 0.25
        scenario = Scenario(Exponential(1.0), Exponential(0.25), EventTriggered(alpha), 1e-3)
        if scenario.utilization >= 1:
            return
        got = doi_epsilon_bound(scenario, theta)
        env = envelope_set(scenario.policy, scenario.event_model, scenario.service_model, theta)
        if not env.stable:
            assert got.real == got.integer == math.inf
            return
        assert got.integer >= alpha - 1
        assert got.integer >= got.real - 1

    def test_degenerate_event_model(self):
        # denormal inter-event value underflows log M(-theta) to zero
        scenario = Scenario(Deterministic(1e-320), Exponential(0.25), TimeTriggered(10.0), 1e-6)
        assert scenario.event_model.log_mgf(-1e-12) == 0.0
        assert doi_epsilon_bound(scenario, 1e-12) == (math.inf, math.inf)


E, D, R = Exponential, Deterministic, Erlang
# (event model, service model, policy, epsilon) of the pinned corpus
PINNED_SCENARIOS = {
    "tt_exp_exp_w13": (E(0.5), E(0.25), TimeTriggered(13.0), 1e-6),
    "et_exp_exp_a8": (E(0.5), E(0.25), EventTriggered(8), 1e-6),
    "et_exp_exp_a6.5": (E(0.5), E(0.25), EventTriggered(6.5), 1e-3),
    "tt_det_exp_w10": (D(2.0), E(0.25), TimeTriggered(10.0), 1e-9),
    "tt_exp_det_w7": (E(0.5), D(4.0), TimeTriggered(7.0), 1e-6),
    "et_erl_exp_a4": (R(3, 1.5), E(0.25), EventTriggered(4), 1e-6),
    "tt_erl_exp_w7": (R(3, 1.5), E(0.25), TimeTriggered(7.0), 1e-6),
    "tt_exp_erl_w13": (E(0.5), R(2, 0.5), TimeTriggered(13.0), 1e-6),
    "et_det_det_a8_capped": (D(2.0), D(4.0), EventTriggered(8), 1e-6),
    "et_exp_exp_a1_unstable": (E(0.5), E(0.25), EventTriggered(1), 1e-6),
}
# (scenario, metric) -> the CSV's ".12g" strings of value and theta_star and
# the integer deviation bound, None where no theta is feasible; recorded with
# the optimizer that evaluated one theta per call, so that evaluating the
# grid as one array is shown to leave every CSV byte unchanged
PINNED = {
    ("tt_exp_exp_w13", "delay"): ("75.0491269453", "0.225680908246", None),
    ("tt_exp_exp_w13", "peak_aoi"): ("88.0491269453", "0.225680908246", None),
    ("tt_exp_exp_w13", "peak_doi"): ("52.2895039325", "0.22266691324", 53),
    ("et_exp_exp_a8", "delay"): ("74.8139926126", "0.225823257648", None),
    ("et_exp_exp_a8", "peak_aoi"): ("93.3776507428", "0.229787832399", None),
    ("et_exp_exp_a8", "peak_doi"): ("52.2911721839", "0.22329602627", 53),
    ("et_exp_exp_a6.5", "delay"): ("46.4434715359", "0.207456660495", None),
    ("et_exp_exp_a6.5", "peak_aoi"): ("60.4126389454", "0.211334633025", None),
    ("et_exp_exp_a6.5", "peak_doi"): ("33.2257494034", "0.203889811743", 34),
    ("tt_det_exp_w10", "delay"): ("113.822219794", "0.214525430774", None),
    ("tt_det_exp_w10", "peak_aoi"): ("123.822219794", "0.214525430774", None),
    ("tt_det_exp_w10", "peak_doi"): ("61.9111098968", "0.214525430774", 62),
    ("tt_exp_det_w7", "delay"): ("4.01381551056", "1000", None),
    ("tt_exp_det_w7", "peak_aoi"): ("11.0138155106", "1000", None),
    ("tt_exp_det_w7", "peak_doi"): ("20.8760249554", "1.49493605727", 21),
    ("et_erl_exp_a4", "delay"): ("97.625375367", "0.180488874294", None),
    ("et_erl_exp_a4", "peak_aoi"): ("105.263040023", "0.180642045093", None),
    ("et_erl_exp_a4", "peak_doi"): ("54.6895480185", "0.179936645101", 55),
    ("tt_erl_exp_w7", "delay"): ("105.638997288", "0.169038665478", None),
    ("tt_erl_exp_w7", "peak_aoi"): ("112.638997288", "0.169038665478", None),
    ("tt_erl_exp_w7", "peak_doi"): ("59.4318971471", "0.168530786377", 60),
    ("tt_exp_erl_w13", "delay"): ("41.6173459452", "0.442453273265", None),
    ("tt_exp_erl_w13", "peak_aoi"): ("54.6173459452", "0.442453273265", None),
    ("tt_exp_erl_w13", "peak_doi"): ("36.9189058588", "0.421772695939", 37),
    ("et_det_det_a8_capped", "delay"): ("4.01381551056", "1000", None),
    ("et_det_det_a8_capped", "peak_aoi"): ("20.0138155106", "1000", None),
    ("et_det_det_a8_capped", "peak_doi"): ("9.00690775528", "1000", 10),
    ("et_exp_exp_a1_unstable", "delay"): None,
    ("et_exp_exp_a1_unstable", "peak_aoi"): None,
    ("et_exp_exp_a1_unstable", "peak_doi"): None,
}


class TestPinnedCorpus:
    @pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
    def test_csv_strings_unchanged(self, name):
        scenario = Scenario(*PINNED_SCENARIOS[name])
        for metric in Metric:
            expected = PINNED[(name, metric.value)]
            if expected is None:
                with pytest.raises(NoFeasibleTheta):
                    optimize_theta(scenario, metric)
                continue
            res = optimize_theta(scenario, metric)
            assert type(res.value) is float and type(res.theta_star) is float
            assert res.value_int is None or type(res.value_int) is int
            got = (format(res.value, ".12g"), format(res.theta_star, ".12g"), res.value_int)
            assert got == expected, (name, metric)

    @pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS) + ["degenerate_events"])
    def test_objective_on_grid_matches_float_calls(self, name):
        if name == "degenerate_events":
            scenario = Scenario(D(1e-320), E(0.25), TimeTriggered(10.0), 1e-6)
        else:
            scenario = Scenario(*PINNED_SCENARIOS[name])
        for metric in Metric:
            hi = bounds_mod._theta_limit(scenario, metric)
            grid = np.geomspace(hi * 1e-9, hi * 2.0, 200)  # also probes beyond the limit
            values = bounds_mod._objective(scenario, metric, grid)
            singles = [bounds_mod._objective(scenario, metric, float(th)) for th in grid]
            assert not np.isnan(values).any()
            assert np.array_equal(values, singles), (name, metric)

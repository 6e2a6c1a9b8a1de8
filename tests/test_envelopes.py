import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecalc import (
    Deterministic,
    Erlang,
    EventTriggered,
    Exponential,
    TimeTriggered,
    envelope_set,
)


class TestServiceEnvelope:
    # the service envelope is sigma = 0 plus the model's envelope_rate per update

    def test_deterministic_exact(self):
        assert Deterministic(4.0).envelope_rate(0.1) == 4.0
        # exact at any theta, not just small ones
        assert Deterministic(4.0).envelope_rate(250.0) == 4.0

    def test_exponential_value(self):
        # independent arithmetic: (1/theta) * ln(mu/(mu-theta))
        rho = Exponential(1.0).envelope_rate(0.25)
        assert rho == pytest.approx(4.0 * math.log(4.0 / 3.0), rel=1e-12)
        assert rho == pytest.approx(1.150728, abs=1e-6)

    def test_small_theta_limit_is_mean(self):
        rho = Exponential(1.0).envelope_rate(1e-9)
        assert rho == pytest.approx(1.0, rel=1e-6)

    def test_domain_error_propagates(self):
        # beyond the MGF's singularity the rate is +inf, and so unstable
        assert Exponential(1.0).envelope_rate(1.5) == math.inf
        env = envelope_set(TimeTriggered(2.0), Exponential(0.5), Exponential(1.0), 1.5)
        assert env.rho_service == math.inf and not env.stable

    @given(theta=st.floats(min_value=1e-4, max_value=0.95))
    def test_rate_at_least_mean(self, theta):
        for model in (Exponential(1.0), Erlang(2, 2.0)):
            rho = model.envelope_rate(theta * model.rate)
            assert rho > model.mean
        assert Deterministic(2.5).envelope_rate(theta) == 2.5


class TestArrivalEnvelopes:
    def test_time_triggered_ignores_event_model(self):
        for events in (Exponential(0.5), Deterministic(9.0), Erlang(3, 1.0)):
            policy = TimeTriggered(2.0)
            assert (policy.lower_rate(events, 0.7), policy.upper_rate(events, 0.7)) == (2.0, 2.0)

    def test_event_triggered_lower_value(self):
        # -(1/0.5) * ln(0.5/(0.5+0.5)); cross-checked by Monte-Carlo below.
        # theta equals the event rate here, so only the lower rate is defined.
        lower = EventTriggered(1).lower_rate(Exponential(0.5), 0.5)
        assert lower == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_event_triggered_lower_monte_carlo(self):
        rng = np.random.default_rng(3)
        draws = rng.exponential(2.0, 1_000_000)
        vals = np.exp(-0.5 * draws)
        mc = -(1.0 / 0.5) * math.log(vals.mean())
        se_log = vals.std() / (vals.mean() * 1000.0)
        lower = EventTriggered(1).lower_rate(Exponential(0.5), 0.5)
        assert abs(lower - mc) < 4 * se_log / 0.5

    def test_small_theta_limit_is_mean_spacing(self):
        lower = EventTriggered(8).lower_rate(Exponential(0.5), 1e-9)
        assert lower == pytest.approx(16.0, rel=1e-6)

    def test_upper_infinite_beyond_event_rate(self):
        assert math.isinf(EventTriggered(2).upper_rate(Exponential(0.5), 0.6))
        assert EventTriggered(2).upper_rate_limit(Exponential(0.5)) == 0.5
        # the lower rate alone stays available there
        assert EventTriggered(2).lower_rate(Exponential(0.5), 0.6) > 0

    @given(
        rate=st.floats(min_value=0.1, max_value=5.0),
        alpha=st.integers(min_value=1, max_value=20),
        frac=st.floats(min_value=0.05, max_value=0.9),
    )
    def test_jensen_ordering_random_events(self, rate, alpha, frac):
        theta = frac * rate
        policy = EventTriggered(alpha)
        for events in (Exponential(rate), Erlang(2, 2.0 * rate)):
            lower, upper = policy.lower_rate(events, theta), policy.upper_rate(events, theta)
            mean_gap = alpha * events.mean
            assert lower < mean_gap < upper

    @given(
        rate=st.floats(min_value=0.1, max_value=5.0),
        alpha=st.integers(min_value=1, max_value=19),
        theta=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_lower_monotone_in_threshold_and_rate(self, rate, alpha, theta):
        policy_lo = EventTriggered(alpha)
        policy_hi = EventTriggered(alpha + 1)
        events = Exponential(rate)
        assert policy_lo.lower_rate(events, theta) < policy_hi.lower_rate(events, theta)
        faster = Exponential(rate * 1.5)
        assert policy_lo.lower_rate(faster, theta) < policy_lo.lower_rate(events, theta)

    def test_deterministic_events_collapse(self):
        policy = EventTriggered(4)
        lower = policy.lower_rate(Deterministic(2.0), 0.3)
        upper = policy.upper_rate(Deterministic(2.0), 0.3)
        assert lower == pytest.approx(8.0, rel=1e-12)
        assert upper == pytest.approx(8.0, rel=1e-12)


def residual_mgf(event_model, theta):
    return math.exp(event_model.log_residual_mgf(theta))


class TestResidualMgf:
    def test_memoryless_equals_inter_event(self):
        assert residual_mgf(Exponential(0.5), 0.5) == pytest.approx(0.5, rel=1e-12)
        assert Exponential(0.5).log_residual_mgf(0.5) == Exponential(0.5).log_mgf(-0.5)

    def test_conservative_one_for_non_memoryless(self):
        assert residual_mgf(Deterministic(2.0), 1.0) == 1.0
        assert residual_mgf(Erlang(3, 1.0), 0.4) == 1.0

    def test_small_theta_limit(self):
        assert residual_mgf(Exponential(1.0), 1e-12) == pytest.approx(1.0, rel=1e-9)


class TestEnvelopeSet:
    def test_stable_flag_and_fields(self):
        env = envelope_set(TimeTriggered(2.0), Exponential(0.5), Exponential(1.0), 0.25)
        assert env.rho_service > 0
        assert env.rho_arrival_lower == 2.0
        assert env.rho_arrival_upper == 2.0
        assert env.stable  # 2 > 1.15

    def test_upper_infinite_when_event_mgf_diverges(self):
        env = envelope_set(EventTriggered(2), Exponential(0.5), Exponential(1.0), 0.7)
        assert math.isinf(env.rho_arrival_upper)
        assert env.rho_arrival_lower <= env.rho_arrival_upper

    @given(frac=st.floats(min_value=0.01, max_value=0.95))
    def test_lower_never_exceeds_upper(self, frac):
        theta = frac * 0.25  # inside the service MGF domain
        for policy in (TimeTriggered(3.0), EventTriggered(2)):
            env = envelope_set(policy, Exponential(0.5), Exponential(0.25), theta)
            assert env.rho_arrival_lower <= env.rho_arrival_upper

    def test_theta_must_be_positive(self):
        for theta in (0.0, -0.1, math.nan, np.array([0.1, 0.0])):
            with pytest.raises(ValueError):
                envelope_set(TimeTriggered(2.0), Exponential(0.5), Exponential(1.0), theta)

    def test_array_theta_gives_array_fields(self):
        theta = np.array([0.25, 0.9, 1.5])  # stable, unstable, beyond the service MGF
        env = envelope_set(EventTriggered(2), Exponential(0.5), Exponential(1.0), theta)
        assert env.stable.tolist() == [True, False, False]
        assert env.rho_service[2] == math.inf
        assert np.isinf(env.rho_arrival_upper).tolist() == [False, True, True]
        for i, th in enumerate(theta):
            single = envelope_set(EventTriggered(2), Exponential(0.5), Exponential(1.0), th)
            assert single.rho_service == env.rho_service[i]
            assert single.rho_arrival_lower == env.rho_arrival_lower[i]
            assert single.stable == env.stable[i]

    def test_mean_update_spacing(self):
        assert TimeTriggered(7.0).spacing(Exponential(9.0)) == 7.0
        assert EventTriggered(8).spacing(Exponential(0.5)) == 16.0
        assert EventTriggered(3).spacing(Erlang(2, 1.0)) == 6.0

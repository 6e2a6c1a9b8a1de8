import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecalc import Deterministic, Erlang, Exponential, derive_rng, sample

rates = st.floats(min_value=0.05, max_value=20.0)


def mgf_eval(model, theta):
    return math.exp(model.log_mgf(theta))


def test_mgf_exponential_closed_form():
    # rate/(rate - theta)
    assert mgf_eval(Exponential(1.0), 0.5) == pytest.approx(2.0, rel=1e-12)


def test_mgf_at_zero_is_one():
    for model in (Exponential(0.7), Deterministic(3.0), Erlang(4, 2.0)):
        assert mgf_eval(model, 0.0) == 1.0


def test_mgf_erlang_negative_theta():
    # oracle: Monte-Carlo mean of exp(-X) for X the sum of two unit
    # exponentials; frozen closed-form value (1/2)**2
    rng = np.random.default_rng(101)
    x = rng.exponential(1.0, 1_000_000) + rng.exponential(1.0, 1_000_000)
    mc = np.exp(-x).mean()
    se = np.exp(-x).std() / 1000.0
    assert abs(mc - 0.25) < 4 * se
    assert mgf_eval(Erlang(2, 1.0), -1.0) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("model", [Exponential(1.0), Erlang(3, 1.0)])
def test_mgf_domain_guard(model):
    assert model.mgf_limit == 1.0
    assert model.log_mgf(1.0) == math.inf
    assert model.log_mgf(1.0 - 5e-10) == math.inf  # inside the guard band
    assert mgf_eval(model, 1.0 - 1e-6) > 1.0


def test_deterministic_mgf_everywhere_finite():
    assert math.isinf(Deterministic(2.0).mgf_limit)
    assert mgf_eval(Deterministic(2.0), 300.0) == pytest.approx(math.exp(600.0))
    # log space stays finite where the MGF value itself overflows
    assert Deterministic(2.0).log_mgf(400.0) == 800.0
    assert mgf_eval(Deterministic(2.0), -5.0) == pytest.approx(math.exp(-10.0))


@given(rate=rates, theta=st.floats(min_value=0.01, max_value=5.0))
def test_negative_theta_in_unit_interval(rate, theta):
    for model in (Exponential(rate), Deterministic(1.0 / rate), Erlang(2, rate)):
        v = mgf_eval(model, -theta)
        assert 0.0 < v <= 1.0


@given(rate=rates, t1=st.floats(min_value=-5.0, max_value=0.9), t2=st.floats(min_value=-5.0, max_value=0.9))
def test_mgf_strictly_increasing(rate, t1, t2):
    lo, hi = sorted((t1 * rate, t2 * rate))
    if hi - lo < 1e-9:
        return
    for model in (Exponential(rate), Deterministic(1.0 / rate), Erlang(3, rate)):
        assert mgf_eval(model, lo) < mgf_eval(model, hi)


@given(rate=rates, shape=st.integers(min_value=1, max_value=6),
       frac=st.floats(min_value=-3.0, max_value=0.95))
def test_erlang_is_exponential_power(rate, shape, frac):
    theta = frac * rate
    expected = mgf_eval(Exponential(rate), theta) ** shape
    assert mgf_eval(Erlang(shape, rate), theta) == pytest.approx(expected, rel=1e-9)


def test_means_match_monte_carlo():
    rng = np.random.default_rng(7)
    n = 400_000
    for model in (Exponential(0.5), Deterministic(3.0), Erlang(4, 2.0)):
        draws = sample(model, rng, n)
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - model.mean) <= 3 * se + 1e-12


# the generator calls each model's draws must reproduce bit for bit
SEED_CONTRACT = {
    Exponential: lambda m, rng, n: rng.exponential(1.0 / m.rate, n),
    Erlang: lambda m, rng, n: rng.gamma(m.shape, 1.0 / m.rate, n),
    Deterministic: lambda m, rng, n: np.full(n, m.value),
}


@pytest.mark.parametrize(
    "model",
    [Exponential(0.05), Exponential(0.5), Exponential(3.7), Erlang(1, 0.5), Erlang(3, 0.25),
     Erlang(7, 2.0), Erlang(16, 1.0), Deterministic(0.3)],
)
def test_sample_keeps_the_seed_contract(model):
    n = 100_000
    expected = SEED_CONTRACT[type(model)](model, derive_rng(11, 0, 0), n)
    plain = sample(model, derive_rng(11, 0, 0), n)
    # into a view inside a larger array, as the event stream's store passes it
    store = np.zeros(n + 10)
    out = store[5:n + 5]
    written = sample(model, derive_rng(11, 0, 0), n, out=out)
    assert written is out and not store[:5].any() and not store[n + 5:].any()
    for x in (plain, out):
        assert x.dtype == np.float64
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Deterministic(0.0),
        lambda: Erlang(0, 1.0),
        lambda: Erlang(2, -0.5),
    ],
)
def test_invalid_parameters_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()

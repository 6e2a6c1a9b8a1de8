"""Replications for the tests: `arrays` collects every piece the simulator
yields into whole delay, peak-age and peak-deviation arrays,
`nan_in_second_service_draw` makes a sampler whose draws hold a nan, and
`soundness_plan` lists the 12 scenarios of acceptance criterion 7."""

import math

import numpy as np

from agecalc import EventTriggered, Scenario, TimeTriggered
from agecalc.simulate import _simulate_chunks
from agecalc.sweeps import make_model


def arrays(scenario, n, seed, replication, burn_in):
    """A replication's burned-in arrays (delay, peak_aoi, peak_doi) in full,
    the deviations as floats, copied from each piece _simulate_chunks yields:
    the reference for what _simulate_to_file writes and counts."""
    t, a, f = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    for done, (dt, da, dev) in _simulate_chunks(scenario, n, seed, replication):
        lo = max(done - 1, 0)
        t[done:done + len(dt)] = dt
        a[lo:lo + len(da)] = da
        f[lo:lo + len(dev)] = dev
    return t[burn_in:], a[burn_in:], f[burn_in:]


def nan_in_second_service_draw(sample):
    """`sample` with one nan put into the second service draw of each
    process that calls it, the second call without `out`: the event stream
    draws into its store, the service draws into a new array."""
    service_draws = 0

    def poisoned(model, rng, k, out=None):
        nonlocal service_draws
        x = sample(model, rng, k, out=out)
        if out is None:
            service_draws += 1
            if service_draws == 2:
                x[k // 2] = np.nan
        return x

    return poisoned


def soundness_plan():
    """(label, scenario) of 12 scenarios spanning both policies, both event
    kinds and both service kinds, at utilizations 0.25 / 0.5 / 0.8. Event
    rate 1 for the event-triggered rows keeps the coupled threshold
    integral."""
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
            assert math.isclose(scenario.utilization, u, rel_tol=1e-12)
            label = "%s-%s-%s-u%02.0f" % (policy_kind, event_kind[0], service_kind[0], u * 100)
            plan.append((label, scenario))
    return plan

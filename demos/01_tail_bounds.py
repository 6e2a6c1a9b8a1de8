"""Walkthrough: from distribution models to optimized tail bounds.

Builds the two sampling policies over the same queue, evaluates the
envelope rates at one Chernoff parameter, forms the MGF bounds, inverts
them into epsilon-quantiles, and lets the optimizer pick the parameter.
The single-event-triggered exponential system is a plain M|M|1 queue, so
its bound can be held against the known exact tail.
"""

import math

from agecalc import (
    EventTriggered,
    Exponential,
    Metric,
    Scenario,
    TimeTriggered,
    envelope_set,
    exact_mm1_tail,
    invert_to_quantile,
    log_aoi_mgf_bound,
    log_delay_mgf_bound,
    optimize_theta,
)

events = Exponential(rate=0.5)      # sensor events, mean gap 2
service = Exponential(rate=1.0)     # network service, mean 1

# Sampling every w=2 time units and sampling on every event (threshold 1)
# load the queue identically: utilization 0.5.
periodic = TimeTriggered(interval=2.0)
on_event = EventTriggered(threshold=1)

print("== envelope rates at theta = 0.25 ==")
env = envelope_set(periodic, events, service, theta=0.25)
print("service rate envelope   rho_s =", round(env.rho_service, 6))
print("arrival lower envelope  rho_a =", env.rho_arrival_lower)
print("stable (rho_a > rho_s):        ", env.stable)

print("\n== MGF bounds at that theta ==")
log_delay = log_delay_mgf_bound(env)
log_age = log_aoi_mgf_bound(env)
print("E[exp(0.25 T)]     <=", round(math.exp(log_delay), 4))
print("E[exp(0.25 peak)]  <=", round(math.exp(log_age), 4))

eps = 1e-6
print("\n== Chernoff inversion at epsilon =", eps, "==")
print("delay quantile bound:", round(invert_to_quantile(log_delay, 0.25, eps), 3))
print("age   quantile bound:", round(invert_to_quantile(log_age, 0.25, eps), 3))

print("\n== optimizing theta instead of guessing it ==")
for policy, name in ((periodic, "periodic "), (on_event, "on-event ")):
    scenario = Scenario(events, service, policy, eps)
    for metric in (Metric.DELAY, Metric.PEAK_AOI):
        res = optimize_theta(scenario, metric)
        print(
            "%s %-8s bound %8.3f   at theta* = %.4f"
            % (name, metric.value, res.value, res.theta_star)
        )

print("\n== sanity: the on-event system is M|M|1 with a known tail ==")
for eps in (1e-3, 1e-6, 1e-9):
    bound = optimize_theta(Scenario(events, service, on_event, eps), Metric.DELAY).value
    exact = exact_mm1_tail(0.5, 1.0, eps)
    print("eps=%.0e  bound %7.3f   exact %7.3f   ratio %.2f" % (eps, bound, exact, bound / exact))

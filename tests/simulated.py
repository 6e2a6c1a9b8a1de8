"""Replications for the tests: `arrays` collects every chunk the simulator
yields into whole delay, peak-age and peak-deviation arrays, and
`nan_in_second_service_draw` makes a sampler whose draws hold a nan."""

import numpy as np

from agecalc.simulate import _simulate_chunks


def arrays(scenario, n, seed, replication, burn_in):
    """A replication's burned-in arrays (delay, peak_aoi, peak_doi) in full,
    the deviations as floats, copied from each chunk _simulate_chunks yields:
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

"""A replication in full, for the tests: `arrays` collects every chunk the
simulator yields into whole delay, peak-age and peak-deviation arrays."""

import numpy as np

from agecalc.simulate import _CHUNK, _simulate_chunks


def arrays(scenario, n, seed, replication, burn_in, chunk=_CHUNK):
    """A replication's burned-in arrays (delay, peak_aoi, peak_doi) in full,
    the deviations as floats, copied from each chunk _simulate_chunks yields:
    the reference for what _simulate_to_file writes and counts."""
    t, a, f = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    for done, (dt, da, dev) in _simulate_chunks(scenario, n, seed, replication, chunk):
        lo = max(done - 1, 0)
        t[done:done + len(dt)] = dt
        a[lo:lo + len(da)] = da
        f[lo:lo + len(dev)] = dev
    return t[burn_in:], a[burn_in:], f[burn_in:]

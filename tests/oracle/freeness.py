"""The full-box freeness scan: every offset of [-(extent-1), extent-1]^d,
with the circle distance taken as min(mod(t, 1), 1 - mod(t, 1)).  The
package scans half the box with the exact distance |t - rint(t)|; this
scan is within 2^-52 of it and reports the first minimiser in C order."""

from typing import Tuple

import numpy as np

from equidecomp.lattice import ActionSpec


def min_orbit_separation(action: ActionSpec, extent: int) -> Tuple[float, Tuple[int, ...]]:
    """Minimum l-infinity torus distance between distinct orbit points over a
    window of the given extent, found by scanning the difference set
    [-(extent-1), extent-1]^d.  Returns (distance, witness delta)."""
    m = 2 * extent - 1
    lo = -(extent - 1)
    total = np.zeros((m,) * action.d + (action.k,), dtype=np.float64)
    for i in range(action.d):
        ax = np.arange(lo, extent, dtype=np.float64)
        view = [1] * action.d + [1]
        view[i] = m
        total += ax.reshape(view) * action.u[i].reshape([1] * action.d + [action.k])
    frac = np.mod(total, 1.0)
    circ = np.minimum(frac, 1.0 - frac)
    dist = circ.max(axis=-1)
    center = (extent - 1,) * action.d
    dist[center] = np.inf
    flat = int(np.argmin(dist))
    idx = np.unravel_index(flat, dist.shape)
    delta = tuple(int(j) + lo for j in idx)
    return float(dist[idx]), delta

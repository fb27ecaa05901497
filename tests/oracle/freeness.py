"""Two freeness scans the package's scan is checked against.

`min_orbit_separation` is the full-box scan: every offset of
[-(extent-1), extent-1]^d, with the circle distance taken as
min(mod(t, 1), 1 - mod(t, 1)).  It is within 2^-52 of the exact distance
|t - rint(t)| and reports the first minimiser in C order of the full box.

`blocked_min_orbit_separation` is the package's half-box scan as it was
before the sorted query: coordinate 0 formed on every offset, in blocks
of whole delta_0 slabs, by outer sums.  Its (distance, witness) is the
package's to the bit."""

import math
from typing import Sequence, Tuple

import numpy as np

from equidecomp.lattice import ActionSpec

SCAN_BLOCK = 2 ** 17    # offsets the blocked scan forms at once, at least
                        # one delta_0 slab


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


def _coord_dist(axes: Sequence[np.ndarray], col: np.ndarray,
                out: np.ndarray, near: np.ndarray) -> np.ndarray:
    """|t - rint(t)| over the box of the given axes, written into out (and
    returned), with t = sum_i delta_i col_i summed from 0 in axis order as
    outer sums; near is scratch of out's shape."""
    part = np.zeros(())
    for ax, g in zip(axes[:-1], col[:-1]):
        part = np.add.outer(part, ax * g)
    np.add.outer(part, axes[-1] * col[-1], out=out)
    np.rint(out, out=near)
    np.subtract(out, near, out=out)
    return np.abs(out, out=out)


def blocked_min_orbit_separation(action: ActionSpec, extent: int) -> Tuple[float, Tuple[int, ...]]:
    """Minimum l-infinity torus distance between distinct orbit points over a
    window of the given extent.  delta and -delta give the same distance,
    so only the half box [0, extent) x [-(extent-1), extent-1]^(d-1) of the
    difference set is scanned, in blocks of whole delta_0 slabs of about
    SCAN_BLOCK offsets.  With t = sum_i delta_i u_ic summed from 0 in axis
    order, a coordinate's distance |t - rint(t)| is the exact distance of
    the float t to the nearest integer.  Coordinate 0 is formed on every
    block; the others on the first block, and after that only where
    coordinate 0 is below the least distance found so far, since no other
    offset can beat it.  Returns (distance, witness delta): the first
    minimiser in C order of the half box."""
    d, u = action.d, action.u
    axes = [np.arange(extent, dtype=np.float64)] \
        + [np.arange(1 - extent, extent, dtype=np.float64)] * (d - 1)
    slab = (2 * extent - 1) ** (d - 1)
    step = max(1, SCAN_BLOCK // slab)
    # three arrays, not one of thrice the size: glibc raises its mmap
    # threshold to the largest block freed, and the heap grows with it
    bufs = [np.empty(min(step, extent) * slab) for _ in range(3)]
    best, witness = np.inf, (0,) * d
    for lo in range(0, extent, step):
        block = [axes[0][lo:lo + step]] + axes[1:]
        shape = tuple(len(ax) for ax in block)
        dist, t, near = (b[:math.prod(shape)].reshape(shape) for b in bufs)
        _coord_dist(block, u[:, 0], dist, near)
        dist = dist.ravel()
        if lo == 0:     # every offset, but the origin delta = 0
            dist[np.ravel_multi_index((0,) + (extent - 1,) * (d - 1),
                                      shape)] = np.inf
            cand = np.arange(dist.size)
            for c in range(1, action.k):
                np.maximum(dist, _coord_dist(block, u[:, c], t, near).ravel(),
                           out=dist)
        else:
            cand = np.flatnonzero(dist < best)
            dist = dist[cand]
            idx = np.unravel_index(cand, shape)
            for c in range(1, action.k):
                tc = np.zeros(cand.size)
                for ax, j, g in zip(block, idx, u[:, c]):
                    tc += ax[j] * g
                np.maximum(dist, np.abs(tc - np.rint(tc)), out=dist)
        if dist.size and dist.min() < best:
            j = int(np.argmin(dist))
            best = float(dist[j])
            at = np.unravel_index(int(cand[j]), shape)
            witness = tuple(int(ax[i]) for ax, i in zip(block, at))
    return best, witness

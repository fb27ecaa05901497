"""The orbit grid summed with the torus coordinate as the last axis:
every axis's n_i * u_i is broadcast over the whole (..., k) array, and
the sum is reduced by np.mod(x, 1.0).  ActionSpec.grid_points sums each
coordinate in its own plane and reduces by x - floor(x); the two must
agree bit for bit."""

from typing import Optional, Sequence

import numpy as np

from equidecomp.lattice import MOD_TOL, ActionSpec


def reduce_mod1(x: np.ndarray) -> np.ndarray:
    """Reduce into [0, 1) by np.mod; values within MOD_TOL below 1 snap
    to 0."""
    r = np.mod(np.asarray(x, dtype=np.float64), 1.0)
    r[r >= 1.0 - MOD_TOL] = 0.0
    return r


def grid_points(action: ActionSpec, ns: Sequence[int],
                x: Optional[np.ndarray] = None) -> np.ndarray:
    """Torus points of the grid prod_i [0, ns_i), shape ns + (k,), by
    per-axis accumulation into one (..., k) array."""
    base = action.x0 if x is None else np.asarray(x, dtype=np.float64)
    shape = tuple(int(n) for n in ns)
    total = np.zeros(shape + (action.k,), dtype=np.float64)
    total += base
    for i in range(action.d):
        ax = np.arange(shape[i], dtype=np.float64)
        view = [1] * action.d + [1]
        view[i] = shape[i]
        total += ax.reshape(view) * action.u[i].reshape([1] * action.d
                                                        + [action.k])
    return reduce_mod1(total)

"""Hot integer kernels for the box-flow construction.

Everything here works on int64 numerators at a fixed power-of-two scale, so
the results are exact.  A level-n box (side 2^n, h = 2^(n-1)) pushes the
mass of its half-box along the segments z, z + gamma, ..., z + h gamma.
Along each axis the box phases that let segment i cross the edge
(v, v + gamma) form one interval, and the half-box corners they start
from sweep v - i gamma - [0, h) once (twice on an axis where gamma is 0).
So the sum over all 2^(n d) phases is one line sum,

    T_gamma[v] = 2^(#zero coords of gamma) * sum_{i < h} B[v - i gamma - (h - 1)]

where B = subbox_sums(subbox_sums(f, h), h) is the tent-weighted box sum
of the level, the same array for every direction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def subbox_sums(grid: np.ndarray, side: int) -> np.ndarray:
    """Sums of `grid` over every axis-aligned box of the given side.

    Output shape is (L - side + 1,)^d; entry at base v is the sum over
    [v, v + side)^d.
    """
    arr = np.asarray(grid, dtype=np.int64)
    for ax in range(arr.ndim):
        c = np.cumsum(arr, axis=ax, dtype=np.int64)
        pad_shape = list(c.shape)
        pad_shape[ax] = 1
        c = np.concatenate([np.zeros(pad_shape, dtype=np.int64), c], axis=ax)
        hi = [slice(None)] * arr.ndim
        lo = [slice(None)] * arr.ndim
        hi[ax] = slice(side, None)
        lo[ax] = slice(None, c.shape[ax] - side)
        arr = c[tuple(hi)] - c[tuple(lo)]
    return arr


def level_box(grid: np.ndarray, n: int) -> np.ndarray:
    """B for level n: subbox_sums applied twice with side h = 2^(n-1)."""
    h = 1 << (n - 1)
    return subbox_sums(subbox_sums(grid, h), h)


def level_edge_grid(box: np.ndarray, L: int, n: int,
                    gamma: Tuple[int, ...]) -> np.ndarray:
    """Scaled level-n flow on edges (y, y + gamma): the phase sum at y minus
    the reverse phase sum at y + gamma,

        2^(#zero coords) * (sum_{i < h} B[y - i gamma]
                            - sum_{1 <= i <= h} B[y + i gamma]),

    with B = level_box(f, n) read at offset -(h - 1).  Zero unless y and
    y + gamma lie in the level-n valid region [2^n - 1, L - 2^n]^d.  True
    flow value = grid / 2^(2 n d)."""
    d = len(gamma)
    h = 1 << (n - 1)
    out = np.zeros((L,) * d, dtype=np.int64)
    lo = [(1 << n) - 1 + (g < 0) for g in gamma]
    hi = [L - (1 << n) - (g > 0) for g in gamma]
    if any(l > u for l, u in zip(lo, hi)):
        return out
    acc = out[tuple(slice(l, u + 1) for l, u in zip(lo, hi))]
    for i in range(-h, h):
        src = tuple(slice(l - i * g - h + 1, u - i * g - h + 2)
                    for l, u, g in zip(lo, hi, gamma))
        if i >= 0:
            acc += box[src]
        else:
            acc -= box[src]
    acc *= 1 << gamma.count(0)
    return out

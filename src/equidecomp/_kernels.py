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
of the level, the same array for every direction.  add_line_sum forms it
only over a given box of edge tails, as 2h shifted slice-adds of B.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def subbox_sums(grid: np.ndarray, side: int) -> np.ndarray:
    """Sums of `grid` over every axis-aligned box of the given side.

    Output shape is (L - side + 1,)^d; entry at base v is the sum over
    [v, v + side)^d, as a fresh int64 array (a copy of grid at side 1).
    """
    if side == 1:
        return np.array(grid, dtype=np.int64)
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


def add_line_sum(acc: np.ndarray, box: np.ndarray, n: int,
                 gamma: Sequence[int], corner: Sequence[int]) -> None:
    """acc[y - corner] += the level-n flow on (y, y + gamma) over
    2^(#zero coords), the phase sum at y minus the reverse one at y + gamma,

        sum_{i < h} B[y - i gamma] - sum_{1 <= i <= h} B[y + i gamma],

    with B = level_box(f, n) read at offset -(h - 1), for the tails y of
    the box corner + [0, acc.shape).  Both ends of each such edge must lie
    in the level-n valid region [2^n - 1, L - 2^n]^d, so every read is in
    B.  True flow value = 2^(#zero coords) * acc / 2^(2 n d)."""
    h = 1 << (n - 1)
    for i in range(-h, h):
        src = tuple(slice(c - i * g - h + 1, c - i * g - h + 1 + s)
                    for c, g, s in zip(corner, gamma, acc.shape))
        if i >= 0:
            acc += box[src]
        else:
            acc -= box[src]

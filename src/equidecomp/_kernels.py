"""Hot integer kernels for the box-flow construction.

Everything here works on int64 numerators at a fixed power-of-two scale, so
the results are exact.  The central quantity is the per-level phase sum

    T_gamma[v] = sum over box phases p of count(p, gamma) * SB[v - p + qoff(p, gamma)]

where SB holds sums of the field over all half-side sub-boxes.  count() is
the number of mass-transport segments through the edge (v, v + gamma) in a
box whose phase places v at offset p, and qoff locates the half-box the
segments start from.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=None)
def phase_tables(n: int, gamma: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-phase segment counts and sub-box offsets for level n.

    For a vertex at offset p inside its side-2^n box, the transport segments
    z, z + gamma, ..., z + 2^(n-1) gamma passing through the edge
    (v, v + gamma) are indexed by i in [0, 2^(n-1)) with z = v - i gamma; the
    count is the size of the intersection of per-coordinate index windows.
    All segment sources fall in one half-side sub-box whose corner offset
    from the box corner is qoff.
    """
    d = len(gamma)
    h = 1 << (n - 1)
    side = 1 << n
    p = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T  # (phases, d)
    lo = np.zeros_like(p)
    hi = np.full_like(p, h - 1)
    qoff = np.zeros_like(p)
    for j, gj in enumerate(gamma):
        pj = p[:, j]
        if gj > 0:
            lo[:, j] = np.maximum(0, pj - h + 1)
            hi[:, j] = np.minimum(h - 1, pj)
        elif gj < 0:
            lo[:, j] = np.maximum(0, h - pj)
            hi[:, j] = np.minimum(h - 1, (side - 1) - pj)
            qoff[:, j] = h
        else:
            qoff[:, j] = np.where(pj < h, 0, h)
    counts = np.maximum(0, hi.min(axis=1) - lo.max(axis=1) + 1).astype(np.int64)
    return counts, qoff


def phase_sum(sb: np.ndarray, L: int, n: int, gamma: Tuple[int, ...]) -> np.ndarray:
    """Sum over all 2^(n d) box phases of count * sub-box-sum for the edge
    direction gamma, on the window grid (zero outside the level-n valid
    region [2^n - 1, L - 2^n]^d)."""
    d = len(gamma)
    a, b = (1 << n) - 1, L - (1 << n)
    out = np.zeros((L,) * d, dtype=np.int64)
    if a > b:
        return out
    counts, qoff = phase_tables(n, gamma)
    side = 1 << n
    p = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T
    extent = b - a + 1
    dst = tuple(slice(a, b + 1) for _ in range(d))
    for i in range(counts.shape[0]):
        c = int(counts[i])
        if c == 0:
            continue
        start = a - p[i] + qoff[i]
        src = tuple(slice(int(s), int(s) + extent) for s in start)
        out[dst] += c * sb[src]
    return out


def level_edge_grid(sb: np.ndarray, L: int, n: int,
                    gamma: Tuple[int, ...]) -> np.ndarray:
    """Scaled level-n flow on edges (y, y + gamma): the phase sum at y minus
    the reverse phase sum at y + gamma.  True flow value = grid / 2^(2 n d)."""
    d = len(gamma)
    t_pos = phase_sum(sb, L, n, gamma)
    t_neg = phase_sum(sb, L, n, tuple(-g for g in gamma))
    a, b = (1 << n) - 1, L - (1 << n)
    out = np.zeros((L,) * d, dtype=np.int64)
    lo = [a + (1 if g < 0 else 0) for g in gamma]
    hi = [b - (1 if g > 0 else 0) for g in gamma]
    if any(l > h for l, h in zip(lo, hi)):
        return out
    dst = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    shift = tuple(slice(l + g, h + 1 + g) for l, h, g in zip(lo, hi, gamma))
    out[dst] = t_pos[dst] - t_neg[shift]
    return out

"""Nets and tilings of the core.

The lattice graph joins vertices differing by any nonzero vector in
{-1,0,1}^d, so graph distance inside the box window is the l-infinity
metric and balls are box dilations.  Everything here is deterministic:
every "pick an element" is the lexicographically least choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Tuple

import numpy as np

from .lattice import LatticeWindow


# ---------------------------------------------------------------------------
# nets and balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Net:
    points: np.ndarray         # (m, d) sorted lex
    r: int


def ball_mask(mask: np.ndarray, r: int) -> np.ndarray:
    """B_r(S) as a mask: all vertices within graph distance r of S.

    An l-infinity ball is a box, so the dilation is separable: one pass
    per axis marks each position whose window [i - r, i + r] holds a
    vertex, read off the running count along that axis."""
    if r < 0:
        raise ValueError("r >= 0")
    out = np.asarray(mask, dtype=bool)
    for ax, n in enumerate(out.shape):
        count = np.insert(np.cumsum(out, axis=ax), 0, 0, axis=ax)
        # count[i] vertices in [0, i); r is clipped so no index overflows
        i, s = np.arange(n), min(r, n)
        out = (np.take(count, np.minimum(i + s + 1, n), axis=ax)
               > np.take(count, np.maximum(i - s, 0), axis=ax))
    return out


def greedy_net(window: LatticeWindow, r: int, restrict: np.ndarray) -> Net:
    """Lexicographic greedy maximal r-discrete set within the vertex mask
    `restrict`: admit a vertex iff all previously admitted points are
    farther than r away."""
    if r < 1:
        raise ValueError("r >= 1")
    blocked = np.zeros(window.shape, dtype=bool)
    flat_blocked = blocked.reshape(-1)
    cand = np.flatnonzero(restrict)
    pts = []
    L = window.L
    # a cursor over the candidates in flat (= lexicographic) order: blocks
    # only grow, so every candidate before it stays blocked, and the next
    # free one is found by argmin over a window that doubles while it
    # holds none
    pos, step = 0, 64
    while pos < len(cand):
        ahead = flat_blocked[cand[pos:pos + step]]
        k = int(np.argmin(ahead))
        if ahead[k]:
            pos += step
            step *= 2
            continue
        pos += k + 1
        step = 64
        tv = tuple(int(c) for c in np.unravel_index(cand[pos - 1],
                                                    window.shape))
        pts.append(tv)
        sl = tuple(slice(max(0, c - r), min(L, c + r + 1)) for c in tv)
        blocked[sl] = True
    if pts and not blocked[restrict].all():
        raise AssertionError("greedy net not maximal")
    return Net(points=np.asarray(pts, dtype=np.int64).reshape(len(pts), window.d), r=r)


# ---------------------------------------------------------------------------
# tilings of the core
# ---------------------------------------------------------------------------

@dataclass
class Tiling:
    """A partition of the core into tiles.

    tiles[t] = (lo, hi) is tile t's half-open bounding box [lo, hi) as one
    (n, 2, d) int64 array; in a rect tiling the box is the tile itself.
    tile_id is the window grid of tile ids, -1 outside the core.
    """

    window: LatticeWindow
    K: int
    tiles: np.ndarray          # (n, 2, d) int64 [lo, hi) boxes
    tile_id: np.ndarray        # int32 grid, -1 outside the core
    improper: bool = False     # True when a K+remainder strip was needed

    @property
    def sides(self) -> np.ndarray:
        """(n, d) box sides."""
        return self.tiles[:, 1] - self.tiles[:, 0]

    @property
    def K_eff(self) -> int:
        """The piece scale: K, or the largest tile side less one."""
        return int(max(self.K, self.sides.max() - 1))


def _axis_sides(side: int, K: int) -> Tuple[List[int], bool]:
    q, r = divmod(side, K)
    if r == 0:
        return [K] * q, False
    if r <= q:
        return [K] * (q - r) + [K + 1] * r, False
    return [K] * (q - 1) + [K + r], True     # remainder strip, flagged


def rect_tiling(window: LatticeWindow, K: int) -> Tiling:
    """Partition the core into boxes of side K or K+1 per axis (greedy
    mixed layout), numbered in row-major order of their per-axis indices.
    When the core side has remainder > quotient, one K+remainder strip per
    axis is used instead and the tiling is flagged."""
    lo, hi = window.core_bounds
    side = hi - lo
    if not (1 <= K <= side):
        raise ValueError("need 1 <= K <= core side %d" % side)
    sides, improper = _axis_sides(side, K)
    d, m = window.d, len(sides)
    stops = lo + np.cumsum(sides, dtype=np.int64)
    cells = np.indices((m,) * d).reshape(d, -1).T        # row-major
    tiles = np.stack([(stops - sides)[cells], stops[cells]], axis=1)
    axis_tile = np.repeat(np.arange(m), sides)
    tile_id = np.full(window.shape, -1, dtype=np.int32)
    tile_id[(slice(lo, hi),) * d] = np.ravel_multi_index(
        np.ix_(*[axis_tile] * d), (m,) * d)
    if not ((tile_id >= 0) == window.core_mask()).all():
        raise AssertionError("tiling does not partition the core")
    return Tiling(window=window, K=K, tiles=tiles, tile_id=tile_id,
                  improper=improper)


def voronoi_tiling(window: LatticeWindow, net: Net) -> Tiling:
    """Cell of a seed = core vertices whose lexicographically least nearest
    seed it is.  Cross-validation alternative to rect_tiling.  A cell's box
    is its bounding box; an empty cell keeps its seed's unit box.

    Each seed scans only its (2r+1)^d box, clipped to the core, in seed
    order with a strict <.  When some seed is within r of a vertex, all of
    its nearest seeds are, so they all scan it and the least is kept.  Core
    vertices with no seed within r (the seeds are not an r-net of the
    core) fall back to a scan over all seeds."""
    if len(net.points) == 0:
        raise ValueError("empty net")
    lo, hi = window.core_bounds
    r = net.r
    seeds = np.asarray(sorted(map(tuple, net.points.tolist())), dtype=np.int64)
    best_d = np.full((hi - lo,) * window.d, r + 1, dtype=np.int64)
    best_i = np.full(best_d.shape, -1, dtype=np.int64)
    for i, s in enumerate(seeds):
        a, b = np.maximum(s - r, lo), np.minimum(s + r + 1, hi)
        if (a >= b).any():
            continue
        dist = reduce(np.maximum, np.ix_(*[np.abs(np.arange(x, y) - c)
                                           for x, y, c in zip(a, b, s)]))
        box = tuple(slice(x - lo, y - lo) for x, y in zip(a, b))
        better = dist < best_d[box]
        best_d[box][better] = dist[better]
        best_i[box][better] = i
    far = best_i < 0
    if far.any():
        pts = np.argwhere(far) + lo
        best_i[far] = np.stack([np.abs(pts - s).max(axis=1)
                                for s in seeds]).argmin(axis=0)
    tile_id = np.full(window.shape, -1, dtype=np.int32)
    tile_id[(slice(lo, hi),) * window.d] = best_i
    ids = best_i.ravel()
    coords = np.indices(best_i.shape).reshape(window.d, -1).T + lo
    tiles = np.stack([np.full_like(seeds, window.L), np.zeros_like(seeds)],
                     axis=1)
    np.minimum.at(tiles[:, 0], ids, coords)
    np.maximum.at(tiles[:, 1], ids, coords + 1)
    empty = tiles[:, 1, 0] == 0
    tiles[empty] = np.stack([seeds, seeds + 1], axis=1)[empty]
    return Tiling(window=window, K=net.r, tiles=tiles, tile_id=tile_id,
                  improper=True)   # cells are not boxes; flag non-rectangular

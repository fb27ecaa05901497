"""Regions, boundaries, nets, ball enlargements, covers, and tilings.

The lattice graph joins vertices differing by any nonzero vector in
{-1,0,1}^d, so graph distance inside the box window is the l-infinity
metric and balls are box dilations.  Everything here is deterministic:
every "pick an element" is the lexicographically least choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_array

from .lattice import LatticeWindow, directions, edge_mask, flat_shifts

EdgeArray = np.ndarray      # (m, 2) int64 flat vertex pairs


def _components(window: LatticeWindow, mask: np.ndarray
                ) -> Tuple[int, np.ndarray]:
    """(count, flat labels) of the components of the lattice graph on the
    vertices of mask; every vertex off the mask is a component alone."""
    row, tail = np.nonzero(edge_mask(window, mask, np.logical_and))
    n = window.n_vertices
    graph = csr_array((np.ones(len(tail), dtype=np.int8),
                       (tail, tail + flat_shifts(window)[row])), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


class Region:
    """Vertex set inside a window, stored as a boolean grid."""

    def __init__(self, window: LatticeWindow, mask: np.ndarray):
        if mask.shape != window.shape or mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean window grid")
        self.window = window
        self.mask = mask
        self._boundary: Optional[EdgeArray] = None
        self._connected: Optional[bool] = None

    @classmethod
    def from_vertices(cls, window: LatticeWindow,
                      vertices: Iterable[Sequence[int]]) -> "Region":
        mask = np.zeros(window.shape, dtype=bool)
        for v in vertices:
            mask[tuple(int(c) for c in v)] = True
        return cls(window, mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def vertices(self) -> np.ndarray:
        return np.argwhere(self.mask)

    def is_connected(self) -> bool:
        if self._connected is None:
            num, _ = _components(self.window, self.mask)
            self._connected = num - (self.mask.size - self.size) <= 1
        return self._connected

    def diameter(self) -> int:
        """l-infinity diameter: the largest bounding-box extent."""
        if not self.mask.any():
            return 0
        vs = self.vertices()
        return int((vs.max(axis=0) - vs.min(axis=0)).max())

    def touches_shell(self) -> bool:
        L = self.window.L
        m = self.mask
        return any(m.take(0, axis=ax).any() or m.take(L - 1, axis=ax).any()
                   for ax in range(self.window.d))

    def boundary(self) -> EdgeArray:
        if self._boundary is None:
            self._boundary = boundary(self)
        return self._boundary


def boundary(F: Region) -> EdgeArray:
    """Edges with exactly one endpoint in F, as rows (inside, outside) of
    flat vertex indices, lexicographically sorted."""
    row, tail = np.nonzero(boundary_n(F, 1))
    head = tail + flat_shifts(F.window)[row]
    tail_in = F.mask.ravel()[tail]
    arr = np.stack([np.where(tail_in, tail, head),
                    np.where(tail_in, head, tail)], axis=1)
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def boundary_n(F: Region, n: int) -> np.ndarray:
    """n-fold edge neighborhood of the boundary, as a slot mask (see
    lattice.edge_mask): the boundary edges, grown by "shares a vertex
    with" n-1 times."""
    if n < 1:
        raise ValueError("n >= 1")
    window = F.window
    mask = edge_mask(window, F.mask, np.not_equal)
    for _ in range(n - 1):
        row, tail = np.nonzero(mask)
        verts = np.zeros(window.n_vertices, dtype=bool)
        verts[tail] = True
        verts[tail + flat_shifts(window)[row]] = True
        mask = edge_mask(window, verts.reshape(window.shape), np.logical_or)
    return mask


def fill_holes(S: Region) -> Region:
    """Add every component of the complement that cannot reach the window
    shell; afterwards all boundary edges are visible from the shell."""
    if not S.is_connected():
        raise ValueError("region must be connected")
    if S.touches_shell():
        raise ValueError("region touches the window shell; holes indeterminable")
    window = S.window
    comp = _components(window, ~S.mask)[1].reshape(window.shape)
    shell = np.ones(window.shape, dtype=bool)
    shell[(slice(1, -1),) * window.d] = False
    # S's own vertices are components alone, so none of them reaches
    filled = Region(window, ~np.isin(comp, comp[shell]))
    filled._connected = True
    # sanity: no new boundary edges, and all remain shell-visible
    if (boundary_n(filled, 1) & ~boundary_n(S, 1)).any():
        raise AssertionError("hole filling created a boundary edge")
    return filled


# ---------------------------------------------------------------------------
# nets, balls, enlargement
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


def ball(S: Region, r: int) -> Region:
    return Region(S.window, ball_mask(S.mask, r))


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


def _disjoint(masks: Sequence[np.ndarray]) -> bool:
    """No vertex lies in two of the masks."""
    return int(np.max(sum(m.astype(np.int16) for m in masks))) <= 1


def enlarge(Y: Sequence[Region], Z: Sequence[Region], r: int) -> List[Region]:
    """For each S in Y adjoin the r-balls of all members of Z within
    distance r of S.  Hypotheses (diameters <= r in Z, pairwise gaps) are
    checked; conclusions (S subset Q subset B_3r(S); connected, pairwise
    disjoint; each R in Z swallowed or far) are asserted.

    Every distance is a ball test: d(R, S) <= r iff B_r(R) meets S, and
    two sets are more than 2s apart iff their s-balls are disjoint."""
    if not Y:
        return []
    window = Y[0].window
    for R in Z:
        if R.diameter() > r:
            raise ValueError("enlarge hypothesis: diam(R) <= r fails")
    zballs = [ball_mask(R.mask, r) for R in Z]
    if not _disjoint(zballs):
        raise ValueError("enlarge hypothesis: d(R,R') > 2r fails in Z")
    yballs = [ball_mask(S.mask, 3 * r) for S in Y]
    if not _disjoint(yballs):
        raise ValueError("enlarge hypothesis: d(S,S') > 6r fails in Y")
    out: List[Region] = []
    for S, bS in zip(Y, yballs):
        q = S.mask.copy()
        for bR in zballs:
            if (bR & S.mask).any():
                q |= bR
        Q = Region(window, q)
        if (q & ~bS).any():
            raise AssertionError("enlarge: Q exceeds B_3r(S)")
        if (S.mask & ~q).any():
            raise AssertionError("enlarge: S not contained in Q")
        if not Q.is_connected():
            raise AssertionError("enlarge: Q disconnected")
        out.append(Q)
    if not _disjoint([Q.mask for Q in out]):
        raise AssertionError("enlarge: outputs overlap")
    for bR in zballs:
        for Q in out:
            swallowed = not (bR & ~Q.mask).any()
            far = not (bR & Q.mask).any()
            if not (swallowed or far):
                raise AssertionError("enlarge: swallowing dichotomy fails")
    return out


# ---------------------------------------------------------------------------
# the boundary-disjoint cover hierarchy
# ---------------------------------------------------------------------------

@dataclass
class Cover:
    window: LatticeWindow
    n: int
    radii: Tuple[int, ...]
    regions: List[Region]
    levels: List[int]
    coverage: float            # fraction of core vertices covered
    dropped: int               # regions discarded for touching the frontier

    def summary(self) -> dict:
        return {
            "n": self.n,
            "radii": list(self.radii),
            "regions": len(self.regions),
            "levels": [int(v) for v in self.levels],
            "coverage": self.coverage,
            "dropped": self.dropped,
        }


def boundary_disjoint_cover(window: LatticeWindow, n: int, i_max: int) -> Cover:
    """Multiscale family of connected hole-filled regions whose n-fold
    boundary neighborhoods are pairwise disjoint.

    Radii r_i = n * 12^(i+1); level-i seeds are a greedy 4r_i-net (inset so
    finished regions clear the frontier), blown up to r_i/4-balls and then
    enlarged against every lower level.  Coverage of the core is measured
    and reported, not guaranteed: at a finite window there is no sequence of
    ever-coarser nets to recenter against, so gaps between the widely
    spaced top-level regions are expected.
    """
    if n < 1 or i_max < 0:
        raise ValueError("need n >= 1 and i_max >= 0")
    radii = tuple(n * 12 ** (i + 1) for i in range(i_max + 1))
    if radii[-1] > window.L:
        raise ValueError("window side %d too small for top radius %d"
                         % (window.L, radii[-1]))
    core = window.core_mask()
    lo, hi = window.core_bounds
    levels_D: List[List[Region]] = []
    for i in range(i_max + 1):
        r_i = radii[i]
        # ball radius + enlargement reach + room for a 2-neighborhood
        pad = r_i // 4 + 3 * sum(radii[:i]) + 3
        restrict = np.zeros(window.shape, dtype=bool)
        a, b = lo + pad, hi - pad
        if b > a:
            restrict[tuple(slice(a, b) for _ in range(window.d))] = True
        if not restrict.any():
            levels_D.append([])
            continue
        net = greedy_net(window, 4 * r_i, restrict)
        layer = [ball(Region.from_vertices(window, [p]), r_i // 4)
                 for p in net.points]
        for j in range(1, i + 1):
            layer = enlarge(layer, levels_D[i - j], radii[i - j])
        levels_D.append(layer)
    regions: List[Region] = []
    levels: List[int] = []
    dropped = 0
    frontier = window.frontier_mask()
    for i, layer in enumerate(levels_D):
        for S in layer:
            filled = fill_holes(S)
            if (filled.mask & frontier).any():
                dropped += 1
                continue
            regions.append(filled)
            levels.append(i)
    # postconditions
    for S, i in zip(regions, levels):
        if S.diameter() > radii[i]:
            raise AssertionError("cover region exceeds its level diameter")
        if not S.is_connected():
            raise AssertionError("cover region disconnected")
    for a, (S, i) in enumerate(zip(regions, levels)):
        near = ball_mask(S.mask, 2 * radii[i] - 1)
        if any(j == i and (near & T.mask).any()
               for T, j in zip(regions[a + 1:], levels[a + 1:])):
            raise AssertionError("same-level regions too close")
    seen = np.zeros((len(directions(window.d)), window.n_vertices), dtype=bool)
    for S in regions:
        ring = boundary_n(S, n)
        if (seen & ring).any():
            raise AssertionError("boundary_n sets intersect across regions")
        seen |= ring
    covered = np.zeros(window.shape, dtype=bool)
    for S in regions:
        covered |= S.mask
    denom = int(core.sum())
    coverage = float((covered & core).sum()) / denom if denom else 0.0
    return Cover(window=window, n=n, radii=radii, regions=regions,
                 levels=levels, coverage=coverage, dropped=dropped)


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

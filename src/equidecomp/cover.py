"""Cover mode: a cover by regions whose boundaries are far apart, and an
Euler walk around each boundary that makes the flow integral there.

The regions' 3-fold boundary neighborhoods are pairwise disjoint.
Walking an Euler cycle of a region's boundary 3-cycle graph and
subtracting fractional parts makes the flow integral on every boundary
edge while touching only the 2-neighborhood and no divergence;
integralize then rounds the remaining free edges.  A region is a vertex
mask of the window, and every choice is the lexicographically least.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_array

from .config import COVER_SEPARATION, max_cover_levels
from .flowgrid import EdgeField
from .lattice import (LatticeWindow, all_directions, directions, edge_mask,
                      edge_slots, flat_shifts)
from .tiling import ball_mask, greedy_net

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
# enlargement and the boundary-disjoint cover hierarchy
# ---------------------------------------------------------------------------

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
        layer = [Region(window, ball_mask(
                     Region.from_vertices(window, [p]).mask, r_i // 4))
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
# the boundary walks
# ---------------------------------------------------------------------------

def three_cycles_through(gamma: Sequence[int]) -> int:
    """Number of lattice 3-cycles through an edge of direction gamma:
    3^k 2^(d-k) - 2, k = number of zero coordinates (even since k < d)."""
    g = [int(c) for c in gamma]
    if not all(c in (-1, 0, 1) for c in g) or not any(g):
        raise ValueError("gamma must be a nonzero {-1,0,1} vector")
    k = sum(1 for c in g if c == 0)
    d = len(g)
    return 3 ** k * 2 ** (d - k) - 2


@dataclass(frozen=True)
class BoundaryCycleGraph:
    """Vertices are the boundary edges of a region, as the rows
    (inside, outside) of its boundary(F) array, in that order; two are
    adjacent when a single lattice 3-cycle contains both."""

    edges: np.ndarray              # (n, 2) int64 flat vertex pairs
    adj: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.edges)


def build_boundary_cycle_graph(F: Region) -> BoundaryCycleGraph:
    """Boundary 3-cycle graph of a connected, hole-filled region whose
    1-neighborhood stays inside the window.  A 3-cycle (a, b, w) through a
    boundary edge (a, b) holds exactly one other boundary edge: (w, b) if
    w is in F and (a, w) otherwise; each such partner is checked to be a
    boundary edge.  Degrees are checked against the closed-form triangle
    count (hence even) and connectivity is verified — together these
    guarantee an Euler cycle exists."""
    window = F.window
    d = window.d
    if d < 2:
        raise ValueError("3-cycle graphs need d >= 2")
    if F.size == 0:
        raise ValueError("empty region")
    if not F.is_connected():
        raise ValueError("region must be connected")
    vs = F.vertices()
    if vs.min() < 1 or vs.max() > window.L - 2:
        raise ValueError("region's 1-neighborhood leaves the window")
    if fill_holes(F).size != F.size:
        raise ValueError("region has holes")
    edges = F.boundary()
    a, b = edges[:, 0], edges[:, 1]
    # k indexes all_directions(d): the positive half, then its negation
    row, _, sign = edge_slots(window, a, b)
    k = np.where(sign > 0, row, row + len(directions(d)))
    steps = all_directions(d)
    third = np.abs(steps[:, None, :] - steps[None, :, :]).max(axis=2) == 1
    shifts = flat_shifts(window)
    # every third vertex w = a + steps[t] is a neighbor of a, so in-window
    ei, t = np.nonzero(third[k])
    w = a[ei] + np.concatenate([shifts, -shifts])[t]
    w_in = F.mask.ravel()[w]
    nv = window.n_vertices
    key = a * nv + b                       # ascending: edges are sorted
    partner = np.where(w_in, w, a[ei]) * nv + np.where(w_in, b[ei], w)
    ej = np.minimum(np.searchsorted(key, partner), len(key) - 1)
    if not np.array_equal(key[ej], partner):
        raise AssertionError("3-cycle partner is not a boundary edge")
    n = len(edges)
    pairs = np.sort(ei * n + ej)
    ei, ej = np.divmod(pairs[np.diff(pairs, prepend=-1) > 0], n)
    degree = np.bincount(ei, minlength=n)
    want = np.array([three_cycles_through(g) for g in steps])[k]
    if (degree != want).any():
        i = int(np.argmax(degree != want))
        raise AssertionError(
            "boundary edge %d-%d has %d cycle neighbors, expected %d"
            % (a[i], b[i], degree[i], want[i]))
    _, label = csgraph.connected_components(
        csr_array((np.ones(len(ei), dtype=np.int8), (ei, ej)), shape=(n, n)),
        directed=False)
    reached = np.count_nonzero(label == label[0])
    if reached != n:
        raise AssertionError("boundary cycle graph disconnected "
                             "(%d of %d reached)" % (reached, n))
    adj = tuple(tuple(nb.tolist())
                for nb in np.split(ej, np.cumsum(degree)[:-1]))
    return BoundaryCycleGraph(edges=edges, adj=adj)


def euler_cycle(H: BoundaryCycleGraph) -> Tuple[int, ...]:
    """Closed walk through H using each adjacency exactly once, as H-vertex
    ids with first == last: a deterministic Hierholzer traversal from the
    least vertex, always taking the least unused neighbor."""
    if H.n == 0:
        raise ValueError("empty graph")
    for i, nbrs in enumerate(H.adj):
        if len(nbrs) % 2:
            raise ValueError("vertex %d has odd degree %d" % (i, len(nbrs)))
    eid: Dict[Tuple[int, int], int] = {}
    for i, nbrs in enumerate(H.adj):
        for j in nbrs:
            if i < j:
                eid[(i, j)] = len(eid)
    used = bytearray(len(eid))
    ptr = [0] * H.n
    stack = [0]
    circuit: List[int] = []
    while stack:
        v = stack[-1]
        advanced = False
        while ptr[v] < len(H.adj[v]):
            w = H.adj[v][ptr[v]]
            e = eid[(min(v, w), max(v, w))]
            if used[e]:
                ptr[v] += 1
                continue
            used[e] = 1
            stack.append(w)
            advanced = True
            break
        if not advanced:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != len(eid) + 1 or circuit[0] != circuit[-1]:
        raise AssertionError("walk is not an Euler cycle (disconnected graph?)")
    return tuple(circuit)


def adjust_on_region(phi: EdgeField, F: Region) -> EdgeField:
    """Subtract fractional parts around the 3-cycles of an Euler walk of
    F's boundary so that the flow becomes integral on every boundary edge.

    Cycle additions are divergence-free, so the divergence is untouched
    everywhere; only edges within the 2-neighborhood of the boundary
    change, each by less than the walk's degree bound (3^d - 1).  The
    boundary flows are read once, walked as Python ints and written back;
    the closing edges, never boundary edges, are added in one pass.  The
    returned flow is int64, since those changes, up to (3^d - 1) 2^s, can
    pass the bound a narrow phi is stored at.
    """
    H = build_boundary_cycle_graph(F)
    seq = euler_cycle(H)
    out = phi.with_values(phi.values.astype(np.int64))
    mod = 1 << out.scale_exp
    ends = H.edges.tolist()
    row, tail, sign = edge_slots(F.window, H.edges[:, 0], H.edges[:, 1])
    flow = (sign * out.values[row, tail]).tolist()     # inside -> outside
    if sum(flow) % mod:
        raise AssertionError("net boundary flow is not an integer")
    inside = F.mask.ravel()
    close_from, close_to, close_by = [], [], []
    for e, en in zip(seq, seq[1:]):
        shared_set = set(ends[e]) & set(ends[en])
        if len(shared_set) != 1:
            raise AssertionError("consecutive walk edges share %d vertices"
                                 % len(shared_set))
        y = shared_set.pop()
        # the walk runs x -> y -> z; s = 1 when that step is inside -> outside
        s_e = 1 if ends[e][1] == y else -1
        s_en = 1 if ends[en][0] == y else -1
        x = ends[e][0] if s_e == 1 else ends[e][1]
        z = ends[en][1] if s_en == 1 else ends[en][0]
        if inside[x] != inside[z]:
            raise AssertionError("triangle closure lies on the boundary")
        alpha = (s_e * flow[e]) % mod
        if alpha:
            flow[e] -= s_e * alpha
            flow[en] -= s_en * alpha
            close_from.append(z)
            close_to.append(x)
            close_by.append(alpha)
    if any(v % mod for v in flow):
        raise AssertionError("boundary edge still fractional after walk")
    out.values[row, tail] = sign * np.array(flow, dtype=np.int64)
    row, tail, sign = edge_slots(F.window, close_from, close_to)
    np.add.at(out.values, (row, tail),
              -sign * np.array(close_by, dtype=np.int64))
    if not np.array_equal(out.divergence_num(), phi.divergence_num()):
        raise AssertionError("adjustment changed the divergence")
    return out


def walk_cover(phi: EdgeField) -> Tuple[EdgeField, np.ndarray, dict]:
    """(adjusted flow, fixed-edge mask, cover info) of phi's cover walks.

    The cover is built on phi.crop.full with COVER_SEPARATION and every
    level that fits; each region is moved into phi's crop and its
    boundary walked there.  The mask, laid out like phi.values, flags the
    region boundary edges the walks made integral."""
    crop = phi.crop
    window = crop.full
    i_max = max_cover_levels(window, COVER_SEPARATION)
    if i_max < 0:
        raise ValueError("window side %d too small for any cover level"
                         % window.L)
    cover = boundary_disjoint_cover(window, COVER_SEPARATION, i_max)
    cur = phi
    core = window.core_mask()
    fixed = np.zeros(phi.values.shape, dtype=bool)
    for F in cover.regions:
        if (ball_mask(F.mask, 2) & ~core).any():
            raise AssertionError("cover region's 2-neighborhood leaves the core")
        F = Region(crop.window, crop.take(F.mask))
        cur = adjust_on_region(cur, F)
        fixed |= boundary_n(F, 1)
    adj_dev = np.abs(cur.values - phi.values).max(initial=0)
    info = {"cover": cover.summary(),
            "max_adjust_dev": float(int(adj_dev)) / (1 << phi.scale_exp)}
    return cur, fixed, info

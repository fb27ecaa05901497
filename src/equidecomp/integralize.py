"""Make a dyadic flow exact on the core, then integral, without moving
any edge value by much.

Two routes to an integral flow:

* cover mode — the structured construction: build a cover with pairwise
  disjoint 3-fold boundary neighborhoods, walk an Euler cycle of each
  region's boundary 3-cycle graph subtracting fractional parts (this makes
  the flow integral on every region boundary while touching only the
  2-neighborhood), then round the remaining interior edges.  Per-edge
  deviation at most 3^d.

* direct mode — round everything in one shot (deviation < 1).  Cheaper and
  tighter at window scale; kept as the default and as a cross-check.

Both modes preserve the divergence exactly at every core vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._maxflow import solve_supply_graph, supply_graph
from .config import COVER_SEPARATION, max_cover_levels
from .flowgrid import EdgeField, narrow_int, residual_num
from .lattice import (IndicatorField, LatticeWindow, _shift_slices,
                      all_directions, directions, edge_slots, flat_shifts)
from .tiling import (Region, ball_mask, boundary_disjoint_cover, boundary_n,
                     fill_holes)


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
    pairs = np.unique(ei * len(edges) + ej)
    ei, ej = np.divmod(pairs, len(edges))
    degree = np.bincount(ei, minlength=len(edges))
    want = np.array([three_cycles_through(g) for g in steps])[k]
    if (degree != want).any():
        i = int(np.argmax(degree != want))
        raise AssertionError(
            "boundary edge %d-%d has %d cycle neighbors, expected %d"
            % (a[i], b[i], degree[i], want[i]))
    adj = tuple(tuple(nb.tolist())
                for nb in np.split(ej, np.cumsum(degree)[:-1]))
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(edges):
        raise AssertionError("boundary cycle graph disconnected "
                             "(%d of %d reached)" % (len(seen), len(edges)))
    return BoundaryCycleGraph(edges=edges, adj=adj)


@dataclass(frozen=True)
class EulerWalk:
    """Closed walk through the boundary cycle graph using each adjacency
    exactly once; order[i], order[i+1] are consecutive boundary edges."""

    graph: BoundaryCycleGraph
    order: Tuple[int, ...]       # H-vertex ids, first == last


def euler_cycle(H: BoundaryCycleGraph) -> EulerWalk:
    """Deterministic Hierholzer traversal from the least vertex, always
    taking the least unused neighbor."""
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
    return EulerWalk(graph=H, order=tuple(circuit))


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
    walk = euler_cycle(H)
    out = phi.with_values(phi.values.astype(np.int64))
    mod = 1 << out.scale_exp
    ends = H.edges.tolist()
    row, tail, sign = edge_slots(F.window, H.edges[:, 0], H.edges[:, 1])
    flow = (sign * out.values[row, tail]).tolist()     # inside -> outside
    if sum(flow) % mod:
        raise AssertionError("net boundary flow is not an integer")
    inside = F.mask.ravel()
    close_from, close_to, close_by = [], [], []
    seq = walk.order
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


# ---------------------------------------------------------------------------
# routing a core residual into the frontier ring: repair and rounding
# ---------------------------------------------------------------------------

class PipelineError(RuntimeError):
    """A stage failed; certificate holds the evidence when there is some."""

    def __init__(self, stage: str, message: str,
                 certificate: Optional[dict] = None):
        super().__init__("%s: %s" % (stage, message))
        self.stage = stage
        self.certificate = certificate or {}


@lru_cache(maxsize=1)
def _rim_frontier_slots(window: LatticeWindow) -> Tuple[np.ndarray, ...]:
    """(rim, rows, face, ptr, slots) over the rim, the core vertices with
    a frontier neighbor: rim lists their flat indices in increasing order
    and rows their numbers in the core box's own row-major order.  Slot
    2*i + sign of x is the edge to x + dirs[i] (sign 0) or x - dirs[i]
    (sign 1), a frontier slot when that neighbor is a frontier vertex.
    Which slots those are depends only on the faces of the core box that
    x lies on, per axis the low one, the high one, both (at core side 1)
    or neither: rim[r] is in face class face[r], and class c's frontier
    slots, in increasing order, are slots[ptr[c]:ptr[c + 1]].  The core is
    the box [margin, L - margin)^d, so with margin >= 1 the rim is its
    outer layer and every frontier neighbor lies in the window; margin 0
    has no rim.  Read-only and cached for the last window, so repair and
    rounding share one build per run."""
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    # per axis 1 on the low face, 2 on the high face; key packs the axes
    key = np.zeros((side,) * d, dtype=np.int64)
    for c in np.ogrid[(slice(side),) * d]:
        key = 4 * key + (c == 0) + 2 * (c == side - 1)
    rows = np.flatnonzero(key) if lo > 0 else np.zeros(0, dtype=np.intp)
    rim = np.ravel_multi_index(
        tuple(c + lo for c in np.unravel_index(rows, key.shape)), window.shape)
    # the classes present, numbered in increasing key order; np.unique
    # (and a bool matmul below) would page in numpy code that raised the
    # flagship's peak RSS by 0.3 MiB
    present = np.bincount(key.ravel()[rows], minlength=4 ** d) > 0
    face = (np.cumsum(present) - 1)[key.ravel()[rows]]
    keys = np.flatnonzero(present)
    # slot q's signed step leaves class c's box when, on some axis, it
    # steps down from the low face or up from the high one
    step = np.repeat(directions(d), 2, axis=0)
    step[1::2] *= -1
    exits = np.zeros((len(keys), len(step)), dtype=bool)
    for j, g in enumerate(step.T):
        code = (keys >> 2 * (d - 1 - j))[:, None]
        exits |= (code & 1 != 0) & (g == -1) | (code & 2 != 0) & (g == 1)
    ptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(exits.sum(axis=1), out=ptr[1:])
    out = rim, rows, face, ptr, np.nonzero(exits)[1]
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _core_edge_mask(window: LatticeWindow) -> np.ndarray:
    """mask[i][x] flags that the edge x -> x + dirs[i] from core-box vertex
    x (in the box's own coordinates) ends in the core too; laid out like
    _core_edge_view.  Read-only and cached for the last window."""
    lo, hi = window.core_bounds
    dirs = directions(window.d)
    mask = np.zeros((len(dirs),) + (hi - lo,) * window.d, dtype=bool)
    for i, g in enumerate(dirs.tolist()):
        mask[i][_shift_slices(hi - lo, g)[0]] = True
    mask.setflags(write=False)
    return mask


def _core_edge_view(values: np.ndarray, window: LatticeWindow) -> np.ndarray:
    """values, laid out as EdgeField.values, as a (len(dirs),) + core box
    view: view[i][x] is the slot of the edge from core-box vertex x."""
    lo, hi = window.core_bounds
    return values.reshape((len(values),) + window.shape)[
        (slice(None),) + (slice(lo, hi),) * window.d]


def spill_to_frontier(values: np.ndarray, window: LatticeWindow,
                      amount: np.ndarray, cap: int) -> int:
    """Send amount[r] units of flow out of rim vertex rim[r] over its
    frontier edges, in place in the edge array values (laid out as
    EdgeField.values); rim and the frontier slot list of each vertex's
    face class are those of _rim_frontier_slots(window).  A vertex's
    slots are taken in the list's increasing order, each taking up to cap
    units in magnitude of what is left: its k-th slot takes cap while
    k < |amount| // cap, then the remainder, and only the slots that take
    something are visited.  Returns the largest take; every unit must
    find an edge, or nothing is sent."""
    rim, _, face, ptr, slots = _rim_frontier_slots(window)
    live = np.flatnonzero(amount != 0)
    sent = np.asarray(amount, dtype=np.int64)[live]
    full, rest = np.divmod(np.abs(sent), cap)
    start = ptr[face[live]]
    count = ptr[face[live] + 1] - start
    left = (np.abs(sent) - np.minimum(count, full) * cap
            - np.where(count > full, rest, 0))
    if left.any():
        first = np.flatnonzero(left)[0]
        raise AssertionError("frontier disaggregation left %d units"
                             % (np.sign(sent[first]) * left[first]))
    # vertex r fills its first used[r] <= count[r] slots; k numbers them
    used = full + (rest > 0)
    r = np.repeat(np.arange(len(live)), used)
    k = np.arange(len(r)) - np.repeat(np.cumsum(used) - used, used)
    slot = slots[start[r] + k]
    take = np.where(k < full[r], cap, rest[r]) * np.sign(sent[r])
    i, odd = slot >> 1, (slot & 1).astype(bool)
    # flow out of the rim endpoint of an odd slot's edge is minus the
    # stored value
    values[i, rim[live[r]] - np.where(odd, flat_shifts(window)[i], 0)] += (
        np.where(odd, -take, take))
    return int(np.abs(take).max(initial=0))


def _descend_to_frontier(values: Callable[[], np.ndarray],
                         window: LatticeWindow, residual: np.ndarray,
                         unit: int) -> Tuple[Optional[np.ndarray], int]:
    """Route residual (a core-box grid of supplies) into the frontier
    down a spanning forest of the core, without a max-flow solve.

    In core-box coordinates a vertex x has depth 1 + its L-infinity
    distance to the outside of the box, so the rim is depth 1.  Below
    the rim, x's parent is x + g for the lexicographically first signed
    direction g that lowers the depth: g = (-1, ..., -1) when some
    coordinate of x is nearest its low face, and otherwise (-1, ..., -1)
    with +1 at the last coordinate nearest its high face.  That is the
    first arc Dinic's search meets in _route_to_frontier's CSR order.
    Layer by layer, deepest first, each vertex passes its subtree's
    supply e[x] over the edge x -> parent(x), and each rim vertex spills
    what reaches it with spill_to_frontier(..., unit).  No edge is the
    parent edge of both its ends, so each edge changes once.

    The routing is taken only when every subtree sum fits int64 (sum
    |residual| does, checked before any is formed), every edge carries
    at most unit and every frontier take is at most unit.  Then values()
    gives the edge array to change, and the result is (that array, the
    largest change); otherwise (None, 0), and values() is never called.
    """
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    # sum |residual|, exactly: the halves of each 64-bit magnitude
    # (|int64 min| wraps back to 2^63 in uint64) sum without overflow
    mag = np.abs(residual).astype(np.uint64).ravel()
    if ((int(np.sum(mag >> np.uint64(32))) << 32)
            + int(np.sum(mag & np.uint64(0xFFFFFFFF)))
            > np.iinfo(np.int64).max):
        return None, 0
    # up = depth - 1, the distance to the nearest face; g . strides is
    # -sum(strides), plus 2 strides[j] where no coordinate is nearest its
    # low face and j is the last one nearest its high face
    x = np.ogrid[(slice(side),) * d]
    strides = side ** np.arange(d - 1, -1, -1)
    up = np.full((side,) * d, side)
    for c in x:
        np.minimum(up, np.minimum(c, side - 1 - c), out=up)
    low = np.zeros(up.shape, dtype=bool)
    step = np.zeros(up.shape, dtype=np.int64)
    for c, stride in zip(x, strides.tolist()):
        low |= c == up
        np.copyto(step, 2 * stride, where=side - 1 - c == up)
    up = up.ravel()
    parent = np.where(low, 0, step).ravel() - strides.sum()
    parent += np.arange(len(parent))
    # the layers from the deepest to the rim, which comes last
    layers = np.split(np.argsort(-up, kind="stable"),
                      np.cumsum(np.bincount(up)[::-1])[:-1])
    e = residual.astype(np.int64).ravel()
    for layer in layers[:-1]:
        if np.abs(e[layer]).max() > unit:
            return None, 0
        np.add.at(e, parent[layer], e[layer])
    _, rows, face, ptr, _ = _rim_frontier_slots(window)
    amount = e[rows]
    if (-(-np.abs(amount) // unit) > np.diff(ptr)[face]).any():
        return None, 0
    inner = np.flatnonzero((up > 0) & (e != 0))
    core = np.flatnonzero(window.core_mask())
    row, at, sign = edge_slots(window, core[inner], core[parent[inner]])
    out = values()
    out[row, at] += sign * e[inner]
    return out, max(int(np.abs(e[inner]).max(initial=0)),
                    spill_to_frontier(out, window, amount, unit))


def _route_to_frontier(values: Callable[[], np.ndarray],
                       window: LatticeWindow, residual: np.ndarray, caps,
                       rim_caps, spill_cap: int
                       ) -> Tuple[Optional[np.ndarray], int]:
    """Route residual (a core-box grid of supplies) into one merged
    frontier node, over the core edges x -> x + dirs[i] with caps[0][i][x]
    units forward and caps[1][i][x] back (x a core-box vertex, caps
    broadcast to (len(dirs),) + the core box's shape and read where the
    head is in the core too), and over one arc from each rim vertex r of
    _rim_frontier_slots with rim_caps[0][r] out and rim_caps[1][r] in.
    An edge or rim arc enters the graph in both directions when either
    capacity is nonzero.  Once all of it is routed, and only then,
    values() gives the edge array to change: its core edges take the net
    flow, and spill_to_frontier(..., spill_cap) spills each rim arc's flow
    onto its frontier edges.  Returns (that array, the largest change of
    one value), or (None, 0) when the residual cannot be routed.

    The solver's CSR comes straight from the box, with no sort.  The
    core vertices are numbered in the core box's row-major order and the
    frontier node after them.  Row x holds x's arcs in the lexicographic
    order of their signed directions g, which is the order of their heads
    (a head x + g is a box vertex, the box's row-major order is the
    lexicographic order of coordinates, and for one x that is the order
    of the g; the offsets g . strides need not be in that order, at core
    side 2, but those of one row's heads are), then its frontier arc,
    whose head n is the largest.  Lexicographically the signed directions
    are -dirs[::-1], then dirs, so a row holds first its arcs against
    dirs, by decreasing i, then those along dirs, by increasing i.  An
    edge x -> x + dirs[i] is thus placed twice without a sort: along, in
    row x after x's arcs against dirs and the edges along dirs[j < i];
    against, in row x + dirs[i] after the edges into it along dirs[j > i].
    Those counts are running sums over i of the edges by tail and by
    head, two len(dirs) x n tables, and the edges kept are then read one
    by one in flatnonzero order, by i and then by x, with no division."""
    rows = _rim_frontier_slots(window)[1]
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    dirs = directions(d)
    nd, n = len(dirs), side ** d          # n: the frontier node's number
    # flat views, with no copy of a capacity given as a scalar
    fwd, back = (np.broadcast_to(c, (nd,) + (side,) * d).reshape(-1)
                 for c in caps)
    edge = np.logical_or(fwd, back).reshape(nd, n)
    edge &= _core_edge_mask(window).reshape(nd, n)
    step = dirs @ side ** np.arange(d - 1, -1, -1)
    # by_tail[i, x] counts the edges out of x along dirs[j <= i], and
    # by_head[i, y] those into y
    by_tail = np.zeros(edge.shape, dtype=np.min_scalar_type(nd))
    by_head = np.zeros(edge.shape, dtype=by_tail.dtype)
    for i, st in enumerate(step.tolist()):
        by_head[i, st:] = edge[i, :n - st]
        if i:
            by_head[i] += by_head[i - 1]
            np.add(by_tail[i - 1], edge[i], out=by_tail[i])
        else:
            by_tail[i] = edge[i]
    rim_on = (rim_caps[0] != 0) | (rim_caps[1] != 0)
    into = rows[rim_on].astype(np.int32)       # the frontier node's row
    against = by_head[-1].astype(np.int32)     # each row's arcs against
    size = against + by_tail[-1]
    size[rows] += rim_on
    indptr = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(size, out=indptr[1:-1])
    m = int(indptr[n])
    indptr[-1] = m + len(into)
    # the narrowest capacities that hold every one
    low = min(int(np.min(c, initial=0)) for c in (*caps, *rim_caps))
    top = max(int(np.max(c, initial=0)) for c in (*caps, *rim_caps))
    # the arcs are written into place, since temporary copies would stay
    # in the heap under the solve and raise its peak RSS
    indices = np.empty(indptr[-1], dtype=np.int32)
    arc_cap = np.empty(len(indices), dtype=np.promote_types(
        np.min_scalar_type(low), np.min_scalar_type(top)))
    k = np.flatnonzero(edge)                 # i * n + x
    count = np.count_nonzero(edge, axis=1)
    del edge
    x = k - np.repeat(np.arange(0, nd * n, n), count)
    shift = np.repeat(step, count)           # the head is x + shift
    # along dirs: in row x, after its arcs against and its edges along
    # dirs[j < i]
    at = (indptr[:n] + against - 1)[x] + by_tail.reshape(-1)[k]
    indices[at] = x + shift
    arc_cap[at] = fwd[k]
    # against dirs: in row x + shift, after its edges in along dirs[j > i]
    cap = back[k]
    k += shift                               # i * n + x + shift
    x += shift
    at = (indptr[:n] + against)[x] - by_head.reshape(-1)[k]
    indices[at] = x - shift
    arc_cap[at] = cap
    del k, x, shift, at, cap, by_head, by_tail, against, size
    # a frontier arc is the last of its row, and its head is n
    indices[indptr[into + 1] - 1] = n
    arc_cap[indptr[into + 1] - 1] = rim_caps[0][rim_on]
    indices[m:] = into
    arc_cap[m:] = rim_caps[1][rim_on]
    graph = supply_graph(indptr, indices, arc_cap,
                         np.append(residual, -int(residual.sum())))
    # the layout holds every arc now: free this copy before the solve
    del indptr, indices, arc_cap
    ok, flow = solve_supply_graph(graph)
    if not ok:
        return None, 0
    # few arcs carry flow: find the ends of those out of core vertices in
    # the layout, where the arcs before the frontier node's row with a
    # head past it go to the sink or source
    moved = np.flatnonzero(flow[:graph.rows[n]] != 0)
    moved = moved[graph.heads[moved] <= n]
    head = graph.heads[moved]
    tail = np.searchsorted(graph.rows, moved, side="right") - 1
    flow = flow[moved]
    del graph
    to_rim = head == n
    amount = np.zeros(len(rows), dtype=np.int64)
    amount[np.searchsorted(rows, tail[to_rim])] = flow[to_rim]
    # the core vertices' flat indices, in row-major order
    core = np.flatnonzero(window.core_mask())
    flow = flow[~to_rim]
    row, at, sign = edge_slots(window, core[tail[~to_rim]],
                               core[head[~to_rim]])
    ahead = sign > 0               # each edge once, by its arc along dirs
    out = values()
    out[row[ahead], at[ahead]] += flow[ahead]
    return out, max(int(np.abs(flow).max(initial=0)),
                    spill_to_frontier(out, window, amount, spill_cap))


# capacity doublings repair tries before it reports the routing infeasible
MAX_DOUBLINGS = 32


def repair_to_frontier(field: IndicatorField, consumed_psi: EdgeField,
                       residual: np.ndarray, capacity_units: int
                       ) -> Tuple[EdgeField, dict]:
    """Correct the truncated flow so its divergence equals f exactly on
    every core vertex, pushing the leftover error out to the frontier ring.

    Every edge is corrected once, by at most the capacity cap below, so
    the returned flow is stored as narrow_int(max |consumed_psi| + cap +
    1), or as consumed_psi's dtype when that is wider.  Once the solve
    has succeeded and freed its memory, the correction is added to
    consumed_psi's values cast to that dtype: a new array when
    consumed_psi is narrower, its own array otherwise, which the returned
    flow then holds.  Either way consumed_psi is handed over, and a
    caller that still needs the truncated flow passes a copy.  The repair
    runs on consumed_psi's window (the pipeline's crop of the core plus
    one ring).
    residual is residual_num(field, consumed_psi) over the core box, which
    the caller has already computed; the repaired flow's own residual is
    recomputed from field and checked.

    Two routes, and info["route"] names the one taken.  The descent,
    _descend_to_frontier, passes each subtree's residual one edge toward
    the frontier and is taken when no edge change and no frontier take
    exceeds one flow unit.  A unit is at most the capacity below, so an
    accepted descent is a feasible routing at doubling 0 and changes no
    bound.  Otherwise Dinic: _route_to_frontier routes the correction
    over core-core edges of capacity capacity_units (in flow units; the
    tail bound rounded up plus one), and each rim vertex's arc carries
    the capacity of all its frontier edges, counted from its face class
    in _rim_frontier_slots, which then take up to that capacity each.
    When the tail estimate is too tight — small margins legitimately
    exceed it — the capacity doubles and the solve repeats, up to
    MAX_DOUBLINGS times.  On either route the values change only
    once the routing is known to fit.
    """
    psi = consumed_psi
    window = psi.window
    if window.margin < 1:
        raise ValueError("repair needs a frontier ring (margin >= 1)")
    if capacity_units < 1:
        raise ValueError("capacity must be at least one unit")
    s = psi.scale_exp
    supply_abs = int(np.abs(residual).sum())

    _, _, face, ptr, _ = _rim_frontier_slots(window)
    k_cnt = np.diff(ptr)[face]
    top = max(int(psi.values.max(initial=0)), -int(psi.values.min(initial=0)))
    route, doublings = "descent", 0
    while True:
        cap = np.int64((capacity_units << doublings) << s)
        # phi = psi + correction; every corrected edge is corrected once,
        # by its core-core net flow or by one frontier take, each at most
        # cap, so |phi| <= top + cap
        dtype = np.promote_types(psi.values.dtype,
                                 narrow_int(top + int(cap) + 1))
        args = (lambda: psi.values.astype(dtype, copy=False), window,
                residual)
        if route == "descent":
            # one flow unit is at most cap, so an accepted descent is a
            # feasible flow at doubling 0
            h, max_correction = _descend_to_frontier(*args, 1 << s)
            if h is not None:
                break
            route = "dinic"
        h, max_correction = _route_to_frontier(
            *args, (cap, cap), (k_cnt * cap,) * 2, cap)
        if h is not None:
            break
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise PipelineError(
                "repair", "residual routing infeasible at capacity %d"
                % (capacity_units << (doublings - 1)),
                certificate={"supply_abs": supply_abs,
                             "capacity_units": capacity_units,
                             "doublings": doublings - 1})

    phi = psi.with_values(h)
    if residual_num(field, phi).any():
        raise AssertionError("repair left a core residual")
    info = {
        "route": route,
        "capacity_units": int(capacity_units),
        "doublings": int(doublings),
        "supply_abs_num": supply_abs,
        "supply_abs": supply_abs / float(1 << s),
        "max_correction": float(max_correction) / (1 << s),
        "edges": np.count_nonzero(_core_edge_mask(window)),
    }
    return phi, info


def _truncate_core(phi: EdgeField, out_vals: np.ndarray
                   ) -> Tuple[np.ndarray, ...]:
    """The front half of round_edge_field, in one pass over phi.dirs.

    Writes each core-core edge of phi, truncated toward zero, into the
    zero array out_vals (laid out like phi.values), and returns (up,
    down, div, agg): up[i][x] and down[i][x], laid out like
    _core_edge_view, flag the core-core edges x -> x + dirs[i] whose
    discarded fraction points along or against dirs[i]; div is the
    truncated flow's divergence over the core box; agg is each rim
    vertex's summed flow to its frontier neighbors, at phi's scale, in
    the order of _rim_frontier_slots.

    Direction i reads its slab, the edges out of the core box, once, as a
    flat copy in the box's row-major order, where the head of x is
    x + step.  It truncates the slab's core-core edges, adds them to
    div at their tails and takes them off at their heads.  A vertex's
    flow to the frontier is all of its flow less that to core vertices,
    so agg adds the slab, takes off the edges into the box along dirs[i]
    (a second slab, shifted by -dirs[i]), and takes off the core-core
    edges' divergence.  Where a head leaves the box the truncated and
    core-core values are zero, so a flat shift that wraps a row adds
    nothing; at core side 1, where step can be 0 or negative, there are
    no core-core edges at all.  Every temporary is one box in size."""
    window = phi.window
    s = phi.scale_exp
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    box = (slice(lo, hi),) * d
    n = side ** d
    inner = _core_edge_mask(window).reshape(-1, n)
    steps = (phi.dirs @ side ** np.arange(d - 1, -1, -1)).tolist()
    outc = _core_edge_view(out_vals, window)
    up = np.zeros(inner.shape, dtype=bool)
    down = np.zeros(inner.shape, dtype=bool)
    div = np.zeros(n, dtype=np.int64)
    agg = np.zeros(n, dtype=np.int64)
    for i, (g, st) in enumerate(zip(phi.dirs.tolist(), steps)):
        grid = phi.grid(i)
        vals = np.ascontiguousarray(grid[box]).ravel()
        if lo:                      # margin 0 has no frontier
            agg += vals
            agg -= np.ascontiguousarray(
                grid[tuple(slice(lo - c, hi - c) for c in g)]).ravel()
            vin = vals * inner[i]
            agg -= vin
            agg[st:] += vin[:n - st]
        # the floor, plus one where a negative value has a fraction
        frac = ((vals & ((1 << s) - 1)) != 0) & inner[i]
        np.logical_and(frac, vals < 0, out=down[i])
        np.logical_xor(frac, down[i], out=up[i])
        vals = ((vals >> s) + down[i]) * inner[i]
        outc[i] = vals.reshape(outc.shape[1:])
        div += vals
        div[st:] -= vals[:n - st]
    return (up.reshape(outc.shape), down.reshape(outc.shape),
            div.reshape((side,) * d), agg[_rim_frontier_slots(window)[1]])


def round_edge_field(phi: EdgeField, f: np.ndarray,
                     fixed_mask: Optional[np.ndarray] = None
                     ) -> Tuple[EdgeField, dict]:
    """Round phi to an integral flow with divergence f (a grid of
    phi.window) at every core vertex.

    Free core-core edges are truncated toward zero, and so is each rim
    vertex's summed flow to the frontier, spilled onto its first frontier
    edge; _truncate_core does the truncation, the rim sums and the
    truncated flow's divergence in one pass over the directions.
    _route_to_frontier then routes the leftover divergence through unit
    capacities in the direction of each discarded fraction, on core
    edges and rim sums alike, onto the same first edges.  fixed_mask is
    laid out like phi.values, [i, v] for the edge (v, v + dirs[i]); the
    edges it flags must already be integral, so they have no fraction to
    route and are left exactly alone (phi >> s).

    The result is built at scale 0 from the start, in the narrowest dtype
    that holds its values (narrow_int): a fixed edge is phi >> s, a free
    core edge is trunc(phi) plus at most one routed unit, and a rim
    vertex's first frontier edge is its truncated sum plus at most one
    unit, so every |value| is below max(max |phi| >> s, max |sum|) + 2.
    The truncation is written before the sums are known, at the bound
    max |phi| >> s, and widened once when a sum needs more.
    """
    window = phi.window
    s = phi.scale_exp
    mod = 1 << s
    core = (slice(*window.core_bounds),) * window.d
    f_core = np.asarray(f)[core]
    rows = _rim_frontier_slots(window)[1]
    if fixed_mask is not None:
        if (np.count_nonzero(_core_edge_view(fixed_mask, window)
                             & _core_edge_mask(window))
                != np.count_nonzero(fixed_mask)):
            raise ValueError("fixed edges must join core vertices")
        if (phi.values[fixed_mask] % mod).any():
            raise ValueError("fixed edges carry fractional values")
    top = max(int(phi.values.max(initial=0)), -int(phi.values.min(initial=0)))
    out_vals = np.zeros(phi.values.shape, dtype=narrow_int((top >> s) + 2))
    up, down, div, agg = _truncate_core(phi, out_vals)
    agg_int = np.sign(agg) * (np.abs(agg) >> s)      # truncated toward 0
    agg_frac = agg - (agg_int << s)
    # every write below (spill, routed units) stays under this bound, so
    # no in-place add into out_vals wraps
    dtype = narrow_int(max(top >> s, int(np.abs(agg_int).max(initial=0))) + 2)
    if dtype != out_vals.dtype:
        out_vals = out_vals.astype(dtype)
    r = (f_core - div).ravel()
    r[rows] -= agg_int
    del div, agg

    uncapped = np.iinfo(np.int64).max      # all on the first frontier edge
    spill_to_frontier(out_vals, window, agg_int, uncapped)
    if _route_to_frontier(lambda: out_vals, window, r, (up, down),
                          (agg_frac > 0, agg_frac < 0), uncapped)[0] is None:
        raise AssertionError("interior rounding infeasible; flow is corrupt")
    out = phi.with_values(out_vals, 0)
    if not np.array_equal(out.divergence_num(core=True), f_core):
        raise AssertionError("rounded flow has wrong core divergence")
    info = {
        "edges_rounded": np.count_nonzero(up) + np.count_nonzero(down),
        "supply": int(np.abs(r).sum()),
    }
    return out, info


def _max_dev_core(rounded: EdgeField, phi: EdgeField) -> float:
    """Largest |rounded - phi| over the core edges, in flow units; rounded
    is at scale 0 and may be narrow, so it is widened before the shift."""
    s = phi.scale_exp
    dev = 0
    for got, want, inner in zip(_core_edge_view(rounded.values, phi.window),
                                _core_edge_view(phi.values, phi.window),
                                _core_edge_mask(phi.window)):
        dev = max(dev, int(np.abs((got.astype(np.int64) << s) - want)
                           .max(initial=0, where=inner)))
    return float(dev) / (1 << s)


def integralize_flow(phi: EdgeField, f: np.ndarray, mode: str = "direct",
                     cover_i_max: Optional[int] = None
                     ) -> Tuple[EdgeField, dict]:
    """Turn an exact f-flow on the core of phi.crop.full into an integral
    one, on the same crop as phi; f is a grid of that full window.

    direct: one global rounding, per-edge deviation < 1.
    cover:  boundary-walk adjustment on a disjoint-boundary cover, then
            rounding of the remaining free edges; deviation <= 3^d.  The
            cover is built on the full window and each region is then
            moved into phi's crop, where the walks run.

    info["max_dev_core"] is the rounded flow's largest deviation from phi
    over the core edges, in either mode.
    """
    crop = phi.crop
    window = crop.full
    f = crop.take(np.asarray(f))
    if mode == "direct":
        out, info = round_edge_field(phi, f)
        info["mode"] = "direct"
        info["max_dev_core"] = _max_dev_core(out, phi)
        return out, info
    if mode != "cover":
        raise ValueError("mode must be 'direct' or 'cover'")
    if cover_i_max is None:
        cover_i_max = max_cover_levels(window, COVER_SEPARATION)
    if cover_i_max < 0:
        raise ValueError("window side %d too small for any cover level"
                         % window.L)
    cover = boundary_disjoint_cover(window, COVER_SEPARATION, cover_i_max)
    cur = phi
    core = window.core_mask()
    fixed = np.zeros(phi.values.shape, dtype=bool)
    for F in cover.regions:
        if (ball_mask(F.mask, 2) & ~core).any():
            raise AssertionError("cover region's 2-neighborhood leaves the core")
        F = Region(crop.window, crop.take(F.mask))
        cur = adjust_on_region(cur, F)
        fixed |= boundary_n(F, 1)
    out, info = round_edge_field(cur, f, fixed_mask=fixed)
    info["mode"] = "cover"
    info["cover"] = cover.summary()
    adj_dev = np.abs(cur.values - phi.values).max(initial=0)
    info["max_adjust_dev"] = float(int(adj_dev)) / (1 << phi.scale_exp)
    info["max_dev_core"] = _max_dev_core(out, phi)
    return out, info

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

from ._maxflow import solve_supply_flow
from .flowgrid import EdgeField, narrow_int, residual_num
from .lattice import (IndicatorField, LatticeWindow, all_directions,
                      directions, edge_mask, edge_slots, flat_shifts)
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
    the closing edges, never boundary edges, are added in one pass.
    """
    H = build_boundary_cycle_graph(F)
    walk = euler_cycle(H)
    out = phi.copy()
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
def _core_edges(window: LatticeWindow) -> Tuple[np.ndarray, np.ndarray]:
    """(di, ui): the edges (ui[k], ui[k] + dirs[di[k]]), ui a flat vertex
    index, with both endpoints in the core, in EdgeField.values slot order.
    Both are int32, which holds any flat index of a window small enough to
    repair (see _maxflow), and half the size of np.nonzero's int64.
    Read-only and cached for the last window, so repair and rounding share
    one build per run."""
    di, ui = (a.astype(np.int32) for a in
              np.nonzero(edge_mask(window, window.core_mask(), np.logical_and)))
    di.setflags(write=False)
    ui.setflags(write=False)
    return di, ui


@lru_cache(maxsize=1)
def _rim_frontier_slots(window: LatticeWindow) -> Tuple[np.ndarray, np.ndarray]:
    """(rim, slots) over the rim, the core vertices with a frontier
    neighbor: rim lists their flat indices in increasing order, and
    slots[2*i + sign, r] flags that rim[r] + dirs[i] (sign 0) or
    rim[r] - dirs[i] (sign 1) is a frontier vertex.  The core is the box
    [margin, L - margin)^d, so with margin >= 1 the rim is its outer layer
    and every frontier neighbor lies in the window; margin 0 has no rim.
    Read-only and cached for the last window, like _core_edges."""
    lo, hi = window.core_bounds
    core = window.core_mask()
    rim_mask = core.copy() if lo else np.zeros_like(core)
    rim_mask[tuple(slice(lo + 1, hi - 1) for _ in range(window.d))] = False
    rim = np.flatnonzero(rim_mask)
    # every neighbor of a rim vertex is in the window, so flat shifts
    # reach it exactly
    shift = flat_shifts(window)[:, None]
    frontier = ~core.ravel()
    slots = np.empty((2 * len(shift), len(rim)), dtype=bool)
    slots[0::2] = frontier[rim + shift]
    slots[1::2] = frontier[rim - shift]
    rim.setflags(write=False)
    slots.setflags(write=False)
    return rim, slots


def spill_to_frontier(values: np.ndarray, window: LatticeWindow,
                      rim: np.ndarray, slots: np.ndarray, amount: np.ndarray,
                      cap: int) -> int:
    """Send amount[r] units of flow out of rim vertex rim[r] over its
    frontier edges, in place in the edge array values (laid out as
    EdgeField.values); rim and slots are as from _rim_frontier_slots.  The
    frontier slots are visited in ascending order, each taking up to cap
    units in magnitude of what is left.  Returns the largest take; every
    unit must find an edge."""
    flat_shift = flat_shifts(window)
    left = np.array(amount, dtype=np.int64)
    largest = 0
    for slot, on in enumerate(slots):
        at = np.flatnonzero(on & (left != 0))
        take = np.clip(left[at], -cap, cap)
        i = slot >> 1
        if slot & 1:
            # flow out of the rim endpoint is minus the stored value
            values[i, rim[at] - flat_shift[i]] -= take
        else:
            values[i, rim[at]] += take
        left[at] -= take
        largest = max(largest, int(np.abs(take).max(initial=0)))
    if left.any():
        raise AssertionError("frontier disaggregation left %d units"
                             % left[np.flatnonzero(left)[0]])
    return largest


def _route_to_frontier(values: Callable[[], np.ndarray],
                       window: LatticeWindow, residual: np.ndarray,
                       di: np.ndarray, ui: np.ndarray, caps, rim_caps,
                       spill_cap: int) -> Tuple[Optional[np.ndarray], int]:
    """Route residual (one supply per flat vertex, zero off the core) into
    one merged frontier node, over the core edges (ui[k], ui[k] +
    dirs[di[k]]) with caps[0][k] units forward and caps[1][k] back, and
    over one arc from each rim vertex rim[r] (see _rim_frontier_slots)
    with rim_caps[0][r] out and rim_caps[1][r] in, where either is nonzero.
    Once all of it is routed, and only then, values() gives the edge array
    to change (the solve's memory is freed by then): its core edges take
    the net flow, and spill_to_frontier(..., spill_cap) spills each rim
    arc's flow onto its frontier edges.  Returns (that array, the largest
    change of one value).  When caps and rim_caps each give one array for
    both directions, one capacity array serves both.  Returns (None, 0)
    when the residual cannot be routed."""
    rim, slots = _rim_frontier_slots(window)
    arc = (rim_caps[0] != 0) | (rim_caps[1] != 0)
    cap_uv = np.concatenate([caps[0], rim_caps[0][arc]])
    cap_vu = (cap_uv if caps[1] is caps[0] and rim_caps[1] is rim_caps[0]
              else np.concatenate([caps[1], rim_caps[1][arc]]))
    shift = flat_shifts(window).astype(np.int32)
    ok, net = solve_supply_flow(
        np.concatenate([ui, rim[arc]], dtype=np.int32),
        np.concatenate([ui + shift[di],
                        np.full(int(arc.sum()), window.n_vertices)],
                       dtype=np.int32),
        cap_uv, cap_vu, np.append(residual, -int(residual.sum())))
    if not ok:
        return None, 0
    out = values()
    m = len(ui)
    out[di, ui] += net[:m]
    amount = np.zeros(len(rim), dtype=np.int64)
    amount[arc] = net[m:]
    return out, max(int(np.abs(net[:m]).max(initial=0)),
                    spill_to_frontier(out, window, rim, slots, amount,
                                      spill_cap))


def repair_to_frontier(field: IndicatorField, consumed_psi: EdgeField,
                       residual: np.ndarray, capacity_units: int,
                       max_doublings: int = 32) -> Tuple[EdgeField, dict]:
    """Correct the truncated flow so its divergence equals f exactly on
    every core vertex, pushing the leftover error out to the frontier ring.

    The returned flow is int64.  Once the solve has succeeded and freed
    its memory, the correction is added to consumed_psi's values widened
    to int64: a new array when consumed_psi is narrower (the truncated
    flow is stored as narrow_int of its bound), its own array otherwise,
    which the returned flow then holds.  Either way consumed_psi is
    handed over, and a caller that still needs the truncated flow passes
    a copy.  The repair runs on
    consumed_psi's window (the pipeline's crop of the core plus one ring).
    residual is residual_num(field, consumed_psi) over the core box, which
    the caller has already computed; the repaired flow's own residual is
    recomputed from field and checked.  _route_to_frontier routes the
    correction over core-core edges of capacity capacity_units (in flow
    units; the tail bound rounded up plus one), and each rim vertex's arc
    carries the capacity of all its frontier edges, which then take up to
    that capacity each.  When the tail estimate is too tight — small
    margins legitimately exceed it — the capacity doubles and the solve
    repeats; the values change only once a solve succeeds.
    """
    psi = consumed_psi
    window = psi.window
    if window.margin < 1:
        raise ValueError("repair needs a frontier ring (margin >= 1)")
    if capacity_units < 1:
        raise ValueError("capacity must be at least one unit")
    s = psi.scale_exp
    r = np.zeros(window.shape, dtype=np.int64)
    r[(slice(*window.core_bounds),) * window.d] = residual
    r = r.ravel()
    supply_abs = int(np.abs(residual).sum())

    di, ui = _core_edges(window)
    k_cnt = _rim_frontier_slots(window)[1].sum(axis=0, dtype=np.int64)
    doublings = 0
    while True:
        cap = (capacity_units << doublings) << s
        caps = np.broadcast_to(np.int64(cap), ui.shape)
        # phi = psi + correction; every corrected edge is corrected once,
        # by its core-core net flow or by one frontier take
        h, max_correction = _route_to_frontier(
            lambda: psi.values.astype(np.int64, copy=False), window, r,
            di, ui, (caps, caps), (k_cnt * cap,) * 2, cap)
        if h is not None:
            break
        doublings += 1
        if doublings > max_doublings:
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
        "capacity_units": int(capacity_units),
        "doublings": int(doublings),
        "supply_abs_num": supply_abs,
        "supply_abs": supply_abs / float(1 << s),
        "max_correction": float(max_correction) / (1 << s),
        "edges": int(len(ui)),
    }
    return phi, info


def _trunc_toward_zero(values: np.ndarray, scale_exp: int) -> np.ndarray:
    q = np.where(values >= 0, values >> scale_exp, -((-values) >> scale_exp))
    return q.astype(np.int64)


def round_edge_field(window: LatticeWindow, phi: EdgeField, f: np.ndarray,
                     fixed_mask: Optional[np.ndarray] = None
                     ) -> Tuple[EdgeField, dict]:
    """Round phi to an integral flow with divergence f at every core vertex.

    Free core-core edges are truncated toward zero, and so is each rim
    vertex's summed flow to the frontier, spilled onto its first frontier
    edge.  _route_to_frontier then routes the leftover divergence through
    unit capacities in the direction of each discarded fraction, on core
    edges and rim sums alike, onto the same first edges.  fixed_mask is
    laid out like phi.values, [i, v] for the edge (v, v + dirs[i]); the
    edges it flags must already be integral and are left exactly alone.

    The result is built at scale 0 from the start, in the narrowest dtype
    that holds its values (narrow_int): a fixed edge is phi >> s, a free
    core edge is trunc(phi) plus at most one routed unit, and a rim
    vertex's first frontier edge is its truncated sum plus at most one
    unit, so every |value| is below max(max |phi| >> s, max |sum|) + 2.
    """
    if phi.window != window:
        raise ValueError("field window mismatch")
    s = phi.scale_exp
    mod = 1 << s
    core = (slice(*window.core_bounds),) * window.d
    f_core = np.asarray(f)[core]
    ci, cu = _core_edges(window)
    rim, fslots = _rim_frontier_slots(window)
    # each rim vertex's summed flow toward its frontier neighbors
    agg = np.zeros(len(rim), dtype=np.int64)
    for i, shift in enumerate(flat_shifts(window).tolist()):
        agg += np.where(fslots[2 * i], phi.values[i, rim], 0)
        # flow out of the rim endpoint equals minus the stored value
        agg -= np.where(fslots[2 * i + 1], phi.values[i, rim - shift], 0)
    agg_int = _trunc_toward_zero(agg, s)
    agg_frac = agg - (agg_int << s)
    top = max(int(phi.values.max(initial=0)), -int(phi.values.min(initial=0)))
    # every write below (fixed edges, truncation, spill, routed units)
    # stays under this bound, so no in-place add into out_vals wraps
    out_vals = np.zeros(phi.values.shape, dtype=narrow_int(
        max(top >> s, int(np.abs(agg_int).max(initial=0))) + 2))
    di, ui = ci, cu
    if fixed_mask is not None:
        fixed = fixed_mask[ci, cu]
        if np.count_nonzero(fixed) != np.count_nonzero(fixed_mask):
            raise ValueError("fixed edges must join core vertices")
        if (phi.values[fixed_mask] % mod).any():
            raise ValueError("fixed edges carry fractional values")
        di, ui = ci[~fixed], cu[~fixed]
        out_vals[fixed_mask] = phi.values[fixed_mask] >> s
    vals = phi.values[di, ui]
    whole = _trunc_toward_zero(vals, s)
    out_vals[di, ui] = whole
    # the free edges with a discarded fraction, and that fraction
    fr = vals - (whole << s)
    keep = fr != 0
    ui, di, fr = ui[keep], di[keep], fr[keep]
    del vals, whole, keep

    r = np.zeros(window.shape, dtype=np.int64)
    r[core] = f_core - phi.with_values(out_vals, 0).divergence_num(core=True)
    r = r.ravel()
    r[rim] -= agg_int

    uncapped = np.iinfo(np.int64).max      # all on the first frontier edge
    spill_to_frontier(out_vals, window, rim, fslots, agg_int, uncapped)
    if _route_to_frontier(lambda: out_vals, window, r, di, ui, (fr > 0, fr < 0),
                          (agg_frac > 0, agg_frac < 0), uncapped)[0] is None:
        raise AssertionError("interior rounding infeasible; flow is corrupt")
    out = phi.with_values(out_vals, 0)
    if not np.array_equal(out.divergence_num(core=True), f_core):
        raise AssertionError("rounded flow has wrong core divergence")
    info = {
        "max_dev_core": _max_dev_core(out, phi),
        "edges_rounded": int(len(ui)),
        "supply": int(np.abs(r).sum()),
    }
    return out, info


def _max_dev_core(rounded: EdgeField, phi: EdgeField) -> float:
    """Largest |rounded - phi| over the core edges, in flow units; rounded
    is at scale 0 and may be narrow, so it is widened before the shift."""
    ci, cu = _core_edges(phi.window)
    dev = np.abs((rounded.values[ci, cu].astype(np.int64) << phi.scale_exp)
                 - phi.values[ci, cu])
    return float(int(dev.max(initial=0))) / (1 << phi.scale_exp)


# boundary separation n of the cover that integralize_flow builds
COVER_SEPARATION = 3


def max_cover_levels(window: LatticeWindow, n: int) -> int:
    """Largest i_max with n * 12^(i_max + 1) <= L, at least 0 when even
    level 0 fits; -1 otherwise."""
    i = -1
    while n * 12 ** (i + 2) <= window.L:
        i += 1
    return i


def integralize_flow(window: LatticeWindow, phi: EdgeField, f: np.ndarray,
                     mode: str = "direct", cover_i_max: Optional[int] = None
                     ) -> Tuple[EdgeField, dict]:
    """Turn an exact f-flow on the core of `window` into an integral one,
    on the same crop as phi; f is a window grid.

    direct: one global rounding, per-edge deviation < 1.
    cover:  boundary-walk adjustment on a disjoint-boundary cover, then
            rounding of the remaining free edges; deviation <= 3^d.  The
            cover is built on `window` and each region is then moved into
            phi's crop, where the walks run.
    """
    if phi.crop.full != window:
        raise ValueError("field window mismatch")
    crop = phi.crop
    f = crop.take(np.asarray(f))
    if mode == "direct":
        out, info = round_edge_field(phi.window, phi, f)
        info["mode"] = "direct"
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
        if (ball_mask(window, F.mask, 2) & ~core).any():
            raise AssertionError("cover region's 2-neighborhood leaves the core")
        F = Region(crop.window, crop.take(F.mask))
        cur = adjust_on_region(cur, F)
        fixed |= boundary_n(F, 1)
    out, info = round_edge_field(phi.window, cur, f, fixed_mask=fixed)
    info["mode"] = "cover"
    info["cover"] = cover.summary()
    adj_dev = np.abs(cur.values - phi.values).max(initial=0)
    info["max_adjust_dev"] = float(int(adj_dev)) / (1 << phi.scale_exp)
    info["max_dev_core"] = _max_dev_core(out, phi)
    return out, info

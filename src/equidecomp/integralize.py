"""Make a dyadic flow integral without moving any edge value by much.

Two routes to the same goal:

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._maxflow import solve_supply_flow
from .flowgrid import EdgeField
from .lattice import LatticeWindow, _shift_slices, directions
from .tiling import Region, ball_mask, boundary_disjoint_cover, fill_holes


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
    """Vertices are the unordered boundary edges of a region, stored as
    (inside, outside) coordinate pairs in lexicographic order; two are
    adjacent when a single lattice 3-cycle contains both."""

    edges: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    adj: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.edges)


def build_boundary_cycle_graph(F: Region) -> BoundaryCycleGraph:
    """Boundary 3-cycle graph of a connected, hole-filled region whose
    1-neighborhood stays inside the window.  Degrees are checked against
    the closed-form triangle count (hence even) and connectivity is
    verified — together these guarantee an Euler cycle exists."""
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
    rows = F.boundary()
    coords_in = np.stack(np.unravel_index(rows[:, 0], window.shape), axis=1)
    coords_out = np.stack(np.unravel_index(rows[:, 1], window.shape), axis=1)
    edges = tuple((tuple(int(c) for c in a), tuple(int(c) for c in b))
                  for a, b in zip(coords_in, coords_out))
    by_vertex: Dict[Tuple[int, ...], List[int]] = {}
    for i, (a, b) in enumerate(edges):
        by_vertex.setdefault(a, []).append(i)
        by_vertex.setdefault(b, []).append(i)
    adj = [set() for _ in edges]
    for v, ids in by_vertex.items():
        for ai in range(len(ids)):
            i = ids[ai]
            oi = edges[i][0] if edges[i][1] == v else edges[i][1]
            for bi in range(ai + 1, len(ids)):
                j = ids[bi]
                oj = edges[j][0] if edges[j][1] == v else edges[j][1]
                if max(abs(x - y) for x, y in zip(oi, oj)) == 1:
                    adj[i].add(j)
                    adj[j].add(i)
    for i, (a, b) in enumerate(edges):
        want = three_cycles_through(tuple(x - y for x, y in zip(b, a)))
        if len(adj[i]) != want:
            raise AssertionError(
                "boundary edge %r-%r has %d cycle neighbors, expected %d"
                % (a, b, len(adj[i]), want))
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(edges):
        raise AssertionError("boundary cycle graph disconnected "
                             "(%d of %d reached)" % (len(seen), len(edges)))
    return BoundaryCycleGraph(edges=edges,
                              adj=tuple(tuple(sorted(s)) for s in adj))


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
    change, each by less than the walk's degree bound (3^d - 1).
    """
    H = build_boundary_cycle_graph(F)
    walk = euler_cycle(H)
    out = phi.copy()
    mod = 1 << out.scale_exp
    total = sum(out.value_num(a, tuple(y - x for x, y in zip(a, b)))
                for a, b in H.edges)
    if total % mod:
        raise AssertionError("net boundary flow is not an integer")
    seq = walk.order
    for i in range(len(seq) - 1):
        e, en = H.edges[seq[i]], H.edges[seq[i + 1]]
        shared_set = set(e) & set(en)
        if len(shared_set) != 1:
            raise AssertionError("consecutive walk edges share %d vertices"
                                 % len(shared_set))
        y = shared_set.pop()
        x = e[0] if e[1] == y else e[1]
        z = en[0] if en[1] == y else en[1]
        if F.mask[x] != F.mask[z]:
            raise AssertionError("triangle closure lies on the boundary")
        alpha = out.value_num(x, tuple(b - a for a, b in zip(x, y))) % mod
        if alpha:
            out.add_num(x, y, -alpha)
            out.add_num(y, z, -alpha)
            out.add_num(z, x, -alpha)
    for a, b in H.edges:
        if out.value_num(a, tuple(y - x for x, y in zip(a, b))) % mod:
            raise AssertionError("boundary edge still fractional after walk")
    if not np.array_equal(out.divergence_num(), phi.divergence_num()):
        raise AssertionError("adjustment changed the divergence")
    return out


# ---------------------------------------------------------------------------
# interior rounding on the window graph
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _core_edge_masks(window: LatticeWindow) -> np.ndarray:
    """mask[i, v] flags the edges (v, v + dirs[i]), v a flat vertex index,
    with both endpoints in the core.  Read-only and cached for the last
    window, so repair and rounding share one build per run."""
    core = window.core_mask()
    dirs = directions(window.d)
    out = np.zeros((len(dirs), window.n_vertices), dtype=bool)
    for i, g in enumerate(dirs):
        src, dst = _shift_slices(window.L, g)
        out[i].reshape(window.shape)[src] = core[src] & core[dst]
    out.setflags(write=False)
    return out


def _rim_frontier_slots(window: LatticeWindow) -> Tuple[np.ndarray, np.ndarray]:
    """(rim, slots) over the rim, the core vertices with a frontier
    neighbor: rim lists their flat indices in increasing order, and
    slots[2*i + sign, r] flags that rim[r] + dirs[i] (sign 0) or
    rim[r] - dirs[i] (sign 1) is a frontier vertex.  The core is the box
    [margin, L - margin)^d, so with margin >= 1 the rim is its outer layer
    and every frontier neighbor lies in the window; margin 0 has no rim."""
    d, lo, hi = window.d, window.margin, window.L - window.margin
    dirs = directions(d)
    rim_mask = window.core_mask()
    if lo == 0:
        rim_mask[...] = False
    rim_mask[tuple(slice(lo + 1, hi - 1) for _ in range(d))] = False
    rim = np.flatnonzero(rim_mask)
    coords = np.stack(np.unravel_index(rim, window.shape))
    slots = np.empty((2 * len(dirs), len(rim)), dtype=bool)
    for i, g in enumerate(dirs):
        g = np.asarray(g, dtype=coords.dtype)[:, None]
        for sign, nb in ((0, coords + g), (1, coords - g)):
            slots[2 * i + sign] = ((nb < lo) | (nb >= hi)).any(axis=0)
    return rim, slots


def _flat_shifts(window: LatticeWindow) -> np.ndarray:
    """shift[i] = flat index of v + dirs[i] minus flat index of v."""
    strides = np.array([window.L ** (window.d - 1 - j) for j in range(window.d)],
                       dtype=np.int64)
    return np.array([int(np.dot(np.asarray(g, dtype=np.int64), strides))
                     for g in directions(window.d)], dtype=np.int64)


def _frontier_aggregate(values: np.ndarray, rim: np.ndarray,
                        slots: np.ndarray,
                        flat_shift: np.ndarray) -> np.ndarray:
    """Per rim vertex (rim and slots as from _rim_frontier_slots), the
    summed numerator of flow toward its frontier neighbors; no other core
    vertex has one."""
    agg = np.zeros(len(rim), dtype=np.int64)
    for i, shift in enumerate(flat_shift.tolist()):
        agg += np.where(slots[2 * i], values[i, rim], 0)
        # flow out of the rim endpoint equals minus the stored value
        agg -= np.where(slots[2 * i + 1], values[i, rim - shift], 0)
    return agg


def spill_to_frontier(values: np.ndarray, window: LatticeWindow,
                      rim: np.ndarray, slots: np.ndarray, amount: np.ndarray,
                      cap: int) -> int:
    """Send amount[r] units of flow out of rim vertex rim[r] over its
    frontier edges, in place in the edge array values (laid out as
    EdgeField.values); rim and slots are as from _rim_frontier_slots.  The
    frontier slots are visited in ascending order, each taking up to cap
    units in magnitude of what is left.  Returns the largest take; every
    unit must find an edge."""
    flat_shift = _flat_shifts(window)
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


def _trunc_toward_zero(values: np.ndarray, scale_exp: int) -> np.ndarray:
    q = np.where(values >= 0, values >> scale_exp, -((-values) >> scale_exp))
    return q.astype(np.int64)


def round_edge_field(window: LatticeWindow, phi: EdgeField, f: np.ndarray,
                     fixed_mask: Optional[np.ndarray] = None
                     ) -> Tuple[EdgeField, dict]:
    """Round phi to an integral flow with divergence f at every core vertex.

    Free core-core edges are truncated toward zero and the leftover
    divergence is routed through unit capacities in the direction of each
    discarded fraction; flow to the frontier is aggregated per vertex into
    a single merged frontier node during the solve, and afterwards
    spill_to_frontier, with no cap, hands each rim vertex's rounded
    aggregate to its first frontier edge.  fixed_mask is laid out like
    phi.values, [i, v] for the edge (v, v + dirs[i]); the edges it flags
    must already be integral and are left exactly alone.
    """
    if phi.window != window:
        raise ValueError("field window mismatch")
    s = phi.scale_exp
    mod = 1 << s
    nvert = window.n_vertices
    cc = _core_edge_masks(window)
    flat_shift = _flat_shifts(window)
    rim, fslots = _rim_frontier_slots(window)
    agg = np.zeros(nvert, dtype=np.int64)
    agg[rim] = _frontier_aggregate(phi.values, rim, fslots, flat_shift)
    if fixed_mask is None:
        fixed_mask = np.zeros_like(cc)
    if (fixed_mask & ~cc).any():
        raise ValueError("fixed edges must join core vertices")
    if (phi.values[fixed_mask] % mod).any():
        raise ValueError("fixed edges carry fractional values")
    free = cc & ~fixed_mask

    di, ui = np.nonzero(free)
    vals = phi.values[di, ui]
    trunc = np.zeros_like(phi.values)
    trunc[di, ui] = _trunc_toward_zero(vals, s) << s
    trunc[fixed_mask] = phi.values[fixed_mask]
    # the free edges with a discarded fraction, and that fraction
    fr = vals - trunc[di, ui]
    keep = fr != 0
    ui, di, fr = ui[keep], di[keep], fr[keep]
    del vals, keep

    agg_int = _trunc_toward_zero(agg, s)
    agg_frac = agg - (agg_int << s)

    div_num = EdgeField(window, s, trunc, np.ones_like(cc)).divergence_num().ravel()
    core_flat = window.core_mask().ravel()
    if (div_num[core_flat] % mod).any():
        raise AssertionError("truncated core divergence not integral")
    r = np.zeros(nvert + 1, dtype=np.int64)
    r[:nvert][core_flat] = (np.asarray(f).ravel()[core_flat]
                            - (div_num[core_flat] >> s) - agg_int[core_flat])
    r[nvert] = -int(r.sum())

    # vertex nvert merges the frontier; each core edge may move its
    # discarded fraction's unit, each rim vertex its aggregate's
    frim = rim[agg_frac[rim] != 0]
    m_cc = len(ui)
    ok, net = solve_supply_flow(
        np.concatenate([ui, frim]),
        np.concatenate([ui + flat_shift[di], np.full(len(frim), nvert)]),
        np.concatenate([fr > 0, agg_frac[frim] > 0]),
        np.concatenate([fr < 0, agg_frac[frim] < 0]), r)
    if not ok:
        raise AssertionError("interior rounding infeasible; flow is corrupt")

    out_vals = trunc
    out_vals >>= s        # in place: the truncated field is not read again
    out_vals[di, ui] += net[:m_cc]
    out = EdgeField(window, 0, out_vals, np.ones_like(cc))
    # hand each rounded frontier aggregate to its first frontier edge
    spill = agg_int.copy()
    spill[frim] += net[m_cc:]
    carriers = np.flatnonzero(core_flat & (spill != 0))
    if not np.isin(carriers, rim).all():
        raise AssertionError("frontier flow at a vertex with no frontier edge")
    spill_to_frontier(out.values, window, rim, fslots, spill[rim],
                      np.iinfo(np.int64).max)
    div_out = out.divergence_num().ravel()
    if not np.array_equal(div_out[core_flat], np.asarray(f).ravel()[core_flat]):
        raise AssertionError("rounded flow has wrong core divergence")
    dev_num = np.abs((out_vals[cc] << s) - phi.values[cc])
    info = {
        "max_dev_core": float(int(dev_num.max(initial=0))) / mod,
        "edges_rounded": int(m_cc),
        "supply": int(np.abs(r[:nvert]).sum()),
    }
    return out, info


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
    """Turn an exact f-flow on the core into an integral one.

    direct: one global rounding, per-edge deviation < 1.
    cover:  boundary-walk adjustment on a disjoint-boundary cover, then
            rounding of the remaining free edges; deviation <= 3^d.
    """
    if mode == "direct":
        out, info = round_edge_field(window, phi, f)
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
    for F in cover.regions:
        if (ball_mask(window, F.mask, 2) & ~core).any():
            raise AssertionError("cover region's 2-neighborhood leaves the core")
        cur = adjust_on_region(cur, F)
    # a region boundary edge is stored at its lower flat endpoint, in the
    # direction whose flat shift joins the two; flat shifts increase in
    # dirs order once L >= 3, which every cover window exceeds
    rows = np.concatenate([F.boundary() for F in cover.regions]
                          + [np.empty((0, 2), dtype=np.int64)])
    tail, head = rows.min(axis=1), rows.max(axis=1)
    flat_shift = _flat_shifts(window)
    di = np.searchsorted(flat_shift, head - tail)
    if not np.array_equal(flat_shift[di], head - tail):
        raise AssertionError("cover boundary row is not a lattice edge")
    fixed = np.zeros((len(flat_shift), window.n_vertices), dtype=bool)
    fixed[di, tail] = True
    out, info = round_edge_field(window, cur, f, fixed_mask=fixed)
    info["mode"] = "cover"
    info["cover"] = cover.summary()
    adj_dev = np.abs(cur.values - phi.values).max(initial=0)
    info["max_adjust_dev"] = float(int(adj_dev)) / (1 << phi.scale_exp)
    info["max_dev_core"] = float(
        int(np.abs((out.values.astype(np.int64) << phi.scale_exp)
                   - phi.values)[_core_edge_masks(window)].max(initial=0))
    ) / (1 << phi.scale_exp)
    return out, info

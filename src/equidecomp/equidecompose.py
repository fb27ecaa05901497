"""Tile-scale selection, transfer aggregation, matching, and pieces.

The endgame of the construction.  Partition the core into boxes of side K
or K+1, with K scanned from the flow actually built (select_K only
reports the far larger scale of the paper's boundary criterion), sum the
integral flow over each pair of adjacent tiles to get a whole number of
units that must move between them, serve each positive transfer with
actual points (least-first on both sides), and match what remains within
each tile.  Every matched point then moves by a lattice translation of
max-norm below 2K + 4, so grouping assignments by their translation
vector yields finitely many pieces.

The window is finite, so tiles bordering the untiled frontier ring leak
flow: their point imbalance equals that leakage exactly (the divergence
identity holds on every core vertex), and the leftover points go
unmatched.  Tiles whose transfers exceed their own point counts are
excluded outright.  The verifier checks that unmatched points occur only
in excluded tiles, tiles touching untiled space, or neighbors of excluded
tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .flowgrid import EdgeField
from .lattice import IndicatorField, LatticeWindow, flat_shifts
from .tiling import Tiling, rect_tiling


def box_boundary_edges(sides: Sequence[int]) -> int:
    """Exact number of lattice edges leaving a box with the given sides.

    Summing over all 3^d - 1 directions gives 3^d vol - prod(3 s_i - 2).
    """
    if min(sides) < 1:
        raise ValueError("box sides must be positive")
    return 3 ** len(sides) * math.prod(sides) - math.prod(
        3 * s - 2 for s in sides)


def select_K(d: int, c: int) -> int:
    """The least K with c * |edges leaving a K-cube| <= K^d, exact.

    This is the tile scale of the paper's boundary criterion, c_int *
    |edges leaving V| <= |A cap V|, |B cap V| on every tile V: no smaller
    cube holds enough points, so a rect tiling of at least four tiles per
    axis can meet the criterion only once the core side reaches
    4 * select_K(d, c_int).  run_pipeline reports it as
    tiles.criterion_K, and nothing reads it.  The boundary's share of the
    volume, 3^d - (3 - 2/K)^d, falls as K grows, so doubling and then
    bisection find it.
    """
    def ok(K):
        return c * box_boundary_edges((K,) * d) <= K ** d

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2                     # fails, or 0 when hi == 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def k_scan_max(window: LatticeWindow) -> int:
    """Largest K select_K_empirical scans: half the core side, at least 1."""
    lo, hi = window.core_bounds
    return max(1, (hi - lo) // 2)


def select_K_empirical(psi: EdgeField, field: IndicatorField
                       ) -> Tuple[TileFlow, dict]:
    """The automatic tile scale, read from the flow actually built.

    Scans K from 1 to k_scan_max and returns (tile flow, diagnostics) for
    the first proper tiling all of whose tiles can serve their aggregated
    transfers from their own point counts; its K and tiling are
    tf.tiling.K and tf.tiling.  If no K is fully clean, returns those of
    the K minimizing the number of infeasible tiles, with
    diagnostics["clean"] = False so the caller can flag the run as
    best-effort.  diagnostics["scanned"] maps each scanned K, in scan
    order, to its count of infeasible tiles, or None when its tiling is
    improper.  K = 1 divides every core side, so some tiling is always
    proper.  Each scanned K's tile flow is built from the flow's nonzero
    edges and the tiles' point counts, which also checks its balance.
    """
    window = field.window
    if psi.crop.full != window:
        raise ValueError("flow and field must share a window")
    edges = _flow_edges(psi)
    core = window.core_mask()
    pts = [np.flatnonzero(chi & core) for chi in (field.chi_a, field.chi_b)]
    scanned: Dict[int, Optional[int]] = {}
    best = None                                  # (bad count, tile flow)
    for K in range(1, k_scan_max(window) + 1):
        t = rect_tiling(window, K)
        if t.improper:
            scanned[K] = None
            continue
        tf = _tile_flow(t, edges, pts)
        bad = int((~tf.feasible).sum())
        scanned[K] = bad
        if best is None or bad < best[0]:
            best = (bad, tf)
        if bad == 0:
            break
    bad, tf = best
    return tf, {"clean": bad == 0, "scanned": scanned}


def _flow_edges(psi: EdgeField) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, value) of the stored edges carrying nonzero flow, as
    flat vertex indices of the full window psi.crop.full and whole units,
    in slot order."""
    window = psi.window
    di, ui = np.divmod(np.flatnonzero(psi.values != 0), window.n_vertices)
    val = psi.values[di, ui].astype(np.int64)
    if (val % (1 << psi.scale_exp)).any():
        raise ValueError("flow is not integral")
    head = np.array(np.unravel_index(ui, window.shape)).T + psi.dirs[di]
    inside = ((head >= 0) & (head < window.L)).all(axis=1)
    return (psi.crop.to_full(ui[inside]),
            psi.crop.to_full((ui + flat_shifts(window)[di])[inside]),
            val[inside] >> psi.scale_exp)


@dataclass
class TileFlow:
    """Integral flow aggregated over tile interfaces.

    The tile pairs that carry flow are listed in both orientations, sorted
    by (src, dst); pair_val is the net flow from src to dst (antisymmetric,
    never 0).  outflux[i] leaves tile i for untiled in-window vertices.
    A tile that holds no vertex of the core's outer layer (every tile at
    margin 0) has no edge to untiled space; it is interior and satisfies
    sum_S Psi(R,S) = |R cap A| - |R cap B|.
    """

    tiling: Tiling
    pair_src: np.ndarray       # (p,) int32 tile ids
    pair_dst: np.ndarray       # (p,) int32
    pair_val: np.ndarray       # (p,) int64
    count_a: np.ndarray        # (n,) int64
    count_b: np.ndarray
    outflux: np.ndarray        # (n,) int64
    interior: np.ndarray       # (n,) bool

    @property
    def n(self) -> int:
        return len(self.tiling.tiles)

    def _row_sums(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, self.pair_src, x)
        return out

    @property
    def net(self) -> np.ndarray:
        return self._row_sums(self.pair_val)

    @property
    def balanced(self) -> np.ndarray:
        """net + outflux == |A| - |B|: exact on every tile when the flow's
        divergence equals chi_A - chi_B on each tile vertex."""
        return (self.net + self.outflux) == (self.count_a - self.count_b)

    @property
    def need_out(self) -> np.ndarray:
        return self._row_sums(np.maximum(self.pair_val, 0))

    @property
    def need_in(self) -> np.ndarray:
        return self._row_sums(np.maximum(-self.pair_val, 0))

    @property
    def feasible(self) -> np.ndarray:
        """Transfers can be served from the tile's own points."""
        return (self.need_out <= self.count_a) & (self.need_in <= self.count_b)

    @property
    def strict_bound_ok(self) -> np.ndarray:
        """sum_S |Psi(R,S)| < min counts — the paper's strict margin,
        which the scan does not require; informational at window scale."""
        total = self.need_out + self.need_in
        return (total < self.count_a) & (total < self.count_b)


def _tile_flow(tiling: Tiling, edges, pts) -> TileFlow:
    """The tile flow of the edges (tail, head, value) from _flow_edges,
    listing the tile pairs whose net flow is nonzero; pts are the flat
    indices of the tiled A and B points.  Raises AssertionError when
    balance fails."""
    tail, head, val = edges
    tid = tiling.tile_id.ravel()
    a, b = tid[tail], tid[head]
    n = len(tiling.tiles)
    cross = (a >= 0) & (b >= 0) & (a != b)
    # both orientations, summed per (src, dst) pair in exact int64
    key = np.concatenate([a[cross].astype(np.int64) * n + b[cross],
                          b[cross].astype(np.int64) * n + a[cross]])
    flow = np.concatenate([val[cross], -val[cross]])
    order = np.argsort(key, kind="stable")
    key, flow = key[order], flow[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))     # keys are >= 0
    pair_val = np.add.reduceat(flow, first)
    carry = pair_val != 0
    key, pair_val = key[first][carry], pair_val[carry]
    pair_src = (key // n).astype(np.int32)
    outflux = np.zeros(n, dtype=np.int64)
    leak = (a >= 0) & (b < 0)
    np.add.at(outflux, a[leak], val[leak])
    leak = (b >= 0) & (a < 0)
    np.add.at(outflux, b[leak], -val[leak])
    count_a, count_b = (np.bincount(tid[p], minlength=n) for p in pts)
    # the tiles partition the core, so only its outer layer has untiled
    # neighbours, and none at margin 0
    window = tiling.window
    lo, hi = window.core_bounds
    layer = window.core_mask() & (window.margin > 0)
    layer[(slice(lo + 1, hi - 1),) * window.d] = False
    interior = np.ones(n, dtype=bool)
    interior[tiling.tile_id[layer]] = False
    tf = TileFlow(tiling=tiling, pair_src=pair_src,
                  pair_dst=(key % n).astype(np.int32), pair_val=pair_val,
                  count_a=count_a, count_b=count_b, outflux=outflux,
                  interior=interior)
    bad = ~tf.balanced
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise AssertionError(
            "balance fails on tile %d: net %d + outflux %d vs counts %d - %d"
            % (i, int(tf.net[i]), int(outflux[i]),
               int(count_a[i]), int(count_b[i])))
    return tf


def tile_flow(psi: EdgeField, tiling: Tiling,
              field: IndicatorField) -> TileFlow:
    """Aggregate an integral flow into per-tile-pair transfer counts.

    Requires div psi = chi_A - chi_B on the core, checked through the
    balance identity net + outflux = |A| - |B| on every tile, which is an
    exact consequence.
    """
    window = psi.crop.full
    if tiling.window != window or field.window != window:
        raise ValueError("flow, tiling and field must share a window")
    tiled = tiling.tile_id.ravel() >= 0
    pts = [np.flatnonzero(chi.ravel() & tiled)
           for chi in (field.chi_a, field.chi_b)]
    return _tile_flow(tiling, _flow_edges(psi), pts)


@dataclass
class Matching:
    """Point-level matching: pair_a[i] is sent to pair_b[i] (flat indices)."""

    tileflow: TileFlow
    used: np.ndarray           # bool per tile
    pair_a: np.ndarray         # int64 flat vertices
    pair_b: np.ndarray
    unmatched_a: np.ndarray    # flat, ascending
    unmatched_b: np.ndarray
    info: dict


def _tile_points(tiling: Tiling, chi: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The tiled points of chi as a per-tile CSR: their flat indices sorted
    by tile, ascending within each tile (flat order on a row-major grid is
    lexicographic coordinate order), and the (n + 1,) tile offsets."""
    tid = tiling.tile_id.ravel()
    sel = np.flatnonzero(chi.ravel() & (tid >= 0))
    ids = tid[sel]
    count = np.bincount(ids, minlength=len(tiling.tiles))
    return sel[np.argsort(ids, kind="stable")], np.append(0, np.cumsum(count))


def _serve(tiles: np.ndarray, v: np.ndarray, ptr: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Serve the pairs in list order, each taking the next v of its tile's
    points: (each pair's first index into the tile CSR with offsets ptr,
    the count taken from each tile)."""
    order = np.argsort(tiles, kind="stable")
    t, w = tiles[order], v[order]
    taken = np.bincount(t, weights=w, minlength=len(ptr) - 1).astype(np.int64)
    start = np.empty_like(v)
    start[order] = ptr[t] + np.cumsum(w) - w - (np.cumsum(taken) - taken)[t]
    return start, taken


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + lens[i]), concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts + lens - ends, lens) + np.arange(lens.sum())


def build_matching(tf: TileFlow, field: IndicatorField) -> Matching:
    """Serve each positive transfer Psi(R,S) with the next-least unused
    points of A in R and of B in S, then match leftovers within each tile.

    The positive pairs are served in (R, S) order, so every tile gives its
    A points to ascending neighbors and takes B points from ascending
    sources, least points first on both sides.  Every feasible tile takes
    part; infeasible tiles contribute unmatched points, and a pair is
    served only when both tiles take part.  A used tile's leftover
    imbalance equals its flow leakage into untiled space plus its transfers
    with unused neighbors, so when the tile has no outflux and every tile
    it carries flow with is used the leftovers must pair off exactly —
    that balance is asserted, a failure means an upstream flow bug.  All
    of it is index arithmetic over a per-tile CSR of the points.
    """
    if field.window != tf.tiling.window:
        raise ValueError("field window mismatch")
    used = tf.feasible & tf.balanced
    pts_a, ptr_a = _tile_points(tf.tiling, field.chi_a)
    pts_b, ptr_b = _tile_points(tf.tiling, field.chi_b)
    serve = (tf.pair_val > 0) & used[tf.pair_src] & used[tf.pair_dst]
    src, dst, v = tf.pair_src[serve], tf.pair_dst[serve], tf.pair_val[serve]
    start_a, sent = _serve(src, v, ptr_a)
    start_b, taken = _serve(dst, v, ptr_b)
    over = np.flatnonzero((start_a + v > ptr_a[src + 1])
                          | (start_b + v > ptr_b[dst + 1]))
    if len(over):
        raise AssertionError("transfer overrun on tiles %d -> %d"
                             % (src[over[0]], dst[over[0]]))
    left_a = np.diff(ptr_a) - sent
    left_b = np.diff(ptr_b) - taken
    full = used & (tf.outflux == 0) & (np.bincount(
        tf.pair_src, weights=~used[tf.pair_dst], minlength=tf.n) == 0)
    bad = np.flatnonzero(full & (left_a != left_b))
    if len(bad):
        t = bad[0]
        raise AssertionError(
            "leftover imbalance %d vs %d in fully served tile %d"
            % (left_a[t], left_b[t], t))
    m = np.where(used, np.minimum(left_a, left_b), 0)
    pair_a = pts_a[_ranges(np.concatenate([start_a, ptr_a[:-1] + sent]),
                           np.concatenate([v, m]))]
    pair_b = pts_b[_ranges(np.concatenate([start_b, ptr_b[:-1] + taken]),
                           np.concatenate([v, m]))]
    unmatched_a = np.sort(pts_a[_ranges(ptr_a[:-1] + sent + m, left_a - m)])
    unmatched_b = np.sort(pts_b[_ranges(ptr_b[:-1] + taken + m, left_b - m)])
    if (np.diff(np.sort(pair_a)) == 0).any():
        raise AssertionError("a source point was matched twice")
    if (np.diff(np.sort(pair_b)) == 0).any():
        raise AssertionError("a target point was matched twice")
    info = {"used_tiles": int(used.sum()), "cross_matched": int(v.sum())}
    return Matching(tileflow=tf, used=used, pair_a=pair_a, pair_b=pair_b,
                    unmatched_a=unmatched_a, unmatched_b=unmatched_b,
                    info=info)


@dataclass
class PieceMap:
    """The equidecomposition at lattice level: each matched A-vertex moves
    by its row's translation; pieces group rows sharing a translation.

    The fields are what pieces.csv and summary.json's verify_inputs hold:
    rows are sorted by source vertex; piece ids follow the lexicographic
    order of the distinct translations; every translation satisfies
    max-norm < 2K + 4, K the tiling's piece scale K_eff.  Targets are
    a_flat moved by gamma, never stored."""

    a_flat: np.ndarray         # (m,) ascending
    gamma: np.ndarray          # (m, d)
    piece_id: np.ndarray       # (m,) integer ids
    unmatched_a: np.ndarray
    unmatched_b: np.ndarray
    tiling: Tiling
    used: np.ndarray

    @property
    def window(self) -> LatticeWindow:
        return self.tiling.window

    @property
    def K(self) -> int:
        return self.tiling.K_eff

    @property
    def bound(self) -> int:
        return 2 * self.K + 4

    @property
    def n_pieces(self) -> int:
        """Distinct translations: the rows of gamma lexsorted, counting
        where a row differs from the one before it."""
        g = self.gamma[np.lexsort(self.gamma.T[::-1])]
        return int(len(g) > 0) + int(np.count_nonzero(
            (g[1:] != g[:-1]).any(axis=1)))


def extract_pieces(matching: Matching) -> PieceMap:
    """Group the matching by translation vector.

    K is the tiling's K_eff, so every tile side is at most K + 1 and
    adjacent-tile moves stay below 2K + 4; the bound is asserted on every
    assignment, and the number of distinct translations is at most
    (4K + 7)^d.
    """
    tiling = matching.tileflow.tiling
    window = tiling.window
    d = window.d
    K = tiling.K_eff
    order = np.argsort(matching.pair_a)
    a_flat = matching.pair_a[order]
    b_flat = matching.pair_b[order]
    ca = np.stack(np.unravel_index(a_flat, window.shape), axis=1)
    cb = np.stack(np.unravel_index(b_flat, window.shape), axis=1)
    gamma = (cb - ca).astype(np.int64)
    norms = np.abs(gamma).max(axis=1, initial=0)
    if norms.max(initial=0) > 2 * K + 3:
        i = int(norms.argmax())
        raise AssertionError(
            "assignment %r -> %r moves by %r, past the 2K+3 = %d bound"
            % (tuple(ca[i]), tuple(cb[i]), tuple(gamma[i]), 2 * K + 3))
    # piece ids: lexsorted ranks; the prepended row is past the bound
    by = np.lexsort(gamma.T[::-1])
    piece_id = np.empty(len(by), dtype=np.int32)
    piece_id[by] = np.cumsum((np.diff(gamma[by], axis=0, prepend=2 * K + 4)
                              != 0).any(axis=1)) - 1
    if piece_id.max(initial=-1) >= (4 * K + 7) ** d:
        raise AssertionError("piece count exceeds (4K+7)^d")
    return PieceMap(a_flat=a_flat, gamma=gamma, piece_id=piece_id,
                    unmatched_a=matching.unmatched_a.copy(),
                    unmatched_b=matching.unmatched_b.copy(),
                    tiling=tiling, used=matching.used.copy())


def verify_equidecomposition(pieces: PieceMap, field: IndicatorField) -> dict:
    """Re-derive every piece-map invariant from the field and the map alone.

    Returns a report dict — {"ok": bool, "checks": {name: {...}},
    "unmatched_fraction": float} —
    and never raises: violations are findings, not exceptions.  Unmatched
    points are allowed only in tiles that were excluded or that border an
    excluded/untiled part of the window.
    """
    checks: Dict[str, dict] = {}

    def put(name: str, ok: bool, **detail):
        entry = {"ok": bool(ok)}
        entry.update(detail)
        checks[name] = entry

    window = pieces.window
    d = window.d
    L = window.L
    m = len(pieces.a_flat)
    a = pieces.a_flat
    gamma = pieces.gamma

    put("sources_unique", bool((np.diff(a) > 0).all()))
    put("sources_in_a", bool(field.chi_a.ravel()[a].all()))

    cb = np.stack(np.unravel_index(a, window.shape), axis=1) + gamma
    in_win = ((cb >= 0) & (cb < L)).all(axis=1)
    put("targets_in_window", bool(in_win.all()),
        violations=int((~in_win).sum()))
    # the targets; one outside the window is clipped onto its face, which
    # targets_in_window has already failed
    bf = np.ravel_multi_index(tuple(np.clip(cb, 0, L - 1).T), window.shape)
    in_b = in_win & field.chi_b.ravel()[bf]
    put("targets_in_b", bool(in_b.all()), violations=int((~in_b).sum()))
    put("targets_unique", bool((np.diff(np.sort(bf)) > 0).all()))

    max_norm = int(np.abs(gamma).max(initial=0))
    put("gamma_bound", max_norm < pieces.bound,
        max_norm=max_norm, bound=pieces.bound)

    # lexicographic ranks: from 0, up by 1 exactly where sorted rows change
    rank = np.lexsort(gamma.T[::-1])
    step = (np.diff(gamma[rank], axis=0) != 0).any(axis=1)
    ids = pieces.piece_id[rank]
    put("piece_grouping", int(step.sum()) < (4 * pieces.K + 7) ** d
        and (m == 0 or ids[0] == 0) and np.array_equal(np.diff(ids), step))

    tid = pieces.tiling.tile_id.ravel()
    tiled = tid >= 0
    all_a = np.flatnonzero(field.chi_a.ravel() & tiled)
    all_b = np.flatnonzero(field.chi_b.ravel() & tiled)
    put("a_partition",
        bool(np.array_equal(np.sort(np.concatenate([a, pieces.unmatched_a])),
                            all_a)))
    put("b_partition",
        bool(np.array_equal(
            np.sort(np.concatenate([bf, pieces.unmatched_b])),
            all_b)))

    # a tile may hold unmatched points when it is unused or has an edge
    # to an untiled vertex or to a vertex of an unused tile.  Edges join
    # L-inf neighbours, so the tiles with such an edge are those holding a
    # vertex of the one-step L-inf dilation of the opened (untiled or
    # unused-tile) vertices.  Every neighbour of a core vertex lies in the
    # core plus one ring, so the dilation runs on that box, without wrap.
    lo, hi = window.core_bounds
    box = pieces.tiling.tile_id[(slice(max(lo - 1, 0), min(hi + 1, L)),) * d]
    near = np.append(~pieces.used, True)[box]  # index -1: untiled
    for axis in range(d):
        moved = np.moveaxis(near, axis, 0)      # a view: writes reach near
        opened = moved.copy()
        moved[1:] |= opened[:-1]
        moved[:-1] |= opened[1:]
    allowed = ~pieces.used
    allowed[box[near & (box >= 0)]] = True
    un_tiles = tid[np.concatenate([pieces.unmatched_a, pieces.unmatched_b])]
    bad = np.sort(un_tiles[(un_tiles < 0) | ~allowed[un_tiles]])
    bad_tiles = bad[np.diff(bad, prepend=-2) > 0].tolist()
    put("unmatched_locality", not bad_tiles, bad_tiles=bad_tiles)

    total = len(all_a) + len(all_b)
    un_count = len(pieces.unmatched_a) + len(pieces.unmatched_b)
    return {"ok": all(entry["ok"] for entry in checks.values()),
            "checks": checks,
            "unmatched_fraction": (un_count / total) if total else 0.0}

"""Tile aggregation, point matching, piece extraction, and the verifier,
driven by flows built edge-by-edge from known point pairings."""

import itertools

import numpy as np
import pytest

from equidecomp.equidecompose import (
    KSelectionError,
    box_boundary_edges,
    build_matching,
    extract_pieces,
    select_K,
    select_K_empirical,
    tile_adjacency,
    tile_flow,
    verify_equidecomposition,
)
from equidecomp.flowgrid import EdgeField
from equidecomp.lattice import IndicatorField, LatticeWindow, all_directions
from equidecomp.tiling import rect_tiling


def brute_box_edges(sides):
    box = list(itertools.product(*(range(s) for s in sides)))
    inside = set(box)
    count = 0
    for v in box:
        for g in all_directions(len(sides)):
            w = tuple(a + b for a, b in zip(v, g))
            if w not in inside:
                count += 1
    return count


def test_box_boundary_edges_matches_enumeration():
    for d in (1, 2, 3):
        for sides in itertools.product((1, 2, 3), repeat=d):
            assert box_boundary_edges(sides) == brute_box_edges(sides)
    assert box_boundary_edges((5, 5)) == 12 * 5 - 4
    with pytest.raises(ValueError):
        box_boundary_edges((2, 0))


def path_flow(window, pairs):
    """Unit flow routed axis-by-axis from each source to its target, plus
    the indicator field naming those endpoints; div psi = chi_A - chi_B
    holds exactly at every window vertex by construction."""
    psi = EdgeField(window, 0)
    for src, dst in pairs:
        cur = list(src)
        for ax in range(window.d):
            step = 1 if dst[ax] > cur[ax] else -1
            while cur[ax] != dst[ax]:
                nxt = list(cur)
                nxt[ax] += step
                psi.add_num(tuple(cur), tuple(nxt), 1)
                cur = nxt
    chi_a = np.zeros(window.shape, dtype=bool)
    chi_b = np.zeros(window.shape, dtype=bool)
    for src, dst in pairs:
        chi_a[src] = True
        chi_b[dst] = True
    fld = IndicatorField(window=window, chi_a=chi_a, chi_b=chi_b)
    assert np.array_equal(psi.divergence_num(), fld.f.astype(np.int64))
    return psi, fld


def test_tile_flow_hand_example():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, fld = path_flow(w, [((3, 3), (3, 4))])
    t = rect_tiling(w, 2)                      # 2x2 grid of 2x2 tiles
    tf = tile_flow(psi, t, fld)
    i, j = t.tile_of((3, 3)), t.tile_of((3, 4))
    assert i != j
    assert tf.Psi(i, j) == 1 and tf.Psi(j, i) == -1
    assert tf.net[i] == 1 and tf.net[j] == -1
    assert not tf.outflux.any()
    assert tf.count_a[i] == 1 and tf.count_b[j] == 1
    assert tf.balanced.all() and tf.conserved.all() and tf.feasible.all()
    assert not tf.interior.any()               # every tile borders the frontier
    assert tf.adj[i, j] and tf.adj[j, i]


def test_tile_flow_leakage_into_frontier():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi = EdgeField(w, 0)
    psi.add_num((2, 2), (1, 2), 1)             # one unit leaves the core
    chi_a = np.zeros(w.shape, dtype=bool)
    chi_a[2, 2] = True
    fld = IndicatorField(window=w, chi_a=chi_a, chi_b=np.zeros_like(chi_a))
    t = rect_tiling(w, 2)
    tf = tile_flow(psi, t, fld)
    i = t.tile_of((2, 2))
    assert tf.outflux[i] == 1
    assert tf.net[i] == 0
    assert not tf.conserved[i]                 # leakage breaks conservation...
    assert tf.balanced.all()                   # ...but never the balance identity


def test_tile_flow_matches_recount():
    rng = np.random.default_rng(77)
    w = LatticeWindow(d=2, L=14, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=12, replace=False)
    pairs = list(zip([pts[i] for i in picks[:6]], [pts[i] for i in picks[6:]]))
    psi, fld = path_flow(w, pairs)
    t = rect_tiling(w, 3)
    tf = tile_flow(psi, t, fld)
    n = len(t.tiles)
    mat = np.zeros((n, n), dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for v in np.argwhere(np.ones(w.shape, dtype=bool)):
        for g in all_directions(2):
            u = v + np.asarray(g)
            if ((u < 0) | (u >= w.L)).any():
                continue
            val = psi.value_num(tuple(v), tuple(g))
            if val <= 0:                        # count each flow once, at its tail
                continue
            ti, tj = t.tile_of(v), t.tile_of(u)
            if ti >= 0 and tj >= 0 and ti != tj:
                mat[ti, tj] += val
                mat[tj, ti] -= val
            elif ti >= 0 and tj < 0:
                out[ti] += val
            elif tj >= 0 and ti < 0:
                out[tj] -= val
    assert np.array_equal(tf.psi_mat, mat)
    assert np.array_equal(tf.outflux, out)
    assert np.array_equal(tf.count_a, np.bincount(
        [t.tile_of(p) for p, _ in pairs], minlength=n))


def test_tile_flow_validation():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, fld = path_flow(w, [((3, 3), (4, 4))])
    with pytest.raises(ValueError):
        tile_flow(psi, rect_tiling(LatticeWindow(d=2, L=10, margin=2), 2), fld)
    frac = EdgeField(w, 2)
    frac.add_num((3, 3), (3, 4), 1)            # quarter unit: not integral
    with pytest.raises(ValueError):
        tile_flow(frac, rect_tiling(w, 2), fld)
    # divergence that does not match the indicators trips the balance check
    lying = IndicatorField(window=w, chi_a=np.zeros(w.shape, dtype=bool),
                           chi_b=np.zeros(w.shape, dtype=bool))
    with pytest.raises(AssertionError):
        tile_flow(psi, rect_tiling(w, 2), lying)


def test_matching_is_a_bijection_on_feasible_runs():
    rng = np.random.default_rng(101)
    w = LatticeWindow(d=2, L=20, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    for trial in range(10):
        picks = rng.choice(len(pts), size=16, replace=False)
        pairs = list(zip([pts[i] for i in picks[:8]], [pts[i] for i in picks[8:]]))
        psi, fld = path_flow(w, pairs)
        K, diag = select_K_empirical(w, psi, fld)
        tf = tile_flow(psi, rect_tiling(w, K), fld)
        m = build_matching(tf, fld)
        assert len(m.pair_a) == len(m.pair_b)
        assert len(np.unique(m.pair_a)) == len(m.pair_a)
        assert len(np.unique(m.pair_b)) == len(m.pair_b)
        tid = tf.tiling.tile_id.ravel()
        all_a = set(np.flatnonzero(fld.chi_a.ravel() & (tid >= 0)).tolist())
        all_b = set(np.flatnonzero(fld.chi_b.ravel() & (tid >= 0)).tolist())
        assert set(m.pair_a.tolist()) | set(m.unmatched_a.tolist()) == all_a
        assert set(m.pair_b.tolist()) | set(m.unmatched_b.tolist()) == all_b
        if diag["clean"]:
            assert m.used.all()
            # no leakage and every tile served: the matching is complete
            assert not len(m.unmatched_a) and not len(m.unmatched_b)
        # deterministic
        m2 = build_matching(tile_flow(psi, rect_tiling(w, K), fld), fld)
        assert np.array_equal(m.pair_a, m2.pair_a)
        assert np.array_equal(m.pair_b, m2.pair_b)


def pieces_for(w, pairs, K):
    psi, fld = path_flow(w, pairs)
    tf = tile_flow(psi, rect_tiling(w, K), fld)
    return extract_pieces(build_matching(tf, fld), K), fld


def test_extract_pieces_grouping_and_bounds():
    rng = np.random.default_rng(55)
    w = LatticeWindow(d=2, L=20, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=20, replace=False)
    pairs = list(zip([pts[i] for i in picks[:10]], [pts[i] for i in picks[10:]]))
    pieces, fld = pieces_for(w, pairs, 4)
    assert (np.diff(pieces.a_flat) > 0).all()
    assert pieces.bound == 2 * 4 + 4
    assert np.abs(pieces.gamma).max(initial=0) < pieces.bound
    assert pieces.n_pieces <= (4 * 4 + 7) ** 2
    # regroup by hand
    for i in range(pieces.n_pieces):
        rows = pieces.piece_id == i
        assert (pieces.gamma[rows] == pieces.gammas[i]).all()
        assert rows.sum() > 0
    # translations really carry sources to targets
    ca = np.stack(np.unravel_index(pieces.a_flat, w.shape), axis=1)
    cb = np.stack(np.unravel_index(pieces.b_flat, w.shape), axis=1)
    assert np.array_equal(ca + pieces.gamma, cb)
    report = verify_equidecomposition(pieces, fld)
    assert report["ok"], report
    assert report["pieces"] == pieces.n_pieces


def test_extract_pieces_rejects_oversized_tiles():
    w = LatticeWindow(d=2, L=20, margin=2)
    psi, fld = path_flow(w, [((5, 5), (9, 9))])
    tf = tile_flow(psi, rect_tiling(w, 3), fld)    # sides are 3 or 4
    matching = build_matching(tf, fld)
    with pytest.raises(ValueError):
        extract_pieces(matching, 2)                # 4 > K+1 = 3


def test_piece_count_bound_three_dimensional():
    rng = np.random.default_rng(13)
    w = LatticeWindow(d=3, L=8, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=24, replace=False)
    pairs = list(zip([pts[i] for i in picks[:12]], [pts[i] for i in picks[12:]]))
    pieces, fld = pieces_for(w, pairs, 1)
    assert pieces.n_pieces <= (4 * 1 + 7) ** 3     # = 1331
    assert np.abs(pieces.gamma).max(initial=0) <= 2 * 1 + 3
    assert verify_equidecomposition(pieces, fld)["ok"]


def test_verifier_flags_corruption():
    rng = np.random.default_rng(3)
    w = LatticeWindow(d=2, L=16, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=12, replace=False)
    pairs = list(zip([pts[i] for i in picks[:6]], [pts[i] for i in picks[6:]]))
    pieces, fld = pieces_for(w, pairs, 5)
    assert verify_equidecomposition(pieces, fld)["ok"]
    assert len(pieces.a_flat) >= 2

    bent = pieces.gamma.copy()
    bent[0] += 1
    broken = verify_equidecomposition(
        type(pieces)(window=pieces.window, K=pieces.K, a_flat=pieces.a_flat,
                     b_flat=pieces.b_flat, gamma=bent, piece_id=pieces.piece_id,
                     gammas=pieces.gammas, unmatched_a=pieces.unmatched_a,
                     unmatched_b=pieces.unmatched_b, tiling=pieces.tiling,
                     used=pieces.used), fld)
    assert not broken["ok"]
    assert not (broken["checks"]["targets_consistent"]["ok"]
                and broken["checks"]["piece_grouping"]["ok"])

    dup_b = pieces.b_flat.copy()
    dup_b[1] = dup_b[0]
    broken = verify_equidecomposition(
        type(pieces)(window=pieces.window, K=pieces.K, a_flat=pieces.a_flat,
                     b_flat=dup_b, gamma=pieces.gamma, piece_id=pieces.piece_id,
                     gammas=pieces.gammas, unmatched_a=pieces.unmatched_a,
                     unmatched_b=pieces.unmatched_b, tiling=pieces.tiling,
                     used=pieces.used), fld)
    assert not broken["ok"]
    assert not broken["checks"]["targets_unique"]["ok"]

    hidden = verify_equidecomposition(
        type(pieces)(window=pieces.window, K=pieces.K,
                     a_flat=pieces.a_flat[1:], b_flat=pieces.b_flat[1:],
                     gamma=pieces.gamma[1:], piece_id=pieces.piece_id[1:],
                     gammas=pieces.gammas, unmatched_a=pieces.unmatched_a,
                     unmatched_b=pieces.unmatched_b, tiling=pieces.tiling,
                     used=pieces.used), fld)
    assert not hidden["ok"]
    assert not hidden["checks"]["a_partition"]["ok"]


def test_select_k_boundary_criterion():
    w = LatticeWindow(d=2, L=104, margin=2)
    par = np.indices(w.shape).sum(axis=0) % 2
    fld = IndicatorField(window=w, chi_a=par == 0, chi_b=par == 1)
    K = select_K(w, fld, c=0.5)
    # the returned K satisfies the criterion; no smaller proper K does
    need = lambda tile: int(np.ceil(0.5)) * box_boundary_edges(tile.sides)
    for k in range(1, K + 1):
        t = rect_tiling(w, k)
        if t.improper:
            assert k < K
            continue
        ok = all(min(int(fld.chi_a[tile.slices()].sum()),
                     int(fld.chi_b[tile.slices()].sum())) >= need(tile)
                 for tile in t.tiles)
        assert ok == (k == K)


def test_select_k_raises_with_diagnostics():
    w = LatticeWindow(d=2, L=20, margin=2)
    chi_a = np.zeros(w.shape, dtype=bool)
    chi_b = np.zeros(w.shape, dtype=bool)
    chi_a[5, 5] = chi_b[9, 9] = True
    fld = IndicatorField(window=w, chi_a=chi_a, chi_b=chi_b)
    with pytest.raises(KSelectionError) as exc:
        select_K(w, fld, c=1.0)
    assert exc.value.diagnostics                  # per-K failure reasons


def test_select_k_empirical_clean_and_dirty():
    w = LatticeWindow(d=2, L=20, margin=2)
    # dense pairing: some K serves every tile from its own points
    pairs = [((x, y), (x, y + 1)) for x in range(3, 17, 2) for y in range(3, 16, 4)]
    psi, fld = path_flow(w, pairs)
    K, diag = select_K_empirical(w, psi, fld)
    assert diag["clean"] and diag["infeasible"] == 0
    assert not (~tile_flow(psi, rect_tiling(w, K), fld).feasible).any()

    # one long path: middle tiles carry transfers but own no points
    psi2, fld2 = path_flow(w, [((2, 2), (17, 17))])
    K2, diag2 = select_K_empirical(w, psi2, fld2)
    assert not diag2["clean"]
    assert diag2["infeasible"] >= 1
    assert diag2["scanned"][K2] == diag2["infeasible"]

    with pytest.raises(KSelectionError):
        select_K_empirical(w, psi, fld, k_min=9, k_max=9)   # improper only


def test_tile_adjacency_grid():
    w = LatticeWindow(d=2, L=12, margin=2)
    t = rect_tiling(w, 4)                         # 2x2 tiles
    adj, touches = tile_adjacency(t)
    assert adj.sum() == 12                        # all pairs incl. diagonals
    assert touches.all()
    assert not adj.diagonal().any()

"""Tile aggregation, point matching, piece extraction, and the verifier,
driven by flows built edge-by-edge from known point pairings."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from equidecomp.config import build_config
from equidecomp.equidecompose import (
    PieceMap,
    box_boundary_edges,
    build_matching,
    extract_pieces,
    k_scan_max,
    select_K,
    select_K_empirical,
    tile_flow,
    verify_equidecomposition,
)
from equidecomp.flowgrid import EdgeField
from equidecomp.lattice import IndicatorField, LatticeWindow, all_directions
from equidecomp import equidecompose
from equidecomp.pipeline import run_pipeline
from equidecomp.tiling import Net, greedy_net, rect_tiling, voronoi_tiling
from oracle.edges import add_flow, flow_num
from oracle import matching as loop_matching
from oracle.locality import unmatched_locality


def box_slices(box):
    """Window slices of a half-open (lo, hi) tile box."""
    return tuple(slice(int(a), int(b)) for a, b in zip(*box))


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


def test_select_k_is_the_least_passing_side():
    """select_K(d, c) against a linear scan: for each d the least K with
    c * (3^d K^d - (3K - 2)^d) <= K^d never falls as c grows, so one
    sweep over K serves every c; K passes and K - 1 fails."""
    def ok(d, c, K):
        return c * (3 ** d * K ** d - (3 * K - 2) ** d) <= K ** d

    for d in (1, 2, 3, 4, 5):
        K = 1
        for c in range(1, 301):
            while not ok(d, c, K):
                K += 1
            assert select_K(d, c) == K, (d, c)
            assert ok(d, c, K) and (K == 1 or not ok(d, c, K - 1))
    assert select_K(1, 7) == 14                    # |edges leaving| = 2
    assert select_K(2, 12) == 144                  # K^2 - 144K + 48 >= 0


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
                add_flow(psi, cur, nxt, 1)
                cur = nxt
    chi_a = np.zeros(window.shape, dtype=bool)
    chi_b = np.zeros(window.shape, dtype=bool)
    for src, dst in pairs:
        chi_a[src] = True
        chi_b[dst] = True
    fld = IndicatorField(window=window, chi_a=chi_a, chi_b=chi_b)
    assert np.array_equal(psi.divergence_num(), fld.f.astype(np.int64))
    return psi, fld


def recount(psi, t):
    """Dense reference, vertex by vertex: (mat, out, touches) with
    mat[i, j] the net flow from tile i to tile j, out the flow from each
    tile into untiled vertices, and touches[i] whether some edge of tile i
    reaches an untiled vertex."""
    w = psi.window
    n = len(t.tiles)
    mat = np.zeros((n, n), dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    touches = np.zeros(n, dtype=bool)
    for v in np.argwhere(np.ones(w.shape, dtype=bool)):
        for g in all_directions(w.d):
            u = v + np.asarray(g)
            if ((u < 0) | (u >= w.L)).any():
                continue
            ti, tj = int(t.tile_id[tuple(v)]), int(t.tile_id[tuple(u)])
            if ti == tj:
                continue
            if ti >= 0 and tj < 0:
                touches[ti] = True
            val = flow_num(psi, v, u) >> psi.scale_exp
            if val <= 0:                        # count each flow once, at its tail
                continue
            if ti >= 0 and tj >= 0 and ti != tj:
                mat[ti, tj] += val
                mat[tj, ti] -= val
            elif ti >= 0 and tj < 0:
                out[ti] += val
            elif tj >= 0 and ti < 0:
                out[tj] -= val
    return mat, out, touches


def assert_pairs_match(tf, mat):
    """The pair list is sorted by (src, dst), lists exactly the pairs with
    nonzero net flow, and carries mat's value on each."""
    n = tf.n
    key = tf.pair_src.astype(np.int64) * n + tf.pair_dst
    assert (np.diff(key) > 0).all()
    listed = np.zeros((n, n), dtype=bool)
    listed[tf.pair_src, tf.pair_dst] = True
    assert np.array_equal(listed, mat != 0)
    assert np.array_equal(tf.pair_val, mat[tf.pair_src, tf.pair_dst])
    for i in range(n):
        row = tf.pair_src == i
        assert np.array_equal(tf.pair_dst[row], np.flatnonzero(mat[i]))
        assert np.array_equal(tf.pair_val[row], mat[i, mat[i] != 0])
    assert np.array_equal(tf.net, mat.sum(axis=1))
    assert np.array_equal(tf.need_out, np.where(mat > 0, mat, 0).sum(axis=1))
    assert np.array_equal(tf.need_in, np.where(mat < 0, -mat, 0).sum(axis=1))


def test_tile_flow_hand_example():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, fld = path_flow(w, [((3, 3), (3, 4))])
    t = rect_tiling(w, 2)                      # 2x2 grid of 2x2 tiles
    tf = tile_flow(psi, t, fld)
    i, j = t.tile_id[3, 3], t.tile_id[3, 4]
    assert i != j
    mat, _, _ = recount(psi, t)
    assert mat[i, j] == 1 and mat[j, i] == -1
    assert_pairs_match(tf, mat)
    assert tf.net[i] == 1 and tf.net[j] == -1
    assert not tf.outflux.any()
    assert tf.count_a[i] == 1 and tf.count_b[j] == 1
    assert tf.balanced.all() and tf.feasible.all()
    assert np.array_equal(tf.net, tf.count_a - tf.count_b)
    assert not tf.interior.any()               # every tile borders the frontier
    assert (i, j) in zip(tf.pair_src, tf.pair_dst)
    assert (j, i) in zip(tf.pair_src, tf.pair_dst)


def test_tile_flow_leakage_into_frontier():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi = EdgeField(w, 0)
    add_flow(psi, (2, 2), (1, 2), 1)           # one unit leaves the core
    chi_a = np.zeros(w.shape, dtype=bool)
    chi_a[2, 2] = True
    fld = IndicatorField(window=w, chi_a=chi_a, chi_b=np.zeros_like(chi_a))
    t = rect_tiling(w, 2)
    tf = tile_flow(psi, t, fld)
    i = t.tile_id[2, 2]
    assert tf.outflux[i] == 1
    assert tf.net[i] == 0
    # leakage breaks conservation, but never the balance identity
    assert tf.net[i] != tf.count_a[i] - tf.count_b[i]
    assert tf.balanced.all()


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
    mat, out, _ = recount(psi, t)
    assert_pairs_match(tf, mat)
    assert np.array_equal(tf.outflux, out)
    assert np.array_equal(tf.count_a, np.bincount(
        [t.tile_id[p] for p, _ in pairs], minlength=n))


def test_interior_matches_recount():
    """interior is exactly "no edge reaches an untiled vertex": on rect
    tilings at margins 0-3, on Voronoi tilings of a greedy net, and on a
    sparse seed set whose cells include empty ones."""
    cases = []
    for d, core, Ks in ((2, 10, (1, 3)), (3, 6, (2,))):
        for margin, K in itertools.product(range(4), Ks):
            w = LatticeWindow(d=d, L=core + 2 * margin, margin=margin)
            cases.append((w, rect_tiling(w, K)))
    for d, L, margin, r in ((2, 24, 3, 2), (3, 10, 2, 1)):
        w = LatticeWindow(d=d, L=L, margin=margin)
        cases.append((w, voronoi_tiling(
            w, greedy_net(w, r, restrict=w.core_mask()))))
        # (1, ..., 1) is nearer than (0, ..., 0) to every core vertex
        rng = np.random.default_rng(L)
        seeds = np.concatenate([np.zeros((1, d), np.int64),
                                np.ones((1, d), np.int64),
                                rng.integers(0, L, size=(3, d))])
        t = voronoi_tiling(w, Net(points=np.unique(seeds, axis=0), r=r))
        assert (np.bincount(t.tile_id[t.tile_id >= 0],
                            minlength=len(t.tiles)) == 0).any()
        cases.append((w, t))
    for seed, (w, t) in enumerate(cases):
        psi, fld = random_path_flow(w, 5, seed)
        tf = tile_flow(psi, t, fld)
        mat, out, touches = recount(psi, t)
        assert np.array_equal(tf.interior, ~touches)
        assert touches.any() == (w.margin > 0)
        assert_pairs_match(tf, mat)
        assert np.array_equal(tf.outflux, out)


def test_tile_flow_validation():
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, fld = path_flow(w, [((3, 3), (4, 4))])
    with pytest.raises(ValueError):
        tile_flow(psi, rect_tiling(LatticeWindow(d=2, L=10, margin=2), 2), fld)
    frac = EdgeField(w, 2)
    add_flow(frac, (3, 3), (3, 4), 1)          # quarter unit: not integral
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
        tf, diag = select_K_empirical(psi, fld)
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
        m2 = build_matching(tile_flow(psi, rect_tiling(w, tf.tiling.K), fld),
                            fld)
        assert np.array_equal(m.pair_a, m2.pair_a)
        assert np.array_equal(m.pair_b, m2.pair_b)


def assert_least_first(m, fld):
    """Every used tile's cross matches carry out its transfers with used
    neighbors exactly, and use its least points first: the A points it
    sends, listed by ascending target tile, are its least A points in
    ascending order, and likewise the B points it takes, listed by
    ascending source tile.  Returns how many tiles send to or take from
    two or more tiles."""
    tf = m.tileflow
    tid = tf.tiling.tile_id.ravel()
    ta, tb = tid[m.pair_a], tid[m.pair_b]
    cross = ta != tb
    assert (m.used[ta[cross]] & m.used[tb[cross]]).all()
    sent = np.zeros((tf.n, tf.n), dtype=np.int64)
    np.add.at(sent, (ta[cross], tb[cross]), 1)
    want = np.zeros_like(sent)
    serve = m.used[tf.pair_src] & m.used[tf.pair_dst]
    want[tf.pair_src[serve], tf.pair_dst[serve]] = np.maximum(
        tf.pair_val[serve], 0)
    assert np.array_equal(sent, want)
    multi = 0
    for t in np.flatnonzero(m.used):
        for own, other, chi in ((ta, tb, fld.chi_a), (tb, ta, fld.chi_b)):
            rows = cross & (own == t)
            pts = (m.pair_a if chi is fld.chi_a else m.pair_b)[rows]
            order = np.lexsort((pts, other[rows]))
            least = np.flatnonzero(chi.ravel() & (tid == t))[:len(pts)]
            assert np.array_equal(pts[order], least), t
            multi += len(np.unique(other[rows])) > 1
    return multi


def test_matching_serves_least_points_first():
    from equidecomp.config import build_config
    from equidecomp.pipeline import run_pipeline
    # the TOY run of test_cli: 5 of its 8 tiles are infeasible
    cfg = build_config({"L": "16", "margin": "4", "n0": "1", "seed": "3"})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    assert (~res.matching.used).sum() == 5
    assert res.matching.info["cross_matched"] > 0
    assert_least_first(res.matching, res.field)
    # short random steps at K=3: tiles trade with several neighbors, so
    # the order across neighbors is pinned too, and a diagonal step that
    # detours through a third tile excludes it
    rng = np.random.default_rng(7)
    w = LatticeWindow(d=2, L=20, margin=2)
    lo, hi = w.core_bounds
    multi = excluded = 0
    for trial in range(5):
        taken, pairs = set(), []
        for a in map(tuple, rng.integers(lo, hi, size=(80, 2))):
            b = tuple(np.clip(np.add(a, rng.integers(-1, 2, size=2)),
                              lo, hi - 1))
            if a != b and not {a, b} & taken:
                taken |= {a, b}
                pairs.append((a, b))
        psi, fld = path_flow(w, pairs)
        m = build_matching(tile_flow(psi, rect_tiling(w, 3), fld), fld)
        excluded += int((~m.used).sum())
        multi += assert_least_first(m, fld)
    assert excluded > 0 and multi > 0, (excluded, multi)


def built_or_message(build, tf, fld):
    try:
        return build(tf, fld)
    except AssertionError as exc:
        return str(exc)


def assert_matches_loop(tf, fld):
    """build_matching against the tile-by-tile loop (oracle.matching):
    the same used tiles, info and unmatched points, and the same matched
    pairs as a set; or the same AssertionError message from both.
    Returns that message, or None."""
    got = built_or_message(build_matching, tf, fld)
    want = built_or_message(loop_matching.build_matching, tf, fld)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    assert np.array_equal(got.used, want.used)
    assert got.info == want.info
    for name in ("unmatched_a", "unmatched_b"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("pair_a", "pair_b", "unmatched_a", "unmatched_b"):
        assert getattr(got, name).dtype == np.int64, name
    assert len(got.pair_a) == len(got.pair_b) == len(want.pair_a)
    assert (sorted(zip(got.pair_a.tolist(), got.pair_b.tolist()))
            == sorted(zip(want.pair_a.tolist(), want.pair_b.tolist())))
    return None


def loop_case(d, margin, core, n_pairs, scale, voronoi, seed):
    """A path flow between random distinct vertices of the whole window
    (so at margin > 0 some flow leaks into untiled space), and a rect
    tiling of side scale or a Voronoi tiling of a greedy scale-net."""
    w = LatticeWindow(d=d, L=core + 2 * margin, margin=margin)
    rng = np.random.default_rng(seed)
    n_pairs = min(n_pairs, w.n_vertices // 2)
    picks = rng.choice(w.n_vertices, size=2 * n_pairs, replace=False)
    ends = [tuple(int(c) for c in np.unravel_index(p, w.shape))
            for p in picks]
    psi, fld = path_flow(w, list(zip(ends[:n_pairs], ends[n_pairs:])))
    if voronoi:
        til = voronoi_tiling(w, greedy_net(w, scale, restrict=w.core_mask()))
    else:
        til = rect_tiling(w, min(scale, core))
    return tile_flow(psi, til, fld), fld


def forged(fld, chi_name, flat, value):
    """fld with one vertex of chi_a or chi_b set to value."""
    chi = {"chi_a": fld.chi_a, "chi_b": fld.chi_b}
    chi[chi_name] = chi[chi_name].copy()
    chi[chi_name].ravel()[flat] = value
    return IndicatorField(window=fld.window, **chi)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), margin=st.integers(0, 2), core=st.integers(2, 7),
       n_pairs=st.integers(1, 10), scale=st.integers(1, 3),
       voronoi=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       forge=st.sampled_from([None, "chi_a", "chi_b"]), pick=st.integers(0))
def test_matching_equals_the_tile_loop(d, margin, core, n_pairs, scale,
                                       voronoi, seed, forge, pick):
    """The one-pass matching equals the tile loop it replaced, also on a
    field that one flipped vertex makes disagree with the tile flow:
    then both raise the same message or both return the same matching."""
    core = min(core, 5) if d == 3 else core
    tf, fld = loop_case(d, margin, core, n_pairs, scale, voronoi, seed)
    assert_matches_loop(tf, fld)
    if forge:
        chi = getattr(fld, forge).ravel()
        flat = pick % len(chi)
        assert_matches_loop(tf, forged(fld, forge, flat, not chi[flat]))


def test_matching_loop_cases_cover_the_edge_cases():
    """Seeded cases of test_matching_equals_the_tile_loop reach what the
    loop handled tile by tile: unused tiles (tile_flow raises on an
    unbalanced one, so these are the infeasible ones), used tiles that
    send to several tiles, tiles with no A or no B point, matched
    leftovers and unmatched tails of used tiles."""
    seen = dict.fromkeys(["unused", "no_a", "no_b", "multi", "leftover",
                          "tail"], 0)
    for seed in range(24):
        d = 1 + seed % 3
        tf, fld = loop_case(d, seed % 3, 6 if d < 3 else 4, 2 + seed % 9,
                            1 + seed % 2, seed % 4 == 3, seed)
        assert assert_matches_loop(tf, fld) is None
        m = build_matching(tf, fld)
        seen["unused"] += int((~m.used).sum())
        seen["no_a"] += int((tf.count_a == 0).sum())
        seen["no_b"] += int((tf.count_b == 0).sum())
        served = ((tf.pair_val > 0) & m.used[tf.pair_src]
                  & m.used[tf.pair_dst])
        seen["multi"] += int((np.bincount(tf.pair_src[served],
                                          minlength=tf.n) > 1).sum())
        tid = tf.tiling.tile_id.ravel()
        same = tid[m.pair_a] == tid[m.pair_b]
        seen["leftover"] += int(same.sum())
        un = tid[np.concatenate([m.unmatched_a, m.unmatched_b])]
        seen["tail"] += int(m.used[un[un >= 0]].sum())
    assert all(seen.values()), seen


def test_forged_matching_inputs_fail_alike():
    """A field with one A point fewer than the tile flow counted overruns
    the transfer that needed it, and one extra A point in a tile with no
    outflux and no unused neighbour unbalances its leftovers: both raise,
    with the loop's messages."""
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, fld = path_flow(w, [((2, 2), (2, 5))])
    t = rect_tiling(w, 2)                      # 2x2 grid of 2x2 tiles
    tf = tile_flow(psi, t, fld)
    assert tf.pair_src.tolist() == [0, 1] and tf.pair_val.tolist() == [1, -1]
    assert assert_matches_loop(tf, fld) is None
    drop = np.ravel_multi_index((2, 2), w.shape)
    assert (assert_matches_loop(tf, forged(fld, "chi_a", drop, False))
            == "transfer overrun on tiles 0 -> 1")
    extra = np.ravel_multi_index((5, 5), w.shape)
    assert (assert_matches_loop(tf, forged(fld, "chi_a", extra, True))
            == "leftover imbalance 1 vs 0 in fully served tile 3")


def pieces_for(w, pairs, K):
    psi, fld = path_flow(w, pairs)
    tf = tile_flow(psi, rect_tiling(w, K), fld)
    return extract_pieces(build_matching(tf, fld)), fld


def test_extract_pieces_grouping_and_bounds():
    rng = np.random.default_rng(55)
    w = LatticeWindow(d=2, L=20, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=20, replace=False)
    pairs = list(zip([pts[i] for i in picks[:10]], [pts[i] for i in picks[10:]]))
    psi, fld = path_flow(w, pairs)
    matching = build_matching(tile_flow(psi, rect_tiling(w, 4), fld), fld)
    pieces = extract_pieces(matching)
    assert (np.diff(pieces.a_flat) > 0).all()
    assert pieces.bound == 2 * 4 + 4
    assert np.abs(pieces.gamma).max(initial=0) < pieces.bound
    # regroup by hand: ids follow the sorted distinct translations
    gammas = np.unique(pieces.gamma, axis=0)
    assert pieces.n_pieces == len(gammas) <= (4 * 4 + 7) ** 2
    for i in range(pieces.n_pieces):
        rows = pieces.piece_id == i
        assert (pieces.gamma[rows] == gammas[i]).all()
        assert rows.sum() > 0
    # translations really carry sources to the matching's targets
    ca = np.stack(np.unravel_index(pieces.a_flat, w.shape), axis=1)
    order = np.argsort(matching.pair_a)
    assert np.array_equal(np.ravel_multi_index((ca + pieces.gamma).T, w.shape),
                          matching.pair_b[order])
    report = verify_equidecomposition(pieces, fld)
    assert report["ok"], report


def _piece_map(gamma):
    """A PieceMap holding gamma; n_pieces reads nothing else."""
    g = np.asarray(gamma, dtype=np.int64)
    none = np.zeros(0, dtype=np.int64)
    return PieceMap(a_flat=np.arange(len(g)), gamma=g, piece_id=none,
                    unmatched_a=none, unmatched_b=none, tiling=None,
                    used=np.zeros(0, dtype=bool))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_n_pieces_counts_distinct_rows(d, data):
    """n_pieces counts gamma's distinct rows as np.unique(axis=0) does:
    gamma comes from an untrusted CSV in verify, so every int64 counts,
    values near +-2^62 included, and repeated rows count once."""
    value = st.one_of(st.integers(-3, 3),
                      st.integers(-2 ** 63, 2 ** 63 - 1),
                      st.integers(2 ** 62 - 2, 2 ** 62 + 2),
                      st.integers(-2 ** 62 - 2, -2 ** 62 + 2))
    rows = data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                              max_size=40))
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=10))
    g = np.array(rows, dtype=np.int64).reshape(-1, d)
    assert _piece_map(g).n_pieces == len(np.unique(g, axis=0))


def test_n_pieces_empty_one_row_and_int64_edges():
    big = 2 ** 62
    for rows, want in ((np.zeros((0, 3), dtype=np.int64), 0),
                       ([[5, -2]], 1),
                       ([[big, -big], [big, -big], [big - 1, -big],
                         [big, 1 - big], [-big, big]], 4)):
        assert _piece_map(rows).n_pieces == want


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
    """Every corruption goes through what pieces.csv holds: the verifier
    derives the targets from the sources and translations."""
    import dataclasses
    rng = np.random.default_rng(3)
    w = LatticeWindow(d=2, L=16, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=12, replace=False)
    pairs = list(zip([pts[i] for i in picks[:6]], [pts[i] for i in picks[6:]]))
    pieces, fld = pieces_for(w, pairs, 5)
    assert verify_equidecomposition(pieces, fld)["ok"]
    assert len(pieces.a_flat) >= 2

    def checks(**fields):
        report = verify_equidecomposition(
            dataclasses.replace(pieces, **fields), fld)
        assert not report["ok"]
        return report["checks"]

    # a bent translation regroups the rows or misses B
    bent = pieces.gamma.copy()
    bent[0] += 1
    broken = checks(gamma=bent)
    assert not (broken["piece_grouping"]["ok"]
                and broken["targets_in_b"]["ok"])

    # two sources sent onto one target
    ca = np.stack(np.unravel_index(pieces.a_flat, w.shape), axis=1)
    onto = pieces.gamma.copy()
    onto[1] = ca[0] + onto[0] - ca[1]
    assert not checks(gamma=onto)["targets_unique"]["ok"]

    hidden = checks(a_flat=pieces.a_flat[1:], gamma=pieces.gamma[1:],
                    piece_id=pieces.piece_id[1:])
    assert not hidden["a_partition"]["ok"]


@settings(max_examples=120, deadline=None)
@given(d=st.integers(1, 4), margin=st.integers(0, 3), core=st.integers(2, 5),
       kind=st.sampled_from(["rect", "voronoi"]), scale=st.integers(1, 3),
       p_used=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
       n_unmatched=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(d=1, margin=0, core=6, kind="rect", scale=2, p_used=0.8,
         n_unmatched=6, seed=2)         # no wrap: tiles at opposite faces
def test_unmatched_locality_matches_reference(d, margin, core, kind, scale,
                                              p_used, n_unmatched, seed):
    """The verifier's one-dilation locality check gives the same entry as
    the per-direction reference on rect and Voronoi tilings, for random
    used masks and random unmatched points anywhere in the window."""
    w = LatticeWindow(d=d, L=core + 2 * margin, margin=margin)
    if kind == "rect":
        til = rect_tiling(w, min(scale, core))
    else:
        til = voronoi_tiling(w, greedy_net(w, scale, restrict=w.core_mask()))
    rng = np.random.default_rng(seed)
    used = rng.random(len(til.tiles)) < p_used
    picks = rng.choice(w.n_vertices, size=min(n_unmatched, w.n_vertices),
                       replace=False)
    un_a, un_b = np.sort(picks[::2]), np.sort(picks[1::2])
    none = np.zeros(w.shape, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    pieces = equidecompose.PieceMap(
        a_flat=empty, gamma=np.zeros((0, d), dtype=np.int64), piece_id=empty,
        unmatched_a=un_a, unmatched_b=un_b, tiling=til, used=used)
    report = verify_equidecomposition(
        pieces, IndicatorField(window=w, chi_a=none, chi_b=none))
    assert report["checks"]["unmatched_locality"] == unmatched_locality(
        til, used, np.concatenate([un_a, un_b]))


def test_select_k_empirical_clean_and_dirty():
    w = LatticeWindow(d=2, L=20, margin=2)
    # dense pairing: some K serves every tile from its own points
    pairs = [((x, y), (x, y + 1)) for x in range(3, 17, 2) for y in range(3, 16, 4)]
    psi, fld = path_flow(w, pairs)
    tf, diag = select_K_empirical(psi, fld)
    K = tf.tiling.K
    assert diag["clean"] and diag["scanned"][K] == 0
    assert not (~tf.feasible).any()
    # the scan hands back the accepted K's own tiling and aggregation
    assert np.array_equal(tf.tiling.tile_id, rect_tiling(w, K).tile_id)
    again = tile_flow(psi, rect_tiling(w, K), fld)
    for name in ("pair_src", "pair_dst", "pair_val", "outflux"):
        assert np.array_equal(getattr(tf, name), getattr(again, name)), name

    # one long path: middle tiles carry transfers but own no points
    psi2, fld2 = path_flow(w, [((2, 2), (17, 17))])
    tf2, diag2 = select_K_empirical(psi2, fld2)
    assert not diag2["clean"]
    # best effort: the tile flow is that of the best K
    bad = diag2["scanned"][tf2.tiling.K]
    assert bad == min(v for v in diag2["scanned"].values() if v is not None)
    assert bad >= 1 and int((~tf2.feasible).sum()) == bad


def test_tile_adjacency_grid():
    w = LatticeWindow(d=2, L=12, margin=2)
    t = rect_tiling(w, 4)                         # 2x2 tiles
    empty = np.zeros(w.shape, dtype=bool)
    # a zero flow, and one whose two crossings between tiles 0 and 1
    # cancel: adjacent tiles that carry no net flow are not listed
    zero = (EdgeField(w, 0), IndicatorField(window=w, chi_a=empty,
                                            chi_b=empty))
    for psi, fld in (zero, path_flow(w, [((5, 5), (5, 6)),
                                         ((4, 6), (4, 5))])):
        tf = tile_flow(psi, t, fld)
        assert len(tf.pair_src) == len(tf.pair_dst) == len(tf.pair_val) == 0
        assert not tf.interior.any()              # all touch untiled space
        assert tf.balanced.all()
    assert tf.count_a.tolist() == tf.count_b.tolist() == [1, 1, 0, 0]


def test_single_tile_has_no_pairs():
    # K as large as the core: one tile bordering the frontier ring, and
    # an empty pair list
    w = LatticeWindow(d=2, L=14, margin=2)
    psi, fld = path_flow(w, [((3, 3), (9, 10))])
    tf = tile_flow(psi, rect_tiling(w, 10), fld)
    assert tf.n == 1
    assert len(tf.pair_src) == len(tf.pair_dst) == len(tf.pair_val) == 0
    assert tf.net.tolist() == [0]
    assert tf.balanced.all() and not tf.interior.any()


def test_tile_layer_past_4096_tiles():
    """d=2, L=70, margin=2, K=1: 4356 single-vertex tiles, more than the
    old dense layer allowed; pairs and the K scan still agree with the
    recount."""
    rng = np.random.default_rng(8)
    w = LatticeWindow(d=2, L=70, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=40, replace=False)
    pairs = list(zip([pts[i] for i in picks[:20]], [pts[i] for i in picks[20:]]))
    psi, fld = path_flow(w, pairs)
    t = rect_tiling(w, 1)
    assert len(t.tiles) == 66 * 66 > 4096
    tf = tile_flow(psi, t, fld)
    mat, out, _ = recount(psi, t)
    assert_pairs_match(tf, mat)
    assert np.array_equal(tf.outflux, out)
    bad = int(((np.where(mat > 0, mat, 0).sum(axis=1) > tf.count_a)
               | (np.where(mat < 0, -mat, 0).sum(axis=1) > tf.count_b)).sum())
    _, diag = select_K_empirical(psi, fld)
    assert bad > 0 and diag["scanned"][1] == bad


def assert_scan_matches_tile_flow(w, psi, fld):
    """The scan tries K = 1, 2, ... up to the first clean K, or through
    k_scan_max when none is clean; at every proper K it counts exactly the
    tiles that the full aggregation finds infeasible, and it hands back
    that aggregation for the K it picks."""
    tf, diag = select_K_empirical(psi, fld)
    K = tf.tiling.K
    last = max(diag["scanned"])
    assert list(diag["scanned"]) == list(range(1, last + 1))
    assert last == (K if diag["clean"] else k_scan_max(w))
    for k, bad in diag["scanned"].items():
        t = rect_tiling(w, k)
        assert (bad is None) == t.improper
        if not t.improper:
            assert bad == int((~tile_flow(psi, t, fld).feasible).sum())
    again = tile_flow(psi, rect_tiling(w, K), fld)
    for name in ("pair_src", "pair_dst", "pair_val", "count_a", "count_b",
                 "outflux", "interior"):
        assert np.array_equal(getattr(tf, name), getattr(again, name)), name
    assert diag["scanned"][K] == int((~tf.feasible).sum())


def random_path_flow(w, n_pairs, seed):
    rng = np.random.default_rng(seed)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=2 * n_pairs, replace=False)
    return path_flow(w, list(zip([pts[i] for i in picks[:n_pairs]],
                                 [pts[i] for i in picks[n_pairs:]])))


def test_scan_counts_match_tile_flow_flagship():
    cfg = build_config({})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    assert_scan_matches_tile_flow(cfg.window(), res.psi_int, res.field)


def test_scan_counts_match_tile_flow_d5():
    w = LatticeWindow(d=5, L=10, margin=2)
    psi, fld = random_path_flow(w, 30, seed=5)
    assert_scan_matches_tile_flow(w, psi, fld)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3), margin=st.integers(1, 3), core=st.integers(2, 7),
       n_pairs=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_scan_counts_match_tile_flow_property(d, margin, core, n_pairs, seed):
    w = LatticeWindow(d=d, L=core + 2 * margin, margin=margin)
    n_pairs = min(n_pairs, core ** d // 2)
    assert_scan_matches_tile_flow(w, *random_path_flow(w, n_pairs, seed))


def test_scan_checks_balance_at_rejected_k():
    """The flow says one unit goes (2,2) -> (2,3) but the field puts B at
    (3,3).  K=1 is infeasible, and its balance fails; K=2 puts all three
    vertices in one tile, which is clean and balanced.  The scan must not
    skip past K=1 to return K=2."""
    w = LatticeWindow(d=2, L=8, margin=2)
    psi, _ = path_flow(w, [((2, 2), (2, 3))])
    chi_a = np.zeros(w.shape, dtype=bool)
    chi_b = np.zeros(w.shape, dtype=bool)
    chi_a[2, 2] = chi_b[3, 3] = True
    lying = IndicatorField(window=w, chi_a=chi_a, chi_b=chi_b)
    assert tile_flow(psi, rect_tiling(w, 2), lying).feasible.all()
    with pytest.raises(AssertionError, match="balance fails"):
        tile_flow(psi, rect_tiling(w, 1), lying)
    with pytest.raises(AssertionError, match="balance fails"):
        select_K_empirical(psi, lying)


def test_scan_rejects_fractional_flow():
    w = LatticeWindow(d=2, L=10, margin=2)
    _, fld = path_flow(w, [((3, 3), (3, 4))])
    frac = EdgeField(w, 2)
    add_flow(frac, (3, 3), (3, 4), 1)          # quarter unit: not integral
    with pytest.raises(ValueError, match="not integral"):
        select_K_empirical(frac, fld)


def test_scan_aggregates_once(monkeypatch):
    """The scan builds one tile flow per proper K it scans, calls
    tile_flow not at all, and returns the tile flow tile_flow gives."""
    calls, built = [], []
    real, build = equidecompose.tile_flow, equidecompose._tile_flow
    monkeypatch.setattr(equidecompose, "tile_flow",
                        lambda *a, **kw: calls.append(a[1].K)
                        or real(*a, **kw))
    monkeypatch.setattr(equidecompose, "_tile_flow",
                        lambda *a: built.append(a[0].K) or build(*a))
    w = LatticeWindow(d=2, L=20, margin=2)
    clean = path_flow(w, [((x, y), (x, y + 1))
                          for x in range(3, 17, 2) for y in range(3, 16, 4)])
    dirty = path_flow(w, [((2, 2), (17, 17))])
    for psi, fld in (clean, dirty):
        calls.clear()
        built.clear()
        tf, diag = select_K_empirical(psi, fld)
        assert calls == []
        assert built == [k for k, v in diag["scanned"].items()
                         if v is not None]
        again = real(psi, tf.tiling, fld)
        for name in ("pair_src", "pair_dst", "pair_val", "count_a",
                     "count_b", "outflux", "interior"):
            assert np.array_equal(getattr(tf, name), getattr(again, name)), \
                name
    assert len(diag["scanned"]) > 1 and not diag["clean"]

"""Region geometry (cover): boundaries, hole filling, enlargement and
covers; nets, balls and core tilings (tiling); each checked against a
small brute-force oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from equidecomp.cover import (Region, boundary, boundary_disjoint_cover,
                              boundary_n, enlarge, fill_holes)
from equidecomp.lattice import LatticeWindow, all_directions, directions
from equidecomp.tiling import (Net, _axis_sides, ball_mask, greedy_net,
                               rect_tiling, voronoi_tiling)
from oracle import morphology


def flat(window, v):
    return int(np.ravel_multi_index(tuple(v), window.shape))


def brute_boundary(window, mask):
    """(inside, outside) flat pairs via direct neighbor enumeration."""
    out = set()
    for v in np.argwhere(mask):
        for g in all_directions(window.d):
            w = v + np.asarray(g)
            if ((w < 0) | (w >= window.L)).any():
                continue
            if not mask[tuple(w)]:
                out.add((flat(window, v), flat(window, w)))
    return out


def brute_dist(window, mask):
    """Chebyshev distance to the set by scanning all vertex pairs."""
    pts = np.argwhere(mask)
    coords = np.argwhere(np.ones(window.shape, dtype=bool))
    d = np.abs(coords[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
    return d.reshape(window.shape)


def random_region(rng, window, p=0.3):
    return Region(window, rng.random(window.shape) < p)


# ---------------------------------------------------------------------------
# regions and boundaries
# ---------------------------------------------------------------------------

def test_region_basics():
    w = LatticeWindow(d=2, L=6)
    r = Region.from_vertices(w, [(1, 1), (1, 2), (4, 4)])
    assert r.size == 3
    assert r.diameter() == 3
    assert not r.is_connected()
    assert not r.touches_shell()
    assert Region.from_vertices(w, [(0, 3)]).touches_shell()
    assert Region(w, np.zeros(w.shape, dtype=bool)).is_connected()
    with pytest.raises(ValueError):
        Region(w, np.zeros((6, 6), dtype=np.int8))


def test_boundary_matches_enumeration():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        w = LatticeWindow(d=d, L=7)
        for _ in range(20):
            reg = random_region(rng, w)
            got = boundary(reg)
            assert {(int(a), int(b)) for a, b in got} == brute_boundary(w, reg.mask)
            # sorted rows, inside endpoint first
            assert got.tolist() == sorted(got.tolist())


def mask_edges(window, mask):
    """Canonical (min, max) flat pairs of a slot mask's edges."""
    row, tail = np.nonzero(mask)
    heads = (np.stack(np.unravel_index(tail, window.shape), axis=1)
             + directions(window.d)[row])
    return {(int(t), flat(window, h)) for t, h in zip(tail, heads)}


def test_boundary_n_growth():
    w = LatticeWindow(d=2, L=9)
    reg = Region.from_vertices(w, [(4, 4)])
    b1 = boundary_n(reg, 1)
    assert b1.shape == (len(directions(2)), w.n_vertices)
    # single vertex: its 8 incident edges
    b1 = mask_edges(w, b1)
    assert b1 == {tuple(sorted(e)) for e in brute_boundary(w, reg.mask)}
    assert len(b1) == 8
    b2 = mask_edges(w, boundary_n(reg, 2))
    # oracle: every window edge sharing a vertex with some b1 edge
    verts = {v for e in b1 for v in e}
    grow = set(b1)
    for v in np.argwhere(np.ones(w.shape, dtype=bool)):
        for g in all_directions(2):
            u = v + np.asarray(g)
            if ((u < 0) | (u >= w.L)).any():
                continue
            e = (flat(w, v), flat(w, u))
            if e[0] < e[1] and (e[0] in verts or e[1] in verts):
                grow.add(e)
    assert b2 == grow
    with pytest.raises(ValueError):
        boundary_n(reg, 0)


def test_fill_holes_annulus():
    w = LatticeWindow(d=2, L=12)
    ring = np.zeros(w.shape, dtype=bool)
    ring[3:9, 3:9] = True
    ring[5:7, 5:7] = False
    filled = fill_holes(Region(w, ring))
    want = np.zeros(w.shape, dtype=bool)
    want[3:9, 3:9] = True
    assert np.array_equal(filled.mask, want)
    # already simply connected: unchanged
    again = fill_holes(filled)
    assert np.array_equal(again.mask, want)


def test_fill_holes_requires_connected_interior_region():
    w = LatticeWindow(d=2, L=8)
    with pytest.raises(ValueError):
        fill_holes(Region.from_vertices(w, [(2, 2), (5, 5)]))
    with pytest.raises(ValueError):
        fill_holes(Region.from_vertices(w, [(0, 0)]))


# ---------------------------------------------------------------------------
# balls, distances, nets
# ---------------------------------------------------------------------------

def test_ball_mask_matches_distance_oracle():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        w = LatticeWindow(d=d, L=8)
        for _ in range(10):
            mask = rng.random(w.shape) < 0.15
            if not mask.any():
                continue
            dist = brute_dist(w, mask)
            for r in (0, 1, 2):
                assert np.array_equal(ball_mask(mask, r), dist <= r)
    with pytest.raises(ValueError):
        ball_mask(mask, -1)


@st.composite
def window_masks(draw):
    """A window of rank 1-4 and a mask on it: any mask, or one inside the
    shell, so that fill_holes gets regions it accepts."""
    d = draw(st.integers(1, 4))
    L = draw(st.integers(2, {1: 12, 2: 8, 3: 6, 4: 5}[d]))
    if draw(st.booleans()):
        mask = draw(arrays(np.bool_, (L,) * d))
    else:
        mask = np.pad(draw(arrays(np.bool_, (L - 2,) * d)), 1)
    return LatticeWindow(d=d, L=L), mask


def check_morphology(w, mask):
    """ball_mask, is_connected and fill_holes agree with scipy.ndimage."""
    for r in range(4):
        assert np.array_equal(ball_mask(mask, r),
                              morphology.ball_mask(mask, r)), r
    reg = Region(w, mask)
    assert reg.is_connected() == morphology.is_connected(mask)
    if reg.is_connected() and not reg.touches_shell():
        assert np.array_equal(fill_holes(reg).mask,
                              morphology.fill_holes(mask))
    else:
        with pytest.raises(ValueError):
            fill_holes(reg)


@settings(max_examples=300, deadline=None)
@given(window_masks())
def test_morphology_matches_ndimage(wm):
    check_morphology(*wm)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_morphology_matches_ndimage_on_edge_cases(d):
    w = LatticeWindow(d=d, L=5)
    shell = np.zeros(w.shape, dtype=bool)
    shell[(2,) * (d - 1) + (0,)] = True           # one vertex on the shell
    ring = np.pad(np.ones((3,) * d, dtype=bool), 1)
    ring[(2,) * d] = False                         # a hole, for d >= 2
    for mask in (np.zeros(w.shape, dtype=bool), np.ones(w.shape, dtype=bool),
                 shell, shell | ring, ring):
        check_morphology(w, mask)


def test_greedy_net_discrete_and_maximal():
    for d, L, r in ((2, 16, 2), (2, 16, 5), (3, 9, 3)):
        w = LatticeWindow(d=d, L=L, margin=2)
        net = greedy_net(w, r, w.core_mask())
        pts = net.points
        assert len(pts) > 0
        # r-discrete: pairwise Chebyshev distance > r
        if len(pts) > 1:
            gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
            np.fill_diagonal(gaps, r + 1)
            assert gaps.min() > r
        # maximal: every core vertex within r of some point
        cov = np.zeros(w.shape, dtype=bool)
        for p in pts:
            cov |= ball_mask(Region.from_vertices(w, [p]).mask, r)
        assert cov[w.core_mask()].all()
        # first point is the lexicographically least core vertex
        lo = w.core_bounds[0]
        assert tuple(pts[0]) == (lo,) * d
    with pytest.raises(ValueError):
        greedy_net(w, 0, w.core_mask())


def test_greedy_net_equals_vertex_by_vertex_scan():
    """The cursor search admits the same points in the same order as a
    scan of every vertex of `restrict` in lexicographic order, on random
    masks of every density (the empty one included) in d = 1, 2, 3."""
    def scan(w, r, restrict):
        blocked = np.zeros(w.shape, dtype=bool)
        pts = []
        for v in np.argwhere(restrict):
            tv = tuple(int(c) for c in v)
            if not blocked[tv]:
                pts.append(tv)
                blocked[tuple(slice(max(0, c - r), c + r + 1)
                              for c in tv)] = True
        return np.asarray(pts, dtype=np.int64).reshape(len(pts), w.d)

    rng = np.random.default_rng(61)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        L = int(rng.integers(2, (600, 40, 12)[d - 1]))
        w = LatticeWindow(d=d, L=L)
        # radii up to L block long runs of candidates, which the cursor
        # crosses in doubling steps
        r = int(rng.integers(1, 6 if rng.random() < 0.5 else L + 1))
        restrict = rng.random(w.shape) < rng.random()
        got = greedy_net(w, r, restrict).points
        want = scan(w, r, restrict)
        assert got.dtype == want.dtype and np.array_equal(got, want), (d, L, r)


# ---------------------------------------------------------------------------
# enlargement
# ---------------------------------------------------------------------------

def ball_region(w, center, r):
    return Region(w, ball_mask(Region.from_vertices(w, [center]).mask, r))


def test_enlarge_swallows_nearby_small_regions():
    w = LatticeWindow(d=2, L=40)
    r = 2
    Y = [ball_region(w, (8, 8), 2), ball_region(w, (30, 30), 2)]
    Z = [Region.from_vertices(w, [(11, 8)]),      # within r of Y[0]
         Region.from_vertices(w, [(20, 3)])]      # far from both
    out = enlarge(Y, Z, r)
    assert len(out) == 2
    zball = ball_mask(Z[0].mask, r)
    assert not (zball & ~out[0].mask).any()            # swallowed whole
    assert np.array_equal(out[1].mask, Y[1].mask)      # untouched
    assert (out[0].mask & Y[0].mask).sum() == Y[0].size
    assert out[0].is_connected()


def test_enlarge_hypothesis_checks():
    w = LatticeWindow(d=2, L=40)
    Y = [ball_region(w, (8, 8), 2), ball_region(w, (30, 30), 2)]
    with pytest.raises(ValueError):                    # diam(R) > r
        enlarge(Y, [ball_region(w, (20, 20), 3)], 2)
    with pytest.raises(ValueError):                    # Z members too close
        enlarge(Y, [Region.from_vertices(w, [(20, 3)]),
                    Region.from_vertices(w, [(20, 7)])], 2)
    with pytest.raises(ValueError):                    # Y members too close
        enlarge([ball_region(w, (8, 8), 2), ball_region(w, (8, 18), 2)], [], 2)
    assert enlarge([], Z=[], r=2) == []


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_cover_single_level():
    w = LatticeWindow(d=2, L=32, margin=2)
    cov = boundary_disjoint_cover(w, n=1, i_max=0)
    assert cov.radii == (12,)
    assert len(cov.regions) >= 1
    assert all(lv == 0 for lv in cov.levels)
    for reg in cov.regions:
        assert reg.is_connected()
        assert reg.diameter() <= 12
        assert not (reg.mask & w.frontier_mask()).any()
    assert 0.0 < cov.coverage <= 1.0
    s = cov.summary()
    assert s["regions"] == len(cov.regions) and s["radii"] == [12]


def test_cover_validation():
    w = LatticeWindow(d=2, L=32, margin=2)
    with pytest.raises(ValueError):
        boundary_disjoint_cover(w, n=0, i_max=0)
    with pytest.raises(ValueError):
        boundary_disjoint_cover(w, n=1, i_max=-1)
    with pytest.raises(ValueError):                    # top radius 144 > L
        boundary_disjoint_cover(w, n=1, i_max=1)


# ---------------------------------------------------------------------------
# tilings
# ---------------------------------------------------------------------------

def test_axis_sides_layouts():
    assert _axis_sides(16, 5) == ([5, 5, 6], False)
    assert _axis_sides(16, 4) == ([4, 4, 4, 4], False)
    assert _axis_sides(16, 7) == ([8, 8], False)
    assert _axis_sides(5, 3) == ([5], True)            # remainder strip
    assert _axis_sides(7, 4) == ([7], True)


def test_rect_tiling_partitions_core():
    w = LatticeWindow(d=2, L=20, margin=2)             # core side 16
    t = rect_tiling(w, 5)
    assert not t.improper
    assert len(t.tiles) == 9                           # 3 x 3 layout
    assert sorted(set(map(tuple, t.sides.tolist()))) == [(5, 5), (5, 6), (6, 5), (6, 6)]
    core = w.core_mask()
    assert ((t.tile_id >= 0) == core).all()
    assert int(t.sides.prod(axis=1).sum()) == int(core.sum())
    seen = np.zeros(w.shape, dtype=np.int16)
    for index, (lo, hi) in enumerate(t.tiles):
        seen[tuple(map(slice, lo, hi))] += 1
        assert t.tile_id[tuple(lo)] == index
    assert seen.max() == 1
    with pytest.raises(ValueError):
        rect_tiling(w, 0)
    with pytest.raises(ValueError):
        rect_tiling(w, 17)


def test_rect_tiling_improper_flag():
    w = LatticeWindow(d=2, L=9, margin=2)              # core side 5
    t = rect_tiling(w, 3)
    assert t.improper
    assert len(t.tiles) == 1 and t.sides.tolist() == [[5, 5]]


@pytest.mark.parametrize("d, L, margin, K", [
    (2, 20, 2, 5),          # sides 5, 5, 6
    (2, 15, 2, 4),          # improper: 4, 7
    (3, 13, 2, 3),          # sides 3, 3, 3
    (3, 14, 1, 5),          # sides 6, 6
    (3, 15, 2, 4),          # improper: 4, 7
])
def test_rect_tiling_matches_per_tile_reference(d, L, margin, K):
    """Boxes and tile_id equal a tile-by-tile build over np.ndindex of
    the per-axis layout."""
    w = LatticeWindow(d=d, L=L, margin=margin)
    sides, improper = _axis_sides(L - 2 * margin, K)
    bounds, at = [], margin
    for s in sides:
        bounds.append((at, at + s))
        at += s
    boxes = []
    tile_id = np.full(w.shape, -1, dtype=np.int32)
    for cell in np.ndindex(*([len(bounds)] * d)):
        lo = [bounds[c][0] for c in cell]
        hi = [bounds[c][1] for c in cell]
        tile_id[tuple(map(slice, lo, hi))] = len(boxes)
        boxes.append((lo, hi))
    t = rect_tiling(w, K)
    assert t.improper == improper
    assert t.tiles.dtype == np.int64 and t.tiles.shape == (len(boxes), 2, d)
    assert np.array_equal(t.tiles, np.array(boxes))
    assert t.tile_id.dtype == np.int32
    assert np.array_equal(t.tile_id, tile_id)
    assert np.array_equal(t.sides, t.tiles[:, 1] - t.tiles[:, 0])


@pytest.mark.parametrize("d", [2, 3])
def test_voronoi_boxes_match_per_cell_reference(d):
    """Each cell's box is the min/max of its argwhere vertices; the cell
    of the frontier seed at the origin is empty (the seed at (2, ..., 2)
    is strictly nearer every core vertex) and keeps its unit box."""
    w = LatticeWindow(d=d, L=12, margin=2)
    rng = np.random.default_rng(9 + d)
    core_pts = np.argwhere(w.core_mask())
    seeds = np.concatenate([
        np.zeros((1, d), dtype=np.int64), np.full((1, d), 2),
        core_pts[rng.choice(len(core_pts), size=6, replace=False)]])
    seeds = np.unique(seeds, axis=0)
    t = voronoi_tiling(w, Net(points=seeds, r=3))
    assert t.tiles.dtype == np.int64 and t.tiles.shape == (len(seeds), 2, d)
    for i, s in enumerate(sorted(map(tuple, seeds.tolist()))):
        vs = np.argwhere(t.tile_id == i)
        if len(vs):
            want = [vs.min(axis=0), vs.max(axis=0) + 1]
        else:
            want = [s, np.add(s, 1)]
        assert np.array_equal(t.tiles[i], want)
    assert not (t.tile_id == 0).any()
    assert t.tiles[0].tolist() == [[0] * d, [1] * d]


def test_voronoi_tiling_lex_least_nearest_seed():
    w = LatticeWindow(d=2, L=14, margin=2)
    rng = np.random.default_rng(3)
    core_pts = np.argwhere(w.core_mask())
    seeds = core_pts[rng.choice(len(core_pts), size=4, replace=False)]
    net = Net(points=seeds, r=3)
    t = voronoi_tiling(w, net)
    sseeds = sorted(map(tuple, seeds.tolist()))
    for v in np.argwhere(np.ones(w.shape, dtype=bool)):
        if not w.core_mask()[tuple(v)]:
            assert t.tile_id[tuple(v)] == -1
            continue
        dists = [max(abs(v[0] - s[0]), abs(v[1] - s[1])) for s in sseeds]
        best = min(dists)
        assert t.tile_id[tuple(v)] == dists.index(best)  # earliest == lex-least
    with pytest.raises(ValueError):
        voronoi_tiling(w, Net(points=np.empty((0, 2), dtype=np.int64), r=1))


def _full_scan_tile_id(window, seeds):
    """Every seed scans the whole window, in lex order with a strict <."""
    coords = np.argwhere(np.ones(window.shape, dtype=bool))
    best_d = np.full(len(coords), np.iinfo(np.int64).max, dtype=np.int64)
    best_i = np.full(len(coords), -1, dtype=np.int64)
    for i, s in enumerate(sorted(map(tuple, seeds.tolist()))):
        dist = np.abs(coords - s).max(axis=1)
        better = dist < best_d
        best_d[better] = dist[better]
        best_i[better] = i
    return np.where(window.core_mask().ravel(), best_i, -1) \
        .reshape(window.shape)


@pytest.mark.parametrize("d,L,margin,r", [(2, 40, 5, 3), (3, 16, 2, 2)])
def test_voronoi_local_scan_equals_full_scan(d, L, margin, r):
    """The per-seed (2r+1)^d scan gives the full scan's cells and boxes on
    a greedy net of the core, and, through its fallback, on sparse seed
    sets that leave core vertices farther than r from every seed (seeds
    drawn from the whole window, frontier included)."""
    w = LatticeWindow(d=d, L=L, margin=margin)
    rng = np.random.default_rng(L + d)
    every = np.argwhere(np.ones(w.shape, dtype=bool))
    nets = [greedy_net(w, r, restrict=w.core_mask())] + [
        Net(points=every[rng.choice(len(every), size=n, replace=False)], r=r)
        for n in (1, 3, 7)]
    for net in nets:
        t = voronoi_tiling(w, net)
        want = _full_scan_tile_id(w, net.points)
        assert np.array_equal(t.tile_id, want)
        for i, s in enumerate(sorted(map(tuple, net.points.tolist()))):
            vs = np.argwhere(want == i)
            box = ([vs.min(axis=0), vs.max(axis=0) + 1] if len(vs)
                   else [s, np.add(s, 1)])
            assert np.array_equal(t.tiles[i], box)
    # the sparse sets do reach the fallback
    core = np.argwhere(w.core_mask())
    assert (np.abs(core[:, None] - nets[1].points[None]).max(axis=2)
            > r).all(axis=1).any()

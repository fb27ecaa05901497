"""Integralization: triangle counts, boundary cycle graphs, Euler walks,
and the two rounding routes (boundary-walk + rounding vs one-shot)."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from equidecomp import integralize
from equidecomp._maxflow import supply_graph
from equidecomp.config import build_config, max_cover_levels
from equidecomp.cover import (
    BoundaryCycleGraph,
    Region,
    adjust_on_region,
    build_boundary_cycle_graph,
    euler_cycle,
    three_cycles_through,
)
from equidecomp.flowgrid import EdgeField
from equidecomp.integralize import (
    integralize_flow,
    _rim_frontier_slots,
    round_edge_field,
    spill_to_frontier,
)
from equidecomp.lattice import (LatticeWindow, directions, edge_mask,
                                edge_slots, flat_shifts)
from equidecomp.pipeline import build_flow
from equidecomp.tiling import ball_mask
from oracle.arcs import edge_csr, solve_supply_flow
from oracle.cyclegraph import boundary_cycle_graph
from oracle.descent import descend
from oracle.edges import add_flow
from oracle.frontier import (rim_slot_table, router_csr, router_table_csr,
                             spill)
from oracle.rounding import front_half


def brute_triangles(gamma):
    """Common lattice neighbors of 0 and gamma, counted directly."""
    d = len(gamma)
    count = 0
    for w in itertools.product((-2, -1, 0, 1, 2), repeat=d):
        if w == (0,) * d or w == tuple(gamma):
            continue
        if max(abs(c) for c in w) == 1 and max(abs(a - b) for a, b in zip(w, gamma)) == 1:
            count += 1
    return count


def test_three_cycles_closed_form():
    assert three_cycles_through((1, 0)) == 4
    assert three_cycles_through((1, 1)) == 2
    assert three_cycles_through((1, 0, 0)) == 16
    assert three_cycles_through((0, 1, -1)) == 10
    assert three_cycles_through((1, 1, 1)) == 6
    for d in (2, 3):
        for g in itertools.product((-1, 0, 1), repeat=d):
            if any(g):
                assert three_cycles_through(g) == brute_triangles(g)
    with pytest.raises(ValueError):
        three_cycles_through((0, 0))
    with pytest.raises(ValueError):
        three_cycles_through((2, 0))


def box_region(w, lo, hi):
    mask = np.zeros(w.shape, dtype=bool)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return Region(w, mask)


def hand_regions():
    w = LatticeWindow(d=2, L=16)
    ell = np.zeros(w.shape, dtype=bool)
    ell[4:10, 4:7] = True
    ell[4:7, 4:12] = True
    return [
        box_region(w, (5, 5), (8, 8)),
        box_region(w, (3, 6), (11, 9)),
        Region(w, ball_mask(Region.from_vertices(w, [(8, 8)]).mask, 2)),
        Region(w, ell),
        box_region(LatticeWindow(d=2, L=12), (4, 4), (7, 8)),
        Region.from_vertices(LatticeWindow(d=2, L=5), [(2, 2)]),
        box_region(LatticeWindow(d=3, L=7), (2, 2, 3), (4, 5, 4)),
    ]


def assert_matches_shared_vertex_build(F):
    """build_boundary_cycle_graph's flat rows and partner adjacency equal
    the coordinate-pair, shared-vertex reference."""
    H = build_boundary_cycle_graph(F)
    edges, adj = boundary_cycle_graph(F)
    assert H.edges.dtype == np.int64 and H.edges.shape == (len(edges), 2)
    coords = np.stack(np.unravel_index(H.edges, F.window.shape), axis=-1)
    assert [tuple(map(tuple, e)) for e in coords.tolist()] == list(edges)
    assert H.adj == adj
    return H


def test_boundary_cycle_graph_structure():
    for F in hand_regions():
        # degree and connectivity are checked inside the build
        H = assert_matches_shared_vertex_build(F)
        assert H.n == len(F.boundary())
        for i, nbrs in enumerate(H.adj):
            for j in nbrs:
                assert i in H.adj[j]
                assert i != j


def test_boundary_cycle_graph_rejects_bad_regions():
    w = LatticeWindow(d=2, L=12)
    with pytest.raises(ValueError):
        build_boundary_cycle_graph(box_region(w, (2, 2), (2, 2)))      # empty
    with pytest.raises(ValueError):
        build_boundary_cycle_graph(
            Region.from_vertices(w, [(2, 2), (8, 8)]))                 # disconnected
    with pytest.raises(ValueError):
        build_boundary_cycle_graph(box_region(w, (0, 3), (2, 5)))      # at the edge
    ring = np.zeros(w.shape, dtype=bool)
    ring[3:9, 3:9] = True
    ring[5:7, 5:7] = False
    with pytest.raises(ValueError):
        build_boundary_cycle_graph(Region(w, ring))                    # has a hole
    w1 = LatticeWindow(d=1, L=12)
    with pytest.raises(ValueError):
        build_boundary_cycle_graph(
            Region(w1, np.zeros(w1.shape, dtype=bool) | (np.arange(12) == 5)))


def test_euler_cycle_covers_each_adjacency_once():
    for F in hand_regions():
        H = build_boundary_cycle_graph(F)
        seq = euler_cycle(H)
        assert seq[0] == seq[-1] == 0
        used = set()
        for a, b in zip(seq, seq[1:]):
            assert b in H.adj[a]
            key = (min(a, b), max(a, b))
            assert key not in used
            used.add(key)
        want = {(i, j) for i, nbrs in enumerate(H.adj) for j in nbrs if i < j}
        assert used == want


def test_euler_cycle_validation():
    with pytest.raises(ValueError):
        euler_cycle(BoundaryCycleGraph(edges=np.empty((0, 2), np.int64),
                                       adj=()))
    dummy = np.array([[0, 1], [2, 3]], dtype=np.int64)
    with pytest.raises(ValueError):
        euler_cycle(BoundaryCycleGraph(edges=dummy, adj=((1,), (0,))))


def random_dyadic_field(rng, w, s, pushes=120, avoid=None):
    """Integer edge field plus dyadic unit-square circulations, which keeps
    every vertex divergence integral.  Squares meeting `avoid` are skipped."""
    fld = EdgeField(w, s)
    # drawn vertex-major, so every edge gets the value it always had
    fld.values[:] = (rng.integers(-4, 5, size=fld.values.shape[::-1])
                     .astype(np.int64) << s).T
    done = 0
    while done < pushes:
        x = int(rng.integers(1, w.L - 2))
        y = int(rng.integers(1, w.L - 2))
        if avoid is not None and avoid[x - 1:x + 3, y - 1:y + 3].any():
            continue
        delta = int(rng.integers(1, 1 << s))
        add_flow(fld, (x, y), (x + 1, y), delta)
        add_flow(fld, (x + 1, y), (x + 1, y + 1), delta)
        add_flow(fld, (x + 1, y + 1), (x, y + 1), delta)
        add_flow(fld, (x, y + 1), (x, y), delta)
        done += 1
    return fld


def test_adjust_on_region_clears_boundary():
    rng = np.random.default_rng(9)
    w = LatticeWindow(d=2, L=18)
    s = 3
    mod = 1 << s
    F = Region(w, ball_mask(Region.from_vertices(w, [(9, 9)]).mask, 2))
    fld = random_dyadic_field(rng, w, s)
    H = build_boundary_cycle_graph(F)
    row, tail, sign = edge_slots(w, H.edges[:, 0], H.edges[:, 1])
    total = int((sign * fld.values[row, tail]).sum())
    # make net boundary flow integral
    fld.values[row[0], tail[0]] -= sign[0] * (total % mod)
    out = adjust_on_region(fld, F)
    assert not (out.values[row, tail] % mod).any()
    assert np.array_equal(out.divergence_num(), fld.divergence_num())
    # changes confined to edges near the boundary, each below the walk bound
    diff = out.values - fld.values
    assert np.abs(diff).max() < (3 ** 2) * mod
    bverts = np.zeros(w.n_vertices, dtype=bool)
    bverts[H.edges.ravel()] = True
    near = ball_mask(bverts.reshape(w.shape), 1).ravel()
    for i, v in zip(*np.nonzero(diff)):
        assert near[v] and near[v + flat_shifts(w)[i]]


def test_adjust_requires_integral_net_boundary_flow():
    w = LatticeWindow(d=2, L=18)
    F = box_region(w, (7, 7), (10, 10))
    fld = EdgeField(w, 2)
    add_flow(fld, (6, 7), (7, 7), 1)       # lone quarter across the boundary
    with pytest.raises(AssertionError):
        adjust_on_region(fld, F)


def test_round_edge_field_properties():
    rng = np.random.default_rng(29)
    w = LatticeWindow(d=2, L=16, margin=3)
    s = 4
    for _ in range(10):
        fld = random_dyadic_field(rng, w, s, pushes=60)
        f = fld.divergence_num() >> s
        assert not (fld.divergence_num() & ((1 << s) - 1)).any()
        out, _ = round_edge_field(fld, f)
        assert out.scale_exp == 0
        core = w.core_mask().ravel()
        assert np.array_equal(out.divergence_num().ravel()[core], f.ravel()[core])
        assert integralize._max_dev_core(out, fld) < 1.0


def test_round_edge_field_respects_fixed_edges():
    rng = np.random.default_rng(31)
    w = LatticeWindow(d=2, L=16, margin=3)
    s = 3
    hold = np.zeros(w.shape, dtype=bool)
    hold[6:10, 6:10] = True
    fld = random_dyadic_field(rng, w, s, pushes=60, avoid=hold)
    f = fld.divergence_num() >> s
    fixed = edge_mask(w, hold, np.logical_and)
    assert not (fld.values[fixed] % (1 << s)).any()
    out, _ = round_edge_field(fld, f, fixed_mask=fixed)
    assert np.array_equal(out.values[fixed] << s, fld.values[fixed])


def test_round_edge_field_widens_past_int8(monkeypatch):
    """The integral flow is stored as narrow as its bound allows, which
    passes int8 once through one edge of 300 units, and once through the
    core corner (3, 3), whose five frontier edges each carry about 100
    units: every edge fits int8, their sum does not.  Either way it
    equals the same rounding done in int64."""
    rng = np.random.default_rng(37)
    w = LatticeWindow(d=2, L=16, margin=3)
    s = 4
    one_edge = random_dyadic_field(rng, w, s, pushes=60)
    add_flow(one_edge, (7, 7), (7, 8), 300 << s)
    corner = random_dyadic_field(rng, w, s, pushes=60)
    for nb in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2)):
        add_flow(corner, (3, 3), nb, (100 << s) + 3)
    assert np.abs(corner.values).max() >> s < 127
    for fld in (one_edge, corner):
        f = fld.divergence_num() >> s
        out, info = round_edge_field(fld, f)
        with monkeypatch.context() as m:
            m.setattr(integralize, "narrow_int", lambda bound: np.dtype(np.int64))
            want, want_info = round_edge_field(fld, f)
        assert out.values.dtype == np.int16 and want.values.dtype == np.int64
        assert np.array_equal(out.values, want.values)
        assert info == want_info


def _as_int64(bound):
    return np.dtype(np.int64)


@pytest.mark.parametrize("config, mode", [
    ({"L": "12", "margin": "3", "n0": "1"}, "direct"),
    ({"L": "40", "margin": "2", "n0": "2", "x0": "0.0011"}, "cover")],
    ids=["direct", "cover"])
def test_narrow_repaired_flow_equals_int64(monkeypatch, config, mode):
    """Repair stores the repaired flow as narrow as its bound allows,
    int16 here (d=3, the default), and integralize_flow takes it as it
    is.  With narrow_int forced to int64, repair and integralize_flow
    give the same values and the same summaries, in direct mode and in
    cover mode."""
    cfg = build_config(config)
    runs = []
    for wide in (False, True):
        with monkeypatch.context() as m:
            if wide:
                m.setattr(integralize, "narrow_int", _as_int64)
            flow = build_flow(cfg.window(), cfg.action(), *cfg.shapes(),
                              n0=cfg.n0)
            runs.append((flow, *integralize_flow(flow.phi, flow.field.f,
                                                 mode=mode)))
    (got, out, info), (want, want_out, want_info) = runs
    assert got.phi.values.dtype == np.int16
    assert want.phi.values.dtype == want_out.values.dtype == np.int64
    assert np.array_equal(got.phi.values, want.phi.values)
    assert got.summary == want.summary
    assert np.array_equal(out.values, want_out.values)
    assert info == want_info
    if mode == "cover":
        assert info["cover"]["regions"] >= 1


def test_cover_walks_widen_a_narrow_flow(monkeypatch):
    """The cover walks move a value by up to (3^d - 1) 2^s, past the bound
    a narrow repaired flow is stored at, so adjust_on_region works on an
    int64 copy.  Here every value of an int16 flow lies within 2^s of
    2^15 (2046 units at s = 4, each with its fraction), the walks take
    one past 2^15 - 1, and integralize_flow gives what it gives on the
    same flow stored as int64."""
    rng = np.random.default_rng(46)
    w = LatticeWindow(d=2, L=50, margin=2)
    s = 4
    fld = random_dyadic_field(rng, w, s, pushes=200)
    fld.values[:] = (np.where(fld.values < 0, -1, 1) * (2046 << s)
                     + (fld.values & ((1 << s) - 1)))
    narrow = fld.with_values(fld.values.astype(np.int16))
    assert np.array_equal(narrow.values, fld.values)
    f = fld.divergence_num() >> s
    walked = []

    def spy(phi, F):
        walked.append(adjust_on_region(phi, F))
        return walked[-1]
    monkeypatch.setattr("equidecomp.cover.adjust_on_region", spy)
    out, info = integralize_flow(narrow, f, mode="cover")
    assert max(np.abs(a.values).max() for a in walked) > 2 ** 15 - 1
    monkeypatch.setattr(integralize, "narrow_int", _as_int64)
    want, want_info = integralize_flow(fld, f, mode="cover")
    assert np.array_equal(out.values, want.values)
    assert info == want_info


def _recorded_routes(patch):
    """Spy on the router's solver layouts: a list of (indptr, indices,
    cap, supply, feasible, flow), one per solve, with the feasibility and
    the flow that the solver gives on that CSR."""
    seen = []

    def spy(indptr, indices, cap, supply):
        seen.append((np.array(indptr), np.array(indices), np.array(cap),
                     np.array(supply))
                    + solve_supply_flow(indptr, indices, cap, supply))
        return supply_graph(indptr, indices, cap, supply)
    patch.setattr(integralize, "supply_graph", spy)
    return seen


def _lexsort_routes(w, caps, rim_caps):
    """The router's graph built from window edges: (vert, u, v, cap_uv,
    cap_vu), where vert maps the router's vertex numbers (the core box in
    row-major order, then the frontier node) to window flat indices, with
    the frontier node at w.n_vertices, and (u[k], v[k]) are the edges it
    routes over, core edges first, each once."""
    lo, hi = w.core_bounds
    box = (hi - lo,) * w.d
    dirs = directions(w.d)
    vert = np.append(np.ravel_multi_index(
        tuple(np.indices(box).reshape(w.d, -1) + lo), w.shape), w.n_vertices)
    rim, rows = _rim_frontier_slots(w)[:2]
    fwd, back = (np.broadcast_to(c, (len(dirs),) + box) for c in caps)
    u, v, cuv, cvu = [], [], [], []
    for i, g in enumerate(dirs):
        for x in itertools.product(range(hi - lo), repeat=w.d):
            y = tuple(np.add(x, g))
            if min(y) < 0 or max(y) >= hi - lo:
                continue
            if fwd[i][x] or back[i][x]:
                u.append(vert[np.ravel_multi_index(x, box)])
                v.append(vert[np.ravel_multi_index(y, box)])
                cuv.append(int(fwd[i][x]))
                cvu.append(int(back[i][x]))
    on = (rim_caps[0] != 0) | (rim_caps[1] != 0)
    assert np.array_equal(vert[rows], rim)
    u += rim[on].tolist()
    v += [w.n_vertices] * int(on.sum())
    cuv += np.asarray(rim_caps[0])[on].astype(np.int64).tolist()
    cvu += np.asarray(rim_caps[1])[on].astype(np.int64).tolist()
    return vert, u, v, cuv, cvu


def _check_route(w, caps, rim_caps, residual, route):
    """The router's recorded CSR is the lexsort layout of the same edges,
    once its monotone renumbering is undone, and scipy routes the same
    flow over both."""
    indptr, indices, cap, supply, ok, flow = route
    vert, u, v, cuv, cvu = _lexsort_routes(w, caps, rim_caps)
    n = w.n_vertices + 1
    want_ptr, want_idx, want_cap, fwd = edge_csr(u, v, cuv, cvu, n)
    assert np.array_equal(vert, np.sort(vert))          # monotone
    assert np.array_equal(vert[indices], want_idx)
    assert np.array_equal(cap.astype(np.int64), want_cap)
    counts = np.zeros(n, dtype=np.int64)
    counts[vert] = np.diff(indptr)
    assert np.array_equal(np.diff(want_ptr), counts)
    want_supply = np.zeros(n, dtype=np.int64)
    want_supply[vert] = supply
    assert np.array_equal(supply[:-1], residual.ravel())
    assert supply[-1] == -residual.sum()
    want_ok, want_flow = solve_supply_flow(want_ptr, want_idx, want_cap,
                                           want_supply)
    assert ok == want_ok and np.array_equal(flow, want_flow)
    return u, v, want_flow[fwd]


def _random_caps(rng, w, full):
    """(caps, rim_caps) for the router: uniform capacities on every core
    edge and k times them on every rim arc, as in repair, or one unit in
    the direction of a random fraction on a sparse set, as in rounding."""
    lo, hi = w.core_bounds
    box = (len(directions(w.d)),) + (hi - lo,) * w.d
    slots = rim_slot_table(w)[2]
    if full:
        cap = int(rng.integers(1, 4))
        return ((np.int64(cap),) * 2,
                (slots.sum(axis=0, dtype=np.int64) * cap,) * 2)
    frac = rng.integers(-1, 2, size=box) * (rng.random(box) < 0.3)
    fr = rng.integers(-1, 2, size=slots.shape[1])
    return (frac > 0, frac < 0), (fr > 0, fr < 0)


@settings(max_examples=120, deadline=None)
@given(d=st.integers(1, 4), side=st.sampled_from([1, 2, 3, 4, 5, 6]),
       margin=st.integers(0, 2), full=st.booleans(),
       frontier=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, side=2, margin=1, full=True, frontier=1, seed=1)
@example(d=4, side=2, margin=1, full=False, frontier=-1, seed=2)
@example(d=4, side=6, margin=2, full=True, frontier=0, seed=3)
@example(d=2, side=1, margin=1, full=False, frontier=1, seed=4)
def test_router_csr_is_the_lexsort_layout(d, side, margin, full, frontier,
                                          seed):
    """_route_to_frontier hands the solver the np.lexsort((head, tail))
    CSR of its edges, on d = 1..4 and core sides 1 to 6 (at side 2 the
    head offsets of the signed directions are not in lexicographic order,
    though in every row the present ones are): uniform capacities on
    every core edge and k times them on every rim arc, as in repair, or
    one unit in the direction of a random fraction on a sparse set, as
    in rounding, with nonzero capacities also where the head leaves the
    core, which the router must ignore.  The frontier node's supply is
    positive, negative or zero.  Where the residual is routed, each core
    edge takes the oracle's flow and the core's divergence is the
    residual."""
    assume(side + 2 * margin >= 2)
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    caps, rim_caps = _random_caps(rng, w, full)
    residual = rng.integers(-2, 3, size=(side,) * d)
    residual.flat[0] += frontier * (abs(residual.sum()) + 1) - residual.sum()
    assert np.sign(residual.sum()) == frontier
    values = np.zeros((len(directions(d)), w.n_vertices), dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        seen = _recorded_routes(patch)
        got, _ = integralize._route_to_frontier(lambda: values, w, residual,
                                                caps, rim_caps, 1 << 40)
    route, = seen
    u, v, net = _check_route(w, caps, rim_caps, residual, route)
    assert (got is None) == (not route[4])
    if got is None:
        return
    out = EdgeField(w, 0, got)
    assert np.array_equal(out.divergence_num(core=True), residual)
    core = np.array(v) < w.n_vertices
    row, tail, sign = edge_slots(w, np.array(u)[core], np.array(v)[core])
    assert np.array_equal(got[row, tail], sign * net[core])


def test_rounding_routes_free_fractional_edges():
    """round_edge_field with cover-mode fixed edges hands the router the
    free core edges with a discarded fraction, one unit in its direction,
    and each rim vertex's summed fraction: the same lexsort layout."""
    rng = np.random.default_rng(31)
    w = LatticeWindow(d=2, L=16, margin=3)
    s = 3
    hold = np.zeros(w.shape, dtype=bool)
    hold[6:10, 6:10] = True
    fld = random_dyadic_field(rng, w, s, pushes=60, avoid=hold)
    fixed = edge_mask(w, hold, np.logical_and)
    lo, hi = w.core_bounds
    inside = edge_mask(w, w.core_mask(), np.logical_and) & ~fixed
    mod = 1 << s
    frac = np.where(fld.values < 0, -(-fld.values % mod), fld.values % mod)
    frac = np.where(inside, frac, 0).reshape((-1,) + w.shape)[
        (slice(None),) + (slice(lo, hi),) * 2]
    assert (frac != 0).any() and inside.sum() < edge_mask(
        w, w.core_mask(), np.logical_and).sum()
    with pytest.MonkeyPatch.context() as patch:
        seen = _recorded_routes(patch)
        round_edge_field(fld, fld.divergence_num() >> s, fixed_mask=fixed)
    route, = seen
    rim, _, slots = rim_slot_table(w)
    agg = np.zeros(len(rim), dtype=np.int64)
    for i, shift in enumerate(flat_shifts(w).tolist()):
        agg += np.where(slots[2 * i], fld.values[i, rim], 0)
        agg -= np.where(slots[2 * i + 1], fld.values[i, rim - shift], 0)
    agg_frac = np.sign(agg) * (np.abs(agg) % mod)
    residual = route[3][:-1].reshape((hi - lo,) * 2)
    _check_route(w, (frac > 0, frac < 0), (agg_frac > 0, agg_frac < 0),
                 residual, route)


def test_round_edge_field_validation():
    w = LatticeWindow(d=2, L=16, margin=3)
    fld = EdgeField(w, 2)
    f = np.zeros(w.shape, dtype=np.int64)
    bad = np.ones(fld.values.shape, dtype=bool)
    with pytest.raises(ValueError):
        round_edge_field(fld, f, fixed_mask=bad)    # non-core edges flagged
    frac = EdgeField(w, 2)
    add_flow(frac, (7, 7), (7, 8), 1)
    with pytest.raises(ValueError):
        round_edge_field(frac, f, fixed_mask=frac.values != 0)


def test_integralize_modes_agree_on_divergence():
    rng = np.random.default_rng(41)
    w = LatticeWindow(d=2, L=50, margin=2)
    s = 4
    fld = random_dyadic_field(rng, w, s, pushes=200)
    f = fld.divergence_num() >> s
    core = w.core_mask().ravel()
    direct, di = integralize_flow(fld, f, mode="direct")
    cover, ci = integralize_flow(fld, f, mode="cover")
    for out in (direct, cover):
        assert np.array_equal(out.divergence_num().ravel()[core], f.ravel()[core])
    assert di["max_dev_core"] < 1.0
    assert ci["max_dev_core"] <= 3 ** 2
    assert ci["cover"]["regions"] >= 1
    # same inputs, same outputs
    direct2, _ = integralize_flow(fld, f, mode="direct")
    cover2, _ = integralize_flow(fld, f, mode="cover")
    assert np.array_equal(direct.values, direct2.values)
    assert np.array_equal(cover.values, cover2.values)
    with pytest.raises(ValueError):
        integralize_flow(fld, f, mode="euler")


def test_cover_mode_needs_room():
    w = LatticeWindow(d=2, L=20, margin=2)
    assert max_cover_levels(w, 3) == -1
    fld = EdgeField(w, 2)
    with pytest.raises(ValueError):
        integralize_flow(fld, np.zeros(w.shape, dtype=np.int64), mode="cover")


def test_spill_to_frontier_hand_example():
    """d=2, L=5, margin=1: the core is [1, 4)^2 and its rim the eight
    vertices around (2, 2).  dirs = (0,1), (1,-1), (1,0), (1,1); the
    corner (1, 1) has frontier slots 1, 2, 3, 5, 7 and the side vertex
    (1, 2) slots 3, 5, 7 (slot 2*i + sign; sign 1 is the edge to
    v - dirs[i]), in its face class's list and in the oracle's table."""
    w = LatticeWindow(d=2, L=5, margin=1)
    rim, _, face, ptr, slots = _rim_frontier_slots(w)
    table = rim_slot_table(w)[2]
    flat = lambda v: int(np.ravel_multi_index(v, w.shape))
    corner, side = list(rim).index(flat((1, 1))), list(rim).index(flat((1, 2)))
    for r, want in ((corner, [1, 2, 3, 5, 7]), (side, [3, 5, 7])):
        assert slots[ptr[face[r]]:ptr[face[r] + 1]].tolist() == want
        assert np.flatnonzero(table[:, r]).tolist() == want
    # eight rim vertices, four corners and four sides: eight face classes
    assert len(ptr) - 1 == 8 and len(set(face.tolist())) == 8

    # a binding cap of 2 across several slots, and a negative amount
    amount = np.zeros(len(rim), dtype=np.int64)
    amount[corner], amount[side] = 7, -5
    f = EdgeField(w, 0)
    assert spill_to_frontier(f.values, w, amount, 2) == 2
    want = EdgeField(w, 0)
    add_flow(want, (1, 1), (1, 0), 2)            # slot 1
    add_flow(want, (1, 1), (2, 0), 2)            # slot 2
    add_flow(want, (1, 1), (0, 2), 2)            # slot 3
    add_flow(want, (1, 1), (0, 1), 1)            # slot 5; slot 7 takes 0
    add_flow(want, (1, 2), (0, 3), -2)           # slot 3
    add_flow(want, (1, 2), (0, 2), -2)           # slot 5
    add_flow(want, (1, 2), (0, 1), -1)           # slot 7
    assert np.array_equal(f.values, want.values)
    div = f.divergence_num()
    assert div[1, 1] == 7 and div[1, 2] == -5 and div[1:4, 1:4].sum() == 2
    g = EdgeField(w, 0)
    assert spill(g.values, w, amount, 2) == 2
    assert np.array_equal(g.values, want.values)

    # an unbounded cap puts everything on the first frontier slot
    f = EdgeField(w, 0)
    assert spill_to_frontier(f.values, w, amount, np.iinfo(np.int64).max) == 7
    want = EdgeField(w, 0)
    add_flow(want, (1, 1), (1, 0), 7)
    add_flow(want, (1, 2), (0, 3), -5)
    assert np.array_equal(f.values, want.values)

    # five slots of cap 2 cannot carry 11 units
    amount[corner] = 11
    for fn in (spill_to_frontier, spill):
        with pytest.raises(AssertionError, match="left 1 units"):
            fn(EdgeField(w, 0).values, w, amount, 2)


# the largest core side and margin tried per d, so that every window's
# edge array stays small
FACE_SIDE = {1: 7, 2: 7, 3: 7, 4: 4, 5: 3}
FACE_MARGIN = {1: 3, 2: 3, 3: 3, 4: 2, 5: 1}


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 5), side=st.integers(1, 7), margin=st.integers(1, 3),
       cap=st.sampled_from([1, 2, 3, 1 << 62]), over=st.booleans(),
       density=st.sampled_from([0.05, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=2, side=1, margin=1, cap=1, over=False, density=1.0, seed=1)
@example(d=3, side=2, margin=2, cap=2, over=True, density=0.5, seed=2)
@example(d=5, side=3, margin=1, cap=1, over=False, density=0.5, seed=3)
@example(d=4, side=4, margin=2, cap=3, over=False, density=1.0, seed=4)
def test_face_classes_are_the_dense_table(d, side, margin, cap, over,
                                          density, seed):
    """On d = 1..5, margins 1 to 3 and core sides 1 to 7 (d = 4 and 5
    stop at FACE_SIDE and FACE_MARGIN), each rim vertex's face class
    lists exactly the frontier slots the oracle's dense table flags, and
    spill_to_frontier changes the edge array exactly as the oracle's
    cumsum spill does: amounts of either sign up to every slot at cap,
    so multi-slot takes, or, when over, one unit past that on some
    vertex, where both raise the same AssertionError and send nothing."""
    assume(side <= FACE_SIDE[d] and margin <= FACE_MARGIN[d])
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    _rim_frontier_slots.cache_clear()
    got_rim, got_rows, face, ptr, slots = _rim_frontier_slots(w)
    rim, rows, table = rim_slot_table(w)
    assert np.array_equal(got_rim, rim) and np.array_equal(got_rows, rows)
    assert [slots[ptr[c]:ptr[c + 1]].tolist() for c in face] == [
        np.flatnonzero(col).tolist() for col in table.T]

    room = table.sum(axis=0) * min(cap, 1 << 20)
    amount = (rng.integers(-room, room + 1)
              * (rng.random(len(rim)) < density))
    if over:
        r = rng.integers(len(rim))
        amount[r] = rng.choice([-1, 1]) * (room[r] + 1)
    values = rng.integers(-9, 10, size=(len(directions(d)), w.n_vertices))
    want = values.copy()
    try:
        largest = spill(want, w, amount, cap)
    except AssertionError as e:
        with pytest.raises(AssertionError, match="^%s$" % e):
            spill_to_frontier(values, w, amount, cap)
        assert np.array_equal(values, want)
        return
    assert spill_to_frontier(values, w, amount, cap) == largest
    assert np.array_equal(values, want)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), side=st.integers(1, 7), margin=st.integers(1, 3),
       full=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, side=2, margin=1, full=True, seed=1)
@example(d=5, side=3, margin=1, full=False, seed=2)
@example(d=2, side=1, margin=2, full=False, seed=3)
def test_router_heads_are_the_outer_table(d, side, margin, full, seed):
    """The router's CSR, byte for byte and dtype for dtype, is the one
    its heads used to come from: np.add.outer over every row and column
    of the arc table (oracle.frontier.router_csr), on full capacities as
    in repair and on random unit ones as in rounding."""
    assume(side <= FACE_SIDE[d] and margin <= FACE_MARGIN[d])
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    caps, rim_caps = _random_caps(rng, w, full)
    residual = rng.integers(-2, 3, size=(side,) * d)
    seen = []

    def spy(indptr, indices, cap, supply):
        seen.append((indptr.copy(), indices.copy(), cap.copy()))
        return supply_graph(indptr, indices, cap, supply)

    values = np.zeros((len(directions(d)), w.n_vertices), dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integralize, "supply_graph", spy)
        integralize._route_to_frontier(lambda: values, w, residual, caps,
                                       rim_caps, 1 << 40)
    for got, want in zip(seen[0], router_csr(w, caps, rim_caps)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _descent_against_oracle(w, residual, unit, values):
    """Run _descend_to_frontier on values and check it against
    oracle.descent.descend: a refusal never asks for the edge array and
    leaves it untouched; an accepted descent changes the array the oracle
    does and reports the same largest change.  Returns whether it was
    accepted."""
    before = values.copy()
    asked = []

    def give():
        asked.append(True)
        return values

    got, largest = integralize._descend_to_frontier(give, w, residual, unit)
    want = descend(before, w, residual, unit)
    if want is None:
        assert got is None and largest == 0 and not asked
        assert np.array_equal(values, before)
        return False
    assert got is values and asked == [True]
    assert np.array_equal(got, want[0]) and largest == want[1]
    return True


# the largest core side tried per d, so that the oracle stays quick
DESCENT_SIDE = {1: 7, 2: 7, 3: 7, 4: 6, 5: 4}


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 5), side=st.integers(1, 7), margin=st.integers(1, 2),
       s=st.integers(0, 3), amp=st.integers(0, 3),
       density=st.sampled_from([0.05, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=2, side=7, margin=1, s=2, amp=1, density=0.05, seed=1)
@example(d=3, side=6, margin=2, s=0, amp=1, density=0.3, seed=2)
@example(d=5, side=4, margin=1, s=1, amp=1, density=0.05, seed=3)
@example(d=1, side=7, margin=1, s=3, amp=3, density=1.0, seed=4)
def test_descent_is_the_oracle(d, side, margin, s, amp, density, seed):
    """The vectorised descent, its closed-form parents and its acceptance
    rule against the per-vertex oracle, on d = 1..5 and core sides 1 to 7
    (a window has a core of side 1 at least; d = 4 and 5 stop at the
    sides DESCENT_SIDE allows), with residuals of up to amp units at unit
    2^s.  An accepted descent is an exact routing of the residual into
    the frontier that changes no value by more than one unit."""
    assume(side <= DESCENT_SIDE[d])
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    unit = 1 << s
    residual = (rng.integers(-amp * unit, amp * unit + 1, size=(side,) * d)
                * (rng.random((side,) * d) < density))
    values = rng.integers(-9, 10, size=(len(directions(d)), w.n_vertices))
    before = values.copy()
    if _descent_against_oracle(w, residual, unit, values):
        change = EdgeField(w, 0, values - before)
        assert np.array_equal(change.divergence_num(core=True), residual)
        assert np.abs(change.values).max(initial=0) <= unit


BIG = 1 << 62


@pytest.mark.parametrize("residual, unit, accepted", [
    ([-(BIG - 1), BIG, 0], BIG, True),     # sum |residual| = 2^63 - 1
    ([-BIG, BIG, 0], BIG, False),          # 2^63: refused, though it fits
    ([-(1 << 63) + 1, 0, 0], (1 << 63) - 1, True),
    ([-(1 << 63), 0, 0], (1 << 63) - 1, False),  # |int64 min| is 2^63
])
def test_descent_int64_guard(residual, unit, accepted):
    """The descent forms no subtree sum before sum |residual| is known to
    fit int64, on d=1 with core side 3: vertex 1's parent is 0, and each
    end of the core has one frontier edge.  At these units every edge
    and frontier check passes, so the guard alone decides."""
    w = LatticeWindow(d=1, L=5, margin=1)
    values = np.zeros((1, w.n_vertices), dtype=np.int64)
    assert _descent_against_oracle(w, np.array(residual, dtype=np.int64),
                                   unit, values) == accepted


def test_descent_guard_stops_a_wrapping_sum():
    """Two supplies of 3 * 2^61 meet on vertex 1 of a core of side 5 (the
    chain 2 -> 1 -> 0).  In int64 their sum wraps to -2^62, which would
    pass every check at a unit of 3 * 2^61 and be spilled as a wrong
    flow; the guard refuses first."""
    w = LatticeWindow(d=1, L=7, margin=1)
    unit = 3 << 61
    residual = np.array([0, unit, unit, 0, 0], dtype=np.int64)
    values = np.zeros((1, w.n_vertices), dtype=np.int64)
    assert not _descent_against_oracle(w, residual, unit, values)


def _table_caps(rng, w, kind):
    """(caps, rim_caps) for the router: one capacity for every core edge
    and k times it on every rim arc, as in repair, at a random width;
    unit ones in the direction of a random fraction on a sparse set, as
    in rounding; or random nonnegative integers with zeros."""
    lo, hi = w.core_bounds
    box = (len(directions(w.d)),) + (hi - lo,) * w.d
    k = rim_slot_table(w)[2].sum(axis=0, dtype=np.int64)
    if kind == "repair":
        cap = np.int64(int(rng.integers(1, 1 << int(rng.integers(1, 34)))))
        return (cap, cap), (k * cap,) * 2
    if kind == "rounding":
        frac = rng.integers(-1, 2, size=box) * (rng.random(box) < 0.3)
        fr = rng.integers(-1, 2, size=len(k))
        return (frac > 0, frac < 0), (fr > 0, fr < 0)
    top = 1 << int(rng.integers(1, 20))
    return ((rng.integers(0, top, size=box) * (rng.random(box) < 0.6),
             rng.integers(0, top, size=box) * (rng.random(box) < 0.6)),
            (rng.integers(0, top, size=len(k)),
             rng.integers(0, top, size=len(k)) * (rng.random(len(k)) < 0.5)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 5), side=st.integers(1, 7), margin=st.integers(0, 3),
       kind=st.sampled_from(["repair", "rounding", "ints"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=5, side=3, margin=1, kind="rounding", seed=1)
@example(d=3, side=2, margin=2, kind="repair", seed=2)
@example(d=2, side=1, margin=1, kind="ints", seed=3)
def test_router_csr_is_the_table_layout(d, side, margin, kind, seed):
    """The router's CSR, built from the arcs it keeps, is byte for byte
    and dtype for dtype the one read off the n x (2 nd + 1) arc and
    capacity tables (oracle.frontier.router_table_csr), on d = 1..5 and
    margins 0 to 3, with capacities as in repair, as in rounding, or
    random integers of any width."""
    assume(side <= FACE_SIDE[d] and margin <= FACE_MARGIN.get(d, 3)
           and side + 2 * margin >= 2)
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    caps, rim_caps = _table_caps(rng, w, kind)
    seen = []

    def spy(indptr, indices, cap, supply):
        seen.append((indptr.copy(), indices.copy(), cap.copy()))
        return supply_graph(indptr, indices, cap, supply)

    values = np.zeros((len(directions(d)), w.n_vertices), dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integralize, "supply_graph", spy)
        integralize._route_to_frontier(
            lambda: values, w, np.zeros((side,) * d, dtype=np.int64), caps,
            rim_caps, 1 << 40)
    for got, want in zip(seen[0], router_table_csr(w, caps, rim_caps)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class _Routed(Exception):
    """Raised by a router spy once it has recorded its arguments."""


def _front_of_rounding(phi, f, fixed_mask):
    """round_edge_field's state just before it routes: (the edge array
    handed to the first spill, before the spill, the amounts spilled,
    the residual routed, the core edge capacities, the rim capacities)."""
    seen = {}

    def first_spill(values, window, amount, cap):
        seen.setdefault("spill", (values.copy(), np.array(amount)))
        return spill_to_frontier(values, window, amount, cap)

    def route(values, window, residual, caps, rim_caps, spill_cap):
        seen["route"] = (residual.copy(), caps, rim_caps)
        raise _Routed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integralize, "spill_to_frontier", first_spill)
        patch.setattr(integralize, "_route_to_frontier", route)
        with pytest.raises(_Routed):
            round_edge_field(phi, f, fixed_mask=fixed_mask)
    return seen["spill"] + seen["route"]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 5), side=st.integers(1, 7), margin=st.integers(1, 3),
       bits=st.sampled_from([8, 16, 32]), s=st.integers(0, 14),
       fixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(d=5, side=3, margin=1, bits=16, s=10, fixed=False, seed=1)
@example(d=2, side=4, margin=3, bits=8, s=4, fixed=True, seed=2)
@example(d=3, side=1, margin=2, bits=32, s=14, fixed=True, seed=3)
def test_rounding_front_is_three_passes(d, side, margin, bits, s, fixed,
                                        seed):
    """round_edge_field's one pass over the directions leaves what the
    three dense passes left before the solve (oracle.rounding.front_half):
    the truncated edges, in the same dtype, widened or not; the
    fraction directions up and down; the residual; and the rim sums, in
    full from _truncate_core and as rounding reads them, truncated and by
    the sign of their fraction.  On d = 1..5, margins 1 to 3, int8,
    int16 and int32 phi at every magnitude, with and without a cover's
    fixed edges."""
    assume(side <= FACE_SIDE[d] and margin <= FACE_MARGIN.get(d, 3))
    dtype = np.dtype("int%d" % bits)
    s = min(s, bits - 2)                 # 1 << s fits phi's dtype
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=side + 2 * margin, margin=margin)
    lim = (1 << int(rng.integers(0, bits))) - 1
    shape = (len(directions(d)), w.n_vertices)
    phi = EdgeField(w, s, rng.integers(-lim, lim + 1, size=shape, dtype=dtype))
    fixed_mask = None
    if fixed:
        fixed_mask = (edge_mask(w, w.core_mask(), np.logical_and)
                      & (rng.random(shape) < 0.3))
        phi.values[fixed_mask] -= phi.values[fixed_mask] & ((1 << s) - 1)
    f = rng.integers(-3, 4, size=w.shape)
    out_vals, up, down, residual, agg = front_half(phi, f)
    got_vals, amount, got_residual, caps, rim_caps = _front_of_rounding(
        phi, f, fixed_mask)
    assert got_vals.dtype == out_vals.dtype
    assert np.array_equal(got_vals, out_vals)
    assert np.array_equal(caps[0], up) and np.array_equal(caps[1], down)
    assert np.array_equal(got_residual, residual)
    agg_int = np.sign(agg) * (np.abs(agg) >> s)
    frac = agg - (agg_int << s)
    assert np.array_equal(amount, agg_int)
    assert np.array_equal(rim_caps[0], frac > 0)
    assert np.array_equal(rim_caps[1], frac < 0)
    zero = np.zeros(shape, dtype=out_vals.dtype)
    assert np.array_equal(integralize._truncate_core(phi, zero)[3], agg)
    assert np.array_equal(zero, out_vals)

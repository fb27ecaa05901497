"""Finite-graph flow layer: feasibility vs exhaustive cut checking,
max-flow/min-cut agreement, and rounding invariants."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st

from oracle.arcs import edge_csr, lexsort_csr, solve_supply_flow
from oracle.dyadic import Dyadic
from oracle.finiteflow import (
    CutCertificate,
    FiniteGraph,
    FlowValues,
    capacity_fn,
    f_flow_feasible,
    round_flow,
    st_max_flow,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def cut_feasible(g, f, cap):
    """Direct check of the cut condition over every vertex subset."""
    c = capacity_fn(cap)
    if sum(f.get(x, 0) for x in range(g.n)) != 0:
        return False
    for r in range(1, g.n + 1):
        for F in itertools.combinations(range(g.n), r):
            fs = set(F)
            tot = sum(f.get(x, 0) for x in F)
            out_cap = sum(c(x, y) for x in F for y in g.adj[x] if y not in fs)
            in_cap = sum(c(y, x) for x in F for y in g.adj[x] if y not in fs)
            if tot > out_cap or tot < -in_cap:
                return False
    return True


def random_graph(rng, n, p=0.6):
    pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < p
    return FiniteGraph(n, [p_ for p_, k in zip(pairs, keep) if k])


def random_caps(rng, g, hi=2):
    caps = {}
    for u, v in g.edges:
        caps[(u, v)] = int(rng.integers(0, hi + 1))
        caps[(v, u)] = int(rng.integers(0, hi + 1))
    return caps


# ---------------------------------------------------------------------------
# graph / flow containers
# ---------------------------------------------------------------------------

def test_graph_normalizes_edges():
    g = FiniteGraph(4, [(2, 1), (1, 2), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.adj[1] == (2,) and g.adj[3] == (0,)
    assert g.has_edge(2, 1) and not g.has_edge(0, 1)
    with pytest.raises(ValueError):
        FiniteGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        FiniteGraph(3, [(0, 3)])


def test_flow_values_antisymmetric():
    g = FiniteGraph(3, [(0, 1), (1, 2)])
    fl = FlowValues(g)
    fl.set_value(1, 0, 5)            # stored canonically as (0,1) = -5
    assert fl.value(0, 1) == -5 and fl.value(1, 0) == 5
    fl.set_value(1, 2, Dyadic(3, 1))
    assert fl.divergence(1) == 5 + Dyadic(3, 1)
    assert not fl.is_integral()
    fl.set_value(1, 2, 0)            # zeroing removes the entry
    assert fl.items() == [((0, 1), -5)]
    assert fl.is_integral()
    with pytest.raises(KeyError):
        fl.set_value(0, 2, 1)


# ---------------------------------------------------------------------------
# f-flow feasibility vs the subset oracle
# ---------------------------------------------------------------------------

def balanced_f(rng, n):
    while True:
        f = rng.integers(-2, 3, size=n)
        if f.sum() == 0:
            return {x: int(f[x]) for x in range(n)}


def test_feasibility_matches_cut_oracle():
    rng = np.random.default_rng(11)
    agree = feasible_seen = infeasible_seen = 0
    for i in range(800):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n)
        caps = random_caps(rng, g)
        if i % 2:
            f = {x: int(rng.integers(-2, 3)) for x in range(n)}
        else:
            f = balanced_f(rng, n)
        want = cut_feasible(g, f, caps)
        got = f_flow_feasible(g, f, caps)
        if isinstance(got, FlowValues):
            assert want, "solver found a flow the cut condition forbids"
            feasible_seen += 1
            c = capacity_fn(caps)
            for x in range(n):
                assert got.divergence(x) == f[x]
                for y in g.adj[x]:
                    assert got.value(x, y) <= c(x, y)
            assert got.is_integral()
        else:
            assert not want, "solver rejected a flow the cut condition allows"
            infeasible_seen += 1
            assert got.verify(g, f, caps)
        agree += 1
    assert agree == 800
    assert feasible_seen > 100 and infeasible_seen > 100


def test_unbalanced_supply_is_whole_set_certificate():
    g = FiniteGraph(3, [(0, 1), (1, 2)])
    cert = f_flow_feasible(g, {0: 2, 1: 0, 2: -1}, 10)
    assert isinstance(cert, CutCertificate)
    assert cert.F == frozenset({0, 1, 2}) and cert.slack == 1


def test_certificate_verify_rejects_tampering():
    g = FiniteGraph(2, [(0, 1)])
    f = {0: 2, 1: -2}
    cert = f_flow_feasible(g, f, 1)
    assert isinstance(cert, CutCertificate)
    assert cert.verify(g, f, 1)
    bad_slack = CutCertificate(F=cert.F, side=cert.side, slack=cert.slack + 1)
    assert not bad_slack.verify(g, f, 1)
    wrong_set = CutCertificate(F=frozenset({0, 1}), side="lower", slack=cert.slack)
    assert not wrong_set.verify(g, f, 1)


def test_negative_capacity_rejected():
    g = FiniteGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        f_flow_feasible(g, {0: 1, 1: -1}, {(0, 1): -1, (1, 0): 0})


# ---------------------------------------------------------------------------
# s-t max flow
# ---------------------------------------------------------------------------

def test_max_flow_pinned_network():
    g = FiniteGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    caps = {(0, 1): 3, (0, 2): 2, (1, 2): 1, (1, 3): 2, (2, 3): 3}
    res = st_max_flow(g, 0, 3, caps)
    assert res.value == 5
    assert res.cut_side == frozenset({0})
    assert res.cut_edges == ((0, 1), (0, 2))
    assert res.flow.divergence(0) == 5 and res.flow.divergence(3) == -5
    assert res.flow.divergence(1) == 0 and res.flow.divergence(2) == 0


def test_max_flow_cut_duality_random():
    # st_max_flow asserts flow value == cut value internally; this exercises
    # that dual check across many shapes and validates the reported cut.
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        caps = random_caps(rng, g, hi=3)
        s, t = 0, n - 1
        res = st_max_flow(g, s, t, caps)
        assert s in res.cut_side and t not in res.cut_side
        c = capacity_fn(caps)
        assert res.value == sum(c(x, y) for x, y in res.cut_edges)
        for x, y in res.cut_edges:
            assert x in res.cut_side and y not in res.cut_side


def test_max_flow_input_validation():
    g = FiniteGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        st_max_flow(g, 1, 1, 1)
    with pytest.raises(ValueError):
        st_max_flow(g, 0, 1, Dyadic(1, 1))


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def random_dyadic_flow(rng, g, triangles):
    """Integer flow everywhere plus dyadic circulations around the given
    triangles, so the divergence stays integral."""
    phi = FlowValues(g)
    for u, v in g.edges:
        phi.set_value(u, v, int(rng.integers(-3, 4)))
    for a, b, c in triangles:
        delta = Dyadic(int(rng.integers(-15, 16)), int(rng.integers(1, 4)))
        for x, y in ((a, b), (b, c), (c, a)):
            phi.set_value(x, y, phi.value(x, y) + delta)
    return phi


def test_round_flow_invariants():
    rng = np.random.default_rng(23)
    g = FiniteGraph(5, list(itertools.combinations(range(5), 2)))
    tris = list(itertools.combinations(range(5), 3))
    fractional_edges = 0
    for _ in range(200):
        picks = [tris[i] for i in rng.choice(len(tris), size=2, replace=False)]
        phi = random_dyadic_flow(rng, g, picks)
        f = {x: phi.divergence(x) for x in range(5)}
        assert all(isinstance(v, int) or v.is_integer for v in f.values())
        f = {x: v if isinstance(v, int) else v.floor() for x, v in f.items()}
        out = round_flow(g, f, phi)
        assert out.is_integral()
        for x in range(5):
            assert out.divergence(x) == f[x]
        for u, v in g.edges:
            dev = out.value(u, v) - phi.value(u, v)
            assert -1 < dev < 1
            pv = phi.value(u, v)
            if isinstance(pv, int) or pv.is_integer:
                assert out.value(u, v) == pv
            else:
                fractional_edges += 1
    assert fractional_edges > 200


def test_round_flow_pure_circulation():
    g = FiniteGraph(3, [(0, 1), (1, 2), (0, 2)])
    phi = FlowValues(g)
    for x, y in ((0, 1), (1, 2), (2, 0)):
        phi.set_value(x, y, Dyadic(1, 1))     # half a unit around the triangle
    out = round_flow(g, {}, phi)
    assert out.is_integral()
    assert all(out.divergence(x) == 0 for x in range(3))
    vals = {abs(out.value(0, 1)), abs(out.value(1, 2)), abs(out.value(2, 0))}
    assert vals <= {0, 1}


def test_round_flow_checks_divergence():
    g = FiniteGraph(2, [(0, 1)])
    phi = FlowValues(g)
    phi.set_value(0, 1, Dyadic(1, 1))
    with pytest.raises(ValueError):
        round_flow(g, {0: 3, 1: -3}, phi)


# ---------------------------------------------------------------------------
# array engine
# ---------------------------------------------------------------------------

def edge_arrays(g, caps):
    u = np.array([e[0] for e in g.edges], dtype=np.int64)
    v = np.array([e[1] for e in g.edges], dtype=np.int64)
    cuv = np.array([caps[(a, b)] for a, b in g.edges], dtype=np.int64)
    cvu = np.array([caps[(b, a)] for a, b in g.edges], dtype=np.int64)
    return u, v, cuv, cvu


def solve_edges(u, v, cap_uv, cap_vu, supply):
    """solve_supply_flow on the lexsort CSR of both directions of every
    edge, as (feasible, net flow per edge in the u -> v direction)."""
    indptr, indices, cap, fwd = edge_csr(u, v, cap_uv, cap_vu, len(supply))
    ok, flow = solve_supply_flow(indptr, indices, cap, supply)
    assert flow.dtype == np.int64 and flow.shape == indices.shape
    return ok, flow[fwd]


def check_routed(g, caps, supply, net):
    """net is an f-flow for the supply within the capacities."""
    div = [0] * g.n
    for (a, b), w in zip(g.edges, net.tolist()):
        assert -caps[(b, a)] <= w <= caps[(a, b)]
        div[a] += w
        div[b] -= w
    assert div == [int(x) for x in supply]


def test_supply_flow_isolated_vertices():
    # vertices 1, 3 and 5 have no arc, so their rows of the CSR are
    # empty; the flow 0 -> 2 -> 4 must still be routed around them
    ok, net = solve_edges([0, 2], [2, 4], [3, 3], [0, 0],
                          [2, 0, 0, 0, -2, 0])
    assert ok and net.tolist() == [2, 2]
    ok, net = solve_edges([], [], [], [], [0, 0, 0])
    assert ok and net.size == 0


def test_array_engine_matches_reference():
    # the s-t max flow value is exactly the largest routable 0 -> n-1 supply
    rng = np.random.default_rng(31)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        caps = random_caps(rng, g, hi=3)
        ref = st_max_flow(g, 0, n - 1, caps)
        arrays = edge_arrays(g, caps)
        for value, want in ((ref.value, True), (ref.value + 1, False)):
            supply = np.zeros(n, dtype=np.int64)
            supply[0], supply[n - 1] = value, -value
            ok, net = solve_edges(*arrays, supply)
            assert ok == want
            if ok:
                check_routed(g, caps, supply, net)


def test_array_engine_deterministic():
    def build():
        u = np.array([0, 0, 1, 2, 3, 4, 1])
        v = np.array([1, 2, 3, 4, 5, 5, 2])
        supply = np.array([4, 0, 0, 0, 0, -4])
        ok, net = solve_edges(u, v, np.array([3, 2, 2, 3, 2, 2, 1]), 0,
                              supply)
        assert ok
        return net
    assert np.array_equal(build(), build())


def test_array_engine_rejects_bad_input():
    # (indptr, indices, cap) on two vertices, or three where a row needs
    # two arcs to be out of order
    for indptr, indices, cap, msg in (
            ([0, 1, 2], [1, 0], [-1, 0], "negative capacity"),
            ([0, 2, 4], [1, 1, 0, 0], [1, 1, 1, 1], "duplicate arc"),
            ([0, 0, 2], [1, 1], [1, 1], "self-loop"),
            ([0, 1, 1], [2], [1], "out of range"),
            ([0, 1, 2], [1, 0], [1], "one entry per arc"),
            ([0, 2, 1], [1, 0], [1, 1], "row starts"),
            ([0, 1], [1], [1], "row starts"),
            ([0, 2, 3, 4], [2, 1, 0, 0], [1] * 4, "not increasing")):
        n = 3 if msg == "not increasing" else 2
        with pytest.raises(ValueError, match=msg):
            solve_supply_flow(indptr, indices, cap, [0] * n)
    # every arc needs its reverse in the CSR
    with pytest.raises(ValueError, match="reverse is missing"):
        solve_supply_flow([0, 1, 1], [1], [1], [1, -1])


def test_supply_flow_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, p=0.7)
        if not g.edges:
            continue
        caps = random_caps(rng, g, hi=3)
        # build a supply that is realizable by construction
        net = np.array([int(rng.integers(-caps[(v, u)], caps[(u, v)] + 1))
                        for u, v in g.edges])
        supply = np.zeros(n, dtype=np.int64)
        for (u, v), w in zip(g.edges, net.tolist()):
            supply[u] += w
            supply[v] -= w
        ok, got = solve_edges(*edge_arrays(g, caps), supply)
        assert ok
        check_routed(g, caps, supply, got)


def test_supply_flow_reports_infeasible():
    ok, _ = solve_supply_flow([0, 0, 0], [], [], np.array([1, -1]))
    assert not ok                # vertices 0, 1 and no arc between them


def test_supply_flow_validation():
    with pytest.raises(ValueError, match="balance"):
        solve_supply_flow([0, 1, 2], [1, 0], [1, 1], np.array([1, 1]))
    with pytest.raises(ValueError, match="one entry per vertex"):
        solve_supply_flow([0, 1, 2], [1, 0], [1, 1], np.zeros((2, 2)))


@pytest.mark.parametrize("value", [(1 << 31) + 7, (1 << 45) + 3])
def test_supply_flow_is_exact_beyond_int32(value):
    # the compiled solver stores int32; a wider value must neither wrap nor
    # truncate, whether it fits the edge or misses it by one unit
    ok, net = solve_edges([0], [1], [value], [0], [value, -value])
    assert ok and net.tolist() == [value]
    ok, _ = solve_edges([0], [1], [value - 1], [0], [value, -value])
    assert not ok
    ok, net = solve_edges([0, 0, 1], [1, 2, 2], value, 0,
                          [value, 0, -value])
    assert ok and net.tolist() == [0, value, 0]


_WIDE = st.one_of(st.integers(0, 4), st.integers(0, 1 << 45))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_supply_flow_agrees_with_oracle(data):
    n = data.draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    g = FiniteGraph(n, data.draw(st.lists(st.sampled_from(pairs),
                                          unique=True)))
    caps = {}
    for a, b in g.edges:
        caps[(a, b)], caps[(b, a)] = data.draw(_WIDE), data.draw(_WIDE)
    # the divergence of a flow within the capacities, then maybe a shift
    # of some amount between two vertices, so both outcomes occur
    supply = [0] * n
    for a, b in g.edges:
        w = data.draw(st.integers(-caps[(b, a)], caps[(a, b)]))
        supply[a] += w
        supply[b] -= w
    if data.draw(st.booleans()):
        x, y = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        shift = data.draw(_WIDE)
        supply[x] += shift
        supply[y] -= shift
    want = f_flow_feasible(g, dict(enumerate(supply)), caps)
    ok, net = solve_edges(*edge_arrays(g, caps), supply)
    assert ok == isinstance(want, FlowValues)
    if ok:
        check_routed(g, caps, supply, net)


def test_supply_flow_past_int32_keys():
    # with 2^17 vertices, tail * (n + 2) passes 2^31 for every tail from
    # 16,384 on, so a layout keyed on it in int32 would wrap; the solver
    # takes the rows as given and must route among the highest vertices
    n = 1 << 17
    u = np.array([n - 4, n - 3, n - 4, n - 2, 5], dtype=np.int32)
    v = np.array([n - 3, n - 1, n - 2, n - 1, 6], dtype=np.int32)
    supply = np.zeros(n, dtype=np.int64)
    supply[n - 4], supply[n - 1] = 3, -3
    ok, net = solve_edges(u, v, [2, 1, 2, 2, 1], 0, supply)
    assert ok and net.tolist() == [1, 1, 2, 2, 0]


def _recorded_solve(monkeypatch, *args):
    """solve_supply_flow(*args), and the graphs it handed to scipy."""
    graphs = []
    real = scipy.sparse.csgraph.maximum_flow

    def spy(graph, *rest, **kwargs):
        graphs.append(graph.copy())
        return real(graph, *rest, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.sparse.csgraph, "maximum_flow", spy)
        return solve_supply_flow(*args), graphs


@pytest.mark.parametrize("edges", [[], [(0, 2), (2, 4), (1, 4), (3, 0)]])
def test_supply_flow_endpoint_dtypes(monkeypatch, edges):
    """A CSR given as lists (an empty list is float64 to numpy), int32 or
    int64 gives the same result, and scipy gets one int32 CSR: the
    caller's arcs with p -> s and q -> t at the ends of the rows of the
    supply and demand vertices p and q, then rows s and t, which is the
    np.lexsort((head, tail)) order of all of them, with the capacities
    clipped at the supply."""
    n = 5
    cap_uv, cap_vu = [3, 2, 2, 9][:len(edges)], [0, 4, 1, 1][:len(edges)]
    supply = [2, 1, 0, 0, -3] if edges else [0] * n
    u, v = [e[0] for e in edges], [e[1] for e in edges]
    indptr, indices, cap, _ = edge_csr(u, v, cap_uv, cap_vu, n)
    results = []
    for csr in ((indptr.tolist(), indices.tolist()),
                *((indptr.astype(dt), indices.astype(dt))
                  for dt in (np.int32, np.int64))):
        (ok, flow), graphs = _recorded_solve(monkeypatch, *csr, cap.tolist(),
                                             supply)
        results.append((ok, flow.dtype, flow.tolist()))
        s, t = n, n + 1
        pos = [x for x in range(n) if supply[x] > 0]
        neg = [x for x in range(n) if supply[x] < 0]
        arcs = ([(a, b, c) for a, b, c in zip(u, v, cap_uv)]
                + [(b, a, c) for a, b, c in zip(u, v, cap_vu)]
                + [(s, x, supply[x]) for x in pos] + [(x, s, 0) for x in pos]
                + [(x, t, -supply[x]) for x in neg] + [(t, x, 0) for x in neg])
        tail, head, arc_cap = (np.array(c, dtype=np.int64).reshape(-1)
                               for c in zip(*arcs)) if arcs else ([],) * 3
        total = sum(x for x in supply if x > 0)
        want_ptr, want_head, want_cap, _ = lexsort_csr(tail, head, arc_cap,
                                                       n + 2)
        assert len(graphs) == (1 if total else 0)
        for graph in graphs:
            for got, ref in zip((graph.data, graph.indices, graph.indptr),
                                (np.minimum(want_cap, total), want_head,
                                 want_ptr)):
                assert got.dtype == np.int32
                assert np.array_equal(got, ref)
    assert results[0] == results[1] == results[2], results
    assert results[0][0] and results[0][1] == np.int64


def test_supply_flow_memory_budget():
    """tracemalloc peak of one solve on a fixed lattice graph, per arc (an
    arc is one direction of an edge, or a source or sink arc), with the
    int32 CSR and one int64 capacity per arc held by the caller.  The
    solve measured 38.2 bytes per arc here, since its one phase runs on
    the layout's int32 capacities with no int64 residuals (49.7 with
    them, 48.2 when it took edge lists and sorted them); about 30 of them
    are scipy's own copies.  The budget leaves 8% headroom."""
    side = 160
    grid = np.arange(side * side, dtype=np.int32).reshape(side, side)
    u = np.concatenate([grid[:, :-1].ravel(), grid[:-1, :].ravel()])
    v = np.concatenate([grid[:, 1:].ravel(), grid[1:, :].ravel()])
    flow = np.random.default_rng(5).integers(-3, 4, size=len(u))
    supply = (np.bincount(u, flow, side * side)
              - np.bincount(v, flow, side * side)).astype(np.int64)
    indptr, indices, cap, fwd = edge_csr(u, v, 3, 3, side * side)
    indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    arcs = len(indices) + 2 * np.count_nonzero(supply)
    assert arcs >= 100_000
    tracemalloc.start()
    try:
        ok, got = solve_supply_flow(indptr, indices, cap, supply)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    net = got[fwd]
    assert ok and (np.abs(net) <= 3).all()
    assert np.array_equal(np.bincount(u, net, side * side)
                          - np.bincount(v, net, side * side), supply)
    assert peak / arcs <= 41, "%.1f bytes per arc" % (peak / arcs)

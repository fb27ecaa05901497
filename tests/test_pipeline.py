"""End-to-end pipeline runs at toy scale, plus the frontier repair stage
in isolation."""

import inspect
import json
import tracemalloc

import numpy as np
import pytest

from equidecomp import equidecompose, integralize, pipeline
from equidecomp._maxflow import solve_supply_graph
from equidecomp.config import build_config
from equidecomp.flowgrid import EdgeField, residual_num, truncated_psi
from equidecomp.lattice import ActionSpec, IndicatorField, LatticeWindow
from equidecomp.pipeline import (PipelineError, repair_to_frontier,
                                 run_pipeline)
from equidecomp.report import _json_default
from equidecomp.shapes import parse_shape
from oracle.edges import add_flow


def toy_setup(n0=1):
    window = LatticeWindow(d=3, L=12, margin=3)
    action = ActionSpec.from_seed(1, 3, seed=7)
    a = parse_shape("intervals:0:1/4")
    b = parse_shape("intervals:1/2:3/4")
    return window, action, a, b, n0


def test_repair_zeroes_core_residual():
    window, action, a, b, n0 = toy_setup()
    res = run_pipeline(window, action, a, b, n0)
    res_core = residual_num(res.field, res.phi)
    assert res_core.shape == (6, 6, 6)            # the core box
    assert not res_core.any()
    # and the integral flow keeps that divergence on the nose
    div = res.psi_int.divergence_num(core=True)
    assert np.array_equal(div, res.field.f[3:9, 3:9, 3:9])


def test_repair_in_isolation_and_doubling(monkeypatch):
    window, action, a, b, n0 = toy_setup()
    from equidecomp.lattice import sample_field
    fld = sample_field(window, action, a, b)
    psi = truncated_psi(fld, n0)
    res = residual_num(fld, psi)
    assert res.shape == (6, 6, 6)                 # the core box
    phi2, _ = repair_to_frontier(fld, psi.copy(), res, capacity_units=3)
    phi, info = repair_to_frontier(fld, psi, res, capacity_units=3)
    assert not residual_num(fld, phi).any()
    assert info["doublings"] >= 0 and info["capacity_units"] == 3
    assert np.array_equal(phi.values, phi2.values)

    # a 10-unit point divergence cannot pass 8 unit-capacity edges: the
    # capacity must double exactly once
    w2 = LatticeWindow(d=2, L=8, margin=2)
    empty = IndicatorField(window=w2, chi_a=np.zeros(w2.shape, dtype=bool),
                           chi_b=np.zeros(w2.shape, dtype=bool))
    spike = EdgeField(w2, 0)
    add_flow(spike, (3, 3), (3, 4), 10)
    spike_res = residual_num(empty, spike)
    assert spike_res.shape == (4, 4)
    fixed, info = repair_to_frontier(empty, spike.copy(), spike_res,
                                     capacity_units=1)
    assert info["doublings"] == 1
    assert not residual_num(empty, fixed).any()
    monkeypatch.setattr(integralize, "MAX_DOUBLINGS", 0)
    with pytest.raises(PipelineError) as exc:
        repair_to_frontier(empty, spike, spike_res, capacity_units=1)
    assert exc.value.stage == "repair"
    assert exc.value.certificate["supply_abs"] == 20


def test_repair_widens_a_narrow_truncated_flow_after_the_solve(monkeypatch):
    """The toy truncated flow (d=3, n0=1) is int8.  run_pipeline's repair
    widens it only once the solve has returned, and only to the bound of
    the repaired flow, max |psi_t| plus the repair capacity (8 flow
    units, 2^9 at scale 2^6): int16.  At the solve's entry no traced
    block is as large as an int64 field.  The truncated flow itself is
    left as it was, and every flow lives on the crop of the core plus one
    ring: on the toy window (L=12, margin=3) the box [2, 10)^3, a window
    of side 8 with margin 1."""
    seen, largest = [], []

    def truncated(*args, **kwargs):
        seen.append(truncated_psi(*args, **kwargs))
        return seen[-1]

    def solve(graph):
        largest.append(max(t.size for t in
                           tracemalloc.take_snapshot().traces))
        return solve_supply_graph(graph)

    params = list(inspect.signature(repair_to_frontier).parameters)
    assert params[1] == "consumed_psi"
    monkeypatch.setattr(pipeline, "truncated_psi", truncated)
    monkeypatch.setattr(integralize, "solve_supply_graph", solve)
    window, action, a, b, n0 = toy_setup()
    tracemalloc.start()
    try:
        res = run_pipeline(window, action, a, b, n0)
    finally:
        tracemalloc.stop()
    psi_t, = seen
    assert psi_t.values.dtype == np.int8 and res.phi.values.dtype == np.int16
    rep = res.summary["repair"]
    assert rep["route"] == "dinic"
    cap = (rep["capacity_units"] << rep["doublings"]) << psi_t.scale_exp
    assert cap == 1 << 9
    assert (np.abs(res.phi.values.astype(np.int64))
            <= np.abs(psi_t.values.astype(np.int64)).max() + cap).all()
    # one solve in repair, one in rounding
    assert len(largest) == 2 and largest[0] < psi_t.values.size * 8
    for field in (psi_t, res.phi, res.psi_int):
        assert field.window == LatticeWindow(d=3, L=8, margin=1)
        assert field.crop.full == window and field.crop.offset == 2
    again = truncated_psi(res.field, n0)
    assert np.array_equal(again.values, psi_t.values)
    assert not np.array_equal(again.values, res.phi.values)


def test_repair_hands_over_the_truncated_flow():
    """A truncated flow whose bound needs int64 (d=2, n0=7: 2^33, on a
    side-256 window whose wide margin keeps the repair to a side-32 core)
    is repaired in place: the repaired flow holds its array."""
    w = LatticeWindow(d=2, L=256, margin=112)
    rng = np.random.default_rng(5)
    f = rng.integers(-1, 2, size=w.shape)
    fld = IndicatorField(window=w, chi_a=f > 0, chi_b=f < 0)
    psi = truncated_psi(fld, 7)
    assert psi.values.dtype == np.int64
    phi, _ = repair_to_frontier(fld, psi, residual_num(fld, psi),
                                capacity_units=4)
    assert phi.values is psi.values
    assert not residual_num(fld, phi).any()


DEMO = {"k": "2", "delta": "1", "L": "10", "margin": "2", "n0": "1",
        "shape_a": "disk:1/4:1/4:44280/221987",
        "shape_b": "rect:1/20:1/20:235416/665857:235416/665857"}


def _repair_peak(monkeypatch):
    """Repair's tracemalloc peak above its entry on the demo config, and
    the route it took."""
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            out = repair_to_frontier(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(pipeline, "repair_to_frontier", traced)
    cfg = build_config(DEMO)
    flow = pipeline.build_flow(cfg.window(), cfg.action(), *cfg.shapes(),
                               n0=cfg.n0)
    assert flow.phi.values.dtype == np.int16
    return peaks[0], flow.summary["repair"]["route"]


def test_repair_memory(monkeypatch):
    """On the demo config (d=5, L=10, margin=2, n0=1; 1.07M arcs), with
    the descent made to refuse, repair's tracemalloc peak above its entry
    on the Dinic route stays below 50 MB: the router frees its CSR once
    the solver has laid it out, a one-phase solve builds no int64
    residuals, and the repaired flow is int16 (7.9 MB) rather than int64
    (31.7 MB).  It measured 39 MB, and 60 MB with the router's CSR, the
    int64 residuals and an int64 flow alive."""
    monkeypatch.setattr(integralize, "_descend_to_frontier",
                        lambda *args: (None, 0))
    peak, route = _repair_peak(monkeypatch)
    assert route == "dinic"
    assert peak < 50e6, peak


def test_repair_memory_on_the_descent(monkeypatch):
    """The demo's residual takes the descent, which builds no graph: its
    tracemalloc peak above repair's entry stays below 12 MB.  It measured
    10.2 MB in a fresh process, most of it the int16 repaired flow
    (7.9 MB); the spill reads the rim's face classes and forms only the
    slots it fills.  With a dense slots-by-rim table and a cumsum over
    every slot of every live rim vertex it measured 23.4 MB."""
    peak, route = _repair_peak(monkeypatch)
    assert route == "descent"
    assert peak < 12e6, peak


def test_rounding_memory():
    """The demo's direct rounding (integralize_flow on its repaired int16
    flow) stays below 14 MB of tracemalloc peak above its entry.  It
    measured 12.5 MB: the int8 rounded flow (4.0 MB), the rounding
    direction tables and the router's arc and capacity tables over the
    core box.  With a dense head table over every row and column of the
    router's arc table it measured 20.0 MB."""
    cfg = build_config(DEMO)
    flow = pipeline.build_flow(cfg.window(), cfg.action(), *cfg.shapes(),
                               n0=cfg.n0)
    tracemalloc.start()
    try:
        out, _ = integralize.integralize_flow(flow.phi, flow.field.f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.dtype == np.int8
    assert peak < 14e6, peak


def test_repair_validation():
    w = LatticeWindow(d=2, L=8)                   # no frontier ring
    empty = IndicatorField(window=w, chi_a=np.zeros(w.shape, dtype=bool),
                           chi_b=np.zeros(w.shape, dtype=bool))
    with pytest.raises(ValueError):
        repair_to_frontier(empty, EdgeField(w, 0), np.zeros(w.shape, np.int64),
                           capacity_units=1)
    w2 = LatticeWindow(d=2, L=8, margin=2)
    empty2 = IndicatorField(window=w2, chi_a=np.zeros(w2.shape, dtype=bool),
                            chi_b=np.zeros(w2.shape, dtype=bool))
    with pytest.raises(ValueError):
        repair_to_frontier(empty2, EdgeField(w2, 0),
                           np.zeros(w2.shape, np.int64), capacity_units=0)


def test_frontier_tables_built_once_per_run():
    """Repair and rounding read one cached core edge mask and rim table;
    the router builds its CSR tables per solve and keeps none."""
    from equidecomp.integralize import _core_edge_mask, _rim_frontier_slots
    _core_edge_mask.cache_clear()
    _rim_frontier_slots.cache_clear()
    res = run_pipeline(*toy_setup())
    assert res.report["ok"]
    assert _core_edge_mask.cache_info().misses == 1
    assert _rim_frontier_slots.cache_info().misses == 1


def test_pipeline_summary_is_complete_and_deterministic():
    window, action, a, b, n0 = toy_setup()
    res = run_pipeline(window, action, a, b, n0)
    for key in ("field", "envelope", "truncation", "repair", "integralize",
                "flow_bound", "tiles", "matching", "pieces", "verify"):
        assert key in res.summary, key
    assert res.summary["field"]["count_a"] > 0
    assert res.summary["truncation"]["max_core_residual"] >= 0
    assert res.report["checks"]["gamma_bound"]["max_norm"] \
        < res.report["checks"]["gamma_bound"]["bound"]
    assert res.report["ok"], res.report["checks"]

    res2 = run_pipeline(window, action, a, b, n0)
    dump = lambda r: json.dumps(r.summary, sort_keys=True, default=_json_default)
    assert dump(res) == dump(res2)
    assert np.array_equal(res.psi_int.values, res2.psi_int.values)


def test_pipeline_fixed_k_and_voronoi():
    window, action, a, b, n0 = toy_setup()
    res_k = run_pipeline(window, action, a, b, n0, K=3)
    assert res_k.summary["tiles"]["source"] == "fixed"
    assert res_k.summary["tiles"]["K"] == 3
    assert res_k.report["ok"]

    res_v = run_pipeline(window, action, a, b, n0, tiling_kind="voronoi",
                         voronoi_r=3)
    assert res_v.summary["tiles"]["kind"] == "voronoi"
    assert res_v.tiling.K == 3
    assert res_v.report["ok"], res_v.report["checks"]


def test_pipeline_sample_stage_failure():
    window, action, a, _, n0 = toy_setup()
    lopsided = parse_shape("intervals:0:1/2")
    with pytest.raises(PipelineError) as exc:
        run_pipeline(window, action, a, lopsided, n0)
    assert exc.value.stage == "sample"
    assert "lambda(A)" in str(exc.value)


def test_flagship_builds_each_scanned_tiling_once(monkeypatch):
    """select_K reports the paper's scale in closed form and builds no
    tiling; only the empirical scan does, once per K it scans, and the
    summary lists each scanned K with its count of infeasible tiles."""
    built = []
    in_select_k = []
    real_tiling, real_select = equidecompose.rect_tiling, pipeline.select_K

    def tiling(window, K):
        built.append(K)
        return real_tiling(window, K)

    def select(*args, **kwargs):
        before = len(built)
        try:
            return real_select(*args, **kwargs)
        finally:
            in_select_k.append(len(built) - before)

    monkeypatch.setattr(equidecompose, "rect_tiling", tiling)
    monkeypatch.setattr(pipeline, "select_K", select)
    cfg = build_config({})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    tiles = res.summary["tiles"]
    assert tiles["source"] == "empirical" and tiles["K"] == 7
    assert in_select_k == [0]
    assert built == list(range(1, 8))
    # K = 6 leaves a remainder strip on the core side 16; K = 7 is clean
    scan = tiles["scan"]
    assert [row["K"] for row in scan] == built
    assert [row["infeasible"] for row in scan][5:] == [None, 0]
    assert all(row["infeasible"] > 0 for row in scan[:5])
    assert tiles["clean"] and "infeasible" not in tiles
    # the paper's scale: 41 * (27 K^3 - (3K - 2)^3) <= K^3 from K = 2214
    assert res.summary["flow_bound"]["c_int"] == 41
    assert tiles["criterion_K"] == 2214


@pytest.mark.demo
def test_automatic_k_where_the_criterion_is_reachable():
    """d=2, L=640, margin=20, A = B = the whole torus (f = 0, c_int = 12):
    the core side 600 reaches 4 * criterion_K = 576, so the paper's
    boundary criterion holds on the K = 149 rect tiling, the least proper
    one from K = 144 on.  The automatic rule scans from K = 1, where every
    tile is clean, and its piece map is that of the K = 149 run."""
    cfg = build_config({"d": "2", "L": "640", "margin": "20", "n0": "3",
                        "shape_a": "intervals:0:1",
                        "shape_b": "intervals:0:1"})
    args = (cfg.window(), cfg.action(), *cfg.shapes())
    auto = run_pipeline(*args, n0=cfg.n0)
    tiles = auto.summary["tiles"]
    assert tiles["source"] == "empirical" and tiles["K"] == 1
    assert tiles["clean"]
    assert auto.summary["flow_bound"]["c_int"] == 12
    assert tiles["criterion_K"] == 144 <= 600 // 4
    fixed = run_pipeline(*args, n0=cfg.n0, K=149)
    for res in (auto, fixed):
        assert res.report["ok"]
    assert np.array_equal(auto.pieces.a_flat, fixed.pieces.a_flat)
    assert np.array_equal(auto.pieces.gamma, fixed.pieces.gamma)


def test_flagship_reuses_the_scanned_tile_flow(monkeypatch):
    """The empirical K scan returns the tiling and tile flow it accepted,
    so run_pipeline aggregates no tile flow of its own."""
    calls = []

    def tile_flow(*args, **kwargs):
        calls.append(1)
        return equidecompose.tile_flow(*args, **kwargs)

    monkeypatch.setattr(pipeline, "tile_flow", tile_flow)
    cfg = build_config({})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    assert res.summary["tiles"]["source"] == "empirical"
    assert not calls
    assert res.tileflow.tiling is res.tiling
    assert res.report["ok"]

"""Acceptance gate: eleven numbered criteria, one labelled line each.

Every test prints ``PASS/FAIL <nn> <name> <detail> [elapsed/budget]`` and then
asserts both the property and its time budget, so a ``pytest -v`` run reads as
the acceptance checklist.  Criterion 10 is demo-tier: it is marked ``demo``
and excluded from fast CI with ``-m "not demo"``.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from equidecomp import pipeline
from equidecomp.cli import EXIT_OK, main
from equidecomp.config import build_config
from equidecomp.flowgrid import (certify_box_envelope, phi_envelope,
                                 residual_num, truncated_psi, truncation_mask)
from equidecomp.cover import (Region, boundary_disjoint_cover, boundary_n,
                              build_boundary_cycle_graph, euler_cycle,
                              fill_holes)
from equidecomp.integralize import integralize_flow
from equidecomp.lattice import LatticeWindow, directions, edge_mask, \
    fit_discrepancy_envelope
from equidecomp.pipeline import run_pipeline
from oracle.dyadic import Dyadic
from oracle.finiteflow import (FiniteGraph, FlowValues, capacity_fn,
                               f_flow_feasible, round_flow)
from oracle.paperflow import Chain, check_error_identity, level_sum

from test_finiteflow import (balanced_f, cut_feasible, random_caps,
                             random_graph, random_dyadic_flow)
from test_flowgrid import random_field
from test_integralize import (assert_matches_shared_vertex_build,
                              random_dyadic_field)


def _line(num, name, ok, detail, elapsed, budget):
    in_time = elapsed <= budget
    status = "PASS" if ok and in_time else "FAIL"
    print("%s %2d %-22s %s [%.1fs/%ds]"
          % (status, num, name, detail, elapsed, budget))
    assert ok, "%s: %s" % (name, detail)
    assert in_time, "%s exceeded %ds budget (%.1fs)" % (name, budget, elapsed)


# -- 1 ----------------------------------------------------------------------

def test_01_error_identity():
    """f(y) - sum_gamma psi_chain equals the box average, exactly, on 500
    random (field, chain, y) draws in d=2, n <= 3, 16^2 windows."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    fld = None
    while checked < 500:
        if checked % 20 == 0:
            fld = random_field(2, 16, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 4))
        side = 1 << n
        chain = Chain(n, tuple(int(rng.integers(side)) for _ in range(2)))
        y = tuple(int(rng.integers(side - 1, 16 - side + 1)) for _ in range(2))
        try:
            lhs, rhs = check_error_identity(fld, chain, y)
        except ValueError:
            continue
        assert lhs == rhs, (chain, y)
        checked += 1
    _line(1, "error-identity", checked == 500,
          "%d instances, exact dyadic equality" % checked,
          time.perf_counter() - t0, 10)


# -- 2 ----------------------------------------------------------------------

def test_02_base_point_invariance():
    """level_sum is independent of the phase-enumeration base, bit for bit."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    edges = 0
    for d in (1, 2, 3):
        fld = random_field(d, 16, seed=200 + d)
        dirs = directions(d)
        for n in (1, 2, 3):
            # every box phase around both endpoints must stay in the window,
            # which pins coordinates to [side-1, 16-side]
            side = 1 << n
            done = 0
            while done < 2:
                y = tuple(int(rng.integers(side - 1, 17 - side))
                          for _ in range(d))
                g = tuple(int(v) for v in dirs[int(rng.integers(len(dirs)))])
                z = tuple(c + gg for c, gg in zip(y, g))
                if not all(side - 1 <= c <= 16 - side for c in z):
                    continue
                try:
                    ref = level_sum(fld, y, g, n)
                except ValueError:
                    continue
                for _ in range(10):
                    base = tuple(int(rng.integers(side)) for _ in range(d))
                    got = level_sum(fld, y, g, n, base=base)
                    assert (got.num, got.exp) == (ref.num, ref.exp)
                done += 1
                edges += 1
    _line(2, "base-point-invariance", edges == 18,
          "%d edges x 10 shifts, d<=3, n<=3, bit-exact" % edges,
          time.perf_counter() - t0, 10)


# -- 3 ----------------------------------------------------------------------

def _fully_valid_vertices(psi, n0):
    """Vertices all of whose incident edge slots are computed (valid)."""
    w = psi.window
    L = w.L
    valid = truncation_mask(psi.crop, n0)
    full = np.ones(w.shape, dtype=bool)
    for i, g in enumerate(directions(w.d)):
        V = valid[i].reshape(w.shape)
        src = tuple(slice(max(0, -int(c)), L - max(0, int(c))) for c in g)
        dst = tuple(slice(max(0, int(c)), L - max(0, -int(c))) for c in g)
        outgoing = np.zeros(w.shape, dtype=bool)
        outgoing[src] = V[src]
        incoming = np.zeros(w.shape, dtype=bool)
        incoming[dst] = V[src]
        full &= outgoing & incoming
    return full


def test_03_truncation_envelope():
    """|f - div psi_<=n0| <= Phi(2^n0)/2^(n0 d) at every fully valid vertex,
    compared exactly as dyadic rationals, on 50 certified random fields."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = Fraction(0)
    for trial in range(50):
        fld = random_field(2, 16, seed=int(rng.integers(1 << 30)))
        n0 = 1 + trial % 2
        env = certify_box_envelope(fld)
        psi = truncated_psi(fld, n0)
        res = residual_num(fld, psi)
        full = _fully_valid_vertices(psi, n0)
        assert full.any()
        got = Fraction(int(np.abs(res[full]).max()), 1 << psi.scale_exp)
        bound = Fraction(phi_envelope(n0, env.m_const, env.eps, env.d)) \
            / (1 << (n0 * env.d))
        assert got <= bound, (trial, float(got), float(bound))
        worst = max(worst, got / bound)
    _line(3, "truncation-envelope", True,
          "50 fields, worst residual at %.3f of the bound" % float(worst),
          time.perf_counter() - t0, 30)


# -- 4 ----------------------------------------------------------------------

def test_04_flow_oracle_equivalence():
    """f_flow_feasible agrees with exhaustive cut enumeration on 10^4 sampled
    (graph, f, cap) triples over all graphs with <= 5 vertices; flows have
    exact divergence and certificates re-verify."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    feasible = infeasible = 0
    for i in range(10_000):
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
            assert want
            feasible += 1
            c = capacity_fn(caps)
            for x in range(n):
                assert got.divergence(x) == f[x]
                for y in g.adj[x]:
                    assert got.value(x, y) <= c(x, y)
            assert got.is_integral()
        else:
            assert not want
            infeasible += 1
            assert got.verify(g, f, caps)
    _line(4, "flow-oracle-equivalence",
          feasible > 500 and infeasible > 500,
          "10000 cases (%d feasible / %d infeasible)" % (feasible, infeasible),
          time.perf_counter() - t0, 60)


# -- 5 ----------------------------------------------------------------------

def test_05_rounding_corollary():
    """round_flow: |phi - psi| < 1 per edge, divergence preserved, integral
    edges untouched, over 500 fuzz instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    g = FiniteGraph(5, list(itertools.combinations(range(5), 2)))
    tris = list(itertools.combinations(range(5), 3))
    fractional = 0
    for _ in range(500):
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
            assert Dyadic(-1) < dev < Dyadic(1)
            pv = phi.value(u, v)
            if isinstance(pv, int) or pv.is_integer:
                assert out.value(u, v) == pv
            else:
                fractional += 1
    _line(5, "rounding-corollary", fractional > 500,
          "500 instances, %d fractional edges exercised" % fractional,
          time.perf_counter() - t0, 30)


# -- 6 ----------------------------------------------------------------------

def _random_blob(rng, window, lo, hi, target):
    """Connected random region grown by frontier accretion inside [lo,hi)^d."""
    d = window.d
    start = tuple(int(rng.integers(lo, hi)) for _ in range(d))
    cells = {start}
    frontier = [start]
    while len(cells) < target and frontier:
        idx = int(rng.integers(len(frontier)))
        base = frontier[idx]
        nbrs = []
        for ax in range(d):
            for step in (-1, 1):
                nb = list(base)
                nb[ax] += step
                nb = tuple(nb)
                if lo <= nb[ax] < hi and nb not in cells:
                    nbrs.append(nb)
        if not nbrs:
            frontier.pop(idx)
            continue
        pick = nbrs[int(rng.integers(len(nbrs)))]
        cells.add(pick)
        frontier.append(pick)
    return Region.from_vertices(window, cells)


def _check_euler(F):
    assert_matches_shared_vertex_build(F)
    H = build_boundary_cycle_graph(F)
    assert all(len(a) % 2 == 0 for a in H.adj)
    seen = {0}
    stack = [0]
    while stack:
        for j in H.adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert len(seen) == H.n
    walk = euler_cycle(H)
    assert walk[0] == walk[-1]
    used = Counter(frozenset(p) for p in zip(walk, walk[1:]))
    want = Counter(frozenset((i, j))
                   for i in range(H.n) for j in H.adj[i] if i < j)
    assert used == want


def test_06_euler_walks():
    """200 random connected hole-filled regions in d=2 and d=3 (< 200
    vertices): the boundary 3-cycle graph has even degrees, is connected,
    and the walk covers each adjacency exactly once."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    done = 0
    for d, L in ((2, 24), (3, 14)):
        w = LatticeWindow(d=d, L=L)
        count = 0
        while count < 100:
            target = int(rng.integers(3, 170))
            F = fill_holes(_random_blob(rng, w, 2, L - 2, target))
            if F.size > 200:
                continue
            _check_euler(F)
            count += 1
            done += 1
    _line(6, "euler-walks", done == 200,
          "100 regions each in d=2 and d=3", time.perf_counter() - t0, 60)


# -- 7 ----------------------------------------------------------------------

def test_07_integralization_bound():
    """Both integralization modes on 20 fuzz fields over 128^2: outputs are
    integral with the prescribed core divergence; per-edge deviation is < 1
    in direct mode and <= 3^d in cover mode."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    w = LatticeWindow(d=2, L=128, margin=4)
    core = w.core_mask().ravel()
    core_edges = edge_mask(w, w.core_mask(), np.logical_and)
    s = 4
    worst_direct = worst_cover = 0.0
    for _ in range(20):
        fld = random_dyadic_field(rng, w, s, pushes=400)
        f = fld.divergence_num() >> s
        for mode, cap in (("direct", None), ("cover", 3 ** 2)):
            out, info = integralize_flow(fld, f, mode=mode)
            assert out.scale_exp == 0
            assert np.array_equal(out.divergence_num().ravel()[core],
                                  f.ravel()[core])
            dev_num = np.abs((out.values.astype(np.int64) << s)
                             - fld.values)[core_edges].max()
            dev = dev_num / float(1 << s)
            if mode == "direct":
                assert dev_num < (1 << s)
                worst_direct = max(worst_direct, dev)
            else:
                assert dev_num <= cap << s
                worst_cover = max(worst_cover, dev)
    _line(7, "integralization-bound", True,
          "20 fields; worst dev direct %.4f (<1), cover %.4f (<=9)"
          % (worst_direct, worst_cover), time.perf_counter() - t0, 120)


# -- 8 ----------------------------------------------------------------------

def test_08_cover_hierarchy():
    """boundary_disjoint_cover(n=3, i_max=1) on a 512^2 window: pairwise
    disjoint 3-boundaries, connected hole-free regions, diameters within the
    level radii.  Core coverage is reported; below the 95% empirical
    threshold it stays report-only."""
    t0 = time.perf_counter()
    w = LatticeWindow(d=2, L=512, margin=8)
    cov = boundary_disjoint_cover(w, 3, 1)
    assert len(cov.regions) >= 2 and set(cov.levels) == {0, 1}
    b3 = [boundary_n(F, 3) for F in cov.regions]
    for i in range(len(b3)):
        for j in range(i):
            assert not (b3[i] & b3[j]).any(), (i, j)
    for F, lvl in zip(cov.regions, cov.levels):
        assert F.is_connected()
        assert fill_holes(F).size == F.size
        assert F.diameter() <= cov.radii[lvl]
    note = "" if cov.coverage >= 0.95 else " (below 95%, report-only)"
    _line(8, "cover-hierarchy", True,
          "%d regions, radii %s, coverage %.1f%%%s"
          % (len(cov.regions), list(cov.radii), 100 * cov.coverage, note),
          time.perf_counter() - t0, 120)


# -- 9 ----------------------------------------------------------------------

def test_09_flagship_end_to_end(tmp_path, capsys):
    """Interval swap on the 3-torus lattice (the default config): the full
    pipeline completes, every piece-map invariant passes, translations stay
    under 2K+4, unmatched points sit only in frontier-adjacent tiles, and
    two runs are byte-identical."""
    t0 = time.perf_counter()
    cfg = build_config({})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    rep = res.report
    bad = [k for k, v in rep["checks"].items() if not v["ok"]]
    assert rep["ok"] and not bad, bad
    assert len(res.pieces.a_flat) > 0
    k_eff = res.summary["tiles"]["K_eff"]
    assert np.abs(res.pieces.gamma).max(initial=0) < 2 * k_eff + 4
    # the paper's tile scale, against a core side of 16
    assert res.summary["tiles"]["criterion_K"] == 2214

    tf = res.tileflow
    unused = ~res.pieces.used
    tid = res.tiling.tile_id.ravel()
    stray = 0
    for flat in np.concatenate([res.pieces.unmatched_a,
                                res.pieces.unmatched_b]):
        t = int(tid[int(flat)])
        if t >= 0 and not (unused[t] or not tf.interior[t]
                           or unused[tf.pair_dst[tf.pair_src == t]].any()):
            stray += 1
    assert stray == 0

    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["square", "--set", "out=%s" % out1]) == EXIT_OK
    assert main(["square", "--set", "out=%s" % out2]) == EXIT_OK
    assert main(["verify", "--dir", out1]) == EXIT_OK
    capsys.readouterr()
    p1 = (tmp_path / "r1" / "pieces.csv").read_bytes()
    assert p1 == (tmp_path / "r2" / "pieces.csv").read_bytes()
    import json
    s1 = json.loads((tmp_path / "r1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "r2" / "summary.json").read_text())
    assert s1["config"].pop("out") != s2["config"].pop("out")
    assert s1 == s2
    with capsys.disabled():
        _line(9, "flagship-end-to-end", True,
              "%d matched, %d pieces, max|gamma| %d < %d, deterministic"
              % (len(res.pieces.a_flat), res.pieces.n_pieces,
                 int(np.abs(res.pieces.gamma).max(initial=0)), 2 * k_eff + 4),
              time.perf_counter() - t0, 300)


# -- 10 ---------------------------------------------------------------------

@pytest.mark.demo
def test_10_circle_squaring_demo(tmp_path, capsys):
    """Disk-to-square of area 1/8 on the 2-torus with a rank-5 action over a
    10^5 window: pipeline completes, raster and report are emitted, and every
    piece-map invariant holds on the matched region."""
    t0 = time.perf_counter()
    out = str(tmp_path / "demo")
    sets = ["out=%s" % out, "k=2", "delta=1", "L=10", "margin=2", "n0=1",
            "raster=64",
            "shape_a=disk:1/4:1/4:44280/221987",
            "shape_b=rect:1/20:1/20:235416/665857:235416/665857"]
    assert main(["square"] + sum((["--set", kv] for kv in sets), [])) \
        == EXIT_OK
    assert main(["verify", "--dir", out]
                + sum((["--set", kv] for kv in sets), [])) == EXIT_OK
    capsys.readouterr()
    import json
    import os
    for name in ("pieces.csv", "summary.json", "pieces_a.ppm",
                 "pieces_b.ppm"):
        assert os.path.exists(os.path.join(out, name)), name
    s = json.loads((tmp_path / "demo" / "summary.json").read_text())
    assert all(c["ok"] for c in s["verify"]["checks"].values())
    assert s["pieces"]["matched"] > 0
    # the paper's tile scale at c_int = 246, against a core side of 6
    assert s["tiles"]["criterion_K"] == 199259
    with capsys.disabled():
        _line(10, "circle-squaring-demo", True,
              "d=5, L=10: %d matched in %d pieces, raster emitted"
              % (s["pieces"]["matched"], s["pieces"]["count"]),
              time.perf_counter() - t0, 1800)


@pytest.mark.demo
def test_10_demo_edge_fields_live_on_the_crop(monkeypatch):
    """On the demo window (d=5, L=10, margin=2) the truncated flow, the
    repaired flow and the integral flow each store the 121 directions
    over the 8^5 vertices of the core box plus one ring, not over the
    window's 10^5.  The truncated flow's bound (2^6 at n0=1) makes it
    int8, one byte per slot; the repaired flow's, that bound plus the
    repair capacity, makes it int16."""
    seen = []

    def truncated(*args, **kwargs):
        seen.append(truncated_psi(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pipeline, "truncated_psi", truncated)
    cfg = build_config({
        "k": "2", "delta": "1", "L": "10", "margin": "2", "n0": "1",
        "shape_a": "disk:1/4:1/4:44280/221987",
        "shape_b": "rect:1/20:1/20:235416/665857:235416/665857"})
    res = run_pipeline(cfg.window(), cfg.action(), *cfg.shapes(), n0=cfg.n0)
    assert res.report["ok"]
    for field in (seen[0], res.phi, res.psi_int):
        assert field.values.shape == (121, 8 ** 5)
        assert field.crop.full == cfg.window()
    assert seen[0].values.nbytes == 121 * 8 ** 5
    assert res.phi.values.dtype == np.int16


# -- 11 ---------------------------------------------------------------------

def test_11_discrepancy_decay():
    """Flagship action: log-log slope of max discrepancy over N in
    {2,4,...,64} is <= -0.9 for both shapes; raw table printed."""
    t0 = time.perf_counter()
    cfg = build_config({})
    act = cfg.action()
    shape_a, shape_b = cfg.shapes()
    rng = np.random.default_rng(111)
    xs = [act.x0] + [rng.random(act.k) for _ in range(4)]
    ns = [2, 4, 8, 16, 32, 64]
    fit_a = fit_discrepancy_envelope(act, shape_a, ns, xs)
    fit_b = fit_discrepancy_envelope(act, shape_b, ns, xs)
    print("   n        max_d_a                max_d_b")
    for (n, da), (_, db) in zip(fit_a.table, fit_b.table):
        print("%4d  %20.12g  %20.12g" % (n, da, db))
    ok = fit_a.slope <= -0.9 and fit_b.slope <= -0.9 \
        and not fit_a.flags and not fit_b.flags
    _line(11, "discrepancy-decay", ok,
          "slopes %.3f / %.3f <= -0.9 over N=2..64"
          % (fit_a.slope, fit_b.slope), time.perf_counter() - t0, 60)

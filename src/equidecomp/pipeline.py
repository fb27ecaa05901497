"""End-to-end construction: sampled field -> truncated flow -> frontier
repair -> integralization -> tiles -> matching -> pieces -> verification.

Each stage's numbers land in a JSON-friendly summary; any hard failure
raises PipelineError naming the stage (and carrying an infeasibility
certificate when one exists).  All stages are deterministic, so two runs
of the same configuration produce byte-identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._maxflow import solve_supply_flow
from .equidecompose import (KSelectionError, Matching, PieceMap, TileFlow,
                            build_matching, extract_pieces, select_K,
                            select_K_empirical, tile_flow,
                            verify_equidecomposition)
from .flowgrid import (BoxEnvelope, EdgeField, certify_box_envelope,
                       integral_flow_bound, residual_num, tail_bound,
                       truncated_psi, truncation_error_bound)
from .integralize import (_core_edge_masks, _rim_frontier_slots,
                          integralize_flow, spill_to_frontier)
from .lattice import (ActionSpec, IndicatorField, LatticeWindow, flat_shifts,
                      sample_field)
from .shapes import Shape
from .tiling import Net, Tiling, greedy_net, rect_tiling, voronoi_tiling


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str,
                 certificate: Optional[dict] = None):
        super().__init__("%s: %s" % (stage, message))
        self.stage = stage
        self.certificate = certificate or {}


def repair_to_frontier(field: IndicatorField, psi: EdgeField,
                       residual: np.ndarray, capacity_units: int,
                       max_doublings: int = 32) -> Tuple[EdgeField, dict]:
    """Correct the truncated flow so its divergence equals f exactly on
    every core vertex, pushing the leftover error out to the frontier ring.

    residual is residual_num(field, psi), which the caller has already
    computed; the repaired flow's own residual is recomputed from field
    and checked.  The correction is a supply flow: the per-vertex residual
    is routed over core-core edges of capacity capacity_units (in flow
    units; the tail bound rounded up plus one) into a merged frontier node
    reachable from each rim vertex through its actual frontier edges.  When
    the tail estimate is too tight — small margins legitimately exceed it —
    the capacity doubles and the solve repeats.  spill_to_frontier then
    hands each rim vertex's flow to the merged node back to its frontier
    edges, each taking up to the per-edge capacity in slot order.
    """
    window = psi.window
    if window.margin < 1:
        raise ValueError("repair needs a frontier ring (margin >= 1)")
    if capacity_units < 1:
        raise ValueError("capacity must be at least one unit")
    s = psi.scale_exp
    nvert = window.n_vertices
    core_flat = window.core_mask().ravel()
    r = np.where(core_flat, residual.ravel(), 0)
    total = int(r.sum())
    supply_abs = int(np.abs(r).sum())

    di, ui = np.nonzero(_core_edge_masks(window))
    flat_shift = flat_shifts(window)
    rim, fslots = _rim_frontier_slots(window)
    k_cnt = fslots.sum(axis=0, dtype=np.int64)
    # vertex nvert merges the frontier: each rim vertex reaches it through
    # all of its frontier edges at once
    eu = np.concatenate([ui, rim])
    ev = np.concatenate([ui + flat_shift[di], np.full(len(rim), nvert)])
    supply = np.append(r, -total)

    doublings = 0
    while True:
        cap = (capacity_units << doublings) << s
        caps = np.concatenate([np.full(len(ui), cap, dtype=np.int64),
                               k_cnt * cap])
        ok, net = solve_supply_flow(eu, ev, caps, caps, supply)
        if ok:
            break
        doublings += 1
        if doublings > max_doublings:
            raise PipelineError(
                "repair", "residual routing infeasible at capacity %d"
                % (capacity_units << (doublings - 1)),
                certificate={"supply_abs": supply_abs,
                             "capacity_units": capacity_units,
                             "doublings": doublings - 1})

    # phi = psi + correction; every corrected edge is corrected once, by
    # its core-core net flow or by one frontier take
    h = psi.values.copy()
    m_cc = len(ui)
    h[di, ui] += net[:m_cc]
    max_correction = max(
        int(np.abs(net[:m_cc]).max(initial=0)),
        spill_to_frontier(h, window, rim, fslots, net[m_cc:], cap))

    phi = EdgeField(window, s, h, np.ones_like(psi.valid))
    res = residual_num(field, phi).ravel()
    if res[core_flat].any():
        raise AssertionError("repair left a core residual")
    info = {
        "capacity_units": int(capacity_units),
        "doublings": int(doublings),
        "supply_abs_num": supply_abs,
        "supply_abs": supply_abs / float(1 << s),
        "max_correction": float(max_correction) / (1 << s),
        "edges": int(m_cc),
    }
    return phi, info


@dataclass
class FlowResult:
    field: IndicatorField
    envelope: BoxEnvelope
    phi: EdgeField                 # exact f-flow on the core (dyadic)
    summary: dict                  # field, envelope, truncation, repair


@dataclass
class PipelineResult:
    field: IndicatorField
    envelope: BoxEnvelope
    phi: EdgeField                 # exact f-flow on the core (dyadic)
    psi_int: EdgeField             # integral f-flow (scale 0)
    tiling: Tiling
    tileflow: TileFlow
    matching: Matching
    pieces: PieceMap
    report: dict
    summary: dict
    net: Optional[Net] = None      # only for tiling=voronoi


def build_flow(window: LatticeWindow, action: ActionSpec,
               shape_a: Shape, shape_b: Shape, n0: int,
               eps: Optional[float] = None,
               x0: Optional[np.ndarray] = None) -> FlowResult:
    """Sample the field, certify its envelope, build the level-n0 truncated
    flow and repair it to an exact f-flow on the core."""
    summary: Dict[str, object] = {}

    try:
        fld = sample_field(window, action, shape_a, shape_b, x=x0)
    except ValueError as exc:
        raise PipelineError("sample", str(exc))
    summary["field"] = {
        "count_a": fld.count_a,
        "count_b": fld.count_b,
        "f_sum": int(fld.f.sum()),
        "d": window.d, "L": window.L, "margin": window.margin,
    }

    env = certify_box_envelope(fld, eps=eps)
    tail = tail_bound(n0, env.m_const, env.eps, env.d)
    summary["envelope"] = {
        "m_const": env.m_const, "eps": env.eps, "c": env.c,
        "table": [list(row) for row in env.table],
        "tail": tail,
        "trunc_bound": truncation_error_bound(env, n0),
    }

    psi_t = truncated_psi(fld, n0)
    res = residual_num(fld, psi_t)
    core = window.core_mask()
    summary["truncation"] = {
        "n0": n0,
        "scale_exp": psi_t.scale_exp,
        "max_core_residual": float(int(np.abs(res[core]).max(initial=0)))
        / (1 << psi_t.scale_exp),
        "max_edge": psi_t.max_abs(),
    }

    capacity_units = int(math.ceil(tail)) + 1
    phi, summary["repair"] = repair_to_frontier(fld, psi_t, res,
                                                capacity_units)
    return FlowResult(field=fld, envelope=env, phi=phi, summary=summary)


def run_pipeline(window: LatticeWindow, action: ActionSpec,
                 shape_a: Shape, shape_b: Shape, n0: int,
                 mode: str = "direct", cover_i_max: Optional[int] = None,
                 tiling_kind: str = "rect", K: int = 0, voronoi_r: int = 3,
                 eps: Optional[float] = None,
                 x0: Optional[np.ndarray] = None) -> PipelineResult:
    """Run every stage on one window; see the module docstring."""
    flow = build_flow(window, action, shape_a, shape_b, n0, eps=eps, x0=x0)
    fld, env, phi, summary = flow.field, flow.envelope, flow.phi, flow.summary

    psi_int, int_info = integralize_flow(window, phi, fld.f, mode=mode,
                                         cover_i_max=cover_i_max)
    summary["integralize"] = int_info

    rep_info = summary["repair"]
    repair_allowance = rep_info["capacity_units"] << rep_info["doublings"]
    c_int = integral_flow_bound(env, repair_allowance)
    summary["flow_bound"] = {"c_int": c_int,
                             "repair_allowance": repair_allowance}

    net = None
    tf = None
    if tiling_kind == "voronoi":
        net = greedy_net(window, voronoi_r, restrict=window.core_mask())
        til = voronoi_tiling(window, net)
        k_sel, k_info = til.K, {"source": "voronoi_net", "r": voronoi_r}
    elif K:
        til = rect_tiling(window, K)
        k_sel, k_info = K, {"source": "fixed"}
    else:
        try:
            k_sel = select_K(window, fld, c_int)
        except KSelectionError as exc:
            try:
                k_sel, til, tf, diag = select_K_empirical(window, psi_int,
                                                          fld)
            except KSelectionError as exc2:
                raise PipelineError("tiles", str(exc2))
            k_info = {"source": "empirical", "clean": diag["clean"],
                      "infeasible": diag["infeasible"],
                      "criterion_fail": str(exc)}
        else:
            til = rect_tiling(window, k_sel)
            k_info = {"source": "boundary_criterion"}
    k_eff = max(k_sel, int(til.sides.max()) - 1)
    summary["tiles"] = {
        "K": int(k_sel), "K_eff": int(k_eff), "count": len(til.tiles),
        "improper": til.improper, "kind": tiling_kind, **k_info,
    }

    if tf is None:              # the empirical scan has aggregated its own
        tf = tile_flow(psi_int, til, fld)
    matching = build_matching(tf, fld)
    summary["matching"] = dict(matching.info)
    summary["matching"]["interior_tiles"] = int(tf.interior.sum())
    summary["matching"]["strict_bound_tiles"] = int(tf.strict_bound_ok.sum())

    pieces = extract_pieces(matching, k_eff)
    report = verify_equidecomposition(pieces, fld)
    summary["pieces"] = {
        "count": pieces.n_pieces,
        "matched": int(len(pieces.a_flat)),
        "unmatched_a": int(len(pieces.unmatched_a)),
        "unmatched_b": int(len(pieces.unmatched_b)),
        "bound": pieces.bound,
        "max_norm": int(np.abs(pieces.gamma).max(initial=0)),
    }
    summary["verify"] = report

    return PipelineResult(field=fld, envelope=env, phi=phi, psi_int=psi_int,
                          tiling=til, tileflow=tf, matching=matching,
                          pieces=pieces, report=report, summary=summary,
                          net=net)

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
from typing import Dict, Optional

import numpy as np

from .config import PipelineError
from .equidecompose import (Matching, PieceMap, TileFlow, build_matching,
                            extract_pieces, select_K, select_K_empirical,
                            tile_flow, verify_equidecomposition)
from .flowgrid import (BoxEnvelope, EdgeField, certify_box_envelope,
                       integral_flow_bound, residual_num, tail_bound,
                       truncated_psi, truncation_error_bound)
from .integralize import integralize_flow, repair_to_frontier
from .lattice import ActionSpec, IndicatorField, LatticeWindow, sample_field
from .shapes import Shape
from .tiling import Tiling, greedy_net, rect_tiling, voronoi_tiling


@dataclass
class FlowResult:
    field: IndicatorField
    envelope: BoxEnvelope
    phi: EdgeField                 # exact f-flow on the core (dyadic), on
                                   # lattice.edge_crop(window)
    summary: dict                  # field, envelope, truncation, repair


@dataclass
class PipelineResult:
    field: IndicatorField
    envelope: BoxEnvelope
    phi: EdgeField                 # exact f-flow on the core (dyadic)
    psi_int: EdgeField             # integral f-flow (scale 0), on phi's crop
    tiling: Tiling
    tileflow: TileFlow
    matching: Matching
    pieces: PieceMap
    report: dict
    summary: dict


def build_flow(window: LatticeWindow, action: ActionSpec,
               shape_a: Shape, shape_b: Shape, n0: int,
               eps: Optional[float] = None) -> FlowResult:
    """Sample the field at action.x0, certify its envelope, build the
    level-n0 truncated flow and repair it to an exact f-flow on the core.
    Both flows live on lattice.edge_crop(window), and the repair takes over
    the truncated flow's array."""
    summary: Dict[str, object] = {}

    try:
        fld = sample_field(window, action, shape_a, shape_b)
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
    summary["truncation"] = {
        "n0": n0,
        "scale_exp": psi_t.scale_exp,
        "max_core_residual": float(int(np.abs(res).max(initial=0)))
        / (1 << psi_t.scale_exp),
        "max_edge": psi_t.max_abs(),
    }

    capacity_units = int(math.ceil(tail)) + 1
    phi, summary["repair"] = repair_to_frontier(fld, psi_t, res,
                                                capacity_units)
    return FlowResult(field=fld, envelope=env, phi=phi, summary=summary)


def run_pipeline(window: LatticeWindow, action: ActionSpec,
                 shape_a: Shape, shape_b: Shape, n0: int,
                 mode: str = "direct", tiling_kind: str = "rect", K: int = 0,
                 voronoi_r: int = 3, eps: Optional[float] = None
                 ) -> PipelineResult:
    """Run every stage on one window; see the module docstring."""
    flow = build_flow(window, action, shape_a, shape_b, n0, eps=eps)
    fld, env, phi, summary = flow.field, flow.envelope, flow.phi, flow.summary

    psi_int, int_info = integralize_flow(phi, fld.f, mode=mode)
    summary["integralize"] = int_info

    rep_info = summary["repair"]
    repair_allowance = rep_info["capacity_units"] << rep_info["doublings"]
    c_int = integral_flow_bound(env, repair_allowance)
    summary["flow_bound"] = {"c_int": c_int,
                             "repair_allowance": repair_allowance}

    tf = None
    if tiling_kind == "voronoi":
        til = voronoi_tiling(window, greedy_net(window, voronoi_r,
                                                restrict=window.core_mask()))
        k_info = {"source": "voronoi_net", "r": voronoi_r}
    elif K:
        til = rect_tiling(window, K)
        k_info = {"source": "fixed"}
    else:
        tf, diag = select_K_empirical(psi_int, fld)
        til = tf.tiling
        k_info = {"source": "empirical", "clean": diag["clean"],
                  "scan": [{"K": k, "infeasible": bad}
                           for k, bad in diag["scanned"].items()]}
    summary["tiles"] = {
        "K": int(til.K), "K_eff": til.K_eff, "count": len(til.tiles),
        "improper": til.improper, "kind": tiling_kind, **k_info,
        "criterion_K": select_K(window.d, c_int),
    }

    if tf is None:              # the empirical scan has aggregated its own
        tf = tile_flow(psi_int, til, fld)
    matching = build_matching(tf, fld)
    summary["matching"] = dict(matching.info)
    summary["matching"]["interior_tiles"] = int(tf.interior.sum())
    summary["matching"]["strict_bound_tiles"] = int(tf.strict_bound_ok.sum())

    pieces = extract_pieces(matching)
    report = verify_equidecomposition(pieces, fld)
    summary["pieces"] = {
        "count": pieces.n_pieces,
        "matched": len(pieces.a_flat),
        "unmatched_a": len(pieces.unmatched_a),
        "unmatched_b": len(pieces.unmatched_b),
    }
    summary["verify"] = report

    return PipelineResult(field=fld, envelope=env, phi=phi, psi_int=psi_int,
                          tiling=til, tileflow=tf, matching=matching,
                          pieces=pieces, report=report, summary=summary)

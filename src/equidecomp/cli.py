"""Command-line driver.

Subcommands
  discrepancy  decay table and envelope fit for the configured action
  flow         truncated flow + frontier repair, serialized to disk
  integralize  integral flow artifact (direct or cover mode)
  square       full pipeline: pieces CSV, summary JSON, optional rasters
  verify       independent re-check of serialized square artifacts

Exit codes: 0 success, 2 verification failure, 3 infeasibility (with
certificate), 4 configuration error (a ConfigError), 5 internal error (a
broken invariant, including any other ValueError a stage raises).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .config import ConfigError, RunConfig, build_config, load_config
from .equidecompose import PieceMap, k_scan_max, verify_equidecomposition
from .flowgrid import dump_edge_field
from .integralize import integralize_flow
from .lattice import fit_discrepancy_envelope, sample_field
from .pipeline import PipelineError, build_flow, run_pipeline
from .report import (SchemaError, piece_raster, read_json, read_pieces_csv,
                     write_json, write_pieces_csv, write_ppm)
from .tiling import greedy_net, rect_tiling, voronoi_tiling

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def cmd_discrepancy(cfg: RunConfig) -> int:
    action = cfg.action()
    shape_a, shape_b = cfg.shapes()
    ns = cfg.n_list()
    xs = [action.x0]
    fit_a = fit_discrepancy_envelope(action, shape_a, ns, xs)
    fit_b = fit_discrepancy_envelope(action, shape_b, ns, xs)
    out = _outdir(cfg)
    rows = [(n, da, db) for (n, da), (_, db) in zip(fit_a.table, fit_b.table)]
    from .report import write_csv
    write_csv(os.path.join(out, "discrepancy.csv"),
              ["n", "max_d_a", "max_d_b"], rows)
    payload = {
        "config": cfg.to_dict(),
        "a": {"m_const": fit_a.m_const, "eps": fit_a.eps,
              "slope": fit_a.slope, "flags": list(fit_a.flags)},
        "b": {"m_const": fit_b.m_const, "eps": fit_b.eps,
              "slope": fit_b.slope, "flags": list(fit_b.flags)},
    }
    write_json(os.path.join(out, "discrepancy.json"), payload)
    print("discrepancy: slope_a=%.4f slope_b=%.4f flags=%s"
          % (fit_a.slope, fit_b.slope,
             sorted(set(fit_a.flags) | set(fit_b.flags))))
    return EXIT_OK


# The config writes "automatic" as eps = 0 and cover_i_max = -1, the
# library as None; these two helpers are the only translation.

def _flow_args(cfg: RunConfig) -> dict:
    """build_flow's arguments (run_pipeline takes them too)."""
    shape_a, shape_b = cfg.shapes()
    return dict(window=cfg.window(), action=cfg.action(), shape_a=shape_a,
                shape_b=shape_b, n0=cfg.n0, eps=cfg.eps or None)


def _cover_i_max(cfg: RunConfig) -> Optional[int]:
    return None if cfg.cover_i_max < 0 else cfg.cover_i_max


def cmd_flow(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    flow = build_flow(**_flow_args(cfg))
    dump_edge_field(os.path.join(out, "flow.bin"), flow.phi)
    write_json(os.path.join(out, "flow.json"),
               {"config": cfg.to_dict(), **flow.summary})
    rep = flow.summary["repair"]
    print("flow: exact on core, repair doublings=%d max_correction=%g"
          % (rep["doublings"], rep["max_correction"]))
    return EXIT_OK


def cmd_integralize(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    flow = build_flow(**_flow_args(cfg))
    psi_int, info = integralize_flow(flow.phi, flow.field.f, mode=cfg.mode,
                                     cover_i_max=_cover_i_max(cfg))
    dump_edge_field(os.path.join(out, "integral_flow.bin"), psi_int)
    write_json(os.path.join(out, "integralize.json"),
               {"config": cfg.to_dict(), **flow.summary, "integralize": info})
    print("integralize: mode=%s max_dev_core=%g"
          % (info["mode"], info["max_dev_core"]))
    return EXIT_OK


def cmd_square(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    result = run_pipeline(**_flow_args(cfg), mode=cfg.mode,
                          cover_i_max=_cover_i_max(cfg),
                          tiling_kind=cfg.tiling, K=cfg.K,
                          voronoi_r=cfg.voronoi_r)
    pieces = result.pieces
    write_pieces_csv(os.path.join(out, "pieces.csv"), pieces)
    window = pieces.window
    verify_inputs = {
        "used_tiles": [bool(u) for u in pieces.used.tolist()],
        "unmatched_a": np.stack(np.unravel_index(
            pieces.unmatched_a, window.shape), axis=1).tolist(),
        "unmatched_b": np.stack(np.unravel_index(
            pieces.unmatched_b, window.shape), axis=1).tolist(),
    }
    if result.net is not None:
        verify_inputs["voronoi_seeds"] = result.net.points.tolist()
        verify_inputs["voronoi_r"] = result.net.r
    summary = {"config": cfg.to_dict(), **result.summary,
               "verify_inputs": verify_inputs}
    write_json(os.path.join(out, "summary.json"), summary)
    if cfg.k == 2 and cfg.raster:
        action = cfg.action()
        write_ppm(os.path.join(out, "pieces_a.ppm"),
                  piece_raster(pieces, action, cfg.raster, "source"))
        write_ppm(os.path.join(out, "pieces_b.ppm"),
                  piece_raster(pieces, action, cfg.raster, "target"))
    rep = result.report
    for name in sorted(rep["checks"]):
        print("%s %s" % ("PASS" if rep["checks"][name]["ok"] else "FAIL",
                         name))
    print("square: pieces=%d matched=%d unmatched=%d ok=%s"
          % (rep["pieces"], rep["matched"],
             rep["unmatched_a"] + rep["unmatched_b"], rep["ok"]))
    return EXIT_OK if rep["ok"] else EXIT_VERIFY


def _config_from_summary(summary: dict) -> RunConfig:
    raw = dict(summary.get("config", {}))
    pairs = {}
    for key, val in raw.items():
        if isinstance(val, list):
            pairs[key] = ",".join(str(v) for v in val)
        else:
            pairs[key] = str(val)
    return build_config(pairs)


def _is_json_int(value) -> bool:
    """A JSON integer: not a bool, nor a float or a string int() takes."""
    return type(value) is int


def _json_int(value, name: str) -> int:
    if not _is_json_int(value):
        raise SchemaError("%s is not an integer: %r" % (name, value))
    return value


def cmd_verify(directory: str, cfg: Optional[RunConfig]) -> int:
    """Re-check serialized artifacts with no shared in-process state."""
    pieces_path = os.path.join(directory, "pieces.csv")
    summary_path = os.path.join(directory, "summary.json")
    for p in (pieces_path, summary_path):
        if not os.path.isfile(p):
            print("missing artifact: %s" % p)
            return EXIT_VERIFY
    try:
        summary = read_json(summary_path)
    except (ValueError, RecursionError) as exc:   # too deeply nested
        print("schema error: %s: %s" % (summary_path, exc))
        return EXIT_VERIFY
    if not isinstance(summary, dict):
        print("schema error: %s is not a JSON object" % summary_path)
        return EXIT_VERIFY
    for section in ("config", "tiles", "verify_inputs", "pieces"):
        if not isinstance(summary.get(section, {}), dict):
            print("schema error: %s is not a JSON object" % section)
            return EXIT_VERIFY
    tiles_meta = summary.get("tiles", {})
    vin = summary.get("verify_inputs", {})
    counts = summary.get("pieces", {})
    try:
        k_sel = _json_int(tiles_meta.get("K", 0), "K")
        want_k_eff = _json_int(tiles_meta.get("K_eff", -1), "K_eff")
    except SchemaError as exc:
        print("schema error: tiles: %s" % exc)
        return EXIT_VERIFY
    try:
        want_counts = (_json_int(counts.get("matched", -1), "matched"),
                       _json_int(counts.get("count", -1), "count"))
    except SchemaError as exc:
        print("schema error: pieces: %s" % exc)
        return EXIT_VERIFY
    if cfg is None:
        try:
            cfg = _config_from_summary(summary)
        except ConfigError as exc:
            print("schema error: config: %s" % exc)
            return EXIT_VERIFY
    window = cfg.window()
    action = cfg.action()
    shape_a, shape_b = cfg.shapes()
    try:
        fld = sample_field(window, action, shape_a, shape_b)
    except ValueError as exc:
        raise PipelineError("sample", str(exc))
    try:
        a_flat, gamma, piece_id = read_pieces_csv(pieces_path, window)
    except SchemaError as exc:
        print("schema error: %s" % exc)
        return EXIT_VERIFY
    try:
        if cfg.tiling == "voronoi":
            r = _json_int(vin["voronoi_r"], "voronoi_r")
            seeds = vin["voronoi_seeds"]
            if not (isinstance(seeds, list)
                    and all(isinstance(p, list) and all(map(_is_json_int, p))
                            for p in seeds)):
                raise SchemaError("voronoi_seeds is not a list of integer "
                                  "points")
            seeds = np.array(seeds, dtype=np.int64)
            if r != cfg.voronoi_r:
                print("FAIL voronoi_net: voronoi_r %d is not the config's "
                      "voronoi_r %d" % (r, cfg.voronoi_r))
                return EXIT_VERIFY
            net = greedy_net(window, r, restrict=window.core_mask())
            if not np.array_equal(seeds, net.points):
                print("FAIL voronoi_net: the seeds are not the greedy "
                      "%d-net of the core" % r)
                return EXIT_VERIFY
            til = voronoi_tiling(window, net)
        else:
            til = rect_tiling(window, cfg.K or k_sel)
    except SchemaError as exc:
        print("schema error: verify_inputs: %s" % exc)
        return EXIT_VERIFY
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print("cannot rebuild tiling: %s" % exc)
        return EXIT_VERIFY
    used_raw = vin.get("used_tiles")
    if (not isinstance(used_raw, list) or len(used_raw) != len(til.tiles)
            or not all(isinstance(u, bool) for u in used_raw)):
        print("schema error: verify_inputs: used_tiles is not one boolean "
              "per tile")
        return EXIT_VERIFY

    def _flats(rows) -> np.ndarray:
        if not (isinstance(rows, list) and all(
                isinstance(v, list) and len(v) == window.d
                and all(_is_json_int(c) and 0 <= c < window.L for c in v)
                for v in rows)):
            raise SchemaError("verify_inputs: bad unmatched coordinate list")
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), window.d)
        return np.sort(np.ravel_multi_index(tuple(arr.T), window.shape))

    try:
        un_a = _flats(vin.get("unmatched_a", []))
        un_b = _flats(vin.get("unmatched_b", []))
    except SchemaError as exc:
        print("schema error: %s" % exc)
        return EXIT_VERIFY
    cb = np.stack(np.unravel_index(a_flat, window.shape), axis=1) + gamma
    b_flat = np.ravel_multi_index(
        tuple(np.clip(cb, 0, window.L - 1).T), window.shape)
    gammas = np.unique(gamma, axis=0)
    pieces = PieceMap(a_flat=a_flat, b_flat=b_flat, gamma=gamma,
                      piece_id=piece_id, gammas=gammas, unmatched_a=un_a,
                      unmatched_b=un_b, tiling=til,
                      used=np.array(used_raw, dtype=bool))
    report = verify_equidecomposition(pieces, fld)
    counts_ok = ((report["matched"], report["pieces"]) == want_counts
                 and til.K_eff == want_k_eff)
    report["checks"]["summary_counts"] = {"ok": counts_ok}
    # the kind and a fixed K are the config's; an automatic K must be one
    # the scans can choose: a proper tiling with K <= k_scan_max
    report["checks"]["tile_scale"] = {"ok": bool(
        tiles_meta.get("kind") == cfg.tiling and til.K == k_sel
        and (cfg.tiling == "voronoi" or cfg.K
             or (not til.improper and til.K <= k_scan_max(window))))}
    for name in sorted(report["checks"]):
        print("%s %s" % ("PASS" if report["checks"][name]["ok"] else "FAIL",
                         name))
    ok = all(check["ok"] for check in report["checks"].values())
    print("verify: %s" % ("ok" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="equidecomp",
        description="translation equidecompositions from lattice flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("discrepancy", "flow", "integralize", "square"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key")
    pv = sub.add_parser("verify")
    pv.add_argument("--dir", required=True, help="artifact directory")
    pv.add_argument("--config", default=None,
                    help="optional config file (default: summary echo)")
    pv.add_argument("--set", action="append", default=[], metavar="K=V")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            cfg = None
            if args.config is not None or args.set:
                cfg = load_config(args.config, args.set)
            return cmd_verify(args.dir, cfg)
        cfg = load_config(args.config, args.set)
        if args.command == "discrepancy":
            return cmd_discrepancy(cfg)
        if args.command == "flow":
            return cmd_flow(cfg)
        if args.command == "integralize":
            return cmd_integralize(cfg)
        return cmd_square(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        if exc.certificate:
            print("certificate: %r" % (exc.certificate,), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (AssertionError, ValueError) as exc:
        # every configuration problem is a ConfigError; any other
        # ValueError escaping a stage is a broken invariant
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

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

from .config import ConfigError, PipelineError, RunConfig, load_config
from .equidecompose import verify_equidecomposition
from .flowgrid import dump_edge_field
from .integralize import integralize_flow
from .lattice import fit_discrepancy_envelope, sample_field
from .pipeline import build_flow, run_pipeline
from .report import (SchemaError, piece_raster, write_json, write_pieces_csv,
                     write_ppm)
from .verify import Rejected, read_run, verify_inputs

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5


def _outdir(cfg: RunConfig) -> str:
    """cfg.out, created if need be; called before any stage runs."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out: cannot create directory %r: %s"
                          % (cfg.out, exc.strerror or exc))
    return cfg.out


def cmd_discrepancy(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    action = cfg.action()
    shape_a, shape_b = cfg.shapes()
    ns = cfg.n_list()
    xs = [action.x0]
    try:
        fit_a = fit_discrepancy_envelope(action, shape_a, ns, xs)
        fit_b = fit_discrepancy_envelope(action, shape_b, ns, xs)
    except ValueError as exc:
        raise PipelineError("discrepancy", str(exc))
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


def _flow_args(cfg: RunConfig) -> dict:
    """build_flow's arguments (run_pipeline takes them too); the config
    writes an automatic eps as 0, the library as None."""
    shape_a, shape_b = cfg.shapes()
    return dict(window=cfg.window(), action=cfg.action(), shape_a=shape_a,
                shape_b=shape_b, n0=cfg.n0, eps=cfg.eps or None)


def cmd_flow(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    flow = build_flow(**_flow_args(cfg))
    dump_edge_field(os.path.join(out, "flow.bin"), flow.phi)
    write_json(os.path.join(out, "flow.json"),
               {"config": cfg.to_dict(), **flow.summary})
    rep = flow.summary["repair"]
    print("flow: exact on core, repair route=%s doublings=%d "
          "max_correction=%g"
          % (rep["route"], rep["doublings"], rep["max_correction"]))
    return EXIT_OK


def cmd_integralize(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    flow = build_flow(**_flow_args(cfg))
    psi_int, info = integralize_flow(flow.phi, flow.field.f, mode=cfg.mode)
    dump_edge_field(os.path.join(out, "integral_flow.bin"), psi_int)
    write_json(os.path.join(out, "integralize.json"),
               {"config": cfg.to_dict(), **flow.summary, "integralize": info})
    print("integralize: mode=%s max_dev_core=%g"
          % (info["mode"], info["max_dev_core"]))
    return EXIT_OK


def cmd_square(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    result = run_pipeline(**_flow_args(cfg), mode=cfg.mode,
                          tiling_kind=cfg.tiling, K=cfg.K,
                          voronoi_r=cfg.voronoi_r)
    pieces = result.pieces
    write_pieces_csv(os.path.join(out, "pieces.csv"), pieces)
    summary = {"config": cfg.to_dict(), **result.summary,
               "verify_inputs": verify_inputs(pieces)}
    write_json(os.path.join(out, "summary.json"), summary)
    if cfg.k == 2 and cfg.raster:
        action = cfg.action()
        write_ppm(os.path.join(out, "pieces_a.ppm"),
                  piece_raster(pieces, action, cfg.raster, "source"))
        write_ppm(os.path.join(out, "pieces_b.ppm"),
                  piece_raster(pieces, action, cfg.raster, "target"))
    ok = _print_checks(result.report["checks"])
    print("square: pieces=%d matched=%d unmatched=%d ok=%s"
          % (pieces.n_pieces, len(pieces.a_flat),
             len(pieces.unmatched_a) + len(pieces.unmatched_b), ok))
    return EXIT_OK if ok else EXIT_VERIFY


def _print_checks(checks: dict) -> bool:
    """One PASS or FAIL line per check, by name; True when all pass."""
    for name in sorted(checks):
        print("%s %s" % ("PASS" if checks[name]["ok"] else "FAIL", name))
    return all(check["ok"] for check in checks.values())


def cmd_verify(directory: str, cfg: Optional[RunConfig]) -> int:
    """Re-check serialized artifacts with no shared in-process state."""
    try:
        cfg, pieces, claims = read_run(directory, cfg)
    except SchemaError as exc:
        print("schema error: %s" % exc)
        return EXIT_VERIFY
    except Rejected as exc:
        print(exc)
        return EXIT_VERIFY
    try:
        fld = sample_field(cfg.window(), cfg.action(), *cfg.shapes())
    except ValueError as exc:
        raise PipelineError("sample", str(exc))
    ok = _print_checks({**verify_equidecomposition(pieces, fld)["checks"],
                        **claims})
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

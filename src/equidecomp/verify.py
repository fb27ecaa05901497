"""What `square` writes for `verify` (`verify_inputs`), and how `verify`
reads a run back (`read_run`: SchemaError names the first bad section)."""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from .config import ConfigError, RunConfig, build_config
from .equidecompose import PieceMap, k_scan_max
from .report import SchemaError, read_json, read_pieces_csv
from .tiling import greedy_net, rect_tiling, voronoi_tiling


class Rejected(Exception):
    """A run that cannot be checked; the message is the line to print."""


def verify_inputs(pieces: PieceMap) -> dict:
    """What pieces.csv leaves out of the piece map: used-tile flags, and
    the unmatched vertices as coordinates.  Everything else about the
    tiling is rebuilt from the config."""
    out = {"used_tiles": pieces.used.tolist()}
    for key in ("unmatched_a", "unmatched_b"):     # PieceMap's field names
        out[key] = np.transpose(np.unravel_index(
            getattr(pieces, key), pieces.window.shape)).tolist()
    return out


class _Section:
    """One JSON object of summary.json (empty when absent)."""

    def __init__(self, summary: dict, name: str):
        self.name, self.raw = name, summary.get(name, {})
        if not isinstance(self.raw, dict):
            raise SchemaError("%s is not a JSON object" % name)

    def fail(self, what: str) -> SchemaError:
        return SchemaError("%s: %s" % (self.name, what))

    def integer(self, key: str, default: Optional[int] = None) -> int:
        # a JSON integer: not a bool, nor a float or a string int() takes
        value = self.raw.get(key, default)
        if type(value) is not int:
            raise self.fail("%s is not an integer: %r" % (key, value))
        return value

    def points(self, key: str) -> list:
        rows = self.raw.get(key, [])
        if not (isinstance(rows, list) and all(
                isinstance(p, list) and all(type(c) is int for c in p)
                for p in rows)):
            raise self.fail("%s is not a list of integer points" % key)
        return rows


def read_run(directory: str, cfg: Optional[RunConfig] = None
             ) -> Tuple[RunConfig, PieceMap, dict]:
    """The config (cfg when given, else the summary's), the pieces on the
    rebuilt tiling, and the summary_counts and tile_scale checks.  Raises
    Rejected when an artifact is missing or the tiling cannot be rebuilt."""
    csv_path, json_path = (os.path.join(directory, name)
                           for name in ("pieces.csv", "summary.json"))
    for path in (csv_path, json_path):
        if not os.path.isfile(path):
            raise Rejected("missing artifact: %s" % path)
    try:
        summary = read_json(json_path)
    except (ValueError, RecursionError) as exc:   # too deeply nested
        raise SchemaError("%s: %s" % (json_path, exc))
    if not isinstance(summary, dict):
        raise SchemaError("%s is not a JSON object" % json_path)
    config, tiles, vin, counts = (_Section(summary, name) for name in (
        "config", "tiles", "verify_inputs", "pieces"))
    k_sel, k_eff = tiles.integer("K", 0), tiles.integer("K_eff", -1)
    want = (counts.integer("matched", -1), counts.integer("count", -1))
    if cfg is None:
        try:
            cfg = build_config({
                key: ",".join(map(str, v)) if isinstance(v, list) else str(v)
                for key, v in config.raw.items()})
        except ConfigError as exc:
            raise config.fail(str(exc))
    window = cfg.window()
    try:            # a window too large to allocate cannot be rebuilt
        if cfg.tiling == "rect":
            til = rect_tiling(window, cfg.K or k_sel)
        else:       # tile_scale pins the radius: K is the net's r
            til = voronoi_tiling(window, greedy_net(
                window, cfg.voronoi_r, restrict=window.core_mask()))
    except (MemoryError, OverflowError, ValueError) as exc:
        # a bare MemoryError has no message: name its type instead
        raise Rejected("cannot rebuild tiling: %s"
                       % (str(exc) or type(exc).__name__))
    used = vin.raw.get("used_tiles")
    if not (isinstance(used, list) and len(used) == len(til.tiles)
            and all(isinstance(u, bool) for u in used)):
        raise vin.fail("used_tiles is not one boolean per tile")
    unmatched = []
    for key in ("unmatched_a", "unmatched_b"):
        rows = vin.points(key)
        if not all(len(p) == window.d and window.contains(p) for p in rows):
            raise vin.fail("%s has a point outside the window" % key)
        unmatched.append(np.sort(np.ravel_multi_index(
            np.array(rows, dtype=np.int64).reshape(-1, window.d).T,
            window.shape)))
    a_flat, gamma, piece_id = read_pieces_csv(csv_path, window)
    pieces = PieceMap(a_flat=a_flat, gamma=gamma, piece_id=piece_id,
                      unmatched_a=unmatched[0], unmatched_b=unmatched[1],
                      tiling=til, used=np.array(used, dtype=bool))
    # an automatic K must be one the scans can choose: proper, <= k_scan_max
    scale_ok = (tiles.raw.get("kind") == cfg.tiling and til.K == k_sel and (
        cfg.tiling == "voronoi" or cfg.K
        or (not til.improper and til.K <= k_scan_max(window))))
    counts_ok = (len(a_flat), pieces.n_pieces) == want and til.K_eff == k_eff
    return cfg, pieces, {"summary_counts": {"ok": counts_ok},
                         "tile_scale": {"ok": bool(scale_ok)}}

"""Deterministic artifact emitters: CSV (RFC 4180), JSON, and text rasters.

Nothing here writes timestamps, hostnames, or float formatting that could
vary between runs — identical inputs give byte-identical files.
"""

from __future__ import annotations

import colorsys
import csv
import itertools
import json
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .equidecompose import PieceMap
from .lattice import ActionSpec, LatticeWindow, reduce_mod1


class SchemaError(ValueError):
    """A serialized artifact does not match its documented layout."""


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      default=_json_default)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


# ---------------------------------------------------------------------------
# piece maps
# ---------------------------------------------------------------------------

def pieces_csv_header(d: int) -> List[str]:
    return (["v%d" % j for j in range(d)]
            + ["g%d" % j for j in range(d)] + ["piece"])


def write_pieces_csv(path, pieces: PieceMap) -> None:
    """One row per assignment: source coordinates, translation, piece id;
    rows ascend by source vertex."""
    window = pieces.window
    coords = np.stack(np.unravel_index(pieces.a_flat, window.shape), axis=1)
    rows = np.concatenate(
        [coords, pieces.gamma,
         pieces.piece_id.reshape(-1, 1).astype(np.int64)], axis=1)
    write_csv(path, pieces_csv_header(window.d), rows.tolist())


def read_pieces_csv(path, window: LatticeWindow
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source flat indices, gamma rows, piece ids) from a piece CSV.

    Raises SchemaError naming the first malformed row.  Each row is
    checked for its column count, integer cells (Python `int`), the int64
    range and a source vertex inside the window, in that order.  Bytes
    that are not UTF-8 are read as lone surrogates, which no integer cell
    holds, and a row the csv module cannot read (say, a cell longer than
    its field limit) ends the file with a SchemaError for that row.
    """
    d = window.d
    want = pieces_csv_header(d)
    rows: List[List[str]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        reader = csv.reader(fh)
        header = None
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty file %s" % path)
            if header != want:
                raise SchemaError("bad header %r, expected %r"
                                  % (header, want))
            rows.extend(reader)
        except csv.Error as exc:
            # a malformed row read before the failure still comes first
            _rows_array(rows, window)
            raise SchemaError("row %d: %s"
                              % (len(rows) + 2 if header else 1, exc))
    vals = _rows_array(rows, window)
    return (np.ravel_multi_index(tuple(vals[:, :d].T), window.shape),
            vals[:, d:2 * d], vals[:, 2 * d])


def _rows_array(rows: List[List[str]], window: LatticeWindow) -> np.ndarray:
    """The rows as one (n, 2d + 1) int64 array, or SchemaError naming the
    first row (file row = index + 2) that fails a check."""
    width = 2 * window.d + 1
    bad_width = np.fromiter(map(len, rows), dtype=np.int64,
                            count=len(rows)) != width
    n = int(np.argmax(bad_width)) if bad_width.any() else len(rows)
    err = ("row %d: %d columns, expected %d" % (n + 2, len(rows[n]), width)
           if n < len(rows) else None)
    try:
        cells = list(map(int, itertools.chain.from_iterable(rows[:n])))
    except ValueError:
        n = next(i for i, row in enumerate(rows)
                 if not all(map(_is_int, row)))
        err = "row %d: non-integer value" % (n + 2)
        cells = list(map(int, itertools.chain.from_iterable(rows[:n])))
    try:
        vals = np.array(cells, dtype=np.int64).reshape(n, width)
    except OverflowError:
        n = next(i for i, c in enumerate(cells)
                 if not -2 ** 63 <= c < 2 ** 63) // width
        err = "row %d: value outside int64" % (n + 2)
        vals = np.array(cells[:n * width], dtype=np.int64).reshape(n, width)
    v = vals[:, :window.d]
    outside = ((v < 0) | (v >= window.L)).any(axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise SchemaError("row %d: vertex %r outside the window"
                          % (i + 2, v[i].tolist()))
    if err is not None:
        raise SchemaError(err)
    return vals


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# rasters (portable anymap, plain text)
# ---------------------------------------------------------------------------

_DECIMAL = [b"%d" % v for v in range(256)]


def write_ppm(path, rgb: np.ndarray) -> None:
    """Plain PPM (P3), one raster row per line, written a row at a time
    with each value's digits looked up in a 256-entry table."""
    img = np.asarray(rgb)
    if (img.ndim != 3 or img.shape[2] != 3 or img.dtype.kind not in "biu"
            or int(img.min(initial=0)) < 0 or int(img.max(initial=0)) > 255):
        raise ValueError("need an (h, w, 3) integer image with values "
                         "0 to 255")
    with open(path, "wb") as fh:
        fh.write(b"P3\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        for row in img.reshape(img.shape[0], -1):
            fh.write(b" ".join(map(_DECIMAL.__getitem__, row.tolist()))
                     + b"\n")


def piece_palette(n: int) -> np.ndarray:
    """n visually spread colors, (n, 3) uint8, fixed for a given n.

    Hues step by the golden-angle fraction; saturation/value alternate over
    small fixed cycles so neighbors in index stay distinguishable.
    """
    out = np.zeros((max(n, 1), 3), dtype=np.uint8)
    for i in range(n):
        h = (i * 0.6180339887498949) % 1.0
        s = (0.55, 0.75, 0.95)[i % 3]
        v = (0.95, 0.7)[(i // 3) % 2]
        out[i] = [int(round(c * 255)) for c in colorsys.hsv_to_rgb(h, s, v)]
    return out


def piece_raster(pieces: PieceMap, action: ActionSpec, resolution: int,
                 which: str = "source") -> np.ndarray:
    """RGB raster of the matched points' torus positions, colored by piece.

    which="source" plots each assignment at its A-point, "target" at its
    image; requires k = 2.  Pixels hit by several points keep the smallest
    piece id; untouched pixels stay white.
    """
    if action.k != 2:
        raise ValueError("rasters need the 2-torus")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    window = pieces.window
    coords = np.stack(np.unravel_index(pieces.a_flat, window.shape), axis=1)
    if which == "target":
        coords = coords + pieces.gamma
    elif which != "source":
        raise ValueError("which must be source or target")
    pts = reduce_mod1(coords.astype(np.float64) @ action.u + action.x0)
    px = np.minimum((pts * resolution).astype(np.int64), resolution - 1)
    flat = px[:, 1] * resolution + px[:, 0]     # x right, y down
    ids = np.full(resolution * resolution, np.iinfo(np.int32).max,
                  dtype=np.int64)
    np.minimum.at(ids, flat, pieces.piece_id.astype(np.int64))
    img = np.full((resolution, resolution, 3), 255, dtype=np.uint8)
    hit = ids < np.iinfo(np.int32).max
    img.reshape(-1, 3)[hit] = piece_palette(pieces.n_pieces)[ids[hit]]
    return img

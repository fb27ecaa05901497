"""The piece CSV read one row at a time: each row is checked for its
column count, integer cells, int64 range and a source vertex inside the
window, in that order, and the first failing row raises, as does the
first row the csv module cannot read.  Bytes that are not UTF-8 are
read as lone surrogates."""

import csv

import numpy as np

from equidecomp.report import SchemaError, pieces_csv_header


def _numbered_rows(reader):
    """(file row number, cells) of each row; a row the csv module cannot
    read raises SchemaError."""
    ln = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SchemaError("row %d: %s" % (ln, exc))
        yield ln, row
        ln += 1


def read_pieces_csv(path, window):
    """(source flat indices, gamma rows, piece ids), as
    equidecomp.report.read_pieces_csv returns them."""
    d = window.d
    want = pieces_csv_header(d)
    a_flat, gam, pid = [], [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        rows = _numbered_rows(csv.reader(fh))
        header = next(rows, None)
        if header is None:
            raise SchemaError("empty file %s" % path)
        if header[1] != want:
            raise SchemaError("bad header %r, expected %r"
                              % (header[1], want))
        for ln, row in rows:
            if len(row) != 2 * d + 1:
                raise SchemaError("row %d: %d columns, expected %d"
                                  % (ln, len(row), 2 * d + 1))
            try:
                vals = [int(v) for v in row]
            except ValueError:
                raise SchemaError("row %d: non-integer value" % ln)
            if not all(-2 ** 63 <= c < 2 ** 63 for c in vals):
                raise SchemaError("row %d: value outside int64" % ln)
            v = vals[:d]
            if not all(0 <= c < window.L for c in v):
                raise SchemaError("row %d: vertex %r outside the window"
                                  % (ln, v))
            a_flat.append(int(np.ravel_multi_index(tuple(v), window.shape)))
            gam.append(vals[d:2 * d])
            pid.append(vals[2 * d])
    return (np.array(a_flat, dtype=np.int64),
            np.array(gam, dtype=np.int64).reshape(len(gam), d),
            np.array(pid, dtype=np.int64))

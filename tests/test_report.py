"""Artifact emitters: byte determinism, round trips, and schema errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from equidecomp.equidecompose import (build_matching, extract_pieces,
                                      tile_flow, verify_equidecomposition)
from equidecomp.lattice import ActionSpec, LatticeWindow
from equidecomp.report import (
    SchemaError,
    piece_palette,
    piece_raster,
    pieces_csv_header,
    read_json,
    read_pieces_csv,
    write_json,
    write_pieces_csv,
    write_ppm,
    write_csv,
)
from equidecomp.tiling import rect_tiling
from oracle import piecescsv, ppm

from test_equidecompose import path_flow, pieces_for


def small_pieces(seed=3, K=5):
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=2, L=16, margin=2)
    pts = [tuple(p) for p in np.argwhere(w.core_mask())]
    picks = rng.choice(len(pts), size=12, replace=False)
    pairs = list(zip([pts[i] for i in picks[:6]], [pts[i] for i in picks[6:]]))
    psi, fld = path_flow(w, pairs)
    tf = tile_flow(psi, rect_tiling(w, K), fld)
    return extract_pieces(build_matching(tf, fld)), w


def test_json_sorted_and_deterministic(tmp_path):
    obj = {"zeta": np.int64(3), "alpha": {"b": np.float64(0.5), "a": True},
           "arr": np.arange(3), "flag": np.bool_(False)}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, obj)
    write_json(p2, obj)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.index(b'"alpha"') < b1.index(b'"arr"') < b1.index(b'"zeta"')
    assert read_json(p1) == {"zeta": 3, "alpha": {"b": 0.5, "a": True},
                             "arr": [0, 1, 2], "flag": False}
    with pytest.raises(TypeError):
        write_json(tmp_path / "c.json", {"x": object()})


def test_csv_uses_crlf(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[1, 2], [3, 4]])
    raw = p.read_bytes()
    assert raw == b"a,b\r\n1,2\r\n3,4\r\n"


def test_pieces_csv_round_trip(tmp_path):
    pieces, w = small_pieces()
    p = tmp_path / "pieces.csv"
    write_pieces_csv(p, pieces)
    a_flat, gamma, pid = read_pieces_csv(p, w)
    assert np.array_equal(a_flat, pieces.a_flat)
    assert np.array_equal(gamma, pieces.gamma)
    assert np.array_equal(pid, pieces.piece_id)
    write_pieces_csv(tmp_path / "again.csv", pieces)
    assert p.read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_empty_piece_map_end_to_end(tmp_path):
    """A field without points, and a path whose middle tiles are all
    excluded: no assignment is made, and every stage takes the empty map
    as it comes."""
    w = LatticeWindow(d=2, L=16, margin=2)
    full, fld_full = pieces_for(w, [((3, 3), (4, 5))], 3)
    assert len(full.a_flat) == 1
    names = sorted(verify_equidecomposition(full, fld_full)["checks"])
    act = ActionSpec.from_seed(2, 2, seed=5)
    for pairs, unmatched in (([], 0), ([((3, 3), (3, 12))], 1)):
        psi, fld = path_flow(w, pairs)
        tf = tile_flow(psi, rect_tiling(w, 3), fld)
        pieces = extract_pieces(build_matching(tf, fld))
        assert len(pieces.a_flat) == pieces.n_pieces == 0
        assert pieces.gamma.shape == (0, 2)
        assert len(pieces.unmatched_a) == len(pieces.unmatched_b) == unmatched
        report = verify_equidecomposition(pieces, fld)
        assert report["ok"] and sorted(report["checks"]) == names, report
        p = tmp_path / "pieces.csv"
        write_pieces_csv(p, pieces)
        assert p.read_bytes() == (",".join(pieces_csv_header(2))
                                  + "\r\n").encode()
        a_flat, gamma, pid = read_pieces_csv(p, w)
        assert a_flat.shape == pid.shape == (0,) and gamma.shape == (0, 2)
        for which in ("source", "target"):
            assert (piece_raster(pieces, act, 8, which) == 255).all()


def test_pieces_csv_schema_errors(tmp_path):
    w = LatticeWindow(d=2, L=16, margin=2)
    head = ",".join(pieces_csv_header(2))

    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(SchemaError):
        read_pieces_csv(p, w)

    p.write_text("v0,v1,oops\r\n")
    with pytest.raises(SchemaError) as exc:
        read_pieces_csv(p, w)
    assert "header" in str(exc.value)

    p.write_text(head + "\r\n1,2,0,1,0\r\n3,4,0\r\n")
    with pytest.raises(SchemaError) as exc:
        read_pieces_csv(p, w)
    assert "row 3" in str(exc.value)             # truncated row is located

    p.write_text(head + "\r\n1,two,0,1,0\r\n")
    with pytest.raises(SchemaError) as exc:
        read_pieces_csv(p, w)
    assert "row 2" in str(exc.value) and "non-integer" in str(exc.value)

    p.write_text(head + "\r\n1,99,0,1,0\r\n")
    with pytest.raises(SchemaError) as exc:
        read_pieces_csv(p, w)
    assert "outside the window" in str(exc.value)

    p.write_text(head + "\r\n1,2,0,1,%d\r\n" % 2 ** 63)
    with pytest.raises(SchemaError) as exc:
        read_pieces_csv(p, w)
    assert "row 2" in str(exc.value) and "int64" in str(exc.value)


def read_both(path, window):
    """Both readers' results on one file: equal arrays, or equal
    SchemaError text."""
    got = []
    for read in (read_pieces_csv, piecescsv.read_pieces_csv):
        try:
            got.append(read(path, window))
        except SchemaError as exc:
            got.append(str(exc))
    new, ref = got
    if isinstance(ref, str) or isinstance(new, str):
        assert new == ref
        return ref
    for x, y in zip(new, ref):
        assert x.dtype == y.dtype == np.int64 and x.shape == y.shape
        assert np.array_equal(x, y)
    return ref


DEFECTS = ("columns", "nonint", "overflow", "window", "blank")


def spoil(row, kind, d, L, rng):
    """row (cells as text) with one defect of the given kind."""
    row = list(row)
    if kind == "columns":
        return row[:-1] if rng.random() < 0.5 else row + ["0"]
    if kind == "nonint":
        row[rng.integers(len(row))] = str(rng.choice(["x1", "1.5", "", "--2"]))
        return row
    if kind == "overflow":
        big = int(rng.integers(0, 5))
        row[rng.integers(len(row))] = str(
            2 ** 63 + big if rng.random() < 0.5 else -2 ** 63 - 1 - big)
        return row
    if kind == "window":
        row[rng.integers(d)] = str(L + int(rng.integers(0, 3))
                                   if rng.random() < 0.5 else -1)
        return row
    return []                                   # a blank line


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), L=st.integers(2, 12), n=st.integers(0, 25),
       kinds=st.sampled_from([()] + [(k,) for k in DEFECTS]
                             + [(a, b) for a in DEFECTS for b in DEFECTS
                                if a != b]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pieces_csv_reader_matches_row_reference(tmp_path_factory, d, L, n,
                                                 kinds, seed):
    """The array reader and the row-by-row reference accept the same files
    and name the same first bad row: random valid files (cells in any
    form int() takes), one defect, or two defects of different kinds in
    different rows, the first kind in the earlier row."""
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=L)
    n = max(n, len(kinds))
    vals = np.concatenate(
        [rng.integers(0, L, size=(n, d)),
         rng.integers(-2 ** 63, 2 ** 63 - 1, size=(n, d), endpoint=True),
         rng.integers(0, 50, size=(n, 1))], axis=1)
    forms = ("%d", " %d", "%d ", "%05d", "%+d")
    rows = [[forms[rng.integers(len(forms))] % v for v in r]
            for r in vals.tolist()]
    at = np.sort(rng.choice(n, size=len(kinds), replace=False))
    for i, kind in zip(at, kinds):
        rows[i] = spoil(rows[i], kind, d, L, rng)
    path = tmp_path_factory.mktemp("csv") / "pieces.csv"
    path.write_text("\r\n".join([",".join(pieces_csv_header(d))]
                                 + [",".join(r) for r in rows]) + "\r\n",
                    newline="")
    got = read_both(path, w)
    if not kinds:
        assert np.array_equal(got[2], vals[:, 2 * d])
    else:
        assert isinstance(got, str) and got.startswith("row %d:" % (at[0] + 2))


def test_pieces_csv_read_error_after_a_bad_row(tmp_path):
    """A byte that is not UTF-8 past the first 8 KiB block, or a cell past
    the csv module's field limit: a malformed row read before it is
    reported, as the row reader does; with no such row, the row that
    holds it is."""
    w = LatticeWindow(d=2, L=16)
    head = ",".join(pieces_csv_header(2)) + "\r\n"
    good = "1,2,0,1,0\r\n" * 3000
    p = tmp_path / "pieces.csv"
    for bad, want in ((b"1,2,\xff,1,0", "row 3002: non-integer value"),
                      (b"\xff", "row 3002: 1 columns, expected 5"),
                      (b"1,2,0,1," + b"7" * 200_000,
                       "row 3002: field larger than field limit (131072)")):
        p.write_bytes((head + "1,99,0,1,0\r\n" + good).encode() + bad
                      + b"\r\n")
        assert read_both(p, w) == "row 2: vertex [1, 99] outside the window"
        p.write_bytes((head + good).encode() + bad + b"\r\n")
        assert read_both(p, w) == want


def test_pgm_ppm_formats(tmp_path):
    rgb = np.zeros((1, 2, 3), dtype=np.uint8)
    rgb[0, 1] = (10, 20, 30)
    q = tmp_path / "c.ppm"
    write_ppm(q, rgb)
    assert q.read_bytes() == b"P3\n2 1\n255\n0 0 0 10 20 30\n"
    for bad in (np.full((1, 1, 3), 300, dtype=np.int64),
                np.full((1, 1, 3), -1, dtype=np.int64),
                np.full((1, 1, 3), 7.0)):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "bad.ppm", bad)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.uint8, np.int64, np.bool_]).flatmap(
    lambda dtype: arrays(dtype, st.tuples(st.integers(1, 9),
                                          st.integers(0, 9), st.just(3)),
                         elements=st.integers(0, 255) if dtype != np.bool_
                         else None)))
def test_ppm_matches_the_pixel_writer(tmp_path_factory, img):
    """The table writer gives the bytes of the per-pixel one, on images
    of width 0 and on bool and int64 images too."""
    d = tmp_path_factory.mktemp("ppm")
    write_ppm(d / "new.ppm", img)
    ppm.write_ppm(d / "old.ppm", img)
    assert (d / "new.ppm").read_bytes() == (d / "old.ppm").read_bytes()


def test_palette_distinct_and_fixed():
    pal = piece_palette(24)
    assert pal.shape == (24, 3) and pal.dtype == np.uint8
    assert len({tuple(c) for c in pal.tolist()}) == 24
    assert np.array_equal(pal, piece_palette(24))
    assert piece_palette(0).shape == (1, 3)


def test_piece_raster_shapes_and_errors():
    pieces, w = small_pieces()
    act = ActionSpec.from_seed(2, 2, seed=5)
    img_s = piece_raster(pieces, act, 32, "source")
    img_t = piece_raster(pieces, act, 32, "target")
    assert img_s.shape == img_t.shape == (32, 32, 3)
    hit_s = (img_s != 255).any(axis=2).sum()
    assert hit_s >= 1
    assert not np.array_equal(img_s, img_t)
    assert np.array_equal(img_s, piece_raster(pieces, act, 32, "source"))
    with pytest.raises(ValueError):
        piece_raster(pieces, act, 0)
    with pytest.raises(ValueError):
        piece_raster(pieces, act, 32, "middle")
    with pytest.raises(ValueError):
        piece_raster(pieces, ActionSpec.from_seed(1, 2, seed=5), 32)

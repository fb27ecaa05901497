"""The dyadic flow construction against brute-force oracles.

The bulk construction (truncated_psi) is cross-checked edge by edge against
the scalar reference path in oracle.paperflow (level_sum -> phi_edge ->
segment_count), which is itself checked against direct enumeration of
transport segments.  Exact values are oracle.dyadic Dyadics.
"""

import io
import math
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equidecomp.flowgrid import (EdgeField, certify_box_envelope,
                                 dump_edge_field, flow_bound, load_edge_field,
                                 measure_box_sums, narrow_int, phi_envelope,
                                 psi_num_bound, residual_num, tail_bound,
                                 truncated_psi,
                                 truncation_error_bound, truncation_mask)
from equidecomp.lattice import (IndicatorField, LatticeWindow, all_directions,
                                directions, edge_crop, edge_mask, flat_shifts)
from oracle.dyadic import Dyadic
from oracle.edges import flow_num
from oracle.paperflow import (Chain, box_of, check_error_identity, level_sum,
                              phi_edge, psi_chain, sub_box)


def random_field(d, L, seed, margin=0):
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=L, margin=margin)
    f = rng.integers(-1, 2, size=(L,) * d)
    return IndicatorField(window=w, chi_a=f > 0, chi_b=f < 0)


def brute_phi(field, y, gamma, n, offset):
    """phi by direct enumeration of segments z, z+g, ..., z+2^(n-1) g."""
    d = field.window.d
    side = 1 << n
    h = side // 2
    b = box_of(y, n, offset)
    inside = lambda v: all(bb <= c < bb + side for c, bb in zip(v, b))
    total = 0
    for i in range(h):
        z = tuple(c - i * g for c, g in zip(y, gamma))
        wv = tuple(c + h * g for c, g in zip(z, gamma))
        if inside(z) and inside(wv):
            # sum f over the half-box [z's half-box]: brute segment source
            total += 1
    if total == 0:
        return Dyadic(0)
    corner, hs = sub_box(y, gamma, n, offset)
    s = 0
    for idx in np.ndindex(*(hs,) * d):
        v = tuple(c + j for c, j in zip(corner, idx))
        s += int(field.f[v])
    return Dyadic(total * s, n * d)


def test_segment_count_and_phi_vs_enumeration():
    fld = random_field(2, 16, seed=1)
    rng = np.random.default_rng(2)
    dirs = [tuple(g) for g in all_directions(2)]
    for _ in range(200):
        n = int(rng.integers(1, 4))
        side = 1 << n
        off = tuple(int(v) for v in rng.integers(0, side, size=2))
        g = dirs[int(rng.integers(0, len(dirs)))]
        y = tuple(int(v) for v in rng.integers(0, 16, size=2))
        b = box_of(y, n, off)
        if any(c < 0 or c + side > 16 for c in b):
            continue
        assert phi_edge(fld, y, g, n, off) == brute_phi(fld, y, g, n, off)


def test_error_identity_exhaustive_small():
    """lhs == rhs for every vertex and every level-2 chain on an 8x8 field."""
    fld = random_field(2, 8, seed=3)
    n = 2
    side = 1 << n
    neighborhood = [(0, 0)] + [tuple(g) for g in all_directions(2)]
    hits = 0
    for off in np.ndindex(side, side):
        chain = Chain(n=n, offset=tuple(int(o) for o in off))
        for y in np.ndindex(8, 8):
            boxes = [box_of((y[0] + g0, y[1] + g1), n, chain.level_offset(n))
                     for g0, g1 in neighborhood]
            if any(c < 0 or c + side > 8 for b in boxes for c in b):
                continue
            lhs, rhs = check_error_identity(fld, chain, y)
            assert lhs == rhs
            hits += 1
    assert hits > 100


def test_error_identity_needs_room():
    fld = random_field(2, 8, seed=4)
    with pytest.raises(ValueError):
        check_error_identity(fld, Chain(n=3, offset=(7, 7)), (0, 0))


def test_level_sum_base_shift_invariance():
    fld = random_field(2, 12, seed=5)
    rng = np.random.default_rng(6)
    y = (5, 6)
    for g in [(1, 0), (1, -1)]:
        for n in (1, 2):
            ref = level_sum(fld, y, g, n)
            for _ in range(5):
                base = tuple(int(v) for v in rng.integers(0, 1 << n, size=2))
                assert level_sum(fld, y, g, n, base=base) == ref


def test_truncated_psi_equals_scalar_reference():
    """Every valid edge of the bulk construction equals the level_sum total,
    on line sums with h up to 8 and in d = 3, where directions have zero
    coordinates.  The field lives on the core box plus one ring, which is
    the window at margin 1, smaller than it from margin 2 on, and cuts off
    valid edges at margins 3 and 4: every stored edge is valid or zero,
    and every edge with an end in the core is stored."""
    for d, L, margin, n0, min_checked in (
            (2, 12, 0, 2, 100), (1, 64, 0, 4, 30), (2, 24, 0, 3, 300),
            (3, 10, 0, 2, 400), (2, 12, 1, 2, 100), (2, 16, 4, 1, 300),
            (2, 12, 2, 1, 100), (1, 64, 3, 4, 30), (3, 8, 3, 1, 300)):
        fld = random_field(d, L, seed=7, margin=margin)
        w = fld.window
        psi = truncated_psi(fld, n0)
        crop = psi.crop
        assert crop.full == w and psi.window.L == L - 2 * max(margin - 1, 0)
        assert psi.values.dtype == narrow_int(psi_num_bound(d, n0))
        valid = truncation_mask(crop, n0)
        assert not psi.values[~valid].any()
        # every edge with an end in the core has both ends in the crop
        di, tail = np.nonzero(edge_mask(w, w.core_mask(), np.logical_or))
        head = tail + flat_shifts(w)[di]
        assert crop.from_full(tail)[1].all() and crop.from_full(head)[1].all()
        checked = 0
        for di, v in zip(*np.nonzero(valid)):
            y = np.unravel_index(crop.to_full(v), w.shape)
            g = tuple(int(c) for c in psi.dirs[di])
            total = Dyadic(0)
            for n in range(1, n0 + 1):
                total = total + level_sum(fld, y, g, n)
            head = tuple(int(c) + dc for c, dc in zip(y, g))
            assert flow_num(psi, y, head) == total.scaled(psi.scale_exp)
            checked += 1
        assert checked > min_checked, (d, L, margin, n0, checked)


def test_truncated_psi_antisymmetric_storage():
    fld = random_field(3, 8, seed=9)
    psi = truncated_psi(fld, 1)
    # stored once per unordered edge; divergence sums signed contributions
    div = psi.divergence_num()
    assert div.shape == (8, 8, 8)
    total = int(div.sum())
    # telescoping: net divergence equals net flow through window boundary = 0
    # only when every edge is interior; valid mask cuts boundary edges, so
    # the global sum vanishes exactly.
    assert total == 0


def test_truncated_psi_memory():
    """On the demo's window (d=5, L=10, margin=2, n0=1) the truncation
    holds, besides its int8 output, less than three full-window int64
    grids: the level box and one direction's kept box, not a window grid
    per direction and a second one for the level sum."""
    fld = random_field(5, 10, seed=21, margin=2)
    tracemalloc.start()
    try:
        psi = truncated_psi(fld, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.values.dtype == np.int8
    assert peak - psi.values.nbytes < 3 * 8 * 10 ** 5, peak


def test_residual_identity_exact():
    fld = random_field(2, 16, seed=10)
    psi = truncated_psi(fld, 2)
    res = residual_num(fld, psi)
    assert (res == (fld.f.astype(np.int64) << psi.scale_exp)
            - psi.divergence_num()).all()


def test_residual_zero_mean_over_valid_region():
    fld = random_field(2, 16, seed=11)
    psi = truncated_psi(fld, 2)
    res = residual_num(fld, psi)
    # residual at fully-valid vertices equals the box average of f: bounded
    bound = truncation_error_bound(
        certify_box_envelope(fld), 2) * (1 << psi.scale_exp)
    a, b = (1 << 2) - 1, 16 - (1 << 2)
    inner = res[a + 1:b, a + 1:b]
    assert np.abs(inner).max() <= bound


def test_measure_box_sums_brute():
    fld = random_field(2, 8, seed=12)
    for n in (1, 2):
        side = 1 << n
        best = 0
        for y in np.ndindex(8 - side + 1, 8 - side + 1):
            s = abs(int(fld.f[y[0]:y[0] + side, y[1]:y[1] + side].sum()))
            best = max(best, s)
        assert measure_box_sums(fld, n) == best
    with pytest.raises(ValueError):
        measure_box_sums(fld, 4)


def test_certified_envelope_dominates_measurements():
    fld = random_field(2, 32, seed=13)
    env = certify_box_envelope(fld)
    for n, measured, bound in env.table:
        assert bound > measured
        assert bound == pytest.approx(phi_envelope(n, env.m_const, env.eps, 2))
    assert env.c == pytest.approx(flow_bound(env.m_const, env.eps, 2))


def test_envelope_fixed_eps_and_bound_formulas():
    fld = random_field(2, 32, seed=14)
    env = certify_box_envelope(fld, eps=0.75)
    assert env.eps == 0.75
    assert flow_bound(2.0, 1.0, 3) == pytest.approx((2 * 2.0 / 4.0) / 0.5)
    assert tail_bound(3, 2.0, 1.0, 3) == pytest.approx(1.0 * 2.0 ** -3 / 0.5)
    with pytest.raises(ValueError):
        tail_bound(3, 0.0, 1.0, 3)


def test_psi_chain_telescopes_phi_levels():
    fld = random_field(2, 16, seed=15)
    chain = Chain(n=2, offset=(1, 2))
    y, g = (7, 8), (1, -1)
    z = (8, 7)
    total = Dyadic(0)
    for i in (1, 2):
        off = chain.level_offset(i)
        total = (total + phi_edge(fld, y, g, i, off)
                 - phi_edge(fld, z, (-1, 1), i, off))
    assert psi_chain(fld, chain, y, g) == total


def test_edge_field_round_trip(tmp_path):
    p = tmp_path / "f.bin"
    for margin in (0, 3):
        fld = random_field(2, 12, seed=16, margin=margin)
        psi = truncated_psi(fld, 2)
        dump_edge_field(p, psi)
        back = load_edge_field(p)
        assert back.scale_exp == psi.scale_exp
        assert np.array_equal(back.values, psi.values)
        assert back.crop == psi.crop and back.window == psi.window
        assert not back.valid.flags.writeable and back.valid.all()
    # only fields on the core box plus one ring are dumped
    with pytest.raises(ValueError, match="edge_crop"):
        dump_edge_field(p, EdgeField(fld.window, 0))
    # one-record files on a d=2, L=4 window (16 vertices, 4 directions,
    # scale 3): the last vertex, direction and exponent load; one past
    # either end of each is refused, naming the record
    for v, i, exp in ((15, 3, 3), (0, 0, 0), (-1, 0, 0), (16, 0, 0),
                      (99, 0, 0), (0, -1, 0), (0, 4, 0), (0, 7, 0),
                      (0, 0, -1), (0, 0, 4)):
        p.write_bytes(b"EQDF2\n2 4 0 3 1\n"
                      + struct.pack("<4q", v, i, 5, exp))
        if 0 <= v < 16 and 0 <= i < 4 and 0 <= exp <= 3:
            back = load_edge_field(p)
            assert np.count_nonzero(back.values) == 1
            assert back.values[i, v] == 5 << (3 - exp)
        else:
            with pytest.raises(ValueError, match=r"record 0 \(vertex %d, "
                               r"direction %d, exponent %d\)" % (v, i, exp)):
                load_edge_field(p)
    # on a d=2, L=6, margin 2 window the stored box is [1, 5)^2: vertex
    # (1, 1) = 7 loads at the box's first vertex, while (0, 5) = 5 and
    # (5, 1) = 31 lie outside it
    for v in (7, 5, 31):
        p.write_bytes(b"EQDF2\n2 6 2 0 1\n" + struct.pack("<4q", v, 2, -3, 0))
        if v == 7:
            back = load_edge_field(p)
            assert back.window == LatticeWindow(d=2, L=4, margin=1)
            assert np.flatnonzero(back.values).tolist() == [2 * 16]
            assert back.values[2, 0] == -3
        else:
            with pytest.raises(ValueError, match=r"record 0 \(vertex %d\) "
                               r"lies outside the stored box \[1, 5\)\^2"
                               % v):
                load_edge_field(p)
    p.write_bytes(b"EQDF1\n2 4 0 3 0\n")
    with pytest.raises(ValueError, match="bad magic"):
        load_edge_field(p)
    # the header's record count is the whole file: not negative, and no
    # bytes after the last record
    one = struct.pack("<4q", 3, 1, 5, 0)
    p.write_bytes(b"EQDF2\n2 4 0 3 -1\n" + one)
    with pytest.raises(ValueError, match="negative edge field record count"):
        load_edge_field(p)
    p.write_bytes(b"EQDF2\n2 4 0 3 1\n" + one + b"\0")
    with pytest.raises(ValueError, match="goes on after its 1 records"):
        load_edge_field(p)


def _one_field_file(path, records, scale=18):
    """A d=2, L=4 (16 vertices, 4 directions) EQDF2 file of the given
    (vertex, direction, numerator, exponent) records."""
    path.write_bytes(b"EQDF2\n2 4 0 %d %d\n" % (scale, len(records))
                     + b"".join(struct.pack("<4q", *r) for r in records))
    return path


def test_load_refuses_a_value_past_int64(tmp_path):
    """2^62 at exponent 0 is 2^80 at scale 18, which used to wrap to 0;
    the largest value that fits, and -2^63, still load."""
    p = tmp_path / "f.bin"
    with pytest.raises(ValueError, match=r"record 0 \(%d / 2\^0\) does "
                       r"not fit int64 at scale 18" % (1 << 62)):
        load_edge_field(_one_field_file(p, [(3, 1, 1 << 62, 0)]))
    with pytest.raises(ValueError, match="does not fit int64"):
        load_edge_field(_one_field_file(p, [(3, 1, 1, 0)], scale=64))
    back = load_edge_field(_one_field_file(p, [(3, 1, (1 << 45) - 1, 0)]))
    assert int(back.values[1, 3]) == ((1 << 45) - 1) << 18
    back = load_edge_field(_one_field_file(p, [(3, 1, -1, 0)], scale=63))
    assert int(back.values[1, 3]) == -(1 << 63)


def test_load_refuses_two_records_for_one_slot(tmp_path):
    """Records must be strictly increasing in (vertex, direction): a
    repeated slot, which used to load with the last record winning, and
    a slot out of order are refused, naming the record."""
    p = tmp_path / "f.bin"
    for second in ((3, 1, 7, 0), (3, 0, 7, 0), (2, 3, 7, 0)):
        with pytest.raises(ValueError, match=r"record 1 \(vertex %d, "
                           r"direction %d\) does not follow" % second[:2]):
            load_edge_field(_one_field_file(p, [(3, 1, 5, 0), second]))
    back = load_edge_field(_one_field_file(p, [(3, 1, 5, 0), (3, 2, 7, 0)]))
    assert back.values[1, 3] == 5 << 18 and back.values[2, 3] == 7 << 18


def test_load_refuses_a_zero_numerator(tmp_path):
    p = tmp_path / "f.bin"
    with pytest.raises(ValueError, match=r"record 0 has numerator 0 at "
                       r"exponent 0, not a canonical nonzero one"):
        load_edge_field(_one_field_file(p, [(3, 1, 0, 0)]))


def test_load_refuses_a_non_canonical_numerator(tmp_path):
    """Above exponent 0 the numerator must be odd; at exponent 0 any
    nonzero one is canonical."""
    p = tmp_path / "f.bin"
    with pytest.raises(ValueError, match=r"record 0 has numerator -6 at "
                       r"exponent 2, not a canonical nonzero one"):
        load_edge_field(_one_field_file(p, [(3, 1, -6, 2)]))
    back = load_edge_field(_one_field_file(p, [(3, 1, -6, 0), (4, 0, -3, 2)]))
    assert back.values[1, 3] == -6 << 18 and back.values[0, 4] == -3 << 16


def test_narrow_int_boundaries():
    """narrow_int(b) holds every |x| < b: int8 up to b = 128, int64 up to
    b = 2^63; beyond that no dtype does."""
    for bound, dtype in ((1, np.int8), (128, np.int8), (129, np.int16),
                         (1 << 15, np.int16), ((1 << 15) + 1, np.int32),
                         (1 << 31, np.int32), ((1 << 31) + 1, np.int64),
                         (1 << 63, np.int64)):
        assert narrow_int(bound) == dtype, bound
    with pytest.raises(ValueError):
        narrow_int((1 << 63) + 1)


def test_edge_field_values_are_signed_integers():
    w = LatticeWindow(d=2, L=4)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        assert EdgeField(w, 0, np.zeros((4, 16), dtype)).values.dtype == dtype
    for dtype in (np.float64, np.uint8, np.uint64, bool):
        with pytest.raises(ValueError, match="signed integers"):
            EdgeField(w, 0, np.zeros((4, 16), dtype))


def test_edge_field_dump_is_deterministic(tmp_path):
    fld = random_field(2, 12, seed=17)
    psi = truncated_psi(fld, 1)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    dump_edge_field(p1, psi)
    dump_edge_field(p2, psi)
    assert p1.read_bytes() == p2.read_bytes()


def test_edge_field_dump_matches_record_reference(tmp_path):
    """flow.bin bytes equal a record-by-record encoding: header, then per
    nonzero slot in (vertex, direction) order the little-endian int64
    quadruple (vertex, direction, canonical numerator, canonical
    exponent), with vertex a flat index of the full window.  On the
    margin-1 window the field covers the window; on the L=9, margin-3
    window it covers the box [2, 7)^2, whose vertex (y0, y1) is
    (y0 + 2, y1 + 2) of the window."""
    for L, margin in ((5, 1), (9, 3)):
        w = LatticeWindow(d=2, L=L, margin=margin)
        crop = edge_crop(w)
        o = crop.offset
        rng = np.random.default_rng(19)
        shape = (crop.window.n_vertices, len(directions(2)))
        scale = 4
        values = (rng.integers(-40, 41, size=shape)
                  << rng.integers(0, 6, size=shape))
        values[rng.random(shape) < 0.2] = 0
        values[0, 0] = -(1 << 40)
        psi = EdgeField(crop, scale,
                        np.ascontiguousarray(values.T, dtype=np.int64))
        p = tmp_path / "f.bin"
        dump_edge_field(p, psi)
        want = io.BytesIO()
        want.write(b"EQDF2\n")
        want.write(("2 %d %d %d %d\n" % (L, margin, scale,
                                         np.count_nonzero(values))).encode())
        for v in range(shape[0]):
            y0, y1 = divmod(v, 5)
            for i in range(shape[1]):
                if values[v, i]:
                    dy = Dyadic(int(values[v, i]), scale)
                    want.write(struct.pack("<4q", (y0 + o) * L + y1 + o, i,
                                           dy.num, dy.exp))
        assert p.read_bytes() == want.getvalue()


def test_edge_field_dump_spans_vertex_blocks(tmp_path):
    """d=3, L=14: 2744 vertices, more than one write block and not a
    whole number of blocks; the records stay in (vertex, direction)
    order across block seams."""
    w = LatticeWindow(d=3, L=14, margin=1)
    rng = np.random.default_rng(23)
    shape = (len(directions(3)), w.n_vertices)
    scale = 6
    values = rng.integers(-99, 100, size=shape)
    values <<= rng.integers(0, 8, size=shape)
    values[rng.random(shape) < 0.3] = 0
    psi = EdgeField(w, scale, values)
    p = tmp_path / "f.bin"
    dump_edge_field(p, psi)
    want = io.BytesIO()
    want.write(b"EQDF2\n")
    want.write(("3 14 1 %d %d\n" % (scale,
                                     np.count_nonzero(values))).encode())
    for v, i in zip(*np.nonzero(values.T)):
        dy = Dyadic(int(values[i, v]), scale)
        want.write(struct.pack("<4q", v, i, dy.num, dy.exp))
    assert p.read_bytes() == want.getvalue()
    back = load_edge_field(p)
    assert np.array_equal(back.values, values)
    # all 35672 slots nonzero: more records than load_edge_field reads at
    # once (2048 vertices' worth); a file cut short inside the last
    # record, the second read block or the first is refused
    values[values == 0] = 1
    dump_edge_field(p, EdgeField(w, scale, values))
    back = load_edge_field(p)
    assert np.array_equal(back.values, values)
    data = p.read_bytes()
    for keep in (len(data) - 1, len(data) - 32 * 5000, len(data) - 32 * 30000):
        p.write_bytes(data[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_edge_field(p)


def test_value_num_and_max_abs():
    w = LatticeWindow(d=1, L=4, margin=0)
    ef = EdgeField(w, scale_exp=2)
    ef.values[0, 1] = 6          # 6/4 on edge (1, 2)
    assert flow_num(ef, (1,), (2,)) == 6
    assert flow_num(ef, (2,), (1,)) == -6     # antisymmetric read
    assert ef.max_abs() == 1.5
    # past 2^53 the float is still the one nearest the exact value
    big = EdgeField(w, scale_exp=61)
    big.values[0, 2] = -((3 << 60) + 2)
    assert big.max_abs() == float(Dyadic((3 << 60) + 2, 61))


def test_default_valid_allocates_nothing():
    """An EdgeField flags every slot valid through one read-only broadcast
    of True, and so does its copy; with_values wraps the given array."""
    w = LatticeWindow(d=3, L=6, margin=2)
    ef = EdgeField(edge_crop(w), 4)
    assert ef.valid.shape == ef.values.shape == (13, 4 ** 3)
    assert ef.valid.strides == (0, 0) and not ef.valid.flags.writeable
    assert ef.valid.all()
    c = ef.copy()
    assert c.crop == ef.crop and c.valid.strides == (0, 0)
    assert not np.shares_memory(c.values, ef.values)
    vals = np.ones_like(ef.values)
    wrapped = ef.with_values(vals, 0)
    assert wrapped.values is vals and wrapped.scale_exp == 0
    assert wrapped.crop == ef.crop and ef.with_values(vals).scale_exp == 4


def test_max_abs_negative_extremes():
    w = LatticeWindow(d=2, L=3, margin=0)
    ef = EdgeField(w, scale_exp=1)
    ef.values[2, 4] = 5
    ef.values[0, 1] = -7                     # the negative side is larger
    assert ef.max_abs() == 3.5
    ef.values[0, 1] = -5                     # a tie
    assert ef.max_abs() == 2.5
    # the int64 minimum, which np.abs leaves negative
    ef.values[3, 0] = np.iinfo(np.int64).min
    assert ef.max_abs() == 2.0 ** 62
    assert EdgeField(w, 0).max_abs() == 0.0
    empty = EdgeField(w, 0)
    empty.values = empty.values[:, :0]
    assert empty.max_abs() == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("margin", [0, 1, 2])
def test_core_divergence_is_window_divergence_on_core(d, margin):
    """divergence_num(core=True) is divergence_num() cut to the core box,
    and residual_num is f - div on that box; margin 0 makes the core the
    whole window, where some tails x - g leave it."""
    L = 2 * margin + (3 if d < 5 else 2)
    rng = np.random.default_rng(100 * d + margin)
    w = LatticeWindow(d=d, L=L, margin=margin)
    dirs = directions(d)
    psi = EdgeField(w, 3, rng.integers(-1000, 1000,
                                       size=(len(dirs), w.n_vertices)))
    core = (slice(margin, L - margin),) * d
    full = psi.divergence_num()
    assert np.array_equal(psi.divergence_num(core=True), full[core])
    f = rng.integers(-1, 2, size=w.shape)
    fld = IndicatorField(window=w, chi_a=f > 0, chi_b=f < 0)
    assert np.array_equal(residual_num(fld, psi),
                          ((f.astype(np.int64) << 3) - full)[core])


_SIDES = {2: (2, 6), 3: (2, 4), 4: (2, 3)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direction_major_layout_properties(data):
    """Random int64 fields on small d = 2, 3, 4 windows: divergence_num
    equals a per-edge accumulation, grid(i) is a contiguous view into
    values, and dump/load round-trips exactly."""
    d = data.draw(st.sampled_from(sorted(_SIDES)), label="d")
    L = data.draw(st.integers(*_SIDES[d]), label="L")
    scale = data.draw(st.integers(0, 10), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = LatticeWindow(d=d, L=L)
    dirs = directions(d)
    shape = (len(dirs), w.n_vertices)
    values = rng.integers(-(1 << 40), 1 << 40, size=shape)
    values <<= rng.integers(0, 8, size=shape)
    values[rng.random(shape) < 0.3] = 0
    held = rng.random(shape) < 0.7
    psi = EdgeField(w, scale, values)

    # every slot counts out of its tail and, when the head is in the
    # window, into its head
    want = [0] * w.n_vertices
    for i, g in enumerate(dirs):
        for v in range(w.n_vertices):
            y = np.unravel_index(v, w.shape)
            val = int(values[i, v])
            want[v] += val
            z = tuple(int(c) + int(gj) for c, gj in zip(y, g))
            if w.contains(z):
                want[int(np.ravel_multi_index(z, w.shape))] -= val
    assert psi.divergence_num().ravel().tolist() == want

    for i in range(len(dirs)):
        grid = psi.grid(i)
        assert grid.flags.c_contiguous and grid.shape == w.shape
        assert np.shares_memory(grid, psi.values)
        assert np.array_equal(grid.ravel(), values[i])

    # the dump holds every nonzero slot, and a missing one loads as 0
    held = EdgeField(w, scale, np.where(held, values, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.bin")
        dump_edge_field(path, held)
        back = load_edge_field(path)
    assert back.window == w and back.scale_exp == scale
    assert np.array_equal(back.values, held.values)


def test_no_column_indexing_of_edge_arrays():
    """Edge arrays are direction-major, values[i, v]: one direction's
    edges are one contiguous row.  Column indexing would bring back the
    strided per-direction access (vertex blocks of every direction are
    taken by splitting along axis 1)."""
    src = Path(__file__).resolve().parents[1] / "src"
    hits = []
    for path in sorted(src.rglob("*.py")):
        for ln, line in enumerate(path.read_text().splitlines(), start=1):
            if re.search(r"\b(values|valid)\[\s*:\s*,", line):
                hits.append("%s:%d: %s" % (path.name, ln, line.strip()))
    assert not hits, hits

"""The dyadic flow construction against brute-force oracles.

The bulk construction (truncated_psi) is cross-checked edge by edge against
the scalar reference path (level_sum -> phi_edge -> segment_count), which is
itself checked against direct enumeration of transport segments.
"""

import io
import math
import struct

import numpy as np
import pytest

from equidecomp.dyadic import Dyadic
from equidecomp.flowgrid import (BoxEnvelope, Chain, EdgeField, box_of,
                                 certify_box_envelope, check_error_identity,
                                 dump_edge_field, flow_bound, level_sum,
                                 load_edge_field, measure_box_sums, phi_edge,
                                 phi_envelope, psi_chain, residual_num,
                                 segment_count, sub_box, tail_bound,
                                 truncated_psi, truncation_error_bound,
                                 write_edge_field_csv)
from equidecomp.lattice import (IndicatorField, LatticeWindow, all_directions,
                                directions)


def random_field(d, L, seed, margin=0):
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=d, L=L, margin=margin)
    return IndicatorField.from_f(w, rng.integers(-1, 2, size=(L,) * d))


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
    """Every valid edge of the bulk construction equals the level_sum total."""
    fld = random_field(2, 12, seed=7)
    n0 = 2
    psi = truncated_psi(fld, n0)
    dirs = [tuple(g) for g in directions(2)]
    checked = 0
    for y in np.ndindex(12, 12):
        flat = y[0] * 12 + y[1]
        for di, g in enumerate(dirs):
            if not psi.valid[flat, di]:
                continue
            total = Dyadic(0)
            for n in range(1, n0 + 1):
                total = total + level_sum(fld, y, g, n)
            assert psi.value_num(y, g) == total.scaled(psi.scale_exp)
            checked += 1
    assert checked > 100


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
    fld = random_field(2, 12, seed=16)
    psi = truncated_psi(fld, 2)
    p = tmp_path / "f.bin"
    dump_edge_field(p, psi)
    back = load_edge_field(p)
    assert back.scale_exp == psi.scale_exp
    assert np.array_equal(back.values, psi.values)
    assert np.array_equal(back.valid, psi.valid)
    assert back.window == psi.window


def test_edge_field_dump_is_deterministic(tmp_path):
    fld = random_field(2, 12, seed=17)
    psi = truncated_psi(fld, 1)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    dump_edge_field(p1, psi)
    dump_edge_field(p2, psi)
    assert p1.read_bytes() == p2.read_bytes()


def test_edge_field_dump_matches_record_reference(tmp_path):
    """flow.bin bytes equal a record-by-record encoding: header, then per
    valid edge in index order the little-endian int64 quadruple (vertex,
    direction, canonical numerator, canonical exponent)."""
    w = LatticeWindow(d=2, L=5, margin=1)
    rng = np.random.default_rng(19)
    shape = (w.n_vertices, len(directions(2)))
    scale = 4
    values = rng.integers(-40, 41, size=shape) << rng.integers(0, 6, size=shape)
    values[rng.random(shape) < 0.2] = 0
    values[0, 0] = -(1 << 40)
    valid = rng.random(shape) < 0.8
    psi = EdgeField(w, scale, values.astype(np.int64), valid)
    p = tmp_path / "f.bin"
    dump_edge_field(p, psi)
    want = io.BytesIO()
    want.write(b"EQDF1\n")
    want.write(("2 5 1 %d %d\n" % (scale, valid.sum())).encode())
    for v in range(shape[0]):
        for i in range(shape[1]):
            if valid[v, i]:
                dy = Dyadic(int(values[v, i]), scale)
                want.write(struct.pack("<4q", v, i, dy.num, dy.exp))
    assert p.read_bytes() == want.getvalue()


def test_edge_field_csv_crlf(tmp_path):
    fld = random_field(2, 8, seed=18)
    psi = truncated_psi(fld, 1)
    p = tmp_path / "f.csv"
    write_edge_field_csv(p, psi)
    raw = p.read_bytes()
    assert b"\r\n" in raw
    assert raw.replace(b"\r\n", b"").find(b"\n") == -1


def test_rescaled_and_max_abs():
    w = LatticeWindow(d=1, L=4, margin=0)
    ef = EdgeField(w, scale_exp=2)
    ef.values[1, 0] = 6          # 6/4 on edge (1, 2)
    assert ef.value_num((1,), (1,)) == 6
    assert ef.value_num((2,), (-1,)) == -6   # antisymmetric read
    up = ef.rescaled(4)
    assert up.value_num((1,), (1,)) == 24
    assert ef.max_abs() == Dyadic(3, 1)
    with pytest.raises(ValueError):
        ef.rescaled(1)

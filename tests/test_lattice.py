"""Lattice actions, windows, edge slots, sampling, and the discrepancy fit."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equidecomp import lattice
from equidecomp.lattice import (FREENESS_TOL, ActionSpec, IndicatorField,
                                LatticeWindow, all_directions,
                                choose_lattice_dimension, directions,
                                discrepancy, edge_mask,
                                edge_slots, fit_discrepancy_envelope,
                                flat_shifts,
                                min_orbit_separation, orbit_points,
                                reduce_mod1, sample_field)
from equidecomp.shapes import parse_shape
from oracle import freeness, gridpoints


def test_directions_are_half_of_nonzero():
    for d in (1, 2, 3, 4):
        pos = directions(d)
        assert len(pos) == (3 ** d - 1) // 2
        assert len(all_directions(d)) == 3 ** d - 1
        for g in pos:
            # lex-positive: first nonzero component is +1
            nz = [c for c in g if c != 0]
            assert nz[0] == 1
        assert len({tuple(g) for g in pos}
                   | {tuple(-c for c in g) for g in pos}) == 3 ** d - 1


def test_edge_slots_every_slot():
    """Every in-window slot (i, v) of every direction, read forward and
    backward from coordinates; edge_mask and flat_shifts agree."""
    for d, L in itertools.product((1, 2, 3), (2, 3, 5)):
        w = LatticeWindow(d=d, L=L)
        rows, tails, heads = [], [], []
        for (i, g), v in itertools.product(enumerate(directions(d)),
                                           np.ndindex(*w.shape)):
            u = np.add(v, g)
            if ((u >= 0) & (u < L)).all():
                rows.append(i)
                tails.append(np.ravel_multi_index(v, w.shape))
                heads.append(np.ravel_multi_index(tuple(u), w.shape))
        for a, b, want_sign in ((tails, heads, 1), (heads, tails, -1)):
            row, tail, sign = edge_slots(w, a, b)
            assert row.tolist() == rows and tail.tolist() == tails
            assert (sign == want_sign).all()
        want = np.zeros((len(directions(d)), w.n_vertices), dtype=bool)
        want[rows, tails] = True
        ones = np.ones(w.shape, dtype=bool)
        assert np.array_equal(edge_mask(w, ones, np.logical_and), want)
        assert np.array_equal(np.subtract(heads, tails), flat_shifts(w)[rows])
    # not edges: a wrap-around pair (flat difference 1, the shift of
    # (0, 1)), non-neighbors, a loop, and a vertex outside the window
    for L in (3, 5):
        w = LatticeWindow(d=2, L=L)
        flat = lambda v: np.ravel_multi_index(v, w.shape)
        for u, v in (((0, L - 1), (1, 0)), ((1, L - 1), (1, 0)),
                     ((0, 0), (0, 2)), ((0, 0), (2, 2)), ((1, 1), (1, 1))):
            with pytest.raises(ValueError, match="not a lattice edge"):
                edge_slots(w, [flat((0, 0)), flat(u)], [flat((0, 1)), flat(v)])
        with pytest.raises(ValueError):
            edge_slots(w, [0], [w.n_vertices])
    with pytest.raises(ValueError, match="not a lattice edge"):
        edge_slots(LatticeWindow(d=1, L=5), [0], [2])


def test_reduce_mod1_snaps_near_integers():
    x = np.array([0.999999999999999, 1.0, -0.25, 0.5])
    r = reduce_mod1(x)
    assert np.all((r >= 0) & (r < 1))
    assert r[0] == 0.0 and r[1] == 0.0 and r[2] == 0.75


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-2.0 ** 60, max_value=2.0 ** 60),
                max_size=30))
def test_reduce_mod1_is_np_mod_bit_for_bit(xs):
    """x - floor(x) rounds the exact value np.mod(x, 1.0) rounds: the same
    bits for negatives, signed zeros, values next to integers and halves
    at the edge of float precision."""
    special = [0.0, -0.0, -1e-300, 1e-300, -0.25, 0.5, -1.0, 3.0,
               np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
               np.nextafter(2.0, 3.0), np.nextafter(-2.0, -3.0),
               2.0 ** 52 + 0.5, 2.0 ** 52 - 0.5, -(2.0 ** 52) + 0.5,
               -(2.0 ** 52) - 0.5, 2.0 ** 53 + 2.0, -1e-17, 1 - 1e-13]
    x = np.array(xs + special, dtype=np.float64)
    assert _same_bits(reduce_mod1(x), gridpoints.reduce_mod1(x))


def test_first_primes_by_trial_division():
    primes = lattice._first_primes(128)
    assert len(primes) == 128 and primes[-1] == 719
    assert all(type(p) is int for p in primes)
    assert primes == [n for n in range(2, 720)
                      if all(n % q for q in range(2, math.isqrt(n) + 1))]
    for count in range(1, 40):
        assert lattice._first_primes(count) == primes[:count]


def test_choose_lattice_dimension_pinned():
    assert choose_lattice_dimension(1, 0) == 3
    assert choose_lattice_dimension(2, 1) == 5
    assert choose_lattice_dimension(2, 0) == 3
    with pytest.raises(ValueError):
        choose_lattice_dimension(1, 1)


def test_grid_points_matches_naive():
    act = ActionSpec.from_seed(2, 3, seed=11)
    N = 4
    pts = act.grid_points((N,) * 3).reshape(-1, 2)
    idx = np.indices((N,) * 3).reshape(3, -1).T
    naive = reduce_mod1(idx @ act.u + act.x0)
    assert np.allclose(pts, naive, atol=1e-12)


_coord = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=5), st.data())
def test_grid_points_equals_per_axis_oracle(k, d, data):
    """The per-coordinate planes give the bits of the per-axis (..., k)
    accumulation reduced by np.mod, also for generators and base points
    that are negative or past 1."""
    u = data.draw(st.lists(_coord, min_size=d * k, max_size=d * k))
    x0 = data.draw(st.lists(_coord, min_size=k, max_size=k))
    ns = data.draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=d, max_size=d))
    act = ActionSpec(k=k, d=d, u=u, x0=x0)
    x = data.draw(st.none() | st.lists(_coord, min_size=k, max_size=k))
    assert _same_bits(act.grid_points(ns, x),
                      gridpoints.grid_points(act, ns, x))


def test_orbit_points_shifted_base():
    act = ActionSpec.from_seed(1, 2, seed=3)
    x = np.array([0.37])
    pts = orbit_points(act, 5, x)
    naive = reduce_mod1(
        np.indices((5, 5)).reshape(2, -1).T @ act.u + x)
    assert np.allclose(pts, naive, atol=1e-12)


def test_discrepancy_hand_example():
    # 4 points, 1 inside [0, 1/4): |1/4 - 1/4| = 0
    shape = parse_shape("intervals:0:1/4")
    pts = np.array([[0.1], [0.3], [0.6], [0.9]])
    assert discrepancy(pts, shape) == 0.0
    pts = np.array([[0.1], [0.2], [0.6], [0.9]])
    assert discrepancy(pts, shape) == pytest.approx(0.25)


def test_window_masks_partition():
    w = LatticeWindow(d=3, L=12, margin=3)
    core = w.core_mask()
    frontier = w.frontier_mask()
    assert core.shape == (12, 12, 12)
    assert not (core & frontier).any()
    assert (core | frontier).all()
    assert core.sum() == 6 ** 3
    lo, hi = w.core_bounds
    assert (lo, hi) == (3, 9)


def test_sample_field_counts_match_membership_oracle():
    w = LatticeWindow(d=2, L=8, margin=2)
    act = ActionSpec.from_seed(1, 2, seed=5)
    sa = parse_shape("intervals:0:1/4")
    sb = parse_shape("intervals:1/2:3/4")
    fld = sample_field(w, act, sa, sb)
    pts = orbit_points(act, 8, act.x0)
    # raw interval membership, bypassing the shape classes entirely
    in_a = np.array([0 <= p[0] < 0.25 for p in pts])
    in_b = np.array([0.5 <= p[0] < 0.75 for p in pts])
    assert fld.chi_a.ravel().tolist() == in_a.tolist()
    assert fld.chi_b.ravel().tolist() == in_b.tolist()
    assert fld.count_a == int(in_a.sum())
    assert (fld.f == (fld.chi_a.astype(np.int8)
                      - fld.chi_b.astype(np.int8))).all()


def test_sample_field_rejects_measure_mismatch():
    w = LatticeWindow(d=2, L=8, margin=2)
    act = ActionSpec.from_seed(1, 2, seed=5)
    sa = parse_shape("intervals:0:1/4")
    sb = parse_shape("intervals:1/2:5/8")
    with pytest.raises(ValueError):
        sample_field(w, act, sa, sb)


def test_sample_field_rejects_unfree_action():
    w = LatticeWindow(d=2, L=8, margin=2)
    act = ActionSpec(k=1, d=2, u=[[0.125], [0.25]], x0=[0.0])
    sa = parse_shape("intervals:0:1/4")
    sb = parse_shape("intervals:1/2:3/4")
    with pytest.raises(ValueError):
        sample_field(w, act, sa, sb)


def test_min_orbit_separation_positive_for_seeded_action():
    act = ActionSpec.from_seed(1, 3, seed=7)
    sep, delta = min_orbit_separation(act, 8)
    assert sep > 0
    assert delta != (0,) * 3
    # witness matches a direct recomputation
    diff = np.asarray(delta, dtype=np.float64) @ act.u
    frac = np.mod(diff, 1.0)
    circ = np.minimum(frac, 1.0 - frac).max()
    assert sep == pytest.approx(circ)


def _exact_dist(action, delta):
    """max_c |t - round(t)|, t = sum_i delta_i u_ic summed from 0 in axis
    order: the scan's float arithmetic, one offset at a time."""
    out = 0.0
    for c in range(action.k):
        t = 0.0
        for i, g in enumerate(delta):
            t += float(g) * float(action.u[i, c])
        out = max(out, abs(t - round(t)))
    return out


def _check_against_oracle(action, extent):
    """The half-box scan against the full-box oracle: the same decision,
    distances within 2^-52, both witnesses nonzero offsets in the box, the
    scan's witness attaining its minimum exactly and the oracle's within
    2^-52."""
    sep, delta = min_orbit_separation(action, extent)
    sep_o, delta_o = freeness.min_orbit_separation(action, extent)
    assert (sep <= FREENESS_TOL) == (sep_o <= FREENESS_TOL)
    assert abs(sep - sep_o) <= 2.0 ** -52
    for w in (delta, delta_o):
        assert len(w) == action.d and any(w)
        assert all(abs(g) < extent for g in w)
    assert _exact_dist(action, delta) == sep
    assert abs(_exact_dist(action, delta_o) - sep) <= 2.0 ** -52
    return sep


@pytest.mark.parametrize("k,d,seed,extent", [
    (2, 5, 7, 10), (2, 5, 3, 10), (1, 3, 7, 32), (1, 3, 7, 40),
    (1, 2, 7, 128), (2, 2, 1, 64), (3, 3, 2, 16), (1, 3, 7, 8)])
def test_min_orbit_separation_matches_full_box_oracle(k, d, seed, extent):
    sep = _check_against_oracle(ActionSpec.from_seed(k, d, seed), extent)
    assert sep > FREENESS_TOL


# generator entries: multiples of 1/8 (exact float sums, often not free)
# or arbitrary floats in [0, 1)
_eighths = st.integers(min_value=0, max_value=7).map(lambda j: j / 8)
_entry = st.one_of(_eighths,
                   st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=9), st.data())
def test_min_orbit_separation_property(k, d, extent, data):
    u = data.draw(st.lists(_entry, min_size=d * k, max_size=d * k))
    act = ActionSpec(k=k, d=d, u=u, x0=[0.0] * k)
    block = data.draw(st.sampled_from([1, 5, lattice.SCAN_BLOCK]))
    with mock.patch.object(lattice, "SCAN_BLOCK", block):
        sep = _check_against_oracle(act, extent)
        delta = min_orbit_separation(act, extent)[1]
    box = [g for g in itertools.product(range(1 - extent, extent), repeat=d)
           if any(g)]
    assert sep == min(_exact_dist(act, g) for g in box)
    # the witness is the first minimiser of the half box in C order,
    # whatever the block size
    half = [g for g in box if g[0] >= 0]
    assert delta == next(g for g in half if _exact_dist(act, g) == sep)
    if all(v * 8 == int(v * 8) for v in u):
        # exact rationals: not free on the window iff some offset's
        # translation is integral in every coordinate
        free = all(any(sum(Fraction(g_i) * Fraction(act.u[i, c])
                           for i, g_i in enumerate(g)).denominator != 1
                       for c in range(k)) for g in box)
        assert (sep == 0.0) == (not free)


# generator entries for the equality checks: eighths (exact sums, often
# not free), tenths (inexact, with many sums an ulp or two from an
# integer), zeros, negatives, and entries far outside [0, 1), whose sums
# widen the query's float margin
_tenths = st.integers(min_value=-9, max_value=9).map(lambda j: j / 10)
_wide_entry = st.one_of(_eighths, _tenths, st.just(0.0),
                        st.floats(min_value=-1.0, max_value=1.0),
                        st.floats(min_value=-1e6, max_value=1e6))
_EXTENT_MAX = {1: 60, 2: 16, 3: 7, 4: 5, 5: 4}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=5), st.data())
def test_min_orbit_separation_equals_blocked_scan(k, d, data):
    """The sorted query returns the blocked scan's (distance, witness)
    tuple (oracle.freeness): the same float and the same first minimiser
    in C order, whatever SCAN_BLOCK is, with coordinate 0's column zero
    or not."""
    extent = data.draw(st.integers(min_value=2, max_value=_EXTENT_MAX[d]))
    u = np.array(data.draw(st.lists(_wide_entry, min_size=d * k,
                                    max_size=d * k))).reshape(d, k)
    if data.draw(st.booleans()):
        u[:, 0] = 0.0
    act = ActionSpec(k=k, d=d, u=u, x0=[0.0] * k)
    block = data.draw(st.sampled_from([1, 5, 2 ** 17]))
    with mock.patch.object(lattice, "SCAN_BLOCK", block):
        got = min_orbit_separation(act, extent)
    assert got == freeness.blocked_min_orbit_separation(act, extent)


@pytest.mark.parametrize("k,d,extent,seed", [
    (2, 5, 10, 7), (2, 5, 10, 11), (1, 3, 32, 7), (1, 3, 32, 11),
    (2, 5, 20, 7)])
def test_min_orbit_separation_equals_blocked_scan_seeded(k, d, extent, seed):
    """The demo (k=2, d=5, L=10), the flagship (k=1, d=3, L=32) and
    k=2, d=5, L=20, at the benchmark's two action seeds: the blocked
    scan's tuple to the bit."""
    act = ActionSpec.from_seed(k, d, seed)
    assert min_orbit_separation(act, extent) \
        == freeness.blocked_min_orbit_separation(act, extent)


@pytest.mark.parametrize("k,u,extent", [
    (1, [0.4, -0.3, -0.5, -0.9, -0.1], 3),
    (1, [0.7, -0.1, -0.3, -0.2], 2),
    (3, [0.5, -0.8, -0.5, 0.0, -0.7, -0.2, -0.9, 0.8, -0.2], 5),
    (3, [-0.4, 0.9, 0.7, 0.4, 0.9, -0.8, 0.1, 0.8, -0.1, -0.6, -0.2, -0.3],
     4)])
def test_min_orbit_separation_tenths(k, u, extent):
    """Tenths whose sums land within an ulp or two of an integer, where
    the query's reassociated sum and the scan's sum round apart: without
    the float margin eps, the query drops the blocked scan's minimiser
    (or its first tie)."""
    act = ActionSpec(k=k, d=len(u) // k, u=u, x0=[0.0] * k)
    assert min_orbit_separation(act, extent) \
        == freeness.blocked_min_orbit_separation(act, extent)


def _traced_peak(fn):
    """(fn(), tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_min_orbit_separation_memory():
    """The demo-sized scan (a half box of 1.3M offsets, 10 MiB as one
    float64 array) forms one head row whole and then only its candidates:
    0.12 MiB traced, the head sums, the sorted tail and the candidates of
    one chunk, and no (..., k) temporary."""
    act = ActionSpec.from_seed(2, 5, seed=7)
    _, peak = _traced_peak(lambda: min_orbit_separation(act, 10))
    assert peak <= 2 ** 19


def test_min_orbit_separation_zero_column():
    """With coordinate 0's column zero, every offset of the demo-sized
    half box is a candidate: the scan still returns the blocked scan's
    tuple, and forms one chunk of at most SCAN_BLOCK candidates at a time
    (5.2 MiB traced, within the 8 MiB the blocked scan was held to)."""
    u = ActionSpec.from_seed(2, 5, seed=7).u.copy()
    u[:, 0] = 0.0
    act = ActionSpec(k=2, d=5, u=u, x0=[0.0, 0.0])
    got, peak = _traced_peak(lambda: min_orbit_separation(act, 10))
    assert got == freeness.blocked_min_orbit_separation(act, 10)
    assert peak <= 8 * 2 ** 20


def test_scan_bound_in_d5():
    """The scan bound admits d=5 up to L=28 and refuses L=29."""
    assert lattice.scan_size(LatticeWindow(d=5, L=28)) == 28 * 55 ** 4 \
        <= lattice.SCAN_MAX < lattice.scan_size(LatticeWindow(d=5, L=29))


def test_from_seed_deterministic_and_small():
    a1 = ActionSpec.from_seed(2, 5, seed=7)
    a2 = ActionSpec.from_seed(2, 5, seed=7)
    assert np.array_equal(a1.u, a2.u)
    assert ((a1.u > 0) & (a1.u < 0.1)).all()
    a3 = ActionSpec.from_seed(2, 5, seed=8)
    assert not np.array_equal(a1.u, a3.u)


def test_envelope_fit_reports_table_and_decay():
    act = ActionSpec.from_seed(1, 2, seed=1)
    ns = [2, 4, 8, 16]
    fit = fit_discrepancy_envelope(act, parse_shape("intervals:0:1/4"), ns,
                                   [act.x0])
    assert [n for n, _ in fit.table] == ns
    assert fit.slope < 0
    assert fit.m_const == pytest.approx(math.exp(fit.intercept))
    assert fit.eps == pytest.approx(-fit.slope - 1.0)


def test_envelope_fit_flags_rational_direction():
    # all generators rational with tiny denominator -> no equidistribution
    act = ActionSpec(k=1, d=2, u=[[0.5], [0.25]], x0=[0.0])
    fit = fit_discrepancy_envelope(act, parse_shape("intervals:0:1/4"),
                                   [2, 4, 8, 16, 32], [act.x0])
    assert fit.flags  # zero-discrepancy, no-decay or eps-nonpositive


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10 ** 6))
def test_field_from_f_round_trip(L, seed):
    rng = np.random.default_rng(seed)
    w = LatticeWindow(d=2, L=L, margin=0)
    f = rng.integers(-1, 2, size=(L, L)).astype(np.int8)
    fld = IndicatorField(window=w, chi_a=f > 0, chi_b=f < 0)
    assert (fld.f == f).all()
    assert fld.count_a == int((f == 1).sum())
    assert fld.count_b == int((f == -1).sum())

"""Box-flow kernels: sub-box sums and the per-phase segment counts behind
the line sum, checked against direct enumeration, and the kept-box line
sums against the full-window level grids they replaced."""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from equidecomp._kernels import add_line_sum, level_box, subbox_sums
from equidecomp.flowgrid import truncated_psi, truncation_mask
from equidecomp.lattice import IndicatorField, LatticeWindow
from oracle.levelgrid import truncated_psi_values
from oracle.paperflow import box_of, segment_count, sub_box


def brute_subbox_sums(grid, side):
    L = grid.shape[0]
    d = grid.ndim
    m = L - side + 1
    out = np.zeros((m,) * d, dtype=np.int64)
    for idx in np.ndindex(*out.shape):
        sl = tuple(slice(i, i + side) for i in idx)
        out[idx] = grid[sl].sum()
    return out


def test_subbox_sums_match_brute_force():
    rng = np.random.default_rng(0)
    for d, L, side in ((1, 9, 4), (2, 8, 2), (3, 6, 4), (2, 7, 1),
                       (3, 5, 1)):
        g = rng.integers(-1, 2, size=(L,) * d)
        assert np.array_equal(subbox_sums(g, side), brute_subbox_sums(g, side))
    # side 1 is the grid itself, as a fresh int64 array even when the grid
    # already is one
    g = rng.integers(-1, 2, size=(6, 6)).astype(np.int64)
    before = g.copy()
    ones = subbox_sums(g, 1)
    assert ones.dtype == np.int64 and np.array_equal(ones, g)
    ones += 5
    assert np.array_equal(g, before)
    assert np.array_equal(subbox_sums(g.astype(np.int8), 1), g)


def test_phase_tables_direct_count():
    """Recount the oracle's segments for every phase by explicit enumeration,
    check that every source lies in its half-box, and sum the phases into
    the kernel's segment form: half-box corner c carries weight
    2^(#zero coords) * #{i < h : c in y - i gamma - [0, h)^d}."""
    for gamma in ((1,), (-1,), (1, 0), (1, -1), (0, 1), (0, -1, 1)):
        d = len(gamma)
        for n in (1, 2, 3):
            h = 1 << (n - 1)
            side = 1 << n
            y = (5,) * d
            weight = Counter()
            for off in np.ndindex(*(side,) * d):
                b = box_of(y, n, off)
                corner, half = sub_box(y, gamma, n, off)
                expect = 0
                for i in range(h):
                    z = tuple(c - i * g for c, g in zip(y, gamma))
                    w = tuple(zj + h * g for zj, g in zip(z, gamma))
                    if all(0 <= c - bj < side for c, bj in zip(z + w, b + b)):
                        expect += 1
                        assert all(cj <= zj < cj + half
                                   for cj, zj in zip(corner, z))
                assert segment_count(y, gamma, n, off) == expect
                weight[corner] += expect
            line = Counter()
            for i in range(h):
                for t in np.ndindex(*(h,) * d):
                    c = tuple(yj - i * g - tj for yj, g, tj in zip(y, gamma, t))
                    line[c] += 1 << gamma.count(0)
            assert +weight == line


def test_line_sum_antisymmetry():
    """The line sum at y for gamma equals minus the one at y + gamma for
    -gamma, over the whole box of edges with both ends valid at level 2."""
    rng = np.random.default_rng(3)
    L, n = 12, 2
    g = rng.integers(-1, 2, size=(L, L))
    box = level_box(g, n)
    for gamma in ((1, 0), (1, 1), (1, -1), (0, 1)):
        # tails y with y and y + gamma in the valid region [3, 8]^2
        lo = [3 + (c < 0) for c in gamma]
        shape = [6 - abs(c) for c in gamma]
        fwd = np.zeros(shape, dtype=np.int64)
        add_line_sum(fwd, box, n, gamma, lo)
        rev = np.zeros(shape, dtype=np.int64)
        add_line_sum(rev, box, n, tuple(-c for c in gamma),
                     [a + c for a, c in zip(lo, gamma)])
        assert fwd.any()
        assert np.array_equal(rev, -fwd)


@st.composite
def small_windows(draw):
    n0 = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    L = draw(st.integers(1 << (n0 + 1), 16))
    margin = draw(st.integers(0, min(4, (L - 1) // 2)))
    return d, L, margin, n0, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(small_windows())
def test_truncated_psi_equals_full_window_level_grids(case):
    """The kept-box line sums equal, slot for slot and dtype included, the
    full-window level grids summed per direction and cut to the kept
    slots: the crop is the whole window at margins 0 and 1 and smaller
    from margin 2 on."""
    d, L, margin, n0, seed = case
    rng = np.random.default_rng(seed)
    f = rng.integers(-1, 2, size=(L,) * d)
    w = LatticeWindow(d=d, L=L, margin=margin)
    fld = IndicatorField(window=w, chi_a=f > 0, chi_b=f < 0)
    psi = truncated_psi(fld, n0)
    ref = truncated_psi_values(fld, n0)
    assert psi.values.dtype == ref.dtype
    assert np.array_equal(psi.values, ref)


def test_edge_valid_mask_geometry():
    w = LatticeWindow(d=2, L=16)
    empty = np.zeros(w.shape, dtype=bool)
    psi = truncated_psi(IndicatorField(window=w, chi_a=empty, chi_b=empty), 2)
    m = truncation_mask(psi.crop, 2)[1].reshape(w.shape)   # direction (1, -1)
    # level-2 phase neighborhoods need [3, 12] for both endpoints
    assert m[3, 4] and m[11, 4]
    assert not m[2, 4] and not m[12, 4]   # y outside
    assert not m[3, 3]                    # y + gamma leaves [3, 12]
    assert m.sum() == 9 * 9

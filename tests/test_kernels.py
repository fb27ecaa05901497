"""Box-flow kernels: sub-box sums, the per-phase segment counts behind the
line sum, and level edge grids, checked against direct enumeration."""

from collections import Counter

import numpy as np

from equidecomp._kernels import level_box, level_edge_grid, subbox_sums
from equidecomp.flowgrid import truncated_psi, truncation_mask
from equidecomp.lattice import IndicatorField, LatticeWindow
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
    for d, L, side in ((1, 9, 4), (2, 8, 2), (3, 6, 4)):
        g = rng.integers(-1, 2, size=(L,) * d)
        assert np.array_equal(subbox_sums(g, side), brute_subbox_sums(g, side))


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


def test_level_edge_grid_antisymmetry():
    """grid[y] for gamma equals -grid[y+gamma] for -gamma."""
    rng = np.random.default_rng(3)
    L, n = 12, 2
    g = rng.integers(-1, 2, size=(L, L))
    box = level_box(g, n)
    for gamma in ((1, 0), (1, 1), (1, -1), (0, 1)):
        fwd = level_edge_grid(box, L, n, gamma)
        rev = level_edge_grid(box, L, n, tuple(-c for c in gamma))
        ys = np.argwhere(fwd != 0)
        assert len(ys)
        for y in ys:
            z = tuple(y + np.array(gamma))
            assert rev[z] == -fwd[tuple(y)]


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

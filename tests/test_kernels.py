"""Box-flow kernels: sub-box sums, phase tables and level edge grids
checked against direct enumeration."""

import numpy as np

from equidecomp._kernels import level_edge_grid, phase_tables, subbox_sums
from equidecomp.flowgrid import truncated_psi
from equidecomp.lattice import IndicatorField, LatticeWindow


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
    """Recount segments for every phase by explicit enumeration."""
    for gamma in ((1,), (-1,), (1, 0), (1, -1), (0, 1)):
        d = len(gamma)
        for n in (1, 2, 3):
            h = 1 << (n - 1)
            side = 1 << n
            counts, qoff = phase_tables(n, gamma)
            for flat, p in enumerate(np.ndindex(*(side,) * d)):
                expect = 0
                src = None
                for i in range(h):
                    z = tuple(pj - i * gj for pj, gj in zip(p, gamma))
                    w = tuple(zj + h * gj for zj, gj in zip(z, gamma))
                    if all(0 <= c < side for c in z) \
                            and all(0 <= c < side for c in w):
                        expect += 1
                        if src is None:
                            src = z
                assert counts[flat] == expect
                if expect:
                    # all source cells lie inside the half-box at qoff
                    q = qoff[flat]
                    for i in range(h):
                        z = tuple(pj - i * gj for pj, gj in zip(p, gamma))
                        w = tuple(zj + h * gj for zj, gj in zip(z, gamma))
                        if all(0 <= c < side for c in z) \
                                and all(0 <= c < side for c in w):
                            assert all(qj <= zj < qj + h
                                       for qj, zj in zip(q, z))


def test_level_edge_grid_antisymmetry():
    """grid[y] for gamma equals -grid[y+gamma] for -gamma."""
    rng = np.random.default_rng(3)
    L, n = 12, 2
    g = rng.integers(-1, 2, size=(L, L))
    sb = subbox_sums(g, 1 << (n - 1))
    for gamma in ((1, 0), (1, 1), (1, -1), (0, 1)):
        fwd = level_edge_grid(sb, L, n, gamma)
        rev = level_edge_grid(sb, L, n, tuple(-c for c in gamma))
        ys = np.argwhere(fwd != 0)
        for y in ys:
            z = tuple(y + np.array(gamma))
            assert rev[z] == -fwd[tuple(y)]


def test_edge_valid_mask_geometry():
    w = LatticeWindow(d=2, L=16)
    empty = np.zeros(w.shape, dtype=bool)
    psi = truncated_psi(IndicatorField(window=w, chi_a=empty, chi_b=empty), 2)
    m = psi.valid[1].reshape(w.shape)     # direction (1, -1)
    # level-2 phase neighborhoods need [3, 12] for both endpoints
    assert m[3, 4] and m[11, 4]
    assert not m[2, 4] and not m[12, 4]   # y outside
    assert not m[3, 3]                    # y + gamma leaves [3, 12]
    assert m.sum() == 9 * 9

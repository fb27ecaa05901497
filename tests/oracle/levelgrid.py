"""The truncated flow summed over the whole window, one level grid at a
time: the construction `equidecomp.flowgrid.truncated_psi` replaced.

Each level's line sum is formed on a full-window int64 grid, zero outside
the level's valid region, weighted by a multiply, and the levels are
added into one more full-window grid per direction.  The kept slots are
found from their definition, one coordinate grid per direction, not
from `flowgrid.truncation_mask`.  Only B = `_kernels.level_box(f, n)` is
shared with the package; `tests/test_kernels.py` checks it by brute force.
"""

import numpy as np

from equidecomp._kernels import level_box
from equidecomp.flowgrid import narrow_int, psi_num_bound
from equidecomp.lattice import directions, edge_crop


def level_edge_grid(box, L, n, gamma):
    """Scaled level-n flow on edges (y, y + gamma) over the whole window:
    the phase sum at y minus the reverse phase sum at y + gamma,

        2^(#zero coords) * (sum_{i < h} B[y - i gamma]
                            - sum_{1 <= i <= h} B[y + i gamma]),

    with B = level_box(f, n) read at offset -(h - 1).  Zero unless y and
    y + gamma lie in the level-n valid region [2^n - 1, L - 2^n]^d.  True
    flow value = grid / 2^(2 n d)."""
    d = len(gamma)
    h = 1 << (n - 1)
    out = np.zeros((L,) * d, dtype=np.int64)
    lo = [(1 << n) - 1 + (g < 0) for g in gamma]
    hi = [L - (1 << n) - (g > 0) for g in gamma]
    if any(l > u for l, u in zip(lo, hi)):
        return out
    acc = out[tuple(slice(l, u + 1) for l, u in zip(lo, hi))]
    for i in range(-h, h):
        src = tuple(slice(l - i * g - h + 1, u - i * g - h + 2)
                    for l, u, g in zip(lo, hi, gamma))
        if i >= 0:
            acc += box[src]
        else:
            acc -= box[src]
    acc *= 1 << gamma.count(0)
    return out


def kept_slots(window, n0, gamma):
    """Full-window mask of the tails y whose edge (y, y + gamma) the
    truncated flow stores: both ends lie in edge_crop(window) and in the
    level-n0 valid region [2^n0 - 1, L - 2^n0]^d."""
    L = window.L
    o = edge_crop(window).offset
    lo, hi = max((1 << n0) - 1, o), min(L - (1 << n0), L - 1 - o)
    ys = np.indices(window.shape)
    keep = np.ones(window.shape, dtype=bool)
    for y, g in zip(ys, gamma):
        keep &= (y >= lo) & (y <= hi) & (y + g >= lo) & (y + g <= hi)
    return keep


def truncated_psi_values(field, n0):
    """truncated_psi(field, n0).values by full-window level grids."""
    window = field.window
    L, d = window.L, window.d
    crop = edge_crop(window)
    f64 = field.f.astype(np.int64)
    boxes = [level_box(f64, n) for n in range(1, n0 + 1)]
    dirs = directions(d)
    out = np.zeros((len(dirs), crop.window.n_vertices),
                   dtype=narrow_int(psi_num_bound(d, n0)))
    for i, g in enumerate(dirs):
        total = np.zeros(window.shape, dtype=np.int64)
        for n, box in enumerate(boxes, start=1):
            grid = level_edge_grid(box, L, n, tuple(int(c) for c in g))
            np.multiply(grid, 1 << (2 * (n0 - n) * d), out=grid)
            total += grid
        total[~kept_slots(window, n0, g)] = 0
        out[i] = crop.take(total).ravel()
    return out

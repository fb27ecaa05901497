"""The unmatched-locality check one edge direction at a time.

A tile may hold unmatched points when it is unused, or when one of its
vertices has an edge to an untiled vertex or to a vertex of an unused
tile.  For each canonical direction g this pairs the tile ids of both
ends of every edge (x, x + g) within the core plus a one-vertex ring --
every edge with a tiled end -- with -1 for untiled, and opens the tiled
end of each edge whose other end is opened.
"""

import numpy as np

from equidecomp.lattice import _shift_slices, directions


def allowed_tiles(tiling, used) -> np.ndarray:
    """(n,) bool: the tiles that may hold unmatched points."""
    window = tiling.window
    lo, hi = window.core_bounds
    c0, c1 = max(lo - 1, 0), min(hi + 1, window.L)
    tid = tiling.tile_id[(slice(c0, c1),) * window.d]
    opened = np.append(~used, True)     # index -1: untiled
    allowed = ~used
    for g in directions(window.d):
        src, dst = _shift_slices(c1 - c0, g)
        ta, tb = tid[src].ravel(), tid[dst].ravel()
        allowed[ta[(ta >= 0) & opened[tb]]] = True
        allowed[tb[(tb >= 0) & opened[ta]]] = True
    return allowed


def unmatched_locality(tiling, used, unmatched_flat) -> dict:
    """The verifier's `unmatched_locality` entry for unmatched points at
    the given flat window indices: ok, and the offending tile ids (-1 for
    an untiled point), ascending."""
    allowed = allowed_tiles(tiling, used)
    tiles = np.unique(tiling.tile_id.ravel()[unmatched_flat])
    bad = [int(t) for t in tiles if t < 0 or not allowed[t]]
    return {"ok": not bad, "bad_tiles": bad}

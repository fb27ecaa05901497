"""The point matching one tile at a time.

This is build_matching as the package ran it before the one-pass form:
a Python list of each tile's points, one loop over the served pairs that
moves a cursor per tile, and one loop over every tile that matches its
leftovers.  The one change is that a tile's listed neighbours are read
off the pair list through offsets found by np.searchsorted, since the
tile flow no longer carries a row index.
"""

from typing import List

import numpy as np

from equidecomp.equidecompose import Matching, TileFlow
from equidecomp.lattice import IndicatorField
from equidecomp.tiling import Tiling


def _tile_vertex_lists(tiling: Tiling, mask: np.ndarray) -> List[np.ndarray]:
    """Per tile, the flat indices of masked vertices in ascending order
    (flat order on a row-major grid is lexicographic coordinate order)."""
    tid = tiling.tile_id.ravel()
    sel = np.flatnonzero(mask.ravel() & (tid >= 0))
    ids = tid[sel]
    order = np.argsort(ids, kind="stable")
    sel, ids = sel[order], ids[order]
    cuts = np.searchsorted(ids, np.arange(len(tiling.tiles) + 1))
    return [sel[cuts[i]:cuts[i + 1]] for i in range(len(tiling.tiles))]


def build_matching(tf: TileFlow, field: IndicatorField) -> Matching:
    """Serve each positive transfer Psi(R,S) with the next-least unused
    points of A in R and of B in S, then match leftovers within each tile.

    The positive pairs are served in one pass in (R, S) order, so every
    tile gives its A points to ascending neighbors and takes B points from
    ascending sources, least points first on both sides.  Every feasible
    tile takes part; infeasible tiles contribute unmatched points, and a
    pair is served only when both tiles take part.  A used tile's leftover
    imbalance equals its flow leakage into untiled space plus its transfers
    with unused neighbors; the pair list names only the neighbors that
    carry flow, so when the tile has no outflux and all of those are used
    the leftovers must pair off exactly — that balance is asserted, a
    failure means an upstream flow bug.
    """
    tiling = tf.tiling
    if field.window != tiling.window:
        raise ValueError("field window mismatch")
    n = tf.n
    row_ptr = np.searchsorted(tf.pair_src, np.arange(n + 1))
    used = tf.feasible & tf.balanced
    lists_a = _tile_vertex_lists(tiling, field.chi_a)
    lists_b = _tile_vertex_lists(tiling, field.chi_b)
    pos_a = [0] * n
    pos_b = [0] * n
    pa: List[np.ndarray] = [np.zeros(0, np.int64)]
    pb: List[np.ndarray] = [np.zeros(0, np.int64)]
    serve = (tf.pair_val > 0) & used[tf.pair_src] & used[tf.pair_dst]
    for t, s, v in zip(tf.pair_src[serve].tolist(), tf.pair_dst[serve].tolist(),
                       tf.pair_val[serve].tolist()):
        pa.append(lists_a[t][pos_a[t]:pos_a[t] + v])
        pb.append(lists_b[s][pos_b[s]:pos_b[s] + v])
        if len(pa[-1]) != v or len(pb[-1]) != v:
            raise AssertionError("transfer overrun on tiles %d -> %d" % (t, s))
        pos_a[t] += v
        pos_b[s] += v
    cross = int(tf.pair_val[serve].sum())
    un_a: List[np.ndarray] = [np.zeros(0, np.int64)]
    un_b: List[np.ndarray] = [np.zeros(0, np.int64)]
    for t in range(n):
        if not used[t]:
            un_a.append(lists_a[t])
            un_b.append(lists_b[t])
            continue
        ra = lists_a[t][pos_a[t]:]
        rb = lists_b[t][pos_b[t]:]
        if tf.outflux[t] == 0 and used[
                tf.pair_dst[row_ptr[t]:row_ptr[t + 1]]].all():
            if len(ra) != len(rb):
                raise AssertionError(
                    "leftover imbalance %d vs %d in fully served tile %d"
                    % (len(ra), len(rb), t))
        m = min(len(ra), len(rb))
        pa.append(ra[:m])
        pb.append(rb[:m])
        un_a.append(ra[m:])
        un_b.append(rb[m:])
    pair_a = np.concatenate(pa)
    pair_b = np.concatenate(pb)
    unmatched_a = np.sort(np.concatenate(un_a))
    unmatched_b = np.sort(np.concatenate(un_b))
    if len(np.unique(pair_a)) != len(pair_a):
        raise AssertionError("a source point was matched twice")
    if len(np.unique(pair_b)) != len(pair_b):
        raise AssertionError("a target point was matched twice")
    info = {"used_tiles": int(used.sum()), "cross_matched": cross}
    return Matching(tileflow=tf, used=used, pair_a=pair_a, pair_b=pair_b,
                    unmatched_a=unmatched_a, unmatched_b=unmatched_b,
                    info=info)

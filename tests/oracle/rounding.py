"""The front half of direct rounding as the package computed it in three
dense passes, before the solve.

`front_half` truncates every core edge one direction at a time, sums each
rim vertex's flow to the frontier slot by slot over a (slot, face class)
table `has`, and takes the residual from a full `divergence_num` of the
truncated flow.  `integralize.round_edge_field` does all three in one pass
over the directions; the tests hold it to this byte for byte.
"""

import numpy as np

from equidecomp.flowgrid import narrow_int
from equidecomp.integralize import (_core_edge_mask, _core_edge_view,
                                    _rim_frontier_slots)
from equidecomp.lattice import flat_shifts


def front_half(phi, f):
    """(out_vals, up, down, residual, agg) of round_edge_field(phi, f)
    before it spills or routes anything: out_vals the truncated core
    edges, in the dtype of the rounded flow; up and down the free core
    edges whose discarded fraction points along or against dirs[i], laid
    out like _core_edge_view; residual the core box's f minus the
    truncated flow's divergence, flattened, less each rim vertex's
    truncated sum; agg the rim vertices' summed flow to the frontier, at
    phi's scale, in the order of _rim_frontier_slots."""
    window = phi.window
    s = phi.scale_exp
    mod = 1 << s
    core = (slice(*window.core_bounds),) * window.d
    f_core = np.asarray(f)[core]
    rim, rows, face, ptr, slots = _rim_frontier_slots(window)
    has = np.zeros((2 * len(phi.dirs), len(ptr) - 1), dtype=bool)
    has[slots, np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))] = True
    agg = np.zeros(len(rim), dtype=np.int64)
    for i, shift in enumerate(flat_shifts(window).tolist()):
        agg += np.where(has[2 * i, face], phi.values[i, rim], 0)
        agg -= np.where(has[2 * i + 1, face], phi.values[i, rim - shift], 0)
    agg_int = np.sign(agg) * (np.abs(agg) >> s)
    top = max(int(phi.values.max(initial=0)), -int(phi.values.min(initial=0)))
    out_vals = np.zeros(phi.values.shape, dtype=narrow_int(
        max(top >> s, int(np.abs(agg_int).max(initial=0))) + 2))
    inner = _core_edge_mask(window)
    outc = _core_edge_view(out_vals, window)
    up = np.zeros(inner.shape, dtype=bool)
    down = np.zeros(inner.shape, dtype=bool)
    for i, vals in enumerate(_core_edge_view(phi.values, window)):
        vals = np.ascontiguousarray(vals)
        frac = inner[i] & ((vals & (mod - 1)) != 0)
        neg = vals < 0
        np.logical_and(frac, neg, out=down[i])
        np.logical_and(frac, ~neg, out=up[i])
        outc[i] = ((vals >> s) + down[i]) * inner[i]
    residual = (f_core - phi.with_values(out_vals, 0).divergence_num(core=True)
                ).ravel()
    residual[rows] -= agg_int
    return out_vals, up, down, residual, agg

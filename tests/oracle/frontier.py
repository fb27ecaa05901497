"""The frontier tables as the package built them before face classes.

`rim_slot_table` flags every frontier slot of every rim vertex in one
dense (2 * len(dirs), |rim|) bool table, read off the window's core mask.
`spill` sends each rim vertex's amount over that table with an int32
cumsum over every slot of every live vertex.  `router_csr` lays out the
router's CSR with a dense head table, np.add.outer over every row and
column of its `on` table.  The package reads the same slots from face
classes, visits only the slots a spill fills, and takes the heads from
the flat positions of `on`; the tests hold it to these byte for byte.
"""

import numpy as np

from equidecomp.integralize import _core_edge_mask
from equidecomp.lattice import directions, flat_shifts


def rim_slot_table(window):
    """(rim, rows, slots): rim the flat indices of the core vertices with
    a frontier neighbour, ascending; rows their numbers in the core box's
    row-major order; slots[2*i + sign, r] flags that rim[r] + dirs[i]
    (sign 0) or rim[r] - dirs[i] (sign 1) is a frontier vertex."""
    lo, hi = window.core_bounds
    d = window.d
    box = np.full((hi - lo,) * d, lo > 0)
    box[(slice(1, hi - lo - 1),) * d] = False
    rows = np.flatnonzero(box)
    rim_mask = np.zeros(window.shape, dtype=bool)
    rim_mask[(slice(lo, hi),) * d] = box
    rim = np.flatnonzero(rim_mask)
    shift = flat_shifts(window)[:, None]
    frontier = ~window.core_mask().ravel()
    slots = np.empty((2 * len(shift), len(rim)), dtype=bool)
    slots[0::2] = frontier[rim + shift]
    slots[1::2] = frontier[rim - shift]
    return rim, rows, slots


def spill(values, window, amount, cap):
    """integralize.spill_to_frontier over the dense table: in place in
    values, the k-th frontier slot of a vertex takes cap while
    k < |amount| // cap, then the remainder; returns the largest take,
    and raises AssertionError, sending nothing, when units are left."""
    rim, _, slots = rim_slot_table(window)
    live = np.flatnonzero(amount)
    sent = np.asarray(amount, dtype=np.int64)[live]
    full, rest = np.divmod(np.abs(sent), cap)
    free = slots[:, live]
    rank = np.cumsum(free, axis=0, dtype=np.int32) - 1
    count = rank[-1] + 1
    left = (np.abs(sent) - np.minimum(count, full) * cap
            - np.where(count > full, rest, 0))
    if left.any():
        first = np.flatnonzero(left)[0]
        raise AssertionError("frontier disaggregation left %d units"
                             % (np.sign(sent[first]) * left[first]))
    slot, r = np.nonzero(free & (rank <= full))
    take = np.where(rank[slot, r] < full[r], cap, rest[r]) * np.sign(sent[r])
    i, odd = slot >> 1, (slot & 1).astype(bool)
    values[i, rim[live[r]] - np.where(odd, flat_shifts(window)[i], 0)] += (
        np.where(odd, -take, take))
    return int(np.abs(take).max(initial=0))


def router_csr(window, caps, rim_caps):
    """(indptr, indices, arc_cap) that integralize._route_to_frontier
    hands the solver for these capacities, with the heads taken from an
    np.add.outer table of every row and column."""
    rows = rim_slot_table(window)[1]
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    dirs = directions(d)
    nd, n = len(dirs), side ** d
    fwd, back = (np.broadcast_to(c, (nd,) + (side,) * d).reshape(nd, n)
                 for c in caps)
    edge = _core_edge_mask(window).reshape(nd, n) & ((fwd != 0) | (back != 0))
    low = min(int(np.min(c, initial=0)) for c in (*caps, *rim_caps))
    top = max(int(np.max(c, initial=0)) for c in (*caps, *rim_caps))
    cap = np.zeros((n, 2 * nd + 1), dtype=np.promote_types(
        np.min_scalar_type(low), np.min_scalar_type(top)))
    on = np.zeros(cap.shape, dtype=bool)
    step = dirs @ side ** np.arange(d - 1, -1, -1)
    on[:, nd:-1] = edge.T
    np.copyto(cap[:, nd:-1], fwd.T, casting="unsafe", where=edge.T)
    for i, st in enumerate(step.tolist()):
        on[st:, nd - 1 - i] = edge[i, :n - st]
        np.copyto(cap[st:, nd - 1 - i], back[i, :n - st], casting="unsafe",
                  where=edge[i, :n - st])
    rim_on = (rim_caps[0] != 0) | (rim_caps[1] != 0)
    on[rows, -1] = rim_on
    cap[rows, -1] = rim_caps[0]
    into = rows[rim_on].astype(np.int32)
    m = np.count_nonzero(on)
    indptr = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(np.count_nonzero(on, axis=1), out=indptr[1:-1], dtype=np.int32)
    indptr[-1] = m + len(into)
    head = np.add.outer(np.arange(n, dtype=np.int32),
                        np.concatenate([-step[::-1], step, [0]]),
                        dtype=np.int32)
    head[:, -1] = n
    indices = np.concatenate([head.ravel()[on.ravel()], into])
    arc_cap = np.concatenate([cap.ravel()[on.ravel()],
                              np.asarray(rim_caps[1])[rim_on]
                              .astype(cap.dtype)])
    return indptr, indices, arc_cap

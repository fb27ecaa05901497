"""Exact integer supply flows on window-scale graphs.

The solver is scipy's compiled Dinic (`scipy.sparse.csgraph.maximum_flow`),
which keeps capacities and flows in int32 and truncates wider values
silently.  Every capacity handed to it is first clipped at the supply still
to be routed, which is exact: an acyclic flow never carries more than its
value on any arc.  When that supply itself is too wide, coarse phases route
it in units of 2^j first and a final phase finishes exactly at j = 0.

The arcs are laid out in (tail, head) order, so for the same input the
blocking flows, and hence the returned flow, are deterministic.

Memory.  Below _MAX_SIZE every vertex index fits int32, so the endpoints,
the CSR's indptr and indices, the capacities handed to scipy and the CSR
position of each u -> v arc are int32.  Only the sort key (built in int64,
since tail * (n + 2) passes 2^31 beyond ~46k vertices), the residual
capacities, which may be wider than int32, and the returned net flow are
int64.  The key lives only while the layout is built, and the net flow is
read off the residuals once the last phase is done.  During the max-flow
call the solve itself holds about 18 bytes per arc (an arc is one
direction of an edge): residuals 8, indices 4, capacities 4 and forward
positions 2.  scipy's own copies, the int32 astype of the graph, the graph
with reverse arcs added, its transpose and the edge pointers, take about
28 more; that part is the floor.  On the demo's repair graph (1.07M arcs)
the tracemalloc peak of one solve is 46 bytes per arc.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

# scipy's Dinic computes a residual as capacity - flow in int32, and on a
# reverse arc that reaches capacity + |flow| <= 2 * (phase supply); keeping
# each phase's supply below 2^30 keeps every such value in int32.
_PHASE_BITS = 30
# Beyond this many vertices plus arcs, a coarse phase is no longer sure to
# halve the supply still to route (see solve_supply_flow).
_MAX_SIZE = 1 << (_PHASE_BITS - 2)


def _arc_layout(blocks: Sequence[Tuple[object, object]], n: int
                ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """CSR layout of distinct arcs between n < _MAX_SIZE vertices, given
    as blocks of (tail, head), each an index array or a scalar broadcast
    against the other.  Returns int32 (indptr, indices, ranks): the arcs
    sorted as np.lexsort((head, tail)) sorts them, and for each block the
    position of each of its arcs in that order.

    One sort of the int64 key tail * n + head gives the order: a key stays
    under 2^56, and distinct arcs have distinct keys, so no sort can tie
    them."""
    sizes = [np.broadcast(tail, head).size for tail, head in blocks]
    bounds = np.cumsum([0] + sizes)
    key = np.empty(bounds[-1], dtype=np.int64)
    for (tail, head), lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        np.multiply(tail, n, out=key[lo:hi], dtype=np.int64)
        key[lo:hi] += head
    order = np.argsort(key).astype(np.int32)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        raise ValueError("duplicate edge")
    # the arcs out of vertex i start at the first key >= i * n
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(np.int32)
    indices = np.empty(len(key), dtype=np.int32)
    np.remainder(key, n, out=indices, casting="unsafe")
    del key
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return indptr, indices, np.split(rank, bounds[1:-1])


def solve_supply_flow(u, v, cap_uv, cap_vu,
                      supply) -> Tuple[bool, np.ndarray]:
    """Route integer vertex supplies (positive = excess to ship, negative =
    demand) through the undirected edges (u[i], v[i]), which may carry up
    to cap_uv[i] units from u to v and cap_vu[i] from v to u.

    Returns (feasible, net flow per edge, positive in the u -> v direction).
    When infeasible, the flow is the part of the supply that was routed.
    Supplies must balance, and no vertex pair may appear twice.  int32
    endpoints and int64 capacities are used without a copy, so a caller
    with equal capacities both ways passes one array twice.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    supply = np.asarray(supply, dtype=np.int64)
    if supply.ndim != 1:
        raise ValueError("supply must be one entry per vertex")
    if int(supply.sum()) != 0:
        raise ValueError("supplies must balance")
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have one entry per edge")
    cuv = np.broadcast_to(np.asarray(cap_uv, dtype=np.int64), u.shape)
    cvu = np.broadcast_to(np.asarray(cap_vu, dtype=np.int64), u.shape)
    if (cuv < 0).any() or (cvu < 0).any():
        raise ValueError("negative capacity")
    n, m = len(supply), len(u)
    if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("edge endpoint out of range")
    if n + 2 * m >= _MAX_SIZE:
        raise ValueError("graph of %d vertices and %d edges is too large "
                         "for the int32 solver" % (n, m))
    # in range, so exact in int32
    u = u.astype(np.int32, copy=False)
    v = v.astype(np.int32, copy=False)
    if (u == v).any():
        raise ValueError("self-loop edge")

    # arcs in blocks u -> v, v -> u, s -> p, p -> s, q -> t, t -> q, where
    # p and q are the vertices with a supply and a demand, with these
    # capacities; resid holds them in the CSR's (tail, head) order
    s, t = n, n + 1
    pos = np.flatnonzero(supply > 0).astype(np.int32)
    neg = np.flatnonzero(supply < 0).astype(np.int32)
    blocks = ((u, v, cuv), (v, u, cvu), (s, pos, supply[pos]), (pos, s, 0),
              (neg, t, -supply[neg]), (t, neg, 0))
    indptr, indices, ranks = _arc_layout([b[:2] for b in blocks], n + 2)
    resid = np.empty(len(indices), dtype=np.int64)
    for (_, _, cap), at in zip(blocks, ranks):
        resid[at] = cap
    fwd = ranks[0].copy()               # the CSR position of each u -> v
    del blocks, ranks, at               # the last views of the rank array
    src_arcs = slice(indptr[s], indptr[s + 1])      # the arcs s -> p

    total = remaining = int(supply[pos].sum())
    np.minimum(resid, total, out=resid)
    while remaining:
        # coarse phases route units of 2^j until the rest fits one phase
        j = max(0, remaining.bit_length() - _PHASE_BITS)
        data = np.minimum(resid >> j, remaining >> j)
        if data.max(initial=0) >> _PHASE_BITS:
            raise AssertionError("max-flow capacity exceeds the int32 range")
        graph = csr_array((data.astype(np.int32), indices, indptr),
                          shape=(n + 2, n + 2))
        del data
        flow = maximum_flow(graph, s, t, method="dinic").flow
        del graph
        if not (np.array_equal(flow.indices, indices)
                and np.array_equal(flow.indptr, indptr)):
            raise AssertionError("max-flow changed the arc layout")
        flow = flow.data
        resid -= np.left_shift(flow, j, dtype=np.int64)
        remaining -= int(flow[src_arcs].sum(dtype=np.int64)) << j
        # A coarse max flow F has a cut of coarse capacity F; in the
        # exact network that cut holds at most n + 2m arcs, each less than
        # 2^j larger, so a larger remainder cannot be routed at all.  The
        # size bound makes the remainder at most half the phase's supply.
        if j == 0 or remaining > (n + 2 * m) << j:
            break
    # the net flow on u -> v is its first residual minus its last
    return remaining == 0, np.minimum(cuv, total) - resid[fwd]

"""Exact integer supply flows on window-scale graphs.

The solver is scipy's compiled Dinic (`scipy.sparse.csgraph.maximum_flow`),
which keeps capacities and flows in int32 and truncates wider values
silently.  Every capacity handed to it is first clipped at the supply still
to be routed, which is exact: an acyclic flow never carries more than its
value on any arc.  When that supply itself is too wide, coarse phases route
it in units of 2^j first and a final phase finishes exactly at j = 0.

The arcs are laid out in (tail, head) order, so for the same input the
blocking flows, and hence the returned flow, are deterministic.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# scipy's Dinic computes a residual as capacity - flow in int32, and on a
# reverse arc that reaches capacity + |flow| <= 2 * (phase supply); keeping
# each phase's supply below 2^30 keeps every such value in int32.
_PHASE_BITS = 30
# Beyond this many vertices plus arcs, a coarse phase is no longer sure to
# halve the supply still to route (see solve_supply_flow).
_MAX_SIZE = 1 << (_PHASE_BITS - 2)


def _sort_arcs(tail: np.ndarray, head: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(order, key): the permutation np.lexsort((head, tail)) of distinct
    arcs between n vertices, and the sorted keys tail * n + head.  Below
    _MAX_SIZE vertices a key stays under 2^56, so it cannot overflow
    int64, and distinct arcs have distinct keys, so no sort can tie them."""
    key = tail * n + head
    order = np.argsort(key)
    return order, key[order]


def solve_supply_flow(u, v, cap_uv, cap_vu,
                      supply) -> Tuple[bool, np.ndarray]:
    """Route integer vertex supplies (positive = excess to ship, negative =
    demand) through the undirected edges (u[i], v[i]), which may carry up
    to cap_uv[i] units from u to v and cap_vu[i] from v to u.

    Returns (feasible, net flow per edge, positive in the u -> v direction).
    When infeasible, the flow is the part of the supply that was routed.
    Supplies must balance, and no vertex pair may appear twice.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    supply = np.asarray(supply, dtype=np.int64)
    if supply.ndim != 1:
        raise ValueError("supply must be one entry per vertex")
    if int(supply.sum()) != 0:
        raise ValueError("supplies must balance")
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have one entry per edge")
    cuv = np.broadcast_to(np.asarray(cap_uv, dtype=np.int64), u.shape)
    cvu = np.broadcast_to(np.asarray(cap_vu, dtype=np.int64), u.shape)
    if (cuv < 0).any() or (cvu < 0).any():
        raise ValueError("negative capacity")
    n, m = len(supply), len(u)
    if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("edge endpoint out of range")
    if (u == v).any():
        raise ValueError("self-loop edge")
    if n + 2 * m >= _MAX_SIZE:
        raise ValueError("graph of %d vertices and %d edges is too large "
                         "for the int32 solver" % (n, m))

    # arcs in blocks u -> v, v -> u, s -> p, p -> s, q -> t, t -> q, where
    # p and q are the vertices with a supply and a demand; `order` sorts
    # them into the CSR's (tail, head) order
    s, t = n, n + 1
    pos = np.flatnonzero(supply > 0)
    neg = np.flatnonzero(supply < 0)
    tail = np.concatenate([u, v, np.full(len(pos), s), pos,
                           neg, np.full(len(neg), t)])
    head = np.concatenate([v, u, pos, np.full(len(pos), s),
                           np.full(len(neg), t), neg])
    resid = np.concatenate([cuv, cvu, supply[pos], np.zeros(len(pos), np.int64),
                            -supply[neg], np.zeros(len(neg), np.int64)])
    order, key = _sort_arcs(tail, head, n + 2)
    del tail, head
    if (key[1:] == key[:-1]).any():
        raise ValueError("duplicate edge")
    # the arcs out of vertex i start at the first key >= i * (n + 2)
    indptr = np.searchsorted(key, np.arange(n + 3) * (n + 2)).astype(np.int32)
    indices = (key % (n + 2)).astype(np.int32)
    del key
    src_arcs = slice(2 * m, 2 * m + len(pos))

    remaining = int(supply[pos].sum())
    np.minimum(resid, remaining, out=resid)
    net = np.zeros(m, dtype=np.int64)
    while remaining:
        # coarse phases route units of 2^j until the rest fits one phase
        j = max(0, remaining.bit_length() - _PHASE_BITS)
        data = np.minimum(resid >> j, remaining >> j)[order]
        if data.max(initial=0) >> _PHASE_BITS:
            raise AssertionError("max-flow capacity exceeds the int32 range")
        graph = csr_array((data.astype(np.int32), indices, indptr),
                          shape=(n + 2, n + 2))
        res = maximum_flow(graph, s, t, method="dinic")
        if not (np.array_equal(res.flow.indices, indices)
                and np.array_equal(res.flow.indptr, indptr)):
            raise AssertionError("max-flow changed the arc layout")
        flow = np.empty(len(order), dtype=np.int64)
        flow[order] = res.flow.data
        flow <<= j
        resid -= flow
        net += flow[:m]
        remaining -= int(flow[src_arcs].sum())
        # A coarse max flow F has a cut of coarse capacity F; in the
        # exact network that cut holds at most n + 2m arcs, each less than
        # 2^j larger, so a larger remainder cannot be routed at all.  The
        # size bound makes the remainder at most half the phase's supply.
        if j == 0 or remaining > (n + 2 * m) << j:
            break
    return remaining == 0, net

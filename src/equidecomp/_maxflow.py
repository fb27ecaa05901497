"""Exact integer supply flows on window-scale graphs.

The solver is scipy's compiled Dinic (`scipy.sparse.csgraph.maximum_flow`),
which keeps capacities and flows in int32 and truncates wider values
silently.  Every capacity handed to it is first clipped at the supply still
to be routed, which is exact: an acyclic flow never carries more than its
value on any arc.  When that supply itself is too wide, coarse phases route
it in units of 2^j first and a final phase finishes exactly at j = 0.

A solve has two steps.  supply_graph checks the caller's CSR, each row in
increasing head order, and lays it out with the source s and the sink t,
the two vertices after the caller's: each supply vertex's arc to s or t
goes at the end of its row and their own rows come last, so the layout
needs no sort, and for the same input the blocking flows, and hence the
returned flow, are deterministic.  solve_supply_graph then routes the
supply over that layout.  Between the two the caller can free its own
copy of the arcs.

Memory.  Below _MAX_SIZE every vertex index fits int32, so the layout's
row starts, heads and the capacities handed to scipy are int32.  A supply
below 2^30 is routed in one phase, whose capacities are the layout's own
int32 array; only a wider supply gets int64 residuals, for its phases
after the first.  The returned flow is int64.  During a one-phase
max-flow call the layout holds 8 bytes per arc (an arc is one direction
of an edge, or a source or sink arc): heads 4 and capacities 4.  scipy's
own copies, the graph with reverse arcs added, its transpose and the
edge pointers, take about 30 more; that part is the floor.  On the
demo's repair graph (1.07M arcs), which is built only when repair's
descent is refused, the tracemalloc peak of one solve is about 36 bytes
per arc.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_array

# scipy's Dinic computes a residual as capacity - flow in int32, and on a
# reverse arc that reaches capacity + |flow| <= 2 * (phase supply); keeping
# each phase's supply below 2^30 keeps every such value in int32.
_PHASE_BITS = 30
# Beyond this many vertices plus arcs, a coarse phase is no longer sure to
# halve the supply still to route (see solve_supply_graph).
_MAX_SIZE = 1 << (_PHASE_BITS - 2)


class SupplyGraph(NamedTuple):
    """A supply flow laid out for the solver: the caller's n vertices,
    then s = n and t = n + 1, as the int32 CSR (rows, heads).  cap is
    each arc's capacity clipped at total, the supply to route: int32 when
    one phase routes it, int64 residuals otherwise.  size is n + m of the
    caller's graph of m arcs."""

    rows: np.ndarray
    heads: np.ndarray
    cap: np.ndarray
    total: int
    size: int


def supply_graph(indptr, indices, cap, supply) -> SupplyGraph:
    """Lay out the routing of integer vertex supplies (positive = excess
    to ship, negative = demand) over the arcs of a CSR graph on the
    n = len(supply) vertices: the arcs out of vertex x lead to
    indices[indptr[x]:indptr[x + 1]], in increasing order, and arc k
    carries up to cap[k] units.  Every arc's reverse must be an arc too,
    at capacity 0 if need be.  Supplies must balance.  int32 index arrays
    are read without a copy, and integer or bool capacities of any width
    are copied only to clip them at the supply.

    In the layout, the caller's arcs keep their order, and they are the
    arcs before rows[n] whose head is below n: s and t are the heads of
    the arcs added to the caller's rows.
    """
    supply = np.asarray(supply, dtype=np.int64)
    if supply.ndim != 1:
        raise ValueError("supply must be one entry per vertex")
    if int(supply.sum()) != 0:
        raise ValueError("supplies must balance")
    indptr = np.asarray(indptr).ravel()
    indices = np.asarray(indices).ravel()
    cap = np.asarray(cap)
    if cap.dtype.kind not in "biu":
        cap = cap.astype(np.int64)
    n, m = len(supply), len(indices)
    if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != m
            or (np.diff(indptr) < 0).any()):
        raise ValueError("indptr must be n + 1 row starts from 0 to the "
                         "arc count")
    if cap.shape != indices.shape:
        raise ValueError("cap must be one entry per arc")
    if (cap < 0).any():
        raise ValueError("negative capacity")
    if m and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("arc head out of range")
    if n + m >= _MAX_SIZE:
        raise ValueError("graph of %d vertices and %d arcs is too large "
                         "for the int32 solver" % (n, m))
    # in range, so exact in int32
    indptr = indptr.astype(np.int32, copy=False)
    indices = indices.astype(np.int32, copy=False)
    tail = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    if (indices == tail).any():
        raise ValueError("self-loop arc")
    same_row = tail[1:] == tail[:-1]
    del tail
    if (same_row & (indices[1:] == indices[:-1])).any():
        raise ValueError("duplicate arc")
    if (same_row & (indices[1:] < indices[:-1])).any():
        raise ValueError("a row's heads are not increasing")
    del same_row

    # s = n and t = n + 1: each supply vertex p gains p -> s at capacity
    # 0, each demand vertex q gains q -> t at capacity -supply[q], both at
    # the end of their rows, and rows s and t hold s -> p at supply[p] and
    # t -> q at 0
    s, t = n, n + 1
    pos = np.flatnonzero(supply > 0).astype(np.int32)
    neg = np.flatnonzero(supply < 0).astype(np.int32)
    ends = np.flatnonzero(supply)
    rows = np.empty(n + 3, dtype=np.int32)
    rows[:n + 1] = indptr
    rows[1:n + 1] += np.cumsum(supply != 0, dtype=np.int32)
    rows[n + 1] = rows[n] + len(pos)
    rows[n + 2] = rows[n + 1] + len(neg)
    last = rows[ends + 1] - 1                   # the new arc of each row
    mine = np.ones(rows[-1], dtype=bool)        # the caller's arcs
    mine[last] = False
    mine[rows[n]:] = False
    heads = np.empty(rows[-1], dtype=np.int32)
    heads[mine] = indices
    heads[last] = np.where(supply[ends] > 0, s, t)
    heads[rows[n]:rows[n + 1]] = pos
    heads[rows[n + 1]:] = neg
    total = int(supply[pos].sum())
    # every capacity is at most total after the clip (an added arc's is
    # already), so below 2^30 it is exact in the int32 that scipy takes
    if int(cap.max(initial=0)) > total:
        cap = np.minimum(cap, cap.dtype.type(total))
    resid = np.zeros(rows[-1], dtype=np.int64 if total >> _PHASE_BITS
                     else np.int32)
    resid[mine] = cap
    resid[last] = np.maximum(-supply[ends], 0)
    resid[rows[n]:rows[n + 1]] = supply[pos]
    return SupplyGraph(rows, heads, resid, total, n + m)


def solve_supply_graph(graph: SupplyGraph) -> Tuple[bool, np.ndarray]:
    """Route graph.total units from s to t over the layout.

    Returns (feasible, flow on each arc of the layout).  The flow is
    antisymmetric, the net amount sent from the arc's tail to its head.
    When infeasible, it is the part of the supply that was routed.  A
    supply of more than one phase spends graph.cap: each phase's flow is
    subtracted from the residuals in place.
    """
    rows, heads, resid, total, size = graph
    n = len(rows) - 3
    s, t = n, n + 1
    src_arcs = slice(rows[s], rows[s + 1])      # the arcs s -> p
    remaining = total
    sent = None                                 # the flow so far
    while remaining:
        # coarse phases route units of 2^j until the rest fits one phase
        j = max(0, remaining.bit_length() - _PHASE_BITS)
        if resid.dtype == np.int32:
            data = resid            # one phase: the layout's capacities
        else:
            # every value is at most remaining >> j < 2^30, so it is exact
            # in the int32 the phase's capacities are written to
            data = np.empty(len(resid), dtype=np.int32)
            np.minimum(resid >> j if j else resid, remaining >> j,
                       out=data, casting="unsafe")
        if data.max(initial=0) >> _PHASE_BITS:
            raise AssertionError("max-flow capacity exceeds the int32 range")
        phase = csr_array((data, heads, rows), shape=(n + 2, n + 2))
        del data
        flow = csgraph.maximum_flow(phase, s, t, method="dinic").flow
        del phase
        if not (np.array_equal(flow.indices, heads)
                and np.array_equal(flow.indptr, rows)):
            # scipy added the reverse of some arc
            raise ValueError("an arc's reverse is missing")
        flow = np.left_shift(flow.data, j, dtype=np.int64)
        sent = flow if sent is None else sent + flow
        remaining -= int(flow[src_arcs].sum())
        # A coarse max flow F has a cut of coarse capacity F; in the
        # exact network that cut holds at most n + m arcs, each less than
        # 2^j larger, so a larger remainder cannot be routed at all.  The
        # size bound makes the remainder at most half the phase's supply.
        if j == 0 or remaining > size << j:
            break
        resid -= flow
    if sent is None:
        return True, np.zeros(len(heads), dtype=np.int64)
    return remaining == 0, sent

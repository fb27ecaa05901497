"""The supply-flow solver's CSR built by sorting: the reference layout.

The package never sorts arcs: `integralize._route_to_frontier` reads the
CSR straight off the core box.  Here the same layout comes from
np.lexsort((head, tail)) over an arc list, which is what the solver's
input rules describe (rows in increasing head order), so the solver tests
build their graphs with it and the router is compared against it.
solve_supply_flow runs the package's two solver steps on such a CSR and
returns the flow on its own arcs.
"""

from __future__ import annotations

import numpy as np

from equidecomp._maxflow import solve_supply_graph, supply_graph


def lexsort_csr(tail, head, cap, n):
    """(indptr, indices, cap, order) of the arcs tail[k] -> head[k] of
    capacity cap[k] between n vertices, in np.lexsort((head, tail)) order:
    order[j] is the input arc at CSR position j."""
    tail = np.asarray(tail, dtype=np.int64).ravel()
    head = np.asarray(head, dtype=np.int64).ravel()
    cap = np.broadcast_to(np.asarray(cap), tail.shape)
    order = np.lexsort((head, tail))
    indptr = np.searchsorted(tail[order], np.arange(n + 1))
    return indptr, head[order], cap[order], order


def edge_csr(u, v, cap_uv, cap_vu, n):
    """(indptr, indices, cap, fwd) with both directions of every
    undirected edge (u[k], v[k]): u -> v at cap_uv[k] and v -> u at
    cap_vu[k].  fwd[k] is the CSR position of the arc u[k] -> v[k]."""
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    cuv = np.broadcast_to(np.asarray(cap_uv, dtype=np.int64), u.shape)
    cvu = np.broadcast_to(np.asarray(cap_vu, dtype=np.int64), u.shape)
    indptr, indices, cap, order = lexsort_csr(
        np.concatenate([u, v]), np.concatenate([v, u]),
        np.concatenate([cuv, cvu]), n)
    at = np.empty(len(order), dtype=np.int64)
    at[order] = np.arange(len(order))
    return indptr, indices, cap, at[:len(u)]


def solve_supply_flow(indptr, indices, cap, supply):
    """(feasible, flow on each arc of the CSR) of the supply flow that
    supply_graph lays out and solve_supply_graph routes; see those."""
    graph = supply_graph(indptr, indices, cap, supply)
    ok, flow = solve_supply_graph(graph)
    n = len(graph.rows) - 3
    # the caller's arcs: before the source's row, and not to s or t
    mine = np.zeros(len(flow), dtype=bool)
    mine[:graph.rows[n]] = graph.heads[:graph.rows[n]] < n
    return ok, flow[mine]

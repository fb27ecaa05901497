"""Boundary 3-cycle graph built the direct way: the boundary edges as
(inside, outside) coordinate pairs, two of them adjacent when they share
a vertex and their other endpoints are lattice neighbors."""

import itertools

import numpy as np


def boundary_cycle_graph(F):
    """(edges, adj) of F's boundary 3-cycle graph: edges in F.boundary()
    order, each adj row sorted."""
    coords = np.stack(np.unravel_index(F.boundary(), F.window.shape), axis=-1)
    edges = tuple(tuple(map(tuple, e)) for e in coords.tolist())
    by_vertex = {}
    for i, e in enumerate(edges):
        for v in e:
            by_vertex.setdefault(v, []).append(i)
    adj = [set() for _ in edges]
    for v, ids in by_vertex.items():
        for i, j in itertools.combinations(ids, 2):
            oi = edges[i][0] if edges[i][1] == v else edges[i][1]
            oj = edges[j][0] if edges[j][1] == v else edges[j][1]
            if max(abs(x - y) for x, y in zip(oi, oj)) == 1:
                adj[i].add(j)
                adj[j].add(i)
    return edges, tuple(tuple(sorted(s)) for s in adj)

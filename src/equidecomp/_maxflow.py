"""Array-backed max-flow engine for window-scale graphs.

Same algorithm as the small-graph solver in finiteflow (shortest augmenting
layers, lexicographic arc order, integer capacities) but stores arcs in
flat numpy arrays so that million-edge grid graphs fit in memory.  Arc
slots come in partner pairs (2i, 2i+1) holding the two directions of one
undirected edge; pushing along a slot moves capacity to its partner, which
models net flow bounded by the pair's initial capacities.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate arange(s, s+l) for each (s, l): ragged row indexing."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(starts, lens)
    off = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens)
    return rep + off


class ArrayDinic:
    """Deterministic blocking-flow max flow over bulk-added edge pairs."""

    def __init__(self, n: int):
        self.n = n
        self._chunks_u: List[np.ndarray] = []
        self._chunks_v: List[np.ndarray] = []
        self._chunks_cuv: List[np.ndarray] = []
        self._chunks_cvu: List[np.ndarray] = []
        self._frozen = False

    def add_edges(self, u, v, cap_uv, cap_vu) -> None:
        """Bulk-add undirected edges with per-direction capacities."""
        if self._frozen:
            raise RuntimeError("graph already finalized")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        cuv = np.broadcast_to(np.asarray(cap_uv, dtype=np.int64), u.shape).copy()
        cvu = np.broadcast_to(np.asarray(cap_vu, dtype=np.int64), u.shape).copy()
        if (cuv < 0).any() or (cvu < 0).any():
            raise ValueError("negative capacity")
        self._chunks_u.append(u)
        self._chunks_v.append(v)
        self._chunks_cuv.append(cuv)
        self._chunks_cvu.append(cvu)

    def _finalize(self) -> None:
        if self._frozen:
            return
        u = np.concatenate(self._chunks_u) if self._chunks_u else np.empty(0, np.int64)
        v = np.concatenate(self._chunks_v) if self._chunks_v else np.empty(0, np.int64)
        cuv = np.concatenate(self._chunks_cuv) if self._chunks_u else np.empty(0, np.int64)
        cvu = np.concatenate(self._chunks_cvu) if self._chunks_u else np.empty(0, np.int64)
        m = len(u)
        self.m = m
        self.to = np.empty(2 * m, dtype=np.int64)
        self.tails = np.empty(2 * m, dtype=np.int64)
        self.cap = np.empty(2 * m, dtype=np.int64)
        self.to[0::2] = v
        self.to[1::2] = u
        self.tails[0::2] = u
        self.tails[1::2] = v
        self.cap[0::2] = cuv
        self.cap[1::2] = cvu
        self.cap0 = self.cap.copy()
        order = np.lexsort((self.to, self.tails))
        self.order = order
        sorted_tails = self.tails[order]
        self.ptr = np.searchsorted(sorted_tails, np.arange(self.n + 1))
        self._frozen = True
        del self._chunks_u, self._chunks_v, self._chunks_cuv, self._chunks_cvu

    def _bfs(self, s: int, t: int) -> Optional[np.ndarray]:
        level = np.full(self.n, -1, dtype=np.int32)
        level[s] = 0
        frontier = np.array([s], dtype=np.int64)
        cur = 0
        while len(frontier):
            pos = _ranges(self.ptr[frontier], self.ptr[frontier + 1] - self.ptr[frontier])
            aid = self.order[pos]
            aid = aid[self.cap[aid] > 0]
            heads = self.to[aid]
            heads = heads[level[heads] < 0]
            if not len(heads):
                break
            frontier = np.unique(heads)
            cur += 1
            level[frontier] = cur
        return level if level[t] >= 0 else None

    def _blocking(self, s: int, t: int, level: np.ndarray) -> int:
        ptr, order, to, cap = self.ptr, self.order, self.to, self.cap
        it = ptr.copy()
        pushed = 0
        path: List[int] = []      # arc ids, s -> current
        u = s
        while True:
            if u == t:
                bott = min(int(cap[a]) for a in path)
                for a in path:
                    cap[a] -= bott
                    cap[a ^ 1] += bott
                pushed += bott
                cut = next(i for i, a in enumerate(path) if cap[a] == 0)
                del path[cut:]
                u = s if not path else int(to[path[-1]])
                continue
            advanced = False
            lu1 = level[u] + 1
            while it[u] < ptr[u + 1]:
                a = int(order[it[u]])
                v = int(to[a])
                if cap[a] > 0 and level[v] == lu1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return pushed
            level[u] = -1
            path.pop()
            u = s if not path else int(to[path[-1]])
            it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        self._finalize()
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            total += self._blocking(s, t, level)

    def net_flow(self) -> np.ndarray:
        """Net flow per added edge, positive in the u -> v direction."""
        return self.cap0[0::2] - self.cap[0::2]

    def reachable(self, s: int) -> np.ndarray:
        """Boolean residual-reachability from s (after max_flow)."""
        seen = np.zeros(self.n, dtype=bool)
        seen[s] = True
        frontier = np.array([s], dtype=np.int64)
        while len(frontier):
            pos = _ranges(self.ptr[frontier], self.ptr[frontier + 1] - self.ptr[frontier])
            aid = self.order[pos]
            aid = aid[self.cap[aid] > 0]
            heads = self.to[aid]
            heads = heads[~seen[heads]]
            if not len(heads):
                break
            frontier = np.unique(heads)
            seen[frontier] = True
        return seen


def solve_supply_flow(n: int, dinic: ArrayDinic,
                      supply: np.ndarray) -> Tuple[bool, np.ndarray]:
    """Route the given integer vertex supplies (positive = excess to ship,
    negative = demand) through an ArrayDinic whose first `n` vertices are
    the real graph; vertices n and n+1 are reserved for source and sink.
    Returns (feasible, net flow per real edge added before this call).

    The caller must have constructed `dinic` with n+2 vertices and added
    only real edges so far; supplies must sum to zero.
    """
    supply = np.asarray(supply)
    if supply.shape != (n,):
        raise ValueError("supply must have one entry per real vertex")
    if int(supply.sum()) != 0:
        raise ValueError("supplies must balance")
    m_real = sum(len(c) for c in dinic._chunks_u)
    s, t = n, n + 1
    pos = np.flatnonzero(supply > 0)
    neg = np.flatnonzero(supply < 0)
    if len(pos):
        dinic.add_edges(np.full(len(pos), s), pos, supply[pos], 0)
    if len(neg):
        dinic.add_edges(neg, np.full(len(neg), t), -supply[neg], 0)
    want = int(supply[pos].sum())
    got = dinic.max_flow(s, t)
    return got == want, dinic.net_flow()[:m_real]

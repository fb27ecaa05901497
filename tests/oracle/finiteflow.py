"""Finite-graph flow machinery: feasibility by cut conditions, integral
max-flow, and rounding of fractional flows.

Flows are antisymmetric edge functions; a flow is an f-flow when its
divergence (net outflow) at every vertex x equals f(x).  An f-flow bounded
by capacities c exists iff for every vertex subset F

    -sum(c(y, x) entering F)  <=  sum(f over F)  <=  sum(c(x, y) leaving F)

and when it exists with integer data an integral one exists.  All solvers
here are deterministic: arcs are scanned in sorted order and augmenting
paths are shortest (breadth-first layers) with lexicographic tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .dyadic import Dyadic

Vertex = int
Cap = Union[int, Dyadic]


class FiniteGraph:
    """Simple undirected graph on vertices 0..n-1, edges stored as sorted
    pairs (u < v), adjacency lists sorted."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        es = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("loop at %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range" % (u, v))
            es.add((min(u, v), max(u, v)))
        self.edges: Tuple[Tuple[int, int], ...] = tuple(sorted(es))
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    @property
    def _edge_set(self):
        s = getattr(self, "_edge_set_cache", None)
        if s is None:
            s = frozenset(self.edges)
            object.__setattr__(self, "_edge_set_cache", s)
        return s


def capacity_fn(cap) -> Callable[[int, int], Cap]:
    """Normalize a capacity argument (callable, mapping on ordered pairs, or
    a constant) to a callable on ordered pairs."""
    if callable(cap):
        return cap
    if isinstance(cap, Mapping):
        return lambda u, v: cap.get((u, v), 0)
    const = cap
    return lambda u, v: const


class FlowValues:
    """Antisymmetric edge function on a FiniteGraph (values on ordered
    pairs; storing (u,v) fixes (v,u) = -value)."""

    def __init__(self, g: FiniteGraph, items: Optional[Mapping] = None):
        self.g = g
        self._v: Dict[Tuple[int, int], Union[int, Dyadic]] = {}
        if items:
            for (u, v), val in items.items():
                self.set_value(u, v, val)

    def set_value(self, u: int, v: int, val) -> None:
        u, v = int(u), int(v)
        if (min(u, v), max(u, v)) not in self.g._edge_set:
            raise KeyError("no edge (%d,%d)" % (u, v))
        if u > v:
            u, v, val = v, u, -val
        if val:
            self._v[(u, v)] = val
        else:
            self._v.pop((u, v), None)

    def value(self, u: int, v: int):
        if u > v:
            r = self._v.get((v, u), 0)
            return -r
        return self._v.get((u, v), 0)

    def items(self):
        """Sorted (edge, value) pairs on canonical orientations, zero-valued
        edges omitted."""
        return sorted(self._v.items())

    def divergence(self, x: int):
        total = 0
        for y in self.g.adj[x]:
            total = total + self.value(x, y)
        return total

    def is_integral(self) -> bool:
        return all(v.is_integer if isinstance(v, Dyadic) else True
                   for v in self._v.values())

    def copy(self) -> "FlowValues":
        out = FlowValues(self.g)
        out._v = dict(self._v)
        return out

    def __eq__(self, other):
        if not isinstance(other, FlowValues):
            return NotImplemented
        keys = set(self._v) | set(other._v)
        return all(self.value(*k) == other.value(*k) for k in keys)


@dataclass(frozen=True)
class CutCertificate:
    """Witness that no f-flow bounded by cap exists: the vertex set F
    violates one side of the cut condition by `slack` > 0."""

    F: frozenset
    side: str            # "upper": sum f > capacity out; "lower": sum f < -capacity in
    slack: Union[int, Dyadic]

    def verify(self, g: FiniteGraph, f: Mapping[int, int], cap) -> bool:
        c = capacity_fn(cap)
        total = sum(f.get(x, 0) for x in self.F)
        out_cap = in_cap = 0
        for x in self.F:
            for y in g.adj[x]:
                if y not in self.F:
                    out_cap = out_cap + c(x, y)
                    in_cap = in_cap + c(y, x)
        if self.side == "upper":
            return total - out_cap == self.slack and self.slack > 0
        return (-in_cap) - total == self.slack and self.slack > 0


# ---------------------------------------------------------------------------
# deterministic max-flow core
# ---------------------------------------------------------------------------

class _Dinic:
    """Blocking-flow max-flow over explicit arc lists.  Arcs must be added
    in sorted order for reproducible outputs; augmenting paths are then
    shortest with lexicographic tie-breaking."""

    def __init__(self, n: int):
        self.n = n
        self.to = []
        self.cap = []
        self.head = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, c) -> int:
        if c < 0:
            raise ValueError("negative capacity")
        a = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.head[u].append(a)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(a + 1)
        return a

    def _bfs(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for a in self.head[u]:
                    v = self.to[a]
                    if self.cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level if level[t] >= 0 else None

    def _blocking(self, s: int, t: int, level) -> int:
        it = [0] * self.n
        pushed_total = 0
        path = []            # arc ids from s to current vertex
        u = s
        while True:
            if u == t:
                bott = min(self.cap[a] for a in path)
                for a in path:
                    self.cap[a] -= bott
                    self.cap[a ^ 1] += bott
                pushed_total += bott
                # retreat to the first saturated arc on the path
                for i, a in enumerate(path):
                    if self.cap[a] == 0:
                        del path[i:]
                        break
                u = s if not path else self.to[path[-1]]
                continue
            advanced = False
            while it[u] < len(self.head[u]):
                a = self.head[u][it[u]]
                v = self.to[a]
                if self.cap[a] > 0 and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return pushed_total
            level[u] = -1        # dead end; prune
            path.pop()
            u = s if not path else self.to[path[-1]]
            # it[u] still points at the arc that led to the dead end
            it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            total += self._blocking(s, t, level)

    def reachable(self, s: int):
        """Residual-reachable vertex set from s (after max_flow)."""
        seen = [False] * self.n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return frozenset(i for i in range(self.n) if seen[i])

    def sent(self, arc_id: int):
        return self.cap[arc_id ^ 1]


@dataclass(frozen=True)
class MaxFlowResult:
    value: int
    flow: "FlowValues"
    cut_side: frozenset                    # s-side vertices of a min cut
    cut_edges: Tuple[Tuple[int, int], ...]  # ordered pairs crossing the cut


def st_max_flow(g: FiniteGraph, s: int, t: int, cap) -> MaxFlowResult:
    """Maximum s-t flow under integer directed capacities, with a minimum
    cut of equal value."""
    if s == t:
        raise ValueError("s == t")
    c = capacity_fn(cap)
    din = _Dinic(g.n)
    arcs = {}
    for u, v in g.edges:
        cu, cv = c(u, v), c(v, u)
        if not (isinstance(cu, int) and isinstance(cv, int)):
            raise ValueError("st_max_flow needs integer capacities")
        if cu < 0 or cv < 0:
            raise ValueError("negative capacity on (%d,%d)" % (u, v))
        arcs[(u, v)] = din.add_arc(u, v, cu)
        arcs[(v, u)] = din.add_arc(v, u, cv)
    value = din.max_flow(s, t)
    flow = FlowValues(g)
    for u, v in g.edges:
        net = din.sent(arcs[(u, v)]) - din.sent(arcs[(v, u)])
        if net:
            flow.set_value(u, v, net)
    side = din.reachable(s)
    cut_edges = []
    cut_value = 0
    for u, v in g.edges:
        for x, y in ((u, v), (v, u)):
            if x in side and y not in side and c(x, y) > 0:
                cut_edges.append((x, y))
                cut_value += c(x, y)
    if cut_value != value:
        raise AssertionError("max flow %r != min cut %r" % (value, cut_value))
    return MaxFlowResult(value=value, flow=flow, cut_side=side,
                         cut_edges=tuple(sorted(cut_edges)))


def f_flow_feasible(g: FiniteGraph, f: Mapping[int, int], cap):
    """Integral f-flow bounded by cap, or a CutCertificate.

    Reduction: source arcs (s, x) of capacity f(x) for f(x) > 0, sink arcs
    (x, t) of capacity -f(x) for f(x) < 0; an f-flow exists iff the max s-t
    flow saturates all source arcs.  On failure the non-reachable side of
    the final residual graph violates the lower cut inequality.
    """
    fv = {x: int(f.get(x, 0)) for x in range(g.n)}
    total = sum(fv.values())
    if total != 0:
        side = "upper" if total > 0 else "lower"
        return CutCertificate(F=frozenset(range(g.n)), side=side,
                              slack=abs(total))
    c = capacity_fn(cap)
    supply = sum(v for v in fv.values() if v > 0)
    s, t = g.n, g.n + 1
    din = _Dinic(g.n + 2)
    arcs = {}
    for u, v in g.edges:
        cu, cv = c(u, v), c(v, u)
        if cu < 0 or cv < 0:
            raise ValueError("negative capacity on (%d,%d)" % (u, v))
        arcs[(u, v)] = din.add_arc(u, v, cu)
        arcs[(v, u)] = din.add_arc(v, u, cv)
    for x in range(g.n):
        if fv[x] > 0:
            din.add_arc(s, x, fv[x])
        elif fv[x] < 0:
            din.add_arc(x, t, -fv[x])
    value = din.max_flow(s, t)
    if value == supply:
        flow = FlowValues(g)
        for u, v in g.edges:
            net = din.sent(arcs[(u, v)]) - din.sent(arcs[(v, u)])
            if net:
                flow.set_value(u, v, net)
        for x in range(g.n):
            if flow.divergence(x) != fv[x]:
                raise AssertionError("divergence mismatch at %d" % x)
        return flow
    reach = din.reachable(s)
    F = frozenset(x for x in range(g.n) if x not in reach)
    in_cap = 0
    for x in F:
        for y in g.adj[x]:
            if y not in F:
                in_cap = in_cap + c(y, x)
    total_f = sum(fv[x] for x in F)
    slack = (-in_cap) - total_f
    cert = CutCertificate(F=F, side="lower", slack=slack)
    if not cert.verify(g, fv, cap):
        raise AssertionError("infeasible but certificate failed to verify")
    return cert


def round_flow(g: FiniteGraph, f: Mapping[int, int], phi: FlowValues) -> FlowValues:
    """Round a dyadic f-flow to an integral one.

    Truncate each edge value toward zero, then route the leftover divergence
    through the edges that were rounded down (0/1 capacities in the
    direction of the discarded fraction).  The result has divergence f,
    deviates from phi by strictly less than 1 per edge, and agrees with phi
    wherever phi was already integral.
    """
    fv = {x: int(f.get(x, 0)) for x in range(g.n)}
    for x in range(g.n):
        if phi.divergence(x) != fv[x]:
            raise ValueError("divergence(phi) != f at vertex %d" % x)
    trunc = FlowValues(g)
    caps: Dict[Tuple[int, int], int] = {}
    for (u, v), val in phi.items():
        if isinstance(val, Dyadic):
            ival = val.floor_toward_zero()
            frac = val - ival
        else:
            ival, frac = int(val), 0
        if ival:
            trunc.set_value(u, v, ival)
        if frac > 0:
            caps[(u, v)] = 1
        elif frac < 0:
            caps[(v, u)] = 1
    resid = {x: fv[x] - trunc.divergence(x) for x in range(g.n)}
    corr = f_flow_feasible(g, resid, caps)
    if isinstance(corr, CutCertificate):
        raise AssertionError("rounding correction infeasible (cut %r)" % (sorted(corr.F),))
    out = trunc
    for (u, v), val in corr.items():
        out.set_value(u, v, out.value(u, v) + val)
    return out

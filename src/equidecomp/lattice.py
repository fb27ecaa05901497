"""Lattice actions on the torus, sampling windows, and discrepancy.

A rank-d action on the k-torus is generated by d translation vectors
u_1..u_d; the group element gamma = (g_1..g_d) acts by
gamma . x = sum_i g_i u_i + x  (mod 1).  A finite window [0, L)^d of the
acting group is sampled at a base point, producing an indicator field
f = chi_A - chi_B on the window lattice.  Graph structure on the window uses
all 3^d - 1 unit directions, so graph distance is the l-infinity metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .shapes import Shape, measures_match

MOD_TOL = 1e-12
MEASURE_TOL = 1e-9      # largest |lambda(A) - lambda(B)| sample_field accepts
FREENESS_TOL = 1e-9     # smallest orbit separation sample_field accepts
SCAN_BLOCK = 2 ** 17    # most offsets the freeness scan forms at once
SCAN_MAX = 2 ** 28      # largest half box sample_field scans


@lru_cache(maxsize=None)
def directions(d: int) -> np.ndarray:
    """Canonical edge directions: the lexicographically positive half of
    {-1,0,1}^d minus the origin, sorted lexicographically.  That is the
    half after the origin of {-1,0,1}^d listed in C order."""
    full = np.indices((3,) * d, dtype=np.int64).reshape(d, -1).T - 1
    return np.ascontiguousarray(full[len(full) // 2 + 1:])


def _shift_slices(L: int, gamma) -> Tuple[tuple, tuple]:
    """(src, dst) window slices so that grid[dst] aligns with grid[src]
    translated by gamma (both endpoints in-window)."""
    src = tuple(slice(max(0, -int(g)), L - max(0, int(g))) for g in gamma)
    dst = tuple(slice(max(0, int(g)), L - max(0, -int(g))) for g in gamma)
    return src, dst


def flat_shifts(window: LatticeWindow) -> np.ndarray:
    """shift[i] = flat index of v + dirs[i] minus flat index of v, for any
    v whose edge in direction i stays in the window."""
    strides = window.L ** np.arange(window.d - 1, -1, -1, dtype=np.int64)
    return directions(window.d) @ strides


def edge_mask(window: LatticeWindow, grid: np.ndarray, op) -> np.ndarray:
    """Slot mask of an edge set: mask[i, v] = op(grid[v], grid[v + dirs[i]])
    for every edge (v, v + dirs[i]) inside the window, v a flat vertex
    index; slots whose edge leaves the window are False.  This is the
    EdgeField.values layout, so a mask selects values directly."""
    dirs = directions(window.d)
    out = np.zeros((len(dirs), window.n_vertices), dtype=bool)
    for i, g in enumerate(dirs):
        src, dst = _shift_slices(window.L, g)
        out[i].reshape(window.shape)[src] = op(grid[src], grid[dst])
    return out


def edge_slots(window: LatticeWindow, u, v
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, tail, sign) of the ordered edges u[k] -> v[k], given as flat
    vertex indices: the flow on u[k] -> v[k] is sign[k] times the value at
    slot (row[k], tail[k]) of the EdgeField.values layout.  The direction
    comes from coordinates, not flat differences, which collide at L = 2
    and wrap across rows; a pair that is not a lattice edge raises
    ValueError."""
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    g = (np.stack(np.unravel_index(v, window.shape))
         - np.stack(np.unravel_index(u, window.shape)))
    bad = (np.abs(g) > 1).any(axis=0) | ~g.any(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError("(%d, %d) is not a lattice edge" % (u[k], v[k]))
    # base-3 codes of {-1,0,1}^d are increasing in lexicographic order, so
    # the canonical directions are the codes above the zero vector's, in
    # order, and -g mirrors g's code about it
    code = np.ravel_multi_index(tuple(g + 1), (3,) * window.d) \
        - (3 ** window.d - 1) // 2
    sign = np.sign(code)
    return np.abs(code) - 1, np.where(sign > 0, u, v), sign


def all_directions(d: int) -> np.ndarray:
    """All 3^d - 1 unit directions (both orientations)."""
    pos = directions(d)
    return np.concatenate([pos, -pos], axis=0)


def reduce_mod1(x: np.ndarray) -> np.ndarray:
    """Reduce into [0, 1); values within MOD_TOL below 1 snap to 0.
    x - floor(x) rounds the same exact value as np.mod(x, 1.0) does, so
    the two agree bit for bit, negatives and signed zeros included."""
    x = np.asarray(x, dtype=np.float64)
    r = x - np.floor(x)
    r[r >= 1.0 - MOD_TOL] = 0.0
    return r


def _first_primes(count: int) -> list[int]:
    """The first count primes, by a sieve up to Rosser's bound: the n-th
    prime is below n (ln n + ln ln n) for n >= 6."""
    n = max(count, 6)
    sieve = np.ones(int(n * (math.log(n) + math.log(math.log(n)))) + 1,
                    dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)[:count].tolist()


@dataclass(frozen=True)
class ActionSpec:
    """Generators of a rank-d translation action on the k-torus."""

    k: int
    d: int
    u: np.ndarray          # shape (d, k), generator translations
    x0: np.ndarray         # shape (k,), base point
    seed: Optional[int] = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64).reshape(self.d, self.k)
        x0 = np.asarray(self.x0, dtype=np.float64).reshape(self.k)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x0", x0)

    @classmethod
    def from_seed(cls, k: int, d: int, seed: int,
                  x0: Optional[Sequence[float]] = None) -> "ActionSpec":
        """Generators from square roots of seeded distinct primes, with each
        fractional part scaled into (0, 1/10)."""
        rng = np.random.default_rng(seed)
        primes = _first_primes(128)
        picks = rng.choice(len(primes), size=d * k, replace=False)
        vals = np.array([math.sqrt(primes[i]) % 1.0 for i in picks])
        u = (vals / 10.0).reshape(d, k)
        base = np.zeros(k) if x0 is None else np.asarray(x0, dtype=np.float64)
        return cls(k=k, d=d, u=u, x0=base, seed=seed)

    def grid_points(self, ns: Sequence[int],
                    x: Optional[np.ndarray] = None) -> np.ndarray:
        """Torus points of the full coordinate grid prod_i [0, ns_i), as an
        array of shape ns + (k,).  Each torus coordinate is summed in its
        own contiguous plane: 0 + base, then n_i * u_i axis by axis."""
        base = self.x0 if x is None else np.asarray(x, dtype=np.float64)
        base = np.broadcast_to(base, (self.k,))
        shape = tuple(int(n) for n in ns)
        planes = np.empty((self.k,) + shape, dtype=np.float64)
        for c, plane in enumerate(planes):
            plane.fill(0.0 + float(base[c]))
            for i in range(self.d):
                view = [1] * self.d
                view[i] = shape[i]
                plane += (np.arange(shape[i], dtype=np.float64)
                          * self.u[i, c]).reshape(view)
        return np.moveaxis(reduce_mod1(planes), 0, -1)


def orbit_points(action: ActionSpec, n: int,
                 x: Optional[np.ndarray] = None) -> np.ndarray:
    """The test set F_N(x): images of x under the cube [0, N)^d, flattened
    to shape (N^d, k).  Fails if the test set is too large."""
    if n < 1:
        raise ValueError("N must be >= 1")
    try:        # numpy's own ValueError: a size past the address space
        pts = action.grid_points([n] * action.d, x)
    except (MemoryError, ValueError) as exc:
        raise ValueError("test set F_%d of %d^%d points too large: %s"
                         % (n, n, action.d, exc))
    return pts.reshape(-1, action.k)


def scan_size(window: LatticeWindow) -> int:
    """Offsets in the freeness scan's half box, L * (2L - 1)^(d - 1)."""
    return window.L * (2 * window.L - 1) ** (window.d - 1)


def min_orbit_separation(action: ActionSpec, extent: int) -> Tuple[float, Tuple[int, ...]]:
    """Minimum l-infinity torus distance between distinct orbit points over a
    window of the given extent.  delta and -delta give the same distance,
    so only the half box [0, extent) x [-(extent-1), extent-1]^(d-1) of the
    difference set is scanned.  With t = sum_i delta_i u_ic summed from 0
    in axis order, a coordinate's distance |t - rint(t)| is the exact
    distance of the float t to the nearest integer.  Only offsets whose
    coordinate 0 could beat the least distance found so far are formed,
    by meet in the middle (Horowitz and Sahni 1974): head rows query
    coordinate 0's tail sums, sorted mod 1, for that distance plus eps, a
    bound on the float error of the reassociated sum.  Returns (distance,
    witness delta): the first minimiser in C order of the half box."""
    d, u = action.d, action.u
    axes = [np.arange(extent, dtype=np.float64)] \
        + [np.arange(1 - extent, extent, dtype=np.float64)] * (d - 1)
    sizes = [len(ax) for ax in axes]
    # tail box: the trailing axes, at most SCAN_BLOCK offsets, nearest sqrt
    h = min((h for h in range(1, d + 1) if math.prod(sizes[h:]) <= SCAN_BLOCK),
            key=lambda h: abs(math.log(math.prod(sizes[h:]) ** 2
                                       / math.prod(sizes))))
    n_head, n_tail = math.prod(sizes[:h]), math.prod(sizes[h:])
    # per coordinate, t at each head row in C order
    heads = [reduce(np.add.outer, [ax * g for ax, g in zip(axes[:h], col)],
                    np.zeros(())).ravel() for col in u.T]
    # per coordinate and tail axis, delta_i u_ic at each tail offset; ring
    # is coordinate 0's tail sums mod 1, s, sorted, as s - 1, s and s + 1
    picks = np.indices(sizes[h:]).reshape(d - h, n_tail)
    terms = [[(ax * g)[j] for ax, g, j in zip(axes[h:], col[h:], picks)]
             for col in u.T]
    s = np.mod(sum(terms[0], np.zeros(n_tail)), 1.0)
    order = np.argsort(s)
    ring = (s[order] + np.arange(-1.0, 2.0)[:, None]).ravel()
    eps = 2.0 ** -40 * (1.0 + (extent - 1) * float(np.abs(u[:, 0]).sum()))
    # the origin is the centre of head row block delta_0 = 0 and of the tail
    o_row, o_tail = (n_head // extent - 1) // 2, (n_tail - 1) // 2
    # one row taken whole sets best, then chunks of at most SCAN_BLOCK
    cuts = [0, *range(1, n_head, max(1, SCAN_BLOCK // n_tail)), n_head]
    best, first = np.inf, 0
    for lo, hi in zip(cuts, cuts[1:]):
        r = best + eps
        if r >= 0.25:   # half the circle or more: whole rows
            start, count = np.full((2, hi - lo), n_tail)
        else:
            frac = np.mod(heads[0][lo:hi], 1.0)
            start = np.searchsorted(ring, 1.0 - frac - r, "left")
            count = np.searchsorted(ring, 1.0 - frac + r, "right") - start
        # the candidates: head row, and tail offset through its ring place
        row = np.repeat(np.arange(lo, hi), count)
        q = np.arange(len(row))
        q += np.repeat(start - np.cumsum(count) + count, count)
        q = np.take(order, q, mode="wrap")      # ring place mod n_tail
        dist = np.zeros(len(row))
        for hc, tc in zip(heads, terms):
            t = hc[row]
            for term in tc:
                t += term[q]
            t -= np.rint(t)
            np.maximum(dist, np.abs(t, out=t), out=dist)
        if lo <= o_row < hi:
            dist[(row == o_row) & (q == o_tail)] = np.inf
        if len(dist) and dist.min() < best:
            best = float(dist.min())
            first = int((row * n_tail + q)[dist == best].min())
    return best, tuple(int(ax[i]) for ax, i in
                       zip(axes, np.unravel_index(first, sizes)))


@dataclass(frozen=True)
class LatticeWindow:
    """Finite sampling window [0, L)^d with a frontier ring of width margin.

    Core vertices (coordinates in [margin, L - margin)) carry hard
    guarantees; frontier vertices absorb boundary effects.
    """

    d: int
    L: int
    margin: int = 0

    def __post_init__(self):
        if self.d < 1 or self.L < 2:
            raise ValueError("window needs d >= 1 and L >= 2")
        if not (0 <= self.margin and self.L - 2 * self.margin >= 1):
            raise ValueError("margin %d leaves no core in L=%d" % (self.margin, self.L))

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.L,) * self.d

    @property
    def n_vertices(self) -> int:
        return self.L ** self.d

    @property
    def core_bounds(self) -> Tuple[int, int]:
        return self.margin, self.L - self.margin

    def core_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        sl = tuple(slice(self.margin, self.L - self.margin) for _ in range(self.d))
        m[sl] = True
        return m

    def frontier_mask(self) -> np.ndarray:
        return ~self.core_mask()

    def contains(self, v: Sequence[int]) -> bool:
        return all(0 <= c < self.L for c in v)


@dataclass(frozen=True)
class Crop:
    """The centred sub-box [offset, L - offset)^d of the window full, as a
    window of its own with coordinates shifted down by offset.  Its core
    is full's core, and flat indices inside it keep full's order.  This
    is the only place where flat indices move between the two windows."""

    full: LatticeWindow
    offset: int = 0

    def __post_init__(self):
        if not 0 <= self.offset <= self.full.margin:
            raise ValueError("crop offset %d outside 0..margin %d"
                             % (self.offset, self.full.margin))

    @property
    def window(self) -> LatticeWindow:
        if not self.offset:
            return self.full
        w = self.full
        return LatticeWindow(d=w.d, L=w.L - 2 * self.offset,
                             margin=w.margin - self.offset)

    def take(self, grid: np.ndarray) -> np.ndarray:
        """The crop's part of a full-window grid, as a view."""
        o = self.offset
        return grid[(slice(o, self.full.L - o),) * self.full.d]

    def to_full(self, flat) -> np.ndarray:
        """Full-window flat indices of crop flat indices."""
        coords = np.unravel_index(np.asarray(flat, dtype=np.int64),
                                  self.window.shape)
        return np.ravel_multi_index(tuple(c + self.offset for c in coords),
                                    self.full.shape).astype(np.int64)

    def from_full(self, flat) -> Tuple[np.ndarray, np.ndarray]:
        """(crop flat indices, inside) for full-window flat indices; an
        index outside the crop gets inside False and crop index 0."""
        coords = np.stack(np.unravel_index(np.asarray(flat, dtype=np.int64),
                                           self.full.shape)) - self.offset
        inside = ((coords >= 0) & (coords < self.window.L)).all(axis=0)
        coords[:, ~inside] = 0
        return (np.ravel_multi_index(tuple(coords), self.window.shape)
                .astype(np.int64), inside)


def edge_crop(window: LatticeWindow) -> Crop:
    """Where edge fields on the window live: the core box plus one ring,
    which holds every edge with an end in the core.  At margin 0 (no
    frontier) and margin 1 that is the whole window."""
    return Crop(window, max(window.margin - 1, 0))


@dataclass(frozen=True)
class IndicatorField:
    """f = chi_A - chi_B sampled on a window lattice."""

    window: LatticeWindow
    chi_a: np.ndarray
    chi_b: np.ndarray
    f: np.ndarray = field(init=False)

    def __post_init__(self):
        f = self.chi_a.astype(np.int8) - self.chi_b.astype(np.int8)
        object.__setattr__(self, "f", f)

    @property
    def count_a(self) -> int:
        return int(self.chi_a.sum())

    @property
    def count_b(self) -> int:
        return int(self.chi_b.sum())


def sample_field(window: LatticeWindow, action: ActionSpec,
                 shape_a: Shape, shape_b: Shape) -> IndicatorField:
    """Sample chi_A and chi_B over the window orbit of the base point
    action.x0.

    Fails if the measures disagree (beyond MEASURE_TOL), if the action is not
    free on the window (within FREENESS_TOL) or if the window is too large.
    """
    if shape_a.k != action.k or shape_b.k != action.k:
        raise ValueError("shape dimension does not match action rank k")
    if not measures_match(shape_a, shape_b, MEASURE_TOL):
        raise ValueError("lambda(A) != lambda(B): %r vs %r"
                         % (shape_a.measure(), shape_b.measure()))
    if scan_size(window) > SCAN_MAX:
        raise ValueError("window too large: the freeness scan covers %d "
                         "offsets, past %d" % (scan_size(window), SCAN_MAX))
    try:
        sep, delta = min_orbit_separation(action, window.L)
        if sep <= FREENESS_TOL:
            raise ValueError(
                "action not free on window: offset %r gives separation %.3g"
                % (delta, sep))
        pts = action.grid_points(window.shape).reshape(-1, action.k)
        chi_a = shape_a.contains(pts).reshape(window.shape)
        chi_b = shape_b.contains(pts).reshape(window.shape)
    except MemoryError as exc:
        raise ValueError("window too large: %s" % exc)
    return IndicatorField(window=window, chi_a=chi_a, chi_b=chi_b)


def discrepancy(points: np.ndarray, shape: Shape) -> float:
    """| |F cap A| / |F| - lambda(A) | for a finite point set F."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("empty test set")
    frac_in = float(shape.contains(pts).mean())
    return abs(frac_in - float(shape.measure()))


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares fit of log max-discrepancy against log N."""

    m_const: float
    eps: float
    slope: float
    intercept: float
    table: Tuple[Tuple[int, float], ...]
    flags: Tuple[str, ...]


def fit_discrepancy_envelope(action: ActionSpec, shape: Shape,
                             ns: Sequence[int],
                             xs: Sequence[np.ndarray]) -> EnvelopeFit:
    """Fit max_x D(F_N(x), A) ~ M * N^(-1-eps) over a grid of (x, N).

    The fitted line lives in log-log space; eps <= 0 or zero discrepancies
    are reported as flags rather than errors.
    """
    ns = sorted(set(int(n) for n in ns))
    if len(ns) < 3:
        raise ValueError("need at least 3 distinct N values")
    if not len(xs):
        raise ValueError("need at least one base point")
    table = []
    for n in ns:
        worst = max(discrepancy(orbit_points(action, n, x), shape) for x in xs)
        table.append((n, worst))
    flags = []
    if any(dv == 0.0 for _, dv in table):
        flags.append("zero-discrepancy")
        return EnvelopeFit(0.0, 0.0, 0.0, 0.0, tuple(table), tuple(flags))
    logn = np.log([float(n) for n, _ in table])
    logd = np.log([dv for _, dv in table])
    slope, intercept = np.polyfit(logn, logd, 1)
    eps = -float(slope) - 1.0
    m_const = float(np.exp(intercept))
    if slope > -0.5:
        flags.append("no-decay")
    if eps <= 0:
        flags.append("eps-nonpositive")
    return EnvelopeFit(m_const, eps, float(slope), float(intercept),
                       tuple(table), tuple(flags))


def choose_lattice_dimension(k: int, boundary_dim) -> int:
    """Smallest d >= 2 with d > 2k / (k - boundary_dim)."""
    delta = Fraction(boundary_dim) if not isinstance(boundary_dim, Fraction) else boundary_dim
    if not (0 <= delta < k):
        raise ValueError("boundary dimension must satisfy 0 <= delta < k")
    ratio = Fraction(2 * k) / (Fraction(k) - delta)
    return max(2, math.floor(ratio) + 1)

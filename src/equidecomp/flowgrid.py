"""Real-valued flows on the window lattice from nested box partitions.

For each level n >= 1 the window is cut into side-2^n boxes at every phase
offset.  Within one box, mass at z is pushed along the segment z, z+gamma,
..., z + 2^(n-1) gamma whenever the whole segment stays inside the box; the
per-edge flow phi is the segment count times the mean of f over the half-box
the segments start from.  Averaging the antisymmetrized phi over all phases
and summing levels 1..N0 yields the truncated flow psi, whose divergence
matches f up to an explicitly bounded error.  The phase average is not
taken phase by phase: per level it is one line sum along gamma of a
tent-weighted box sum of f (see _kernels).

Every value is an exact dyadic rational, stored as an integer numerator
at the common scale 2^(2 N0 d), in the narrowest signed dtype that
psi_num_bound proves wide enough (narrow_int): int8 at d=5, N0=1, int32
at d=3, N0=3.  The per-edge, per-phase definitions that truncated_psi
computes in bulk are kept as test references in
tests/oracle/paperflow.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Optional, Tuple, Union

import numpy as np

from ._kernels import add_line_sum, level_box, subbox_sums
from .lattice import (Crop, IndicatorField, LatticeWindow, _shift_slices,
                      directions, edge_crop)


# ---------------------------------------------------------------------------
# edge fields (scaled-int bulk storage)
# ---------------------------------------------------------------------------

class EdgeField:
    """Antisymmetric edge flow stored once per unordered edge.

    values[i, v] is the numerator of the flow on (v, v + dirs[i]) at scale
    2^(-scale_exp), where dirs are the canonical (lexicographically
    positive) directions and v is a flat vertex index of `window`.  The
    arrays are direction-major, so each direction's edges are one
    contiguous row.  lattice.edge_slots maps an ordered vertex pair to its
    slot, and edge sets are slot masks of this shape.  values may be of
    any signed integer dtype: the truncated, repaired and integral flows
    are stored as narrow as their proven bounds allow (narrow_int; the
    repaired phi as the wider of psi_t's dtype and narrow_int(max|psi_t|
    + cap + 1)).  Code that shifts or reduces values upcasts them first.

    A field lives on `window`, which is crop.window: built from a Crop,
    the field covers only that sub-box of crop.full (the pipeline's
    fields live on lattice.edge_crop, the core box plus one ring, which
    holds every edge with an end in the core); built from a window, crop
    is the whole of it.  Slots of edges that leave `window` carry zero.
    """

    def __init__(self, window: Union[LatticeWindow, Crop], scale_exp: int,
                 values: Optional[np.ndarray] = None):
        self.crop = window if isinstance(window, Crop) else Crop(window)
        self.window = self.crop.window
        self.scale_exp = int(scale_exp)
        self.dirs = directions(self.window.d)
        shape = (len(self.dirs), self.window.n_vertices)
        self.values = np.zeros(shape, dtype=np.int64) if values is None else values
        if self.values.shape != shape:
            raise ValueError("bad edge array shape")
        if not np.issubdtype(self.values.dtype, np.signedinteger):
            raise ValueError("edge values must be signed integers, not %s"
                             % self.values.dtype)

    @property
    def valid(self) -> np.ndarray:
        """Every slot is valid: a read-only all-true view that allocates
        nothing (kept for readers that count its bytes)."""
        return np.broadcast_to(np.True_, self.values.shape)

    def copy(self) -> "EdgeField":
        return EdgeField(self.crop, self.scale_exp, self.values.copy())

    def with_values(self, values: np.ndarray,
                    scale_exp: Optional[int] = None) -> "EdgeField":
        """A field on the same crop holding `values` itself (not a copy),
        at this field's scale unless scale_exp is given."""
        return EdgeField(self.crop, self.scale_exp if scale_exp is None
                         else scale_exp, values)

    def grid(self, dir_index: int) -> np.ndarray:
        """Direction dir_index's values as a window grid (a view)."""
        return self.values[dir_index].reshape(self.window.shape)

    def divergence_num(self, core: bool = False) -> np.ndarray:
        """Divergence numerators at this field's scale, as a grid over
        its window, or over the core box [margin, L - margin)^d of that
        window when core is set (a crop has the full window's core).
        values[i, v] counts out of v, and into v + dirs[i] when that lies
        in the window; the slots of edges that leave it carry zero."""
        L = self.window.L
        lo, hi = self.window.core_bounds if core else (0, L)
        box = (slice(lo, hi),) * self.window.d
        div = np.zeros((hi - lo,) * self.window.d, dtype=np.int64)
        for i, g in enumerate(self.dirs.tolist()):
            v = self.grid(i)
            div += v[box]
            # into each head x in the box whose tail x - g is in the window
            heads = [(max(lo, c), min(hi, L + c)) for c in g]
            div[tuple(slice(a - lo, b - lo) for a, b in heads)] -= \
                v[tuple(slice(a - c, b - c) for (a, b), c in zip(heads, g))]
        return div

    def max_abs(self) -> float:
        """Largest |flow| on any stored edge, as the nearest float."""
        top = max(int(self.values.max(initial=0)),
                  -int(self.values.min(initial=0)))
        return top / (1 << self.scale_exp)


def narrow_int(bound: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 that holds every
    integer x with |x| < bound."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError("no int64 holds every |x| < %d" % bound)


def psi_num_bound(d: int, n0: int) -> int:
    """Strict bound on |x| for every int64 value x truncated_psi forms.

    With |f| <= 1 and h = 2^(n-1): |B| <= h^(2 d) for B = level_box(f, n);
    a level's line sum adds 2h of them, 2^(2 n d + n - 2 d) at most, and
    2^(2 n0 d + n - 2 d) after the level weight 2^(2 (n0 - n) d).  Summed
    over n = 1..n0 and times 2^(#zero coords) <= 2^(d-1), that stays below
    2^(2 n0 d + n0 - d), which bounds psi's numerators and every partial
    sum on the way (a Horner partial sum to level n is the sum for n0 = n).
    The cumsums inside subbox_sums grow with L, but int64 sums wrap modulo
    2^64, so every box sum that fits is still exact.
    """
    return 1 << psi_num_bits(d, n0)


def psi_num_bits(d: int, n0: int) -> int:
    """log2 of psi_num_bound(d, n0), without building the bound."""
    return 2 * n0 * d + n0 - d


def _truncation_box(crop: Crop, n0: int, g) -> tuple:
    """Slices of crop.window selecting the tails v of the direction-g edges
    that truncated_psi keeps: (v, v + g) stays in the crop, and the
    level-n0 phase neighborhoods of both endpoints fit in crop.full, which
    holds for the vertices of [2^n0 - 1, L - 2^n0]^d."""
    o = crop.offset
    lo = max((1 << n0) - 1 - o, 0)
    hi = min(crop.full.L - (1 << n0) + 1 - o, crop.window.L)
    src, _ = _shift_slices(hi - lo, g)
    return tuple(slice(lo + s.start, lo + s.stop) for s in src)


def truncation_mask(crop: Crop, n0: int) -> np.ndarray:
    """The slots, laid out as EdgeField.values on crop.window, that
    truncated_psi(field, n0) computes; it stores zero in all others."""
    dirs = directions(crop.full.d)
    out = np.zeros((len(dirs), crop.window.n_vertices), dtype=bool)
    for i, g in enumerate(dirs):
        out[i].reshape(crop.window.shape)[_truncation_box(crop, n0, g)] = True
    return out


def truncated_psi(field: IndicatorField, n0: int) -> EdgeField:
    """The flow psi truncated to levels 1..n0, computed by the kernel path,
    on lattice.edge_crop of the field's window.

    Each level is box-summed over the whole window once; each direction's
    line sums are formed only on the slots it keeps (truncation_mask), in
    one int64 array of that box, weighted 2^(2 (n0 - n) d) in Horner order;
    all other slots carry zero.  Values live at scale 2^(2 n0 d) and are
    bounded by psi_num_bound, so they are stored as
    narrow_int(psi_num_bound(d, n0)) and the cast loses nothing.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    window = field.window
    L, d = window.L, window.d
    if (1 << (n0 + 1)) > L:
        raise ValueError("window side %d too small for level %d boxes" % (L, n0))
    crop = edge_crop(window)
    dirs = directions(d)
    out = EdgeField(crop, 2 * n0 * d, np.zeros(
        (len(dirs), crop.window.n_vertices),
        dtype=narrow_int(psi_num_bound(d, n0))))
    boxes = [level_box(field.f, n) for n in range(1, n0 + 1)]
    for i, g in enumerate(dirs.tolist()):
        keep = _truncation_box(crop, n0, g)
        corner = [s.start + crop.offset for s in keep]
        acc = np.zeros([s.stop - s.start for s in keep], dtype=np.int64)
        for n, box in enumerate(boxes, start=1):
            if n > 1:
                acc <<= 2 * d
            add_line_sum(acc, box, n, g, corner)
        acc <<= g.count(0)
        # |acc| < psi_num_bound: the narrowing cast is exact
        out.grid(i)[keep] = acc
    return out


def residual_num(field: IndicatorField, psi: EdgeField) -> np.ndarray:
    """(f - div psi) numerators at psi's scale, as a grid over the core box
    [margin, L - margin)^d."""
    lo, hi = field.window.core_bounds
    f = field.f[(slice(lo, hi),) * field.window.d].astype(np.int64)
    return (f << psi.scale_exp) - psi.divergence_num(core=True)


# ---------------------------------------------------------------------------
# envelopes and bounds
# ---------------------------------------------------------------------------

def phi_envelope(n: int, m_const: float, eps: float, d: int) -> float:
    """Phi(2^n) = M * 2^(n(d - 1 - eps) + 1), the box-sum envelope."""
    return m_const * 2.0 ** (n * (d - 1 - eps) + 1)

def flow_bound(m_const: float, eps: float, d: int) -> float:
    """Per-edge bound on the full flow: sum over levels of the pushed mass,
    (2M / 2^(d-1)) / (1 - 2^-eps)."""
    if m_const <= 0 or eps <= 0:
        raise ValueError("need M > 0 and eps > 0")
    return (2.0 * m_const / 2.0 ** (d - 1)) / (1.0 - 2.0 ** (-eps))


def tail_bound(n0: int, m_const: float, eps: float, d: int) -> float:
    """Bound on the flow mass in levels > n0:
    (2M / 2^(d-1)) * 2^(-n0 eps) / (1 - 2^-eps)."""
    if m_const <= 0 or eps <= 0:
        raise ValueError("need M > 0 and eps > 0")
    return (2.0 * m_const / 2.0 ** (d - 1)) * 2.0 ** (-n0 * eps) / (1.0 - 2.0 ** (-eps))


def measure_box_sums(field: IndicatorField, n: int) -> int:
    """max |sum of f| over all side-2^n boxes inside the window."""
    side = 1 << n
    if side > field.window.L:
        raise ValueError("boxes of side %d exceed the window" % side)
    sb = subbox_sums(field.f, side)
    return int(np.abs(sb).max())


@dataclass(frozen=True)
class BoxEnvelope:
    """Certified envelope Phi(2^n) > measured max box sum for all n."""

    m_const: float
    eps: float
    c: float                       # flow_bound(m_const, eps, d)
    d: int
    table: Tuple[Tuple[int, int, float], ...]   # (n, measured, Phi(2^n))


DEFAULT_EPS_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


def certify_box_envelope(field: IndicatorField,
                         eps: Optional[float] = None) -> BoxEnvelope:
    """Measure max box sums at dyadic scales and pick (M, eps) so that
    Phi(2^n) strictly dominates every measurement.

    eps is chosen from a fixed grid to minimize the resulting flow bound
    (deterministic tie-break toward smaller eps) unless given explicitly.
    """
    d = field.window.d
    n_max = int(log2(field.window.L))
    while (1 << n_max) > field.window.L:
        n_max -= 1
    measured = [(n, measure_box_sums(field, n)) for n in range(n_max + 1)]
    grid = (eps,) if eps is not None else DEFAULT_EPS_GRID
    best = None
    for e in grid:
        m_req = max((b + 1) / 2.0 ** (n * (d - 1 - e) + 1) for n, b in measured)
        c = flow_bound(m_req, e, d)
        if best is None or c < best[2]:
            best = (m_req, e, c)
    m_const, e, c = best
    table = tuple((n, b, phi_envelope(n, m_const, e, d)) for n, b in measured)
    return BoxEnvelope(m_const=m_const, eps=e, c=c, d=d, table=table)


def truncation_error_bound(env: BoxEnvelope, n0: int) -> float:
    """Bound on |f - div psi_<=n0| at fully valid vertices:
    Phi(2^n0) / 2^(n0 d)."""
    return phi_envelope(n0, env.m_const, env.eps, env.d) / 2.0 ** (n0 * env.d)


def integral_flow_bound(env: BoxEnvelope, repair_capacity: int) -> int:
    """Integer per-edge bound for the integralized pipeline flow:
    ceil(c) + 3^d for the rounding deviation, plus the repair capacity."""
    return int(ceil(env.c)) + 3 ** env.d + int(repair_capacity)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"EQDF2\n"
_DUMP_BLOCK = 2048          # vertices per block of records written


def dump_edge_field(path, field: EdgeField) -> None:
    """Binary dump: magic, one ASCII header line 'd L margin scale nrec' of
    the full window (field.crop.full), then nrec little-endian int64
    records (vertex, direction, numerator, exponent), one per nonzero
    slot, with vertex a flat index of the full window and the numerator
    canonical.  The field must live on lattice.edge_crop of its window,
    where load_edge_field puts it back.  The records are in vertex-major
    (vertex, direction) order, although the field stores values[i, v];
    they are built and written one vertex block at a time, so the dump
    holds only one block's records at once."""
    ndir, nvert = field.values.shape
    w = field.crop.full
    if field.crop != edge_crop(w):
        raise ValueError("only a field on edge_crop of its window is dumped")
    nrec = np.count_nonzero(field.values)
    cuts = range(_DUMP_BLOCK, nvert, _DUMP_BLOCK)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(("%d %d %d %d %d\n" % (w.d, w.L, w.margin, field.scale_exp,
                                        nrec)).encode())
        for v0, vals in zip(range(0, nvert, _DUMP_BLOCK),
                            np.split(field.values, cuts, axis=1)):
            # C order of the transposed block is (vertex, direction)
            flat = np.flatnonzero(vals.T != 0)
            rec = np.empty((len(flat), 4), dtype="<i8")
            vert, di = np.divmod(flat, ndir)
            nums, exps = rec[:, 2], rec[:, 3]
            nums[:] = vals[di, vert]
            rec[:, 0] = field.crop.to_full(vert + v0)
            rec[:, 1] = di
            # canonical numerators: shift out up to scale_exp trailing
            # zero bits
            np.negative(nums, out=exps)
            exps &= nums                                   # lowest set bit
            low = exps.view(np.uint64).astype(np.float64)
            np.log2(low, out=low)
            shift = np.minimum(low, field.scale_exp, out=low).astype(np.uint8)
            nums >>= shift
            np.subtract(field.scale_exp, shift, out=exps)
            fh.write(rec.data)


def load_edge_field(path) -> EdgeField:
    """Read a dump_edge_field file into a field on lattice.edge_crop of
    its window; a slot with no record holds 0.  Records are read and
    scattered one block at a time, so only one block is held besides the
    field.  Anything the format does not allow raises ValueError: a
    negative record count, a file that ends before its header's record
    count or goes on after it; a record whose vertex,
    direction or exponent (0..scale) is out of range, whose numerator is
    zero or not canonical (even at an exponent above 0), or whose value
    does not fit int64 at the field's scale; records not strictly
    increasing in (vertex, direction), which includes two for one slot;
    and a record whose vertex lies outside the crop."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("bad magic")
        d, L, margin, scale, nrec = (int(v) for v in fh.readline().split())
        if nrec < 0:
            raise ValueError("negative edge field record count %d" % nrec)
        crop = edge_crop(LatticeWindow(d=d, L=L, margin=margin))
        out = EdgeField(crop, scale)
        ndir = len(out.dirs)
        nvert = crop.full.n_vertices
        block = _DUMP_BLOCK * ndir
        last = -1                 # (vertex, direction) key of the last record
        for start in range(0, nrec, block):
            count = min(block, nrec - start)
            buf = fh.read(count * 32)
            if len(buf) != count * 32:
                raise ValueError("truncated edge field: %d of %d records"
                                 % (start + len(buf) // 32, nrec))
            rec = np.frombuffer(buf, dtype="<i8").reshape(count, 4)
            vi, di, nums, exps = rec.T
            bad = ((vi < 0) | (vi >= nvert) | (di < 0) | (di >= ndir)
                   | (exps < 0) | (exps > scale))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    "edge field record %d (vertex %d, direction %d, exponent "
                    "%d) is out of range: %d vertices, %d directions, "
                    "scale %d" % (start + k, vi[k], di[k], exps[k], nvert,
                                  ndir, scale))
            bad = (nums == 0) | ((exps > 0) & (nums & 1 == 0))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    "edge field record %d has numerator %d at exponent %d, "
                    "not a canonical nonzero one" % (start + k, nums[k],
                                                     exps[k]))
            # a shift past 63 bits or one that does not shift back has
            # wrapped: the value does not fit int64
            shift = scale - exps
            wide = shift > 63
            shift[wide] = 63
            vals = nums << shift
            bad = wide | ((vals >> shift) != nums)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    "edge field record %d (%d / 2^%d) does not fit int64 at "
                    "scale %d" % (start + k, nums[k], exps[k], scale))
            key = vi * ndir + di
            bad = np.diff(key, prepend=last) <= 0
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    "edge field record %d (vertex %d, direction %d) does not "
                    "follow the record before it in (vertex, direction) order"
                    % (start + k, vi[k], di[k]))
            last = int(key[-1])
            ci, inside = crop.from_full(vi)
            if not inside.all():
                k = int(np.argmin(inside))
                raise ValueError(
                    "edge field record %d (vertex %d) lies outside the "
                    "stored box [%d, %d)^%d" % (start + k, vi[k], crop.offset,
                                               L - crop.offset, d))
            out.values[di, ci] = vals
        if fh.read(1):
            raise ValueError("edge field goes on after its %d records" % nrec)
    return out

"""The box flow defined one edge and one box phase at a time.

These are the scalar definitions that `equidecomp.flowgrid.truncated_psi`
computes in bulk: the transport-segment count through an edge, phi for one
box phase, the chain flow psi_chain with its divergence identity, and the
phase-averaged level term level_sum.  Every value is an exact Dyadic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from equidecomp.lattice import IndicatorField, LatticeWindow, all_directions

from .dyadic import Dyadic


def box_of(y: Sequence[int], n: int, offset: Sequence[int]) -> Tuple[int, ...]:
    """Corner of the side-2^n box with the given phase offset containing y."""
    side = 1 << n
    return tuple(int(c) - ((int(c) - int(o)) % side) for c, o in zip(y, offset))


def segment_count(y: Sequence[int], gamma: Sequence[int], n: int,
                  offset: Sequence[int]) -> int:
    """Number of transport segments through the edge (y, y + gamma) in y's
    level-n box: indices i in [0, 2^(n-1)) with both z = y - i gamma and
    z + 2^(n-1) gamma inside the box."""
    b = box_of(y, n, offset)
    h, side = 1 << (n - 1), 1 << n
    count = 0
    for i in range(h):
        z = [int(c) - i * int(g) for c, g in zip(y, gamma)]
        w = [zj + h * int(g) for zj, g in zip(z, gamma)]
        count += all(0 <= zj - bj < side and 0 <= wj - bj < side
                     for zj, wj, bj in zip(z, w, b))
    return count


def sub_box(y: Sequence[int], gamma: Sequence[int], n: int,
            offset: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Corner and side of the half-box the transport segments start from:
    the lower half along an axis where gamma > 0, the upper half where
    gamma < 0, and the half y falls in where gamma = 0."""
    b = box_of(y, n, offset)
    h = 1 << (n - 1)
    corner = tuple(bj + (h if g < 0 or (g == 0 and int(c) - bj >= h) else 0)
                   for c, g, bj in zip(y, gamma, b))
    return corner, h


def _box_sum(field: IndicatorField, corner: Sequence[int], side: int) -> int:
    sl = tuple(slice(int(c), int(c) + side) for c in corner)
    return int(field.f[sl].sum(dtype=np.int64))


def _require_box_in_window(window: LatticeWindow, corner: Sequence[int],
                           side: int) -> None:
    if any(c < 0 or c + side > window.L for c in corner):
        raise ValueError("box %r side %d leaves the window" % (tuple(corner), side))


def phi_edge(field: IndicatorField, y: Sequence[int], gamma: Sequence[int],
             n: int, offset: Sequence[int]) -> Dyadic:
    """phi at the edge (y, y + gamma) for the level-n box at this phase:
    2^(-n d) * segment count * (sum of f over the source half-box)."""
    window = field.window
    b = box_of(y, n, offset)
    _require_box_in_window(window, b, 1 << n)
    cnt = segment_count(y, gamma, n, offset)
    if cnt == 0:
        return Dyadic(0)
    corner, side = sub_box(y, gamma, n, offset)
    return Dyadic(cnt * _box_sum(field, corner, side), n * window.d)


@dataclass(frozen=True)
class Chain:
    """Compatible tower of box partitions, one per level 1..n.

    Lower phases are forced by the top one (offset mod 2^i), so a chain is
    just its depth and top offset.
    """

    n: int
    offset: Tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("chain depth must be >= 1")
        side = 1 << self.n
        if any(not (0 <= o < side) for o in self.offset):
            raise ValueError("offset %r out of range for level %d" % (self.offset, self.n))

    def level_offset(self, i: int) -> Tuple[int, ...]:
        side = 1 << i
        return tuple(o % side for o in self.offset)


def psi_chain(field: IndicatorField, chain: Chain, y: Sequence[int],
              gamma: Sequence[int]) -> Dyadic:
    """Chain flow on the edge (y, y + gamma): sum over levels of
    phi(y -> y+gamma) - phi(y+gamma -> y)."""
    z = tuple(int(c) + int(g) for c, g in zip(y, gamma))
    neg = tuple(-int(g) for g in gamma)
    total = Dyadic(0)
    for i in range(1, chain.n + 1):
        off = chain.level_offset(i)
        total = total + phi_edge(field, y, gamma, i, off) \
            - phi_edge(field, z, neg, i, off)
    return total


def check_error_identity(field: IndicatorField, chain: Chain,
                         y: Sequence[int]) -> Tuple[Dyadic, Dyadic]:
    """Both sides of the per-chain divergence identity at y:

        f(y) - sum_gamma psi_chain(y, gamma)  ==  2^(-n d) sum_{box(y)} f

    Returns (lhs, rhs); they must be equal for every valid chain and vertex.
    """
    window = field.window
    d = window.d
    lhs = Dyadic(int(field.f[tuple(int(c) for c in y)]))
    for g in all_directions(d):
        lhs = lhs - psi_chain(field, chain, y, g)
    b = box_of(y, chain.n, chain.level_offset(chain.n))
    _require_box_in_window(window, b, 1 << chain.n)
    rhs = Dyadic(_box_sum(field, b, 1 << chain.n), chain.n * d)
    return lhs, rhs


def level_sum(field: IndicatorField, y: Sequence[int], gamma: Sequence[int],
              n: int, base: Optional[Sequence[int]] = None) -> Dyadic:
    """Level-n term of psi on the edge (y, y + gamma): the average over all
    2^(n d) box phases of phi(y -> y+gamma) - phi(y+gamma -> y).

    `base` shifts the order in which phases are enumerated; the value is
    independent of it (exact arithmetic), which tests assert bit-exactly.
    """
    window = field.window
    d = window.d
    side = 1 << n
    if base is None:
        base = (0,) * d
    z = tuple(int(c) + int(g) for c, g in zip(y, gamma))
    neg = tuple(-int(g) for g in gamma)
    num = 0
    for t in np.ndindex(*([side] * d)):
        off = tuple((int(b) + int(tt)) % side for b, tt in zip(base, t))
        a = phi_edge(field, y, gamma, n, off)
        bb = phi_edge(field, z, neg, n, off)
        num += (a - bb).scaled(n * d)
    return Dyadic(num, 2 * n * d)

"""Torus subsets with rational data.

Three shape families are supported: finite unions of half-open intervals on
the circle (k = 1), and disks or axis-aligned rectangles on the 2-torus
(k = 2).  All defining coordinates are rational so that measures of interval
unions and rectangles are exact fractions; disk areas are irrational and are
compared with a tolerance by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

HALF = Fraction(1, 2)


def _fr(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint half-open intervals [a, b) with 0 <= a < b <= 1."""

    intervals: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("empty interval union")
        prev_hi = None
        for lo, hi in sorted(self.intervals):
            if not (0 <= lo < hi <= 1):
                raise ValueError("interval [%s, %s) out of range" % (lo, hi))
            if prev_hi is not None and lo < prev_hi:
                raise ValueError("intervals overlap at %s" % lo)
            prev_hi = hi

    @property
    def k(self) -> int:
        return 1

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 1)[:, 0]
        out = np.zeros(pts.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (pts >= float(lo)) & (pts < float(hi))
        return out


@dataclass(frozen=True)
class Disk:
    """Open disk inside [0, 1/2)^2 (membership is strict inequality)."""

    center: Tuple[Fraction, Fraction]
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        for c in self.center:
            if not (0 <= c - self.radius and c + self.radius < HALF):
                raise ValueError("disk does not fit inside [0, 1/2)^2")

    @property
    def k(self) -> int:
        return 2

    def measure(self) -> float:
        return math.pi * float(self.radius) ** 2

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        dx = pts[:, 0] - float(self.center[0])
        dy = pts[:, 1] - float(self.center[1])
        return dx * dx + dy * dy < float(self.radius) ** 2


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle [x, x+w) x [y, y+h) inside [0, 1/2)^2."""

    corner: Tuple[Fraction, Fraction]
    sides: Tuple[Fraction, Fraction]

    def __post_init__(self):
        for c, s in zip(self.corner, self.sides):
            if s <= 0:
                raise ValueError("rectangle sides must be positive")
            if not (0 <= c and c + s <= HALF):
                raise ValueError("rectangle does not fit inside [0, 1/2)^2")

    @property
    def k(self) -> int:
        return 2

    def measure(self) -> Fraction:
        return self.sides[0] * self.sides[1]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        out = np.ones(pts.shape[0], dtype=bool)
        for j in range(2):
            lo = float(self.corner[j])
            hi = float(self.corner[j] + self.sides[j])
            out &= (pts[:, j] >= lo) & (pts[:, j] < hi)
        return out


Shape = IntervalUnion | Disk | Rect


def parse_shape(text: str) -> Shape:
    """Parse a shape literal.

    Formats (all numbers are fractions or integers):
      intervals:LO:HI[,LO:HI...]
      disk:CX:CY:R
      rect:X:Y:W:H
    """
    kind, _, rest = text.partition(":")
    if kind == "intervals":
        pairs = []
        for chunk in rest.split(","):
            lo_s, _, hi_s = chunk.partition(":")
            pairs.append((_fr(lo_s), _fr(hi_s)))
        return IntervalUnion(tuple(pairs))
    if kind == "disk":
        cx, cy, r = (_fr(v) for v in rest.split(":"))
        return Disk((cx, cy), r)
    if kind == "rect":
        x, y, w, h = (_fr(v) for v in rest.split(":"))
        return Rect((x, y), (w, h))
    raise ValueError("unknown shape kind %r" % kind)


def measures_match(a: Shape, b: Shape, tol: float = 1e-9) -> bool:
    """Compare measures, exactly when both are fractions, else within tol."""
    ma, mb = a.measure(), b.measure()
    if isinstance(ma, Fraction) and isinstance(mb, Fraction):
        return ma == mb
    return abs(float(ma) - float(mb)) <= tol

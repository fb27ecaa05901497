"""Exact dyadic rational arithmetic.

A dyadic rational is a fraction num / 2**exp.  Every flow value produced by
the box construction lives in this ring, so equality and divergence checks
can be exact instead of floating-point.  Values are kept canonical: the
numerator is odd or zero, the exponent is a nonnegative integer, and zero is
always (0, 0).
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """Immutable dyadic rational num / 2**exp in canonical form."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            # a/2^-b is the integer a*2^b
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "Dyadic":
        """Convert a Fraction whose denominator is a power of two."""
        den = fr.denominator
        exp = den.bit_length() - 1
        if den != (1 << exp):
            raise ValueError("denominator %d is not a power of two" % den)
        return cls(fr.numerator, exp)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse the serialized form 'num/2^exp'."""
        num_s, _, den_s = text.partition("/")
        if not den_s.startswith("2^"):
            raise ValueError("bad dyadic literal: %r" % text)
        return cls(int(num_s), int(den_s[2:]))

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def scaled(self, exp: int) -> int:
        """Numerator at scale 2**exp; exp must be >= self.exp."""
        if exp < self.exp:
            raise ValueError("cannot rescale %r to coarser exponent %d" % (self, exp))
        return self.num << (exp - self.exp)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic(self.scaled(e) + other.scaled(e), e)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    # -- order -------------------------------------------------------------

    def _cmp(self, other) -> int:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        a, b = self.scaled(e), other.scaled(e)
        return (a > b) - (a < b)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        return hash(self.to_fraction())

    # -- rounding ----------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.exp == 0

    def floor(self) -> int:
        return self.num >> self.exp

    def ceil(self) -> int:
        return -((-self.num) >> self.exp)

    def floor_toward_zero(self) -> int:
        """Truncate: floor for values >= 0, ceil for values < 0."""
        return self.floor() if self.num >= 0 else self.ceil()

    def frac_floor(self) -> "Dyadic":
        """self - floor(self), in [0, 1)."""
        return Dyadic(self.num - (self.floor() << self.exp), self.exp)

    # -- misc ---------------------------------------------------------------

    def __float__(self):
        return self.num / (1 << self.exp)

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        return "%d/2^%d" % (self.num, self.exp)

    def __repr__(self):
        return "Dyadic(%d, %d)" % (self.num, self.exp)


def _coerce(value):
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value, 0)
    return NotImplemented


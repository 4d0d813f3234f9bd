"""Exact arithmetic over the Gaussian rationals Q(i).

Values are immutable; every operation is exact. ``Fraction`` and ``int``
mix freely with :class:`GaussianRational` in arithmetic expressions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[int, Fraction, "GaussianRational"]

_F0 = Fraction(0)
_F1 = Fraction(1)


class GaussianRational:
    """A number re + im*i with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        z = object.__new__(cls)
        z.re = re
        z.im = im
        return z

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._make(self.re, -self.im)

    def norm(self) -> Fraction:
        """re**2 + im**2; zero iff the value is zero."""
        return self.re * self.re + self.im * self.im

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational._make(self.re * other.re, _F0)
        return GaussianRational._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im and not other.im:
            return GaussianRational._make(self.re / other.re, _F0)
        n = other.norm()
        return GaussianRational._make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (GR_ONE / self) ** (-exponent)
        result = GR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)

    # -- square roots ----------------------------------------------------

    def sqrt(self) -> Optional["GaussianRational"]:
        """Principal square root in Q(i), or None when it does not exist.

        Principal means re > 0, or re == 0 and im >= 0.
        """
        x, y = self.re, self.im
        if not y:
            r = _rational_sqrt(x)
            if r is not None:
                return GaussianRational._make(r, _F0)
            s = _rational_sqrt(-x)
            if s is not None:
                return GaussianRational._make(_F0, s)
            return None
        r = _rational_sqrt(x * x + y * y)
        if r is None:
            return None
        u = _rational_sqrt((x + r) / 2)
        v = _rational_sqrt((r - x) / 2)
        if u is None or v is None:
            return None
        if y < 0:
            v = -v
        root = GaussianRational._make(u, v)
        if root * root != self:
            raise ArithmeticError(f"square root of {format_gaussian(self)} failed its check")
        return root


def _coerce(x: object):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational._make(Fraction(x), _F0)
    return NotImplemented


def as_gaussian(x: Scalar) -> GaussianRational:
    z = _coerce(x)
    if z is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return z


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# -- text form: "p/q", "p/q+r/si", "i" -----------------------------------

def format_gaussian(z: GaussianRational) -> str:
    if not z.im:
        return str(z.re)
    if z.im == 1:
        imag = "i"
    elif z.im == -1:
        imag = "-i"
    else:
        imag = f"{z.im}i"
    if not z.re:
        return imag
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{imag}"


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a Gaussian rational literal, e.g. "-3/4", "1/2+2/3i", "i"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational literal")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    re_part: Optional[Fraction] = None
    im_part: Optional[Fraction] = None
    for term in terms:
        if not term or term in ("+", "-"):
            raise ValueError(f"malformed Gaussian rational literal: {text!r}")
        if term.endswith("i"):
            if im_part is not None:
                raise ValueError(f"two imaginary parts in {text!r}")
            body = term[:-1]
            if body in ("", "+"):
                im_part = _F1
            elif body == "-":
                im_part = -_F1
            else:
                im_part = Fraction(body)
        else:
            if re_part is not None:
                raise ValueError(f"two real parts in {text!r}")
            re_part = Fraction(term)
    return GaussianRational._make(re_part or _F0, im_part or _F0)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

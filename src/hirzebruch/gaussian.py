"""Exact arithmetic over the Gaussian rationals Q(i).

A value (a + b*i)/d is held as three ints with d > 0 and gcd(a, b, d) = 1,
so each value has one representation and every operation ends in one gcd
(Knuth, TAOCP Vol. 2, 4.5.1). The one exception is :func:`dot`, an inner
product summed over one running denominator: one gcd per nonzero term and
one normalising step at the end, in place of two values and two gcds per
multiply-add. ``re`` and ``im`` read as ``Fraction``s.
Values are immutable; every operation is exact. ``Fraction`` and ``int``
mix freely with :class:`GaussianRational` in arithmetic expressions.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction, "GaussianRational"]

_gcd = math.gcd
_new = object.__new__


class GaussianRational:
    """A number re + im*i with rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        re, im = _rational(re), _rational(im)
        z = from_parts(re.numerator * im.denominator, im.numerator * re.denominator,
                       re.denominator * im.denominator)
        self._a, self._b, self._d = z._a, z._b, z._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    @property
    def is_real(self) -> bool:
        return not self._b

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "GaussianRational":
        c, e, f = _parts(other)
        if f is None:
            return NotImplemented
        if not (c or e):
            return self  # x + 0 is x: series sums meet many zero coefficients
        a, b, d = self._a, self._b, self._d
        return from_parts(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussianRational":
        c, e, f = _parts(other)
        if f is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        return from_parts(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self) -> "GaussianRational":
        return from_parts(-self._a, -self._b, self._d)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        c, e, f = _parts(other)
        if f is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        return from_parts(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        c, e, f = _parts(other)
        if f is None:
            return NotImplemented
        if not (c or e):
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, d = self._a, self._b, self._d
        # times the conjugate: the denominator d*(c^2 + e^2) is positive
        return from_parts((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other: Scalar) -> "GaussianRational":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (GR_ONE / self) ** (-exponent)
        result, base, e = GR_ONE, self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @staticmethod
    def dot(xs: Sequence["GaussianRational"], ys: Sequence["GaussianRational"]) -> "GaussianRational":
        """sum(x * y for x, y in zip(xs, ys)) over Q(i) values, exactly.

        The sum is kept as (A + B*i)/D; D grows to lcm(D, d*f) only when a
        term's denominator d*f does not divide it, and one from_parts puts the
        total in lowest terms. Zero factors are skipped. Generic kernels
        reach it through the element type, as ``type(x).dot``.
        """
        A = B = 0
        D = 1
        for x, y in zip(xs, ys):
            a, b, c, e = x._a, x._b, y._a, y._b
            if not (a or b) or not (c or e):
                continue
            q = x._d * y._d
            g = _gcd(D, q)
            if g == q:
                s = D // q
                A += (a * c - b * e) * s
                B += (a * e + b * c) * s
            else:  # D becomes lcm(D, q) = D * t, and the term is scaled by D / g
                s, t = D // g, q // g
                A = A * t + (a * c - b * e) * s
                B = B * t + (a * e + b * c) * s
                D *= t
        return from_parts(A, B, D)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # both sides are in lowest terms, so equal values have equal parts
        p = _parts(other)
        return NotImplemented if p[2] is None else p == (self._a, self._b, self._d)

    def __hash__(self) -> int:
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)

    # -- square roots ----------------------------------------------------

    def sqrt(self) -> Optional["GaussianRational"]:
        """Principal square root in Q(i), or None when it does not exist.

        Principal means re > 0, or re == 0 and im >= 0. One formula covers
        every input: for real x it has r = |x| and gives sqrt(x) or i*sqrt(-x).
        """
        x, y = self.re, self.im
        r = _rational_sqrt(x * x + y * y)
        if r is None:
            return None
        u = _rational_sqrt((x + r) / 2)
        v = _rational_sqrt((r - x) / 2)
        if u is None or v is None:
            return None
        if y < 0:
            v = -v
        root = GaussianRational(u, v)
        if root * root != self:
            raise ArithmeticError(f"square root of {format_gaussian(self)} failed its check")
        return root


def from_parts(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in lowest terms, for any d > 0: the one normalising step."""
    g = _gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


dot = GaussianRational.dot


def real_parts(z: GaussianRational) -> Tuple[int, int]:
    """(numerator, denominator) of a real z in lowest terms, without a Fraction."""
    return z._a, z._d


def _parts(x: object) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    """(a, b, d) of a GaussianRational, int or Fraction; all None for other types."""
    if type(x) is GaussianRational:
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None, None, None


def _coerce(x: object):
    if isinstance(x, GaussianRational):
        return x
    a, b, d = _parts(x)
    return NotImplemented if d is None else from_parts(a, b, d)


def as_gaussian(x: Scalar) -> GaussianRational:
    z = _coerce(x)
    if z is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return z


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# -- text form: "p/q", "p/q+r/si", "i" -----------------------------------

def format_gaussian(z: GaussianRational) -> str:
    re, im = z.re, z.im
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational(x: Union[int, Fraction, str]) -> Fraction:
    """A constructor part: an int, a Fraction, or text read by `_fraction`;
    a float (0.1 is not 1/10), a Decimal or a complex is refused."""
    if type(x) is str:
        return _fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational part of a Gaussian rational")


def _fraction(text: str) -> Fraction:
    """The one reader of rational text: [+-]digits[/digits], the form
    `format_gaussian` prints. `Fraction` alone would also take exponents,
    so "1e10000000" would build a 33-million-bit int before any check."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:  # "1/0" is malformed, like any other bad literal
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a Gaussian rational literal, e.g. "-3/4", "1/2 + 2/3i", "i".
    A space may stand only beside a sign or at either end; any other space
    reaches `_fraction`, which refuses it, so "1 2" is not 12."""
    s = re.sub(r" *([+-]) *", r"\1", text.strip(" "))
    if not s:
        raise ValueError("empty Gaussian rational literal")
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    parts: List[Optional[Fraction]] = [None, None]  # real, imaginary
    for term in terms:
        if not term or term in ("+", "-"):
            raise ValueError(f"malformed Gaussian rational literal: {text!r}")
        imaginary = term.endswith("i")
        if parts[imaginary] is not None:
            raise ValueError(f"two {'imaginary' if imaginary else 'real'} parts in {text!r}")
        body = term[:-1] if imaginary else term
        try:
            parts[imaginary] = _fraction(body + "1" if body in ("", "+", "-") else body)
        except ValueError as exc:  # name the whole literal, not only the piece
            raise ValueError(f"{exc} in {text!r}") from None
    re_part, im_part = parts
    return GaussianRational(re_part or 0, im_part or 0)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

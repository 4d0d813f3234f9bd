"""Truncated power series and Laurent series over Q(i).

Every series carries the exact coefficient range it is known on.
Arithmetic propagates the jointly-known range pessimistically and never
fabricates tail coefficients.

A Laurent series has one normal form, set by `_normal_form` alone: the
first known coefficient is nonzero, or the series is one zero at its
order. `coefficient(k)` is the one reader by degree: zero below the
valuation, `InsufficientOrderError` past the order.

The public constructors coerce every coefficient to Q(i). Kernel results
are Q(i) already and go through the trusted builders `_power` and
`_laurent`, which skip that pass; `_laurent` still normalizes.

Two series are equal when they are known on the same range and agree on
all of it, so a truncated operand never compares equal to a longer one.
A scalar compares as a constant known to degree max(order, 0) of the
series it is compared with.

Values are immutable and all operations are pure functions.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, TypeVar, Union

from .gaussian import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Scalar,
    as_gaussian,
    dot,
    format_gaussian,
)

Coeff = Scalar


class InsufficientOrderError(ValueError):
    """The series does not carry enough known coefficients."""


class ZeroSeriesDivisionError(ZeroDivisionError):
    """Division by a series with no nonzero known coefficient."""


def _coerce_coeffs(coeffs: Iterable[Coeff]) -> Tuple[GaussianRational, ...]:
    return tuple(as_gaussian(c) for c in coeffs)


def _power(cs: Iterable[GaussianRational]) -> "PowerSeries":
    """The trusted builder of kernel results: a power series on nonempty
    coefficients that are already Q(i), taken without a coercion pass."""
    out = object.__new__(PowerSeries)
    out.coeffs = tuple(cs)
    return out


def _normal_form(valuation: int, cs: Tuple[GaussianRational, ...]
                 ) -> Tuple[int, Tuple[GaussianRational, ...]]:
    """(valuation, coeffs) of the Laurent normal form: leading zeros dropped,
    an all-zero range kept as one zero at its order."""
    lead = next((i for i, c in enumerate(cs) if c), len(cs) - 1)
    return valuation + lead, cs[lead:]


def _laurent(valuation: int, cs: Iterable[GaussianRational]) -> "LaurentSeries":
    """The trusted Laurent builder, as `_power`: normalized, not coerced."""
    out = object.__new__(LaurentSeries)
    out.valuation, out.coeffs = _normal_form(valuation, tuple(cs))
    return out


R = TypeVar("R")
S = TypeVar("S", bound="_Series")


def truncated_product(a: Sequence[GaussianRational],
                      b: Sequence[GaussianRational]) -> List[GaussianRational]:
    """Coefficients 0..min(len(a), len(b)) - 1 of the product a*b over Q(i),
    one `gaussian.dot` per degree."""
    return [dot(a[:k + 1], b[k::-1]) for k in range(min(len(a), len(b)))]


def exp_coefficients(a: Sequence[R], one: R) -> List[R]:
    """exp(a_1 t + a_2 t^2 + ...) to degree len(a) - 1; a[0] is not read, e_0 is `one`.

    k*e_k = sum_{j=1..k} (j*a_j)*e_{k-j}, from E' = A'E, with the j*a_j
    formed once. Each sum is one inner product of the coefficient ring,
    `type(one).dot`: `gaussian.dot` for exp_series, `GradedPoly.dot` for
    the K_n; 1/k is a Fraction.
    """
    inner = type(one).dot
    ja = [j * a[j] for j in range(1, len(a))]
    out = [one]
    for k in range(1, len(a)):
        out.append(inner(ja[:k], out[::-1]) * Fraction(1, k))
    return out


def _scaled(coeffs: Sequence[R], w: R, power: R) -> List[R]:
    """coeffs[k] * power * w^k for each k: the substitution t -> w*t."""
    out = []
    for c in coeffs:
        out.append(c * power)
        power = power * w
    return out


class _Series:
    """What both series types share: a series is its known coefficients
    `coeffs` from degree `valuation` on, and reads, compares and prints
    as that. Each subclass builds, adds, negates and multiplies itself;
    the derived operators here go through those."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.valuation + len(self.coeffs) - 1

    def coefficient(self, k: int) -> GaussianRational:
        if k < self.valuation:
            return GR_ZERO
        if k > self.order:
            raise InsufficientOrderError(f"coefficient {k} beyond known order {self.order}")
        return self.coeffs[k - self.valuation]

    def __radd__(self: S, other: Coeff) -> S:
        return self + other

    def __sub__(self: S, other: Union[S, Coeff]) -> S:
        return self + (-other)

    def __rsub__(self: S, other: Coeff) -> S:
        return (-self) + other

    def __rmul__(self: S, other: Coeff) -> S:
        return self * other

    def __eq__(self, other: object) -> bool:
        """Equal known ranges with equal coefficients (see the module doc).

        Laurent normalization is canonical, so the (valuation, coeffs) of
        both Laurent forms decide it.
        """
        if not isinstance(other, _Series):
            try:
                other = PowerSeries.constant(other, max(self.order, 0))
            except TypeError:
                return NotImplemented
        a, b = self.as_laurent(), other.as_laurent()
        return a.valuation == b.valuation and a.coeffs == b.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return _format_terms(self.valuation, self.coeffs)


class PowerSeries(_Series):
    """A power series known exactly on degrees 0..order."""

    __slots__ = ("coeffs",)
    valuation = 0

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = _coerce_coeffs(coeffs)
        if not cs:
            raise ValueError("a power series needs at least the constant term")
        self.coeffs = cs

    @classmethod
    def constant(cls, value: Coeff, order: int = 0) -> "PowerSeries":
        c = as_gaussian(value)
        return cls([c] + [GR_ZERO] * order)

    def truncate(self, order: int) -> "PowerSeries":
        if order == self.order:
            return self
        if order > self.order:
            raise InsufficientOrderError(f"need order >= {order}, have {self.order}")
        if order < 0:
            raise ValueError("power series order must be nonnegative")
        return _power(self.coeffs[: order + 1])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: Union["PowerSeries", Coeff]) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return _power([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        c = as_gaussian(other)
        return _power((self.coeffs[0] + c,) + self.coeffs[1:])

    def __neg__(self) -> "PowerSeries":
        return _power([-c for c in self.coeffs])

    def __mul__(self, other: Union["PowerSeries", Coeff]) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return _power(truncated_product(self.coeffs, other.coeffs))
        c = as_gaussian(other)
        return _power([c * x for x in self.coeffs])

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if not a[0]:
            raise ZeroSeriesDivisionError("inverse of a series with zero constant term")
        inv0 = GR_ONE / a[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            out.append(-inv0 * dot(a[1:k + 1], out[::-1]))
        return _power(out)

    # -- composition family --------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0]:
            raise ValueError("compose requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = PowerSeries.constant(0, n)
        for c in reversed(self.coeffs[: n + 1]):
            result = result * inner + c
        return result

    def reversion(self) -> "PowerSeries":
        """Compositional inverse g with self(g(t)) = t up to the known order."""
        f = self.coeffs
        if f[0]:
            raise ValueError("reversion requires zero constant term")
        if len(f) < 2 or not f[1]:
            raise ValueError("reversion requires an invertible linear coefficient")
        n = self.order
        # powers[j] = self**j truncated to order n
        powers: List[PowerSeries] = [PowerSeries.constant(1, n), self]
        for j in range(2, n + 1):
            powers.append(powers[-1] * self)
        g = [GR_ZERO, GR_ONE / f[1]]
        for k in range(2, n + 1):
            acc = dot(g[1:k], [powers[j].coeffs[k] for j in range(1, k)])
            g.append(-acc / powers[k].coeffs[k])
        return _power(g)

    def scale_argument(self, w: Coeff) -> "PowerSeries":
        return _power(_scaled(self.coeffs, as_gaussian(w), GR_ONE))

    def as_laurent(self) -> "LaurentSeries":
        return _laurent(0, self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"


class LaurentSeries(_Series):
    """A Laurent series known exactly on degrees valuation..order.

    The constructor and `_laurent` normalize, through `_normal_form`:
    leading zeros are dropped, so coeffs[0] is nonzero, and a series that
    is zero on its whole known range collapses to a single zero at its
    order, keeping the knowledge horizon. Read by degree through
    `coefficient` only.
    """

    __slots__ = ("valuation", "coeffs")

    def __init__(self, valuation: int, coeffs: Iterable[Coeff]):
        cs = _coerce_coeffs(coeffs)
        if not cs:
            raise ValueError("a Laurent series needs at least one known coefficient")
        self.valuation, self.coeffs = _normal_form(valuation, cs)

    def truncate(self, order: int) -> "LaurentSeries":
        if order == self.order:
            return self
        if order > self.order:
            raise InsufficientOrderError(f"need order >= {order}, have {self.order}")
        if order < self.valuation:
            return _laurent(order, [GR_ZERO])
        return _laurent(self.valuation, self.coeffs[: order - self.valuation + 1])

    def power_part(self) -> PowerSeries:
        """View as a power series; fails on a nonzero principal part."""
        if self.valuation < 0 and self.coeffs[0]:  # only the zero series starts with 0
            raise ValueError("Laurent series has a nonzero principal part")
        if self.order < 0:
            raise InsufficientOrderError("no nonnegative degrees are known")
        return _power([self.coefficient(k) for k in range(self.order + 1)])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: Union["LaurentSeries", Coeff]) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return self + PowerSeries.constant(other, max(self.order, 0)).as_laurent()
        lo, hi = (self, other) if self.valuation <= other.valuation else (other, self)
        gap = hi.valuation - lo.valuation
        # the zip stops at the joint order; when lo ends below hi's valuation
        # it is empty, and lo alone is the sum
        return _laurent(lo.valuation, lo.coeffs[:gap] + tuple(
            x + y for x, y in zip(lo.coeffs[gap:], hi.coeffs)))

    def __neg__(self) -> "LaurentSeries":
        return _laurent(self.valuation, [-c for c in self.coeffs])

    def __mul__(self, other: Union["LaurentSeries", Coeff]) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            c = as_gaussian(other)
            return _laurent(self.valuation, [c * x for x in self.coeffs])
        return _laurent(self.valuation + other.valuation,
                        truncated_product(self.coeffs, other.coeffs))

    def derivative(self) -> "LaurentSeries":
        return _laurent(self.valuation - 1,
                        [k * c for k, c in enumerate(self.coeffs, self.valuation)])

    def scale_argument(self, w: Coeff) -> "LaurentSeries":
        """f(w*t). For w = 0 the result is f(0) when the valuation is at
        least 0; a negative valuation (a pole, or a zero series known only
        below degree 0) raises ZeroDivisionError from w ** valuation."""
        w = as_gaussian(w)
        return _laurent(self.valuation, _scaled(self.coeffs, w, w ** self.valuation))

    def as_laurent(self) -> "LaurentSeries":
        return self

    def __repr__(self) -> str:
        return f"LaurentSeries({self.valuation}, {list(self.coeffs)!r})"


# -- transcendental constructors ------------------------------------------


def exp_series(f: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term."""
    if f.coeffs[0]:
        raise ValueError("exp_series requires zero constant term")
    return _power(exp_coefficients(f.coeffs, GR_ONE))


def log_series(g: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1: k*q_k = k*g_k - sum_{j=1..k-1}
    (j*q_j)*g_{k-j}, from t*g' = (t*q')*g, one `gaussian.dot` per degree."""
    g = g.coeffs
    if g[0] != GR_ONE:
        raise ValueError("log_series requires constant term 1")
    kq = [GR_ZERO, *g[1:2]]
    for k in range(2, len(g)):
        kq.append(k * g[k] - dot(kq[1:k], g[k - 1:0:-1]))
    return _power([GR_ZERO] + [kq[k] * Fraction(1, k) for k in range(1, len(kq))])


# -- text rendering ----------------------------------------------------------


def _format_terms(valuation: int, coeffs: Sequence[GaussianRational]) -> str:
    parts = []
    for k, c in enumerate(coeffs, start=valuation):
        if not c:
            continue
        cs = format_gaussian(c)
        if ("+" in cs[1:]) or ("-" in cs[1:]):
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            var = "t" if k == 1 else f"t^{k}"
            parts.append(var if cs == "1" else f"-{var}" if cs == "-1" else f"{cs}*{var}")
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


# -- JSON coefficient files ---------------------------------------------------


def series_to_json(f: Union[PowerSeries, LaurentSeries]) -> dict:
    f = f.as_laurent()
    return {
        "valuation": f.valuation,
        "order": f.order,
        "coeffs": [{"re": str(c.re), "im": str(c.im)} for c in f.coeffs],
    }


def series_from_json(data: dict) -> LaurentSeries:
    """Read `series_to_json` output. Exact input only: valuation and order
    are ints, and each "re"/"im" is an int or a string [+-]digits[/digits];
    a float (0.1 is not 1/10), a bool, a decimal or an exponent is refused."""
    try:
        valuation, order, raw = data["valuation"], data["order"], data["coeffs"]
        if type(valuation) is not int or type(order) is not int:
            raise TypeError("valuation and order must be integers")
        count = len(raw)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed series file: {exc}") from exc
    if count != order - valuation + 1:
        raise ValueError("series file: coefficient count does not match valuation/order")
    coeffs = []
    for entry in raw:
        try:
            # str() of a JSON float, bool or null is not [+-]digits[/digits]
            coeffs.append(GaussianRational(str(entry["re"]), str(entry["im"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed series coefficient {entry!r}") from exc
    return LaurentSeries(valuation, coeffs)

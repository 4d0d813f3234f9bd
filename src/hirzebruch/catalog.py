"""Catalog of characteristic series and their projective-space values.

Every parametric family is H_{x,y}(t) = t*(x*e^{st} + y)/(e^{st} - 1) with
s = x + y, whose value on CP^n is (x^(n+1) - (-y)^(n+1))/(x + y). In
Bernoulli form H_{x,y}(t) = x*t + sum_k (B_k/k!) s^k t^k, so every family
scales one parameter-free table, the Todd coefficients B_k/k! of
t/(e^t - 1). That table is built by one series inverse and cached as a
tuple, which only a request for a longer one replaces; with it,
`construct` costs O(order) Q(i) operations.

The one table FAMILIES maps each family to its parameter names and its (x, y):
euler (1 + a*t, the removable case x + y = 0), todd (t/(1-exp(-t))), ty and
txy (the one- and two-parameter Todd deformations), dab (t*(a*coth(a*t)+b))
and gab (t*(a*cot(a*t)+b)). A series stored in a file is not a family: the
catalog reads no files, and the command line's `--series file:PATH` loads
one through the series module's reader.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Tuple

from .gaussian import GR_I, GR_ONE, GR_ZERO, GaussianRational, format_gaussian, parse_gaussian
from .series import PowerSeries, _power, _scaled, exp_series, log_series

DEFAULT_ORDER = 16


class Family(NamedTuple):
    """A parametric family: its parameter names and the map to (x, y)."""

    params: Tuple[str, ...]
    xy: Callable[..., Tuple[GaussianRational, GaussianRational]]


FAMILIES: Mapping[str, Family] = {
    "euler": Family(("a",), lambda a: (a, -a)),
    "todd": Family((), lambda: (GR_ONE, GR_ZERO)),
    "ty": Family(("y",), lambda y: (GR_ONE, y)),
    "txy": Family(("x", "y"), lambda x, y: (x, y)),
    "dab": Family(("a", "b"), lambda a, b: (a + b, a - b)),
    "gab": Family(("a", "b"), lambda a, b: (GR_I * a + b, GR_I * a - b)),
}


@dataclass(frozen=True)
class SeriesSpec:
    """A named characteristic-series family with concrete Q(i) parameters."""

    family: str
    params: Mapping[str, GaussianRational] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown series family {self.family!r}")
        required = FAMILIES[self.family].params
        missing = [p for p in required if p not in self.params]
        if missing:
            raise ValueError(f"family {self.family!r} is missing parameters {missing}")
        extra = [p for p in self.params if p not in required]
        if extra:
            raise ValueError(f"family {self.family!r} does not take parameters {extra}")

    def __str__(self) -> str:
        return format_spec(self)


def parse_spec(text: str) -> SeriesSpec:
    """Parse the spec mini-grammar, e.g. "todd" or "dab:a=1,b=1/2"."""
    family, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            name, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed parameter {item!r} in series spec {text!r}")
            name = name.strip()
            if name in params:
                raise ValueError(f"parameter {name!r} is given twice in series spec {text!r}")
            params[name] = parse_gaussian(value)
    return SeriesSpec(family.strip(), params)


def format_spec(spec: SeriesSpec) -> str:
    if not spec.params:
        return spec.family
    items = ",".join(f"{k}={format_gaussian(v)}" for k, v in sorted(spec.params.items()))
    return f"{spec.family}:{items}"


@dataclass(frozen=True)
class CharacteristicSeries:
    """A power series H with H(0) = 1, the generator of a Hirzebruch genus,
    known to any order: each computation asks `truncate` for the degrees it
    reads, and that is the one order check."""

    series: PowerSeries
    spec: Optional[SeriesSpec] = None

    def __post_init__(self):
        if self.series.coeffs[0] != GR_ONE:
            raise ValueError("a characteristic series must have constant term 1")

    @property
    def order(self) -> int:
        return self.series.order

    def r(self, k: int) -> GaussianRational:
        return self.series.coefficient(k)


# B_0/0!, B_1/1!, ...: t/(e^t - 1) to the longest order asked for so far
_TODD: Tuple[GaussianRational, ...] = ()


def _todd_table(order: int) -> Tuple[GaussianRational, ...]:
    """B_k/k! for k = 0..order, the inverse of (e^t - 1)/t = sum t^k/(k+1)!.

    A request past the kept table rebuilds it to exactly `order`, never
    longer; a shorter one reads a prefix, which the inverse's recurrence
    makes the same as a table built to that order.
    """
    global _TODD
    if len(_TODD) <= order:
        phi = PowerSeries([Fraction(1, math.factorial(k + 1)) for k in range(order + 1)])
        _TODD = phi.inverse().coeffs
    return _TODD[:order + 1]


def _hxy(x: GaussianRational, y: GaussianRational, order: int) -> PowerSeries:
    """t*(x*e^{st} + y)/(e^{st} - 1) with s = x + y, as x*t + sum_k (B_k/k!) s^k t^k.

    Coefficient k is the Todd table's B_k/k! times s^k, plus x at k = 1
    when degree 1 is known. The x + y = 0 case is the removable one: s^k = 0
    for k >= 1 and the result is 1 + x*t.
    """
    coeffs = _scaled(_todd_table(order), x + y, GR_ONE)
    if order:
        coeffs[1] = coeffs[1] + x
    return _power(coeffs)


def _xy(spec: SeriesSpec) -> Tuple[GaussianRational, GaussianRational]:
    """The (x, y) of H_{x,y} for the spec's family and parameters."""
    family = FAMILIES[spec.family]
    return family.xy(*(spec.params[p] for p in family.params))


def construct(spec: SeriesSpec, order: int = DEFAULT_ORDER) -> CharacteristicSeries:
    """Expand the named characteristic series exactly up to any `order` >= 0."""
    if order < 0:
        raise ValueError("construction order must be nonnegative")
    return CharacteristicSeries(_hxy(*_xy(spec), order), spec)


def h_n(H: CharacteristicSeries, n: int) -> GaussianRational:
    """The genus of complex projective n-space: the t^n coefficient of
    H^(n+1), read off exp((n+1)*log H). Exact, since H(0) = 1; O(n^2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _h_from_log(log_series(H.series.truncate(n)), n)


def _h_from_log(L: PowerSeries, n: int) -> GaussianRational:
    """h_n from a log of H known to degree >= n: [t^n] exp((n+1)*L)."""
    return exp_series((n + 1) * L.truncate(n)).coefficient(n)


def novikov_g(H: CharacteristicSeries, order: int) -> PowerSeries:
    """The logarithm sum: coefficient of t^(n+1) is h_n/(n+1). One log of H
    serves every degree, O(order^3) in all; never the reversion of t/H,
    which by Lagrange inversion would make verify_novikov a tautology.
    The t^order coefficient needs h_(order-1), so H must be known to order - 1."""
    L = log_series(H.series.truncate(max(order - 1, 0)))
    return PowerSeries([GR_ZERO] + [_h_from_log(L, n) / (n + 1) for n in range(order)])


class NovikovCheck(NamedTuple):
    ok: bool
    witness_degree: Optional[int]


def verify_novikov(H: CharacteristicSeries, order: int) -> NovikovCheck:
    """Check that the reversion of t/H(t) equals the logarithm sum."""
    inv = H.series.truncate(order).inverse()
    t_over_h = PowerSeries((GR_ZERO,) + inv.coeffs[:order])
    lhs = t_over_h.reversion()
    rhs = novikov_g(H, order)
    for k in range(order + 1):
        if lhs.coefficient(k) != rhs.coefficient(k):
            return NovikovCheck(False, k)
    return NovikovCheck(True, None)


def closed_form_cpn(spec: SeriesSpec, n: int) -> GaussianRational:
    """Closed-form projective-space value of the named genus:
    (x^(n+1) - (-y)^(n+1))/(x + y), or its limit (n+1)*x^n when x + y = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x, y = _xy(spec)
    if not x + y:
        return (n + 1) * x ** n
    return (x ** (n + 1) - (-y) ** (n + 1)) / (x + y)

"""Multiplicative sequences in Chern classes and genus evaluation.

The degree-n piece K_n of the sequence attached to a characteristic
series H is computed through power sums: with s_m the coefficients of
log H and p_m the power sums in c_1..c_m (from log(1 + c_1 t + ...)),
the generating function of the K_n is exp(sum_m s_m p_m t^m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .catalog import CharacteristicSeries
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, as_gaussian, dot, parse_gaussian
from .series import exp_coefficients, log_coefficients, log_series

Partition = Tuple[int, ...]


def make_partition(parts: Sequence[int]) -> Partition:
    if any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive integers, got {list(parts)}")
    return tuple(sorted(parts, reverse=True))


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: List[Partition] = []

    def rec(remaining: int, max_part: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def _by_partition(degree: int, pairs: Iterable) -> Dict[Partition, GaussianRational]:
    """{partition: value} of (parts, value) pairs of weight `degree`; two
    pairs naming the same partition are an error, not merged."""
    out: Dict[Partition, GaussianRational] = {}
    for key, value in pairs:
        if sum(key) != degree:
            raise ValueError(f"partition {tuple(key)} has weight {sum(key)}, expected {degree}")
        lam = make_partition(key)
        if lam in out:
            raise ValueError(f"partition {list(lam)} is given twice")
        out[lam] = as_gaussian(value)
    return out


class GradedPoly:
    """A homogeneous polynomial in c_1, c_2, ... indexed by partitions.

    `GradedPoly(degree, terms)` validates its input, then builds the value
    with the trusted `_graded`, as `+` and `*` do. `terms` is a read-only
    view, so cached values (power_sum) can be handed out without sharing
    mutable state. No __bool__: a zero piece stays a GradedPoly.
    """

    __slots__ = ("degree", "terms")

    def __new__(cls, degree: int, terms: Mapping[Partition, object] = ()):
        return _graded(degree, _by_partition(degree, dict(terms).items()))

    def __getitem__(self, key: Sequence[int]) -> GaussianRational:
        return self.terms.get(make_partition(key), GR_ZERO)

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if self.degree != other.degree:
            raise ValueError("cannot add graded pieces of different degrees")
        terms = dict(self.terms)
        for key, value in other.terms.items():
            terms[key] = terms.get(key, GR_ZERO) + value
        return _graded(self.degree, terms)

    def __radd__(self, other: int) -> "GradedPoly":
        """0 + self, so sums can start from the int 0."""
        return self if isinstance(other, int) and other == 0 else NotImplemented

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            return GradedPoly.dot((self,), (other,))
        c = as_gaussian(other)
        return _graded(self.degree, {k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Sequence["GradedPoly"], ys: Sequence["GradedPoly"]) -> "GradedPoly":
        """sum_j xs[j]*ys[j] for a nonempty run of pairs of one total degree.

        Every product of a term of x_j with a term of y_j is collected by
        its partition, and each partition's coefficient is one `gaussian.dot`.
        """
        degree = xs[0].degree + ys[0].degree
        pairs: Dict[Partition, List[Tuple[GaussianRational, GaussianRational]]] = {}
        for x, y in zip(xs, ys):
            if x.degree + y.degree != degree:
                raise ValueError("cannot add graded pieces of different degrees")
            for k1, v1 in x.terms.items():
                for k2, v2 in y.terms.items():
                    key = tuple(sorted(k1 + k2, reverse=True))
                    pairs.setdefault(key, []).append((v1, v2))
        return _graded(degree, {key: dot(*zip(*vs)) for key, vs in pairs.items()})

    def evaluate(self, values: Sequence[object]) -> GaussianRational:
        """Substitute numeric Chern values; values[j-1] is the value of c_j.

        One `gaussian.dot` of the coefficients against the monomials
        prod_{j in key} values[j-1]; a c_j with no value is a ValueError.
        """
        vals = [as_gaussian(v) for v in values]
        for key in self.terms:
            if key and key[0] > len(vals):
                raise ValueError(f"no value supplied for c_{key[0]}")
        return dot(self.terms.values(),
                   [math.prod((vals[j - 1] for j in key), start=GR_ONE) for key in self.terms])

    def items_sorted(self):
        """Terms in the canonical reverse-lexicographic partition order."""
        return [(lam, self.terms[lam]) for lam in partitions(self.degree) if lam in self.terms]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GradedPoly({self.degree}, {dict(self.terms)!r})"


def _graded(degree: int, terms: Dict[Partition, GaussianRational]) -> GradedPoly:
    """Trusted: canonical partitions of `degree` to Q(i); drops zero values."""
    out = object.__new__(GradedPoly)
    out.degree, out.terms = degree, MappingProxyType({lam: v for lam, v in terms.items() if v})
    return out


def chern_class(j: int) -> GradedPoly:
    return GradedPoly(j, {(j,): GR_ONE})


@lru_cache(maxsize=None)
def power_sum(m: int) -> GradedPoly:
    """Power sum p_m as a polynomial in c_1..c_m: (-1)^(m-1)*m times the
    t^m coefficient of log(1 + c_1 t + ... + c_m t^m)."""
    if m < 1:
        raise ValueError("power sums are defined for m >= 1")
    q = log_coefficients([None] + [chern_class(j) for j in range(1, m + 1)])
    return (-1) ** (m - 1) * m * q[m]


def multiplicative_sequence(H: CharacteristicSeries, n: int) -> GradedPoly:
    """The degree-n polynomial K_n of the sequence generated by H."""
    return k_polynomials(H, n)[n]


def k_polynomials(H: CharacteristicSeries, n: int) -> List[GradedPoly]:
    """K_0..K_n for the multiplicative sequence of H: the exp recurrence
    applied to a_m = s_m * p_m, with s = log H."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = log_series(H.series.truncate(n))
    a = [None] + [s.coefficient(m) * power_sum(m) for m in range(1, n + 1)]
    return exp_coefficients(a, GradedPoly(0, {(): GR_ONE}))


@dataclass(frozen=True)
class ChernData:
    """Chern numbers of a (possibly formal) stably complex manifold."""

    dimension: int
    numbers: Mapping[Partition, GaussianRational]

    def __post_init__(self):
        numbers = _by_partition(self.dimension, dict(self.numbers).items())
        object.__setattr__(self, "numbers", numbers)

    def __getitem__(self, key: Sequence[int]) -> GaussianRational:
        return self.numbers.get(make_partition(key), GR_ZERO)


def evaluate_genus(K: GradedPoly, X: ChernData) -> GaussianRational:
    """Pair the multiplicative-sequence polynomial with Chern numbers: one
    `gaussian.dot` over the partitions that both K and X hold."""
    if K.degree != X.dimension:
        raise ValueError(f"degree {K.degree} polynomial does not match "
                         f"dimension {X.dimension} Chern data")
    keys = [key for key in K.terms if key in X.numbers]
    return dot([K.terms[key] for key in keys], [X.numbers[key] for key in keys])


def cpn_chern_numbers(n: int) -> ChernData:
    """Chern numbers of complex projective n-space, from (1 + x)^(n+1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    numbers = {}
    for lam in partitions(n):
        value = 1
        for part in lam:
            value *= math.comb(n + 1, part)
        numbers[lam] = GaussianRational(value)
    return ChernData(n, numbers)


# -- JSON files ------------------------------------------------------------


def chern_data_from_json(data: dict) -> ChernData:
    try:
        dimension = data["dimension"]
        if type(dimension) is not int:
            raise ValueError(f"dimension must be an integer, got {dimension!r}")
        entries = data["numbers"]
        if any(type(e["value"]) not in (int, str) for e in entries):  # a float is not exact
            raise ValueError("Chern numbers must be strings or integers")
        numbers = _by_partition(dimension, [(e["partition"], parse_gaussian(str(e["value"])))
                                           for e in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Chern data file: {exc}") from exc
    return ChernData(dimension, numbers)


def graded_poly_to_json(K: GradedPoly) -> dict:
    return {
        "degree": K.degree,
        "terms": [{"partition": list(lam), "value": str(v)} for lam, v in K.items_sorted()],
    }


"""Multiplicative sequences in Chern classes and genus evaluation.

The degree-n piece K_n of the sequence attached to a characteristic
series H is computed through power sums: with s_m the coefficients of
log H and p_m the power sums in c_1..c_m (the Girard-Waring formula),
the generating function of the K_n is exp(sum_m s_m p_m t^m).

A graded piece (GradedPoly) holds its values as a tuple aligned with
partitions(degree), zeros included. The Chern numbers of a manifold M of
complex dimension n are a GradedPoly too, whose coefficient at lam is
c_lam[M], and the genus K_n(c_1, ..., c_n)[M] is one inner product of two
such tuples. Pieces are multiplied only by the exp recurrence, through
GradedPoly.dot: it reads a product table, built on first use of a run of
degree pairs and cached, that lists for each partition of the total degree
the index pairs whose product lands on it, and takes one `gaussian.dot` per
partition, with no partition key built per pair.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, List, Mapping, Sequence, Tuple

from .catalog import CharacteristicSeries
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, as_gaussian, dot, parse_gaussian
from .series import exp_coefficients, log_series

Partition = Tuple[int, ...]
Values = Tuple[GaussianRational, ...]  # aligned with partitions(degree)


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


@lru_cache(maxsize=None)
def _index(n: int) -> Mapping[Partition, int]:
    """The position of each partition of n in partitions(n), read-only."""
    return MappingProxyType({lam: i for i, lam in enumerate(partitions(n))})


def _aligned(degree: int, pairs: Iterable) -> Values:
    """(parts, value) pairs of weight `degree` as a tuple aligned with
    partitions(degree), zeros included. The one check of partition-indexed
    input, for GradedPoly(degree, terms) and the JSON reader alike: parts
    must be positive ints of sum `degree`, and two pairs naming the same
    partition ([2, 1] and [1, 2], say) are an error, not merged."""
    values = [GR_ZERO] * len(partitions(degree))
    index, seen = _index(degree), set()
    for key, value in pairs:
        lam = make_partition(key)
        if sum(lam) != degree:
            raise ValueError(f"partition {lam} has weight {sum(lam)}, expected {degree}")
        if lam in seen:
            raise ValueError(f"partition {list(lam)} is given twice")
        seen.add(lam)
        values[index[lam]] = as_gaussian(value)
    return tuple(values)


def _nonzero(degree: int, values: Values) -> Mapping[Partition, GaussianRational]:
    """The nonzero entries of an aligned tuple, as a read-only mapping."""
    return MappingProxyType({lam: v for lam, v in zip(partitions(degree), values) if v})


@lru_cache(maxsize=None)
def _product_table(run: Tuple[Tuple[int, int], ...]
                   ) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """Where the products of a run of degree pairs (d1_j, d2_j) of one total
    degree land: for each partition of that degree, the indices (i1s, i2s)
    of the pairs lam1 of d1_j, lam2 of d2_j with lam1 + lam2 on it. Indices
    run over the concatenated partitions(d1_0), partitions(d1_1), ... and
    partitions(d2_0), ..., as GradedPoly.dot concatenates the values.
    Built on first use of the run, one entry per distinct run: the exp
    recurrence for K_n makes one run per degree.
    """
    index = _index(sum(run[0]))
    table: List[Tuple[List[int], List[int]]] = [([], []) for _ in index]
    o1 = o2 = 0
    for d1, d2 in run:
        for i1, lam1 in enumerate(partitions(d1), o1):
            for i2, lam2 in enumerate(partitions(d2), o2):
                i1s, i2s = table[index[tuple(sorted(lam1 + lam2, reverse=True))]]
                i1s.append(i1)
                i2s.append(i2)
        o1 += len(partitions(d1))
        o2 += len(partitions(d2))
    return tuple((tuple(i1s), tuple(i2s)) for i1s, i2s in table)


class GradedPoly:
    """A homogeneous polynomial in c_1, c_2, ... indexed by partitions, or
    the Chern numbers of a manifold, c_lam[M] at lam.

    `values` is a tuple aligned with `partitions(degree)`, zeros included.
    A piece is scaled by a Q(i) scalar with `*`, and pieces are multiplied
    only in sums of products, by `GradedPoly.dot`. `GradedPoly(degree,
    terms)` validates its input with `_aligned`, then builds the value with
    the trusted `_graded`, as `*` and `dot` do. A piece is immutable and
    `terms` is a read-only view of the nonzero entries, so cached values
    (power_sum, cpn_chern_numbers) can be handed out without sharing mutable
    state. No __bool__: a zero piece stays a GradedPoly.
    """

    __slots__ = ("degree", "values")

    def __new__(cls, degree: int, terms: Mapping[Partition, object]):
        return _graded(degree, _aligned(degree, terms.items()))

    @property
    def terms(self) -> Mapping[Partition, GaussianRational]:
        return _nonzero(self.degree, self.values)

    def __mul__(self, other) -> "GradedPoly":
        c = as_gaussian(other)
        return _graded(self.degree, tuple(c * v for v in self.values))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Sequence["GradedPoly"], ys: Sequence["GradedPoly"]) -> "GradedPoly":
        """sum_j xs[j]*ys[j] for a nonempty run of pairs of one total degree.

        For each partition of the total degree, the value pairs that
        `_product_table` lists for it are gathered over every j, and its
        coefficient is one `gaussian.dot`.
        """
        degree = xs[0].degree + ys[0].degree
        run = []
        for x, y in zip(xs, ys):
            if x.degree + y.degree != degree:
                raise ValueError("cannot add graded pieces of different degrees")
            run.append((x.degree, y.degree))
        X = [v for x in xs for v in x.values]
        Y = [v for y in ys for v in y.values]
        return _graded(degree, tuple(dot(map(X.__getitem__, i1s), map(Y.__getitem__, i2s))
                                     for i1s, i2s in _product_table(tuple(run))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.degree == other.degree and self.values == other.values

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GradedPoly is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GradedPoly is immutable: cannot delete {name}")

    def __repr__(self) -> str:
        return f"GradedPoly({self.degree}, {dict(self.terms)!r})"


def _graded(degree: int, values: Values) -> GradedPoly:
    """Trusted: Q(i) values aligned with partitions(degree), zeros included."""
    out = object.__new__(GradedPoly)
    object.__setattr__(out, "degree", degree)
    object.__setattr__(out, "values", values)
    return out


@lru_cache(maxsize=None)
def power_sum(m: int) -> GradedPoly:
    """Power sum p_m as a polynomial in c_1..c_m, by the Girard-Waring
    formula: c_lam has coefficient (-1)^(m-l) * m * (l-1)! / prod_j r_j!,
    where lam has l parts and r_j of them equal j."""
    if m < 1:
        raise ValueError("power sums are defined for m >= 1")
    return _graded(m, tuple(
        as_gaussian(Fraction((-1) ** (m - len(lam)) * m * math.factorial(len(lam) - 1),
                             math.prod(map(math.factorial, Counter(lam).values()))))
        for lam in partitions(m)))


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


def evaluate_genus(K: GradedPoly, X: GradedPoly) -> GaussianRational:
    """K_n(c_1, ..., c_n)[M]: the coefficients of K_n paired with the Chern
    numbers c_lam[M] held by X, one `gaussian.dot` of two aligned tuples."""
    if K.degree != X.degree:
        raise ValueError(f"degree {K.degree} polynomial does not match "
                         f"degree {X.degree} Chern numbers")
    return dot(K.values, X.values)


@lru_cache(maxsize=None)
def cpn_chern_numbers(n: int) -> GradedPoly:
    """Chern numbers of complex projective n-space, from (1 + x)^(n+1):
    c_lam[CP^n] = prod_{j in lam} binomial(n + 1, j)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _graded(n, tuple(GaussianRational(math.prod(math.comb(n + 1, j) for j in lam))
                            for lam in partitions(n)))


# -- JSON files ------------------------------------------------------------


def chern_data_from_json(data: dict) -> GradedPoly:
    """{"dimension": n, "numbers": [{"partition": [...], "value": ...}, ...]}
    as the GradedPoly of degree n whose coefficient at lam is c_lam[M];
    partitions not listed are zero."""
    try:
        dimension = data["dimension"]
        if type(dimension) is not int:
            raise ValueError(f"dimension must be an integer, got {dimension!r}")
        # str() of a JSON float, bool or null is no Gaussian rational literal
        values = _aligned(dimension, [(e["partition"], parse_gaussian(str(e["value"])))
                                      for e in data["numbers"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Chern data file: {exc}") from exc
    return _graded(dimension, values)


def graded_poly_to_json(K: GradedPoly) -> dict:
    return {
        "degree": K.degree,
        "terms": [{"partition": list(lam), "value": str(v)} for lam, v in K.terms.items()],
    }

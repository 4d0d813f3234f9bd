"""Algebraic rigidity: sampling checks, the order-2 functional equation,
ODE reconstruction from (r1, h2), and the generalized-Todd classification.

A characteristic series is classified GT exactly when it coincides, to its
full known order, with the unique Laurent solution f = 1/t + r1 + ... of
f' = -f^2 + h1*f + h2 - h1^2 determined by its own r1 and h2.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from .catalog import CharacteristicSeries, SeriesSpec, format_spec, h_n
from .gaussian import GR_ZERO, GaussianRational, as_gaussian, dot, format_gaussian
from .localization import cpn_fixed_points, equivariant_genus
from .series import InsufficientOrderError, LaurentSeries, PowerSeries

WeightTuple = Tuple[int, ...]


class NotEvenSeriesError(ValueError):
    """Raised by the oriented classifier on a series with odd terms."""

    def __init__(self, degree: int, coefficient: GaussianRational):
        self.degree = degree
        self.coefficient = coefficient
        super().__init__(
            f"series is not even: degree {degree} coefficient is "
            f"{format_gaussian(coefficient)}")


def ar1_residual(H: CharacteristicSeries, order: int) -> PowerSeries:
    """f(t) + f(-t) - h1 with f = H(t)/t, known to `order`; zero iff
    H - r1*t is even. Needs H to order `order + 1`."""
    f = LaurentSeries(-1, H.series.truncate(order + 1).coeffs)
    return (f + f.scale_argument(-1) - 2 * H.r(1)).power_part()


def lemma41_residual(H: CharacteristicSeries, order: int) -> LaurentSeries:
    """F(-t)^2 + h1*F(t) + F'(t) - h2 with F = H(t)/t, known to `order`;
    needs H to order `order + 2`.

    Identically zero on the known range exactly when the order-2 rigidity
    functional equation holds; its value at distinct weights also covers
    the degenerate CP^2 action with a repeated weight.
    """
    f = LaurentSeries(-1, H.series.truncate(order + 2).coeffs)
    fm = f.scale_argument(-1)
    h1 = 2 * H.r(1)
    h2 = h_n(H, 2)
    return fm * fm + h1 * f + f.derivative() - h2


def reconstruct(r1: GaussianRational, h2: GaussianRational, order: int) -> PowerSeries:
    """The unique characteristic series with the given r1 and h2 that
    satisfies the rigidity ODE, expanded to `order`.

    Writing f = 1/t + g with g = r1 + r2*t + ..., matching t^k coefficients
    of f' = -f^2 + h1*f + h2 - h1^2 gives
    (k+3)*g[k+1] = -sum_i g[i]*g[k-i] + h1*g[k] + (h2 - h1^2)*[k == 0],
    with the self-convolution sum as one `gaussian.dot`.
    """
    if order < 2:
        raise ValueError("reconstruction order must be at least 2")
    r1 = as_gaussian(r1)
    h2 = as_gaussian(h2)
    h1 = 2 * r1
    g: List[GaussianRational] = [r1]
    for k in range(order - 1):
        rhs = h1 * g[k] - dot(g[:k + 1], g[k::-1])
        if k == 0:
            rhs = rhs + h2 - h1 * h1
        g.append(rhs / (k + 3))
    return PowerSeries([as_gaussian(1)] + g)


@dataclass
class GTReport:
    """Verdict of the generalized-Todd classification."""

    is_gt: bool
    case: str  # "D", "E", or "NotGT"
    r1: GaussianRational
    h2: GaussianRational
    d: GaussianRational
    order: int
    sqrt_d: Optional[GaussianRational] = None
    closed_form: Optional[SeriesSpec] = None
    gab_form: Optional[SeriesSpec] = None
    witness: Optional[int] = None
    oriented: bool = False
    coth_a: Optional[GaussianRational] = None
    cot_a: Optional[GaussianRational] = None

    def to_json(self) -> dict:
        data = {
            "is_gt": self.is_gt,
            "case": self.case,
            "r1": format_gaussian(self.r1),
            "h2": format_gaussian(self.h2),
            "d": format_gaussian(self.d),
            "order": self.order,
        }
        if self.sqrt_d is not None:
            data["sqrt_d"] = format_gaussian(self.sqrt_d)
        if self.closed_form is not None:
            data["closed_form"] = format_spec(self.closed_form)
        if self.gab_form is not None:
            data["gab_form"] = format_spec(self.gab_form)
        if self.witness is not None:
            data["witness_degree"] = self.witness
        if self.oriented:
            data["oriented"] = True
            if self.coth_a is not None:
                data["coth_a"] = format_gaussian(self.coth_a)
            if self.cot_a is not None:
                data["cot_a"] = format_gaussian(self.cot_a)
        return data


def classify(H: CharacteristicSeries) -> GTReport:
    """Decide GT membership by comparing H with its ODE reconstruction.

    The verdict uses the full known order of H; d = h2 - 3*r1^2
    discriminates the exponential (E, d = 0) and coth/cot (D) cases.
    """
    if H.order < 4:
        raise InsufficientOrderError("classification needs order >= 4")
    r1 = H.r(1)
    h2 = h_n(H, 2)
    d = h2 - 3 * r1 * r1
    rebuilt = reconstruct(r1, h2, H.order)
    for k in range(H.order + 1):
        if H.series.coeffs[k] != rebuilt.coeffs[k]:
            return GTReport(False, "NotGT", r1, h2, d, H.order, witness=k)
    if not d:
        return GTReport(True, "E", r1, h2, d, H.order, sqrt_d=GR_ZERO,
                        closed_form=SeriesSpec("euler", {"a": r1}))
    sqrt_d = d.sqrt()
    closed = SeriesSpec("dab", {"a": sqrt_d, "b": r1}) if sqrt_d is not None else None
    sqrt_neg = (-d).sqrt()
    gab = SeriesSpec("gab", {"a": sqrt_neg, "b": r1}) if sqrt_neg is not None else None
    return GTReport(True, "D", r1, h2, d, H.order,
                    sqrt_d=sqrt_d, closed_form=closed, gab_form=gab)


def classify_oriented(H: CharacteristicSeries) -> GTReport:
    """Classification for oriented genera: requires an even series."""
    for k in range(1, H.order + 1, 2):
        if H.series.coeffs[k]:
            raise NotEvenSeriesError(k, H.series.coeffs[k])
    report = classify(H)
    report.oriented = True
    if report.is_gt:
        report.coth_a = report.sqrt_d
        report.cot_a = (-report.d).sqrt()
    return report


# -- AR^n sampling ---------------------------------------------------------

# Mixed-sign, magnitude-gapped weight tuples to defeat accidental
# cancellation on the small symmetric base set.
_EXTRA_POOL = (0, 1, 17, -9, 5, -23, 2, 11)
# The largest m whose two gapped tuples both take m + 1 weights from the pool.
_MAX_N = len(_EXTRA_POOL) - 2


@dataclass
class ARReport:
    """Outcome of an algebraic-rigidity sampling run.

    Constancy is certified only up to the tested series order.
    """

    max_n: int
    order: int
    tuples_checked: List[WeightTuple]
    passed: bool
    witness: Optional[Tuple[WeightTuple, int, GaussianRational]] = None

    def to_json(self) -> dict:
        data = {
            "max_n": self.max_n,
            "order": self.order,
            "tuples_checked": len(self.tuples_checked),
            "passed": self.passed,
        }
        if self.witness is not None:
            weights, degree, coeff = self.witness
            data["witness"] = {
                "weights": list(weights),
                "degree": degree,
                "coefficient": format_gaussian(coeff),
            }
        return data


def _base_tuples(m: int) -> List[WeightTuple]:
    from itertools import combinations

    tuples: List[WeightTuple] = []
    if m <= 2:
        tuples.extend(combinations(range(-4, 5), m + 1))
    tuples.append(_EXTRA_POOL[: m + 1])
    tuples.append(tuple(-w for w in _EXTRA_POOL[1: m + 2]))
    return tuples


def _nonconstant_witness(s: LaurentSeries) -> Optional[Tuple[int, GaussianRational]]:
    for k, c in enumerate(s.coeffs, s.valuation):
        if c and k:
            return k, c
    return None


def sweep_plan(max_n: int, order: int, trials: int, seed: int
               ) -> Iterator[Tuple[WeightTuple, WeightTuple, bool]]:
    """The weight tuples of ar_check(H, max_n, order, trials, seed) in order,
    made lazily, so a sweep that stops early makes no more. For each
    m <= max_n: all distinct tuples in [-4, 4] when m <= 2, two fixed
    gapped tuples (they cover max_n up to 6), then `trials` seeded-random
    distinct tuples in [-20, 20]. Each comes with its shape, the sorted
    weights minus their minimum, and `first`, true for the first tuple of
    its affine class: the one tuple ar_check localizes. The arguments are
    checked on the call, before any tuple is made.

    The class of a shape under w -> lam*w + mu, lam a nonzero integer, is
    keyed by the shape over its gcd, or the reflection top - x of that if
    it is smaller. A shape seen before is in a class seen before, so the
    key is made once per new shape.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if order < 2:
        raise ValueError("ar_check order must be at least 2; below it every series passes")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if max_n > _MAX_N:
        raise ValueError(f"max_n must be at most {_MAX_N}, the largest CP^m "
                         f"the gapped weight tuples cover")
    rng = random.Random(seed)
    universe = range(-20, 21)
    shapes: Set[WeightTuple] = set()
    classes: Set[WeightTuple] = set()  # affine-class keys of the shapes

    def plan():
        for m in range(1, max_n + 1):
            drawn = [tuple(rng.sample(universe, m + 1)) for _ in range(trials)]
            for weights in _base_tuples(m) + drawn:
                low = min(weights)
                shape = tuple(sorted(w - low for w in weights))
                first = shape not in shapes
                if first:
                    shapes.add(shape)
                    g = math.gcd(*shape)
                    s = tuple(x // g for x in shape)
                    key = min(s, tuple(s[-1] - x for x in reversed(s)))
                    first = key not in classes
                    classes.add(key)
                yield weights, shape, first
    return plan()


def ar_check(H: CharacteristicSeries, max_n: int, order: int = 12,
             trials: int = 20, seed: int = 0) -> ARReport:
    """Sample the localization sum over the tuples of `sweep_plan` and stop
    at the first nonconstant one.

    Weights enter as differences w_j - w_i, so the degree-1 coefficient is
    always zero: `order` must be at least 2, or every series passes. For
    the same reason the sum of lam*w + mu, reordered, is the sum of w at
    lam*t for every integer lam != 0, whose coefficient k is lam^k times
    that of w. So only the plan's `first` tuple of each affine class is
    localized, and every tuple is counted in `tuples_checked`. The same
    plan gives `genus rigidity` the shapes it charges before any work.
    """
    plan = sweep_plan(max_n, order, trials, seed)
    if H.order < order + max_n:
        raise InsufficientOrderError(
            f"ar_check at order {order} with max_n {max_n} needs H to order "
            f"{order + max_n}, have {H.order}")
    checked: List[WeightTuple] = []
    for weights, _, first in plan:
        checked.append(weights)
        if not first:
            continue
        s = equivariant_genus(H, cpn_fixed_points(weights), order)
        bad = _nonconstant_witness(s)
        if bad is not None:
            degree, coeff = bad
            return ARReport(max_n, order, checked, False,
                            witness=(weights, degree, coeff))
    return ARReport(max_n, order, checked, True)

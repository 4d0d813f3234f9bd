"""Equivariant genera of circle actions by fixed-point localization.

The localization sum runs over isolated fixed points; each point
contributes sign * prod_j F_H(w_j t) with F_H = H(t)/t, taken over all
weights of the point's tangent representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .catalog import CharacteristicSeries
from .gaussian import GR_ZERO, GaussianRational, as_gaussian, from_parts, integer_parts
from .series import LaurentSeries, _int_product, _laurent, _scaled


@dataclass(frozen=True)
class FixedPoint:
    """An isolated fixed point: tangent weights plus a Buchstaber-Ray sign."""

    weights: Tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ValueError("a fixed point needs at least one weight")
        if any(type(w) is not int for w in self.weights):  # 1.5 is refused, not read as 1
            raise ValueError(f"fixed-point weights must be integers, got {list(self.weights)}")
        if any(w == 0 for w in self.weights):
            raise ValueError("fixed-point weights must be nonzero")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError("fixed-point sign must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class FixedPointSet:
    """A nonempty list of fixed points with a uniform number of weights."""

    points: Tuple[FixedPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("a fixed-point set must be nonempty")
        n = self.points[0].n
        if any(p.n != n for p in self.points):
            raise ValueError("all fixed points must have the same number of weights")

    @property
    def n(self) -> int:
        return self.points[0].n


def cpn_fixed_points(w: Sequence[int]) -> FixedPointSet:
    """Fixed points of the linear circle action on CP^n with weights w.

    Point i has tangent weights {w_k - w_i : k != i} and sign +1.
    """
    w = list(w)
    if len(w) < 2:
        raise ValueError("need at least two weights")
    if len(set(w)) != len(w):
        raise ValueError(f"weights must be pairwise distinct, got {w}; "
                         "repeated weights give non-isolated fixed sets")
    points = []
    for i, wi in enumerate(w):
        points.append(FixedPoint(tuple(wk - wi for k, wk in enumerate(w) if k != i), 1))
    return FixedPointSet(tuple(points))


def ahbr_value(x: GaussianRational, y: GaussianRational,
               fps: FixedPointSet) -> GaussianRational:
    """The signed fixed-point sum: sum_i sign_i * x^(s_i+) * (-y)^(s_i-)."""
    x = as_gaussian(x)
    y = as_gaussian(y)
    total = GR_ZERO
    for p in fps.points:
        plus = sum(w > 0 for w in p.weights)
        total = total + p.sign * x ** plus * (-y) ** (p.n - plus)
    return total


def equivariant_genus(H: CharacteristicSeries, fps: FixedPointSet,
                      order: int) -> LaurentSeries:
    """The localization sum as an exact Laurent series, known to exactly `order`.

    Each factor F_H(w*t) shifts the valuation by -1, so H must be known
    to order `order + n` where n is the number of weights per point, and
    either kernel, given those `order + n + 1` coefficients, builds the
    sum to exactly `order`. Below -n, the lowest degree of the sum, it is
    the zero series known to `order`.
    """
    if order < -fps.n:
        return _laurent(order, [GR_ZERO])
    coeffs = H.series.truncate(order + fps.n).coeffs
    kernel = _localize_rational if all(c.is_real for c in coeffs) else _localize_generic
    return kernel(coeffs, fps)


def _localize_generic(coeffs, fps: FixedPointSet) -> LaurentSeries:
    f = _laurent(-1, coeffs)
    total = _laurent(-fps.n, [GR_ZERO] * len(coeffs))
    for p in fps.points:
        prod = None
        for w in p.weights:
            factor = f.scale_argument(w)
            prod = factor if prod is None else prod * factor
        total = total + prod if p.sign > 0 else total - prod
    return total


def _localize_rational(coeffs: Sequence[GaussianRational],
                       fps: FixedPointSet) -> LaurentSeries:
    """Integer fast path for real-coefficient series; exact."""
    n = fps.n
    nums, _, den = integer_parts(coeffs)
    size = len(nums)  # degrees -n .. len(nums) - 1 - n, shifted by n
    wprods = [math.prod(p.weights) for p in fps.points]
    shared = math.lcm(*(abs(w) for w in wprods))
    totals = [0] * size
    for p, wprod in zip(fps.points, wprods):
        # w * F_H(w t) has integer numerators nums[k] * w^k at degree k - 1
        conv = _scaled(nums, p.weights[0], 1)
        for w in p.weights[1:]:
            conv = _int_product(conv, _scaled(nums, w, 1))
        scale = p.sign * (shared // wprod)
        for k in range(size):
            if conv[k]:
                totals[k] += conv[k] * scale
    den_total = den ** n * shared
    return _laurent(-n, [from_parts(q, 0, den_total) for q in totals])


# -- JSON files ----------------------------------------------------------------


def fixed_points_from_json(data: dict) -> FixedPointSet:
    try:
        points = tuple(FixedPoint(tuple(e["weights"]), e.get("sign", 1))
                       for e in data["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed fixed-point file: {exc}") from exc
    return FixedPointSet(points)

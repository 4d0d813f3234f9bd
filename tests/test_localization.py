import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch.catalog import CharacteristicSeries, SeriesSpec, construct, h_n, parse_spec
from hirzebruch.chern import GradedPoly, cpn_chern_numbers, evaluate_genus, k_polynomials, partitions
from hirzebruch.gaussian import GR_I, GaussianRational
from hirzebruch.localization import (
    FixedPoint,
    FixedPointSet,
    _localize_generic,
    _localize_rational,
    ahbr_value,
    cpn_fixed_points,
    equivariant_genus,
    fixed_points_from_json,
)
from hirzebruch.series import InsufficientOrderError, LaurentSeries, PowerSeries
from reference import evaluate_k


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def rand_series(rng, order):
    return CharacteristicSeries(PowerSeries([1] + [rand_fraction(rng) for _ in range(order)]))


def rand_complex_series(rng, order):
    return CharacteristicSeries(PowerSeries(
        [1] + [GaussianRational(rand_fraction(rng), rand_fraction(rng) or 1) for _ in range(order)]))


# -- fixed-point data ---------------------------------------------------------

def test_cpn_fixed_points_cp1():
    fps = cpn_fixed_points([1, 0])
    assert fps.points == (FixedPoint((-1,), 1), FixedPoint((1,), 1))


def test_cpn_fixed_points_middle_weights():
    fps = cpn_fixed_points([0, 1, 2])
    assert set(fps.points[1].weights) == {-1, 1}


def test_cpn_fixed_points_rejects_repeats():
    with pytest.raises(ValueError):
        cpn_fixed_points([0, 0, 1])


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        FixedPoint((0, 1), 1)
    with pytest.raises(ValueError):
        FixedPoint((1,), 2)
    with pytest.raises(ValueError):
        FixedPointSet((FixedPoint((1,), 1), FixedPoint((1, 2), 1)))


# -- signed Atiyah-Hirzebruch sum -----------------------------------------------

def test_ahbr_value_takes_x_per_positive_weight_and_minus_y_per_negative():
    # two positive weights and one negative give x^2 * (-y) = -12; with the
    # counts swapped it would be x * (-y)^2 = 18 (the sums over cpn_fixed_points
    # are symmetric under that swap, so only an asymmetric point tells them apart)
    x, y = GaussianRational(2), GaussianRational(3)
    assert ahbr_value(x, y, FixedPointSet((FixedPoint((1, 2, -3)),))) == -12
    assert ahbr_value(x, y, FixedPointSet((FixedPoint((1, 2, -3), -1),))) == 12


def test_ahbr_cp2_closed_form():
    fps = cpn_fixed_points([0, 1, 2])
    x, y = GaussianRational(2), GaussianRational(3)
    # x^2 - x*y + y^2
    assert ahbr_value(x, y, fps) == 7


def test_ahbr_zero_arguments():
    fps = cpn_fixed_points([0, 1, 2])
    assert ahbr_value(GaussianRational(0), GaussianRational(0), fps) == 0


def test_ahbr_opposite_signs_cancel():
    points = (FixedPoint((1, -2), 1), FixedPoint((1, -2), -1))
    fps = FixedPointSet(points)
    assert ahbr_value(GaussianRational(5), GaussianRational(7), fps) == 0


# -- equivariant genus ------------------------------------------------------------

def test_todd_cp1_is_constant_one():
    H = construct(parse_spec("todd"), 10)
    s = equivariant_genus(H, cpn_fixed_points([1, 0]), 8)
    assert s == 1
    assert s.valuation == 0


def test_single_point_with_negative_sign():
    a = Fraction(3, 4)
    H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 6)
    fps = FixedPointSet((FixedPoint((1,), -1),))
    s = equivariant_genus(H, fps, 4)
    assert s == LaurentSeries(-1, [-1, -a, 0, 0, 0, 0])


def test_prop21_random_series():
    rng = random.Random(17)
    H = rand_series(rng, 12)
    s = equivariant_genus(H, cpn_fixed_points([0, 1, 3]), 8)
    assert s.valuation >= 0
    assert s.coefficient(0) == h_n(H, 2)


def test_insufficient_order_raises():
    H = construct(parse_spec("todd"), 6)
    with pytest.raises(InsufficientOrderError):
        equivariant_genus(H, cpn_fixed_points([0, 1, 3]), 5)


def test_translation_invariance():
    rng = random.Random(19)
    H = rand_series(rng, 10)
    a = equivariant_genus(H, cpn_fixed_points([0, 2, 5]), 6)
    b = equivariant_genus(H, cpn_fixed_points([7, 9, 12]), 6)
    assert a == b


def test_scaling_covariance():
    rng = random.Random(23)
    H = rand_series(rng, 12)
    k = 3
    scaled_weights = equivariant_genus(H, cpn_fixed_points([0, k, 2 * k]), 6)
    scaled_argument = equivariant_genus(H, cpn_fixed_points([0, 1, 2]), 6).scale_argument(k)
    assert scaled_weights == scaled_argument


def test_rigid_txy_equals_signed_sum():
    x, y = GaussianRational(Fraction(1, 2)), GaussianRational(-3)
    H = construct(SeriesSpec("txy", {"x": x, "y": y}), 12)
    for weights in ([0, 1, 2], [0, 1, 3], [-2, 0, 1, 5]):
        fps = cpn_fixed_points(weights)
        s = equivariant_genus(H, fps, 12 - fps.n)
        assert s == ahbr_value(x, y, fps)


@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", range(-5, 9))
def test_fast_and_generic_paths_agree(order, complex_h):
    # H is known to 10 and the action has n = 2, so 8 is the highest order;
    # below -n the sum is the zero series known to `order`.
    rng = random.Random(29)
    H = rand_complex_series(rng, 10) if complex_h else rand_series(rng, 10)
    fps = cpn_fixed_points([-2, 1, 4])
    s = equivariant_genus(H, fps, order)
    if order >= -fps.n:
        generic = _localize_generic(H.series.truncate(order + fps.n).coeffs, fps)
    else:
        generic = LaurentSeries(order, [0])
    assert s == generic and s.valuation == generic.valuation
    assert s.order == order


def test_complex_series_uses_generic_path():
    coeffs = [GaussianRational(1), GR_I, GaussianRational(0, Fraction(1, 2))] + [GaussianRational(0)] * 6
    H = CharacteristicSeries(PowerSeries(coeffs))
    s = equivariant_genus(H, cpn_fixed_points([1, 0]), 4)
    assert s.coefficient(0) == h_n(H, 1)
    assert s.valuation >= 0


# -- Chern numbers from fixed points (Atiyah-Bott) --------------------------------

def fixed_point_chern_numbers(fps):
    """c_lambda[M] = sum_p sign_p * prod_{j in lambda} e_j(w_p) / prod w_p.

    e_j is the j-th elementary symmetric polynomial of the tangent weights.
    Shares no code with the library past the fixed-point data.
    """
    def e(ws, j):
        return sum(math.prod(c) for c in itertools.combinations(ws, j))

    numbers = {}
    for lam in partitions(fps.n):
        numbers[lam] = sum(Fraction(p.sign * math.prod(e(p.weights, j) for j in lam),
                                    math.prod(p.weights)) for p in fps.points)
    return GradedPoly(fps.n, numbers)


def product_fixed_points(a, b):
    return FixedPointSet(tuple(FixedPoint(p.weights + q.weights, p.sign * q.sign)
                               for p in a.points for q in b.points))


def flag3_fixed_points(x):
    # one point per permutation s, tangent weights x[s[j]] - x[s[i]] for i < j
    return FixedPointSet(tuple(
        FixedPoint(tuple(x[s[j]] - x[s[i]] for i, j in itertools.combinations(range(3), 2)))
        for s in itertools.permutations(range(3))))


def hirzebruch_surface_fixed_points(k, u=1, v=3):
    # the four torus-fixed points of the toric surface F_k, on the circle (u, v)
    return FixedPointSet(tuple(FixedPoint(w) for w in (
        (u, v), (k * u + v, -u), (-u, -k * u - v), (-v, u))))


signed_fixed_points = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.builds(FixedPoint,
              st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n).map(tuple),
              st.sampled_from([1, -1])),
    min_size=1, max_size=4).map(lambda ps: FixedPointSet(tuple(ps))))


@settings(max_examples=40, deadline=None)
@given(signed_fixed_points, st.integers(0, 2**32))
def test_chern_numbers_from_fixed_points_match_localization(fps, seed):
    # both sides are sum_p sign_p [t^n] prod_j H(w_j t) / prod_j w_j, for any
    # signed data; the Chern side goes through log H, power sums and exp
    H = rand_complex_series(random.Random(seed), max(fps.n, 2))
    chern_side = evaluate_genus(k_polynomials(H, fps.n)[fps.n], fixed_point_chern_numbers(fps))
    assert chern_side == equivariant_genus(H, fps, 0).coefficient(0)


def elementary_symmetric(ws, top):
    """e_0..e_top of the weights ws, the coefficients of prod_j (1 + w_j x)."""
    e = [1] + [0] * top
    for w in ws:
        e = [e[0]] + [a + w * b for a, b in zip(e[1:], e)]
    return e


@settings(max_examples=40, deadline=None)
@given(signed_fixed_points, st.data(), st.booleans(), st.integers(0, 2**32))
def test_every_degree_of_localization_is_the_multiplicative_sequence(fps, data, complex_h, seed):
    # prod_j H(w_j t) = sum_m K_m(e_1(w), ..., e_m(w)) t^m with e_j = 0 past
    # j = n, so coefficient k of the sum is sum_p sign_p K_{n+k}(e(w_p)) / e_n(w_p)
    n = fps.n
    order = data.draw(st.integers(0, 16 - n), label="order")
    rng = random.Random(seed)
    known = order + n  # the degrees the sum reads, and no more
    H = rand_complex_series(rng, known) if complex_h else rand_series(rng, known)
    with patch("hirzebruch.localization._localize_rational", wraps=_localize_rational) as fast, \
            patch("hirzebruch.localization._localize_generic", wraps=_localize_generic) as generic:
        s = equivariant_genus(H, fps, order)
    assert (fast.called, generic.called) == (not complex_h, complex_h)
    K = k_polynomials(H, order + n)  # K[m] is multiplicative_sequence(H, m)
    for k in range(-n, order + 1):
        expected = 0
        for p in fps.points:
            e = elementary_symmetric(p.weights, order + n)
            expected = expected + p.sign * evaluate_k(K[n + k], e[1:]) / e[n]
        assert s.coefficient(k) == expected, k


@pytest.mark.parametrize("fps, expected", [
    (cpn_fixed_points([0, 1, 2, 5]), cpn_chern_numbers(3).terms),
    (product_fixed_points(cpn_fixed_points([0, 2]), cpn_fixed_points([0, 1, 3])),
     {(3,): 6, (2, 1): 24, (1, 1, 1): 54}),
    (flag3_fixed_points((0, 1, 3)), {(3,): 6, (2, 1): 24, (1, 1, 1): 48}),
    (hirzebruch_surface_fixed_points(1), {(2,): 4, (1, 1): 8}),
    (hirzebruch_surface_fixed_points(3), {(2,): 4, (1, 1): 8}),
], ids=["CP3", "CP1xCP2", "Fl3", "F1", "F3"])
def test_named_manifolds_chern_numbers_todd_and_euler(fps, expected):
    X = fixed_point_chern_numbers(fps)
    assert X == GradedPoly(fps.n, expected)
    n = fps.n
    for spec, value in (("todd", 1), ("euler:a=1", len(fps.points))):
        H = construct(parse_spec(spec), n)
        assert evaluate_genus(k_polynomials(H, n)[n], X) == value
        assert equivariant_genus(H, fps, 0).coefficient(0) == value


# -- JSON -------------------------------------------------------------------------

def test_fixed_point_json_roundtrip():
    data = {"points": [{"weights": [1, -2], "sign": 1}, {"weights": [3, 4], "sign": -1}]}
    fps = FixedPointSet((FixedPoint((1, -2), 1), FixedPoint((3, 4), -1)))
    assert fixed_points_from_json(data) == fps


def test_fixed_point_json_defaults_sign():
    fps = fixed_points_from_json({"points": [{"weights": [2, -1]}]})
    assert fps.points[0].sign == 1


def test_fixed_point_json_rejects_garbage():
    with pytest.raises(ValueError):
        fixed_points_from_json({"points": [{"weights": [0]}]})
    with pytest.raises(ValueError):
        fixed_points_from_json({})

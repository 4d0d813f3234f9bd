import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirzebruch.gaussian import GR_ONE, GR_ZERO, GaussianRational
from hirzebruch.series import (
    InsufficientOrderError,
    LaurentSeries,
    PowerSeries,
    ZeroSeriesDivisionError,
    exp_series,
    log_series,
    series_from_json,
    series_to_json,
    truncated_product,
)

ORDER = 12

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def power_series(order=ORDER, constant=None):
    head = st.just(constant) if constant is not None else rationals
    return st.builds(
        lambda c0, tail: PowerSeries([c0] + tail),
        head,
        st.lists(rationals, min_size=order, max_size=order),
    )


def laurent_series(order=6):
    return st.builds(
        lambda val, coeffs: LaurentSeries(val, coeffs),
        st.integers(min_value=-3, max_value=2),
        st.lists(rationals, min_size=order, max_size=order),
    )


def exp_neg_t(order):
    return PowerSeries([Fraction((-1) ** k, math.factorial(k)) for k in range(order + 1)])


def todd(order):
    """t/(1 - e^-t) to `order`: the inverse of (1 - e^-t)/t."""
    one_minus = 1 - exp_neg_t(order + 1)
    return PowerSeries(one_minus.coeffs[1:]).inverse().as_laurent()


# -- multiply ---------------------------------------------------------------

def test_multiply_linear_factors():
    a, b = Fraction(2, 3), Fraction(-5)
    prod = PowerSeries([1, a, 0]) * PowerSeries([1, b, 0])
    assert prod == PowerSeries([1, a + b, a * b])


def test_multiply_valuation_cancellation():
    inv_t = LaurentSeries(-1, [1, 0, 0])
    t = LaurentSeries(1, [1, 0, 0])
    assert (inv_t * t) == 1
    assert (inv_t * t).valuation == 0


def test_multiply_todd_against_direct_convolution():
    order = 6
    h0 = todd(order)
    g = 1 - exp_neg_t(order).as_laurent()
    prod = h0 * g
    # oracle: direct convolution of the truncated coefficient lists
    a = [h0.coefficient(k) for k in range(order + 1)]
    b = [g.coefficient(k) for k in range(order + 1)]
    expected = [sum((a[i] * b[k - i] for i in range(k + 1)), GR_ZERO) for k in range(order + 1)]
    assert expected[1] == 1 and all(not c for c in expected[:1] + expected[2:])
    for k in range(order + 1):
        assert prod.coefficient(k) == expected[k]


def naive_product(a, b):
    size = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(size)]


complex_coeffs = st.builds(GaussianRational, rationals, rationals)


@settings(max_examples=50, deadline=None)
@given(st.lists(complex_coeffs, max_size=9), st.lists(complex_coeffs, max_size=9))
def test_truncated_product_and_naive_agree(x, y):
    product = truncated_product(x, y)
    assert len(product) == min(len(x), len(y))
    assert product == naive_product(x, y)


# -- divide ------------------------------------------------------------------

def test_divide_geometric():
    assert PowerSeries([1, -1, 0, 0, 0]).inverse() == PowerSeries([1, 1, 1, 1, 1])


def test_divide_todd_coefficients():
    # oracle: the Bernoulli numbers; h_n = 1 for this series is checked in catalog tests
    h0 = todd(6)
    expected = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]
    for k, value in enumerate(expected):
        assert h0.coefficient(k) == value


def test_divide_by_self_random():
    u = PowerSeries([3, Fraction(1, 2), -1, 0, 5])
    assert u * u.inverse() == 1
    # the unit part of a Laurent series with a pole inverts the same way
    f = LaurentSeries(-2, u.coeffs)
    assert f * LaurentSeries(2, u.inverse().coeffs) == 1


def test_divide_by_zero_series():
    with pytest.raises(ZeroSeriesDivisionError):
        PowerSeries([0, 2]).inverse()
    with pytest.raises(ZeroSeriesDivisionError):
        PowerSeries([0]).inverse()


# -- compose / reversion -------------------------------------------------------

def test_compose_identity_inner():
    outer = PowerSeries([1, 1, 1])
    t = PowerSeries([0, 1, 0])
    assert outer.compose(t) == outer


def test_compose_sign_alternation():
    e = exp_series(PowerSeries.monomial(1, 6))
    composed = e.compose(PowerSeries.monomial(1, 6, -1))
    assert composed == exp_neg_t(6)


def test_compose_novikov_todd_identity():
    # -log(1-u) composed with 1-e^{-t} gives back t
    order = 8
    minus_log = PowerSeries([0] + [Fraction(1, k) for k in range(1, order + 1)])
    inner = 1 - exp_neg_t(order)
    assert minus_log.compose(inner.truncate(order)) == PowerSeries.monomial(1, order)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        PowerSeries([1, 1]).compose(PowerSeries([1, 1]))


def test_reversion_identity():
    t = PowerSeries.monomial(1, 6)
    assert t.reversion() == t


def test_reversion_moebius():
    # oracle: solving t = u/(1 - a*u) gives u = t/(1 + a*t)
    a = Fraction(3, 2)
    order = 8
    f = PowerSeries([0] + [a ** (k - 1) for k in range(1, order + 1)])  # t/(1-at)
    g = PowerSeries([0] + [(-a) ** (k - 1) for k in range(1, order + 1)])  # t/(1+at)
    assert f.reversion() == g


def test_reversion_one_minus_exp():
    # oracle: Lagrange inversion at low order gives -log(1-t)
    order = 6
    f = (1 - exp_neg_t(order))
    expected = PowerSeries([0] + [Fraction(1, k) for k in range(1, order + 1)])
    assert f.reversion() == expected


def test_reversion_requires_unit_linear_term():
    with pytest.raises(ValueError):
        PowerSeries([0, 0, 1]).reversion()


# -- exp / log ------------------------------------------------------------------

def test_exp_of_zero():
    assert exp_series(PowerSeries([0, 0, 0])) == PowerSeries([1, 0, 0])


def test_exp_factorials():
    e = exp_series(PowerSeries.monomial(1, 4))
    assert e == PowerSeries([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)])


def test_log_of_todd_head():
    g = PowerSeries([1, Fraction(1, 2), Fraction(1, 12)])
    assert log_series(g) == PowerSeries([0, Fraction(1, 2), Fraction(-1, 24)])


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp_series(PowerSeries([1, 0]))
    with pytest.raises(ValueError):
        log_series(PowerSeries([2, 0]))


# -- derivative / scale ------------------------------------------------------------

def test_derivative_of_pole():
    f = LaurentSeries(-1, [1, 0, 0])
    assert f.derivative() == LaurentSeries(-2, [-1, 0, 0])


def test_derivative_polynomial():
    f = LaurentSeries(0, [1, Fraction(1, 2), 3])
    assert f.derivative() == LaurentSeries(0, [Fraction(1, 2), 6])
    assert f.derivative().order == f.order - 1


def test_scale_identity_and_parity():
    f = LaurentSeries(-1, [1, 5, 2])
    assert f.scale_argument(1) == f
    g = LaurentSeries(-1, [1, 7])  # 1/t + 7
    assert g.scale_argument(-1) == LaurentSeries(-1, [-1, 7])


def test_scale_pole_coefficient():
    f = LaurentSeries(-1, [1, 0, 0])
    assert f.scale_argument(2).coefficient(-1) == Fraction(1, 2)


def test_scale_zero_argument():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries(-1, [1, 2]).scale_argument(0)
    f = LaurentSeries(0, [4, 5, 6])
    assert f.scale_argument(0) == LaurentSeries(0, [4, 0, 0])


# -- order bookkeeping -----------------------------------------------------------

def test_multiply_order_tracking():
    a = LaurentSeries(-1, [1, 2, 3])      # known on [-1, 1]
    b = LaurentSeries(2, [1, 1, 1, 1])    # known on [2, 5]
    prod = a * b
    assert prod.valuation == 1
    assert prod.order == min(a.order + b.valuation, b.order + a.valuation)


def test_coefficient_beyond_order_raises():
    f = LaurentSeries(0, [1, 2])
    with pytest.raises(InsufficientOrderError):
        f.coefficient(2)
    assert f.coefficient(-5) == 0


def test_zero_series_keeps_knowledge_horizon():
    z = LaurentSeries(-2, [0, 0, 0, 0])
    assert z.is_zero
    assert z.order == 1


def per_degree(a, b, op):
    """op(a, b) read degree by degree over the jointly known range."""
    val, order = min(a.valuation, b.valuation), min(a.order, b.order)
    return LaurentSeries(val, [op(a.coefficient(k), b.coefficient(k))
                               for k in range(val, order + 1)])


# valuations far apart next to short ranges, so that one operand's known
# range often ends below the other's valuation
short_laurent = st.builds(LaurentSeries, st.integers(-8, 8),
                          st.lists(st.one_of(st.just(0), complex_coeffs), min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(short_laurent, short_laurent)
@example(LaurentSeries(-3, [1, 2]), LaurentSeries(4, [5, 6, 7]))
@example(LaurentSeries(0, [1, 2, 3, 4]), LaurentSeries(1, [5]))
def test_laurent_sum_and_difference_match_the_per_degree_reference(a, b):
    for x, y in ((a, b), (b, a)):
        assert x + y == per_degree(x, y, operator.add)
        assert x - y == per_degree(x, y, operator.sub)


# -- equality ------------------------------------------------------------------

def test_equality_needs_equal_known_ranges():
    assert PowerSeries([1]) != PowerSeries([1, 99])
    assert PowerSeries([1, 0]) != PowerSeries([1])
    assert LaurentSeries(-1, [1, 2]) != LaurentSeries(-1, [1, 2, 3])
    assert PowerSeries([1, 2]) == LaurentSeries(0, [1, 2])
    assert PowerSeries([1, 2]) != LaurentSeries(0, [1, 2, 0])


def test_scalar_compares_as_constant_known_to_the_series_order():
    assert PowerSeries([3, 0, 0]) == 3
    assert 3 == LaurentSeries(0, [3, 0, 0])
    assert PowerSeries([3, 0, 1]) != 3
    assert LaurentSeries(-2, [0, 0, 3]) == 3
    assert LaurentSeries(-2, [1, 0, 3]) != 3


def _known(s):
    return [s.coefficient(k) for k in range(s.order + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.lists(rationals, min_size=1, max_size=6),
       power_series(order=4), st.one_of(rationals, complex_coeffs))
def test_power_series_reads_compares_and_prints_as_its_laurent_form(zeros, tail, q, c):
    # leading zeros give the Laurent form a positive valuation
    p = PowerSeries([0] * zeros + tail)
    L = p.as_laurent()
    n = p.order
    assert L.order == n
    for k in range(-2, n + 1):
        assert p.coefficient(k) == L.coefficient(k) == (p.coeffs[k] if k >= 0 else 0)
    for s in (p, L):
        with pytest.raises(InsufficientOrderError):
            s.coefficient(n + 1)
    assert str(p) == str(L)
    constant_head = not any(p.coeffs[1:])
    for x in (p, L):
        assert x == p and x == L and p == x and L == x
        if n:
            assert x != p.truncate(n - 1) and x != L.truncate(n - 1)
        assert (x == c) is (list(p.coeffs) == [c] + [0] * n) is (c == x)
        assert (x == p.coeffs[0]) is constant_head
    m = min(n, q.order)
    for x, qx in ((p, q), (L, q.as_laurent())):
        assert _known(x - qx) == [p.coeffs[k] - q.coeffs[k] for k in range(m + 1)]
        assert _known(c - x) == [c - p.coeffs[0]] + [-a for a in p.coeffs[1:]]
        assert _known(c + x) == [c + p.coeffs[0], *p.coeffs[1:]]
        assert _known(c * x) == [c * a for a in p.coeffs]


# -- algebraic laws ------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(power_series(), power_series(), power_series())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=25, deadline=None)
@given(power_series(), power_series(constant=Fraction(1)))
def test_divide_multiply_roundtrip(a, b):
    assert (a * b) * b.inverse() == a


@settings(max_examples=20, deadline=None)
@given(st.lists(rationals, min_size=ORDER - 1, max_size=ORDER - 1))
def test_reversion_roundtrip(tail):
    f = PowerSeries([0, 1] + tail)
    g = f.reversion()
    assert f.compose(g) == PowerSeries.monomial(1, ORDER)
    assert g.compose(f) == PowerSeries.monomial(1, ORDER)


@settings(max_examples=20, deadline=None)
@given(st.lists(rationals, min_size=ORDER, max_size=ORDER))
def test_exp_log_inverse_pair(tail):
    f = PowerSeries([0] + tail)
    assert log_series(exp_series(f)) == f


@settings(max_examples=15, deadline=None)
@given(power_series(order=8), power_series(order=8))
def test_exp_respects_addition(f, g):
    f = PowerSeries([0] + list(f.coeffs[1:]))
    g = PowerSeries([0] + list(g.coeffs[1:]))
    assert exp_series(f + g) == exp_series(f) * exp_series(g)


@settings(max_examples=25, deadline=None)
@given(laurent_series(), laurent_series())
def test_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@settings(max_examples=25, deadline=None)
@given(laurent_series(), laurent_series(), rationals.filter(bool))
def test_scale_argument_multiplicative(f, g, w):
    assert (f * g).scale_argument(w) == f.scale_argument(w) * g.scale_argument(w)


# -- trusted builders ----------------------------------------------------------------

def assert_trusted(s):
    """Q(i) coefficients only, in the series' normal form: a power series
    from degree 0, a Laurent series with a nonzero lead or one zero."""
    assert s.coeffs and all(type(c) is GaussianRational for c in s.coeffs), repr(s)
    if isinstance(s, PowerSeries):
        assert s.valuation == 0
    else:
        assert s.coeffs[0] or len(s.coeffs) == 1, repr(s)


mixed = st.one_of(rationals, st.integers(-9, 9), complex_coeffs)


def unit_power_series(order=6, constant=None):
    """Power series on int, Fraction and Q(i) input, so that every result
    below comes from a kernel that was handed coerced coefficients."""
    head = st.just(constant) if constant is not None else mixed
    return st.builds(lambda c0, tail: PowerSeries([c0] + tail),
                     head, st.lists(mixed, min_size=order, max_size=order))


@settings(max_examples=40, deadline=None)
@given(unit_power_series(), unit_power_series(), mixed, mixed.filter(bool),
       st.lists(mixed, min_size=6, max_size=6), st.integers(0, 6))
def test_power_series_operations_return_trusted_coefficients(f, g, q, w, tail, k):
    zero_head = PowerSeries([0] + tail)
    results = [f + g, f + q, q + f, f - g, q - f, -f, f * g, f * q, q * f,
               f.scale_argument(w), f.scale_argument(0), f.truncate(k), f.as_laurent(),
               f.compose(zero_head), exp_series(zero_head),
               log_series(PowerSeries([1] + tail)), f.as_laurent().power_part()]
    if f.coeffs[0]:
        results.append(f.inverse())
    if tail[0]:
        results.append(zero_head.reversion())
    for r in results:
        assert_trusted(r)


@settings(max_examples=40, deadline=None)
@given(laurent_series(), laurent_series(), mixed, mixed.filter(bool), st.integers(-4, 8))
def test_laurent_operations_return_trusted_coefficients(a, b, q, w, k):
    results = [a + b, a + q, q + a, a - b, q - a, -a, a * b, a * q, q * a,
               a.scale_argument(w), a.derivative(), a.as_laurent(), a.truncate(min(k, a.order))]
    if a.valuation >= 0 or a.is_zero:
        if a.order >= 0:
            results.append(a.power_part())
        if a.valuation >= 0:
            results.append(a.scale_argument(0))
    for r in results:
        assert_trusted(r)


def test_log_series_has_the_q_i_zero_at_degree_zero():
    L = log_series(PowerSeries([1, 1, 0, 0]))
    assert type(L.coefficient(0)) is GaussianRational and not L.coefficient(0)


# -- JSON ------------------------------------------------------------------------------

def test_json_roundtrip():
    f = LaurentSeries(-2, [GaussianRational(Fraction(1, 3), 2), GR_ONE, GR_ZERO, GaussianRational(-4)])
    data = series_to_json(f)
    assert data["valuation"] == -2
    assert data["coeffs"][0] == {"re": "1/3", "im": "2"}
    g = series_from_json(data)
    assert g == f and g.valuation == f.valuation and g.order == f.order


def test_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        series_from_json({"valuation": 0, "order": 2, "coeffs": []})
    with pytest.raises(ValueError):
        series_from_json({"order": 2, "coeffs": []})

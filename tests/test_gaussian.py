import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzebruch.gaussian import (
    GR_I,
    GaussianRational,
    as_gaussian,
    dot,
    format_gaussian,
    parse_gaussian,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
# every operand form the kernels use: the int 0 that sums start from,
# 1/k from the exp and log recurrences, ints, Fractions and Q(i) values
operands = st.one_of(st.just(0), st.builds(lambda k: Fraction(1, k), st.integers(1, 64)),
                     st.integers(-10**6, 10**6), rationals, gaussians)


def reference(x):
    """(re, im) as a plain pair of Fractions."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def reference_result(op, x, y):
    (a, b), (c, d) = reference(x), reference(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def assert_canonical(z):
    assert isinstance(z, GaussianRational)
    # lowest terms: the value equals the one built from its own parts, and
    # a real value equals (and hashes as) its Fraction
    assert z == GaussianRational(z.re, z.im)
    if z.is_real:
        assert hash(z) == hash(z.re)
        assert z == z.re and {z.re: "entry"}[z] == "entry"
        if z.re.denominator == 1:
            assert z == int(z.re) and {int(z.re): "entry"}[z] == "entry"
    else:
        assert hash(z) == hash((z.re, z.im))


@given(operands, operands)
def test_operations_match_a_fraction_pair_reference(x, y):
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        y = as_gaussian(y)
    ops = {"+": lambda p, q: p + q, "-": lambda p, q: p - q,
           "*": lambda p, q: p * q, "/": lambda p, q: p / q}
    for name, op in ops.items():
        if name == "/" and not y:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        z = op(x, y)
        assert (z.re, z.im) == reference_result(name, x, y)
        assert_canonical(z)


# dot's entries: zero, real, pure imaginary and general values over
# denominators that divide each other (2 | 4 | 8, 3 | 6 | 12) or are coprime
dot_entries = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.sampled_from([0, 0, 1, -1, 2, 3, -5, 7, 10**9 + 7]),
    st.sampled_from([0, 0, 1, -1, 4, -9, 11]),
    st.sampled_from([1, 2, 4, 8, 3, 6, 12, 5, 7, 11]))


@given(st.lists(st.tuples(dot_entries, dot_entries), max_size=8))
def test_dot_matches_a_fraction_pair_reference_sum(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    re = im = Fraction(0)
    for x, y in pairs:
        a, b = reference_result("*", x, y)
        re, im = re + a, im + b
    z = dot(xs, ys)
    # == compares the lowest-terms parts with those of the reference
    assert z == GaussianRational(re, im)
    assert (z.re, z.im) == (re, im)
    assert_canonical(z)
    if not im:
        assert hash(z) == hash(re)


@given(operands)
def test_coerced_values_are_canonical(x):
    z = as_gaussian(x)
    assert reference(z) == reference(x)
    assert_canonical(z)
    assert_canonical(-z)
    assert_canonical(GaussianRational(z.re, -z.im))


def test_basic_arithmetic():
    z = GaussianRational(1, 2)
    w = GaussianRational(Fraction(1, 2), -1)
    assert z + w == GaussianRational(Fraction(3, 2), 1)
    assert z * w == GaussianRational(Fraction(5, 2), 0)
    assert z - z == 0
    assert GR_I * GR_I == -1


def test_division_and_norm():
    z = GaussianRational(3, 4)
    assert z / z == 1
    assert z * GaussianRational(3, -4) == 25
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_powers():
    z = GaussianRational(1, 1)
    assert z ** 2 == GaussianRational(0, 2)
    assert z ** 0 == 1
    assert z ** -2 == 1 / (z * z)


@pytest.mark.parametrize("text,expected", [
    ("3", GaussianRational(3)),
    ("-3/4", GaussianRational(Fraction(-3, 4))),
    ("i", GR_I),
    ("-i", -GR_I),
    ("2i", GaussianRational(0, 2)),
    ("1/2+2/3i", GaussianRational(Fraction(1, 2), Fraction(2, 3))),
    ("1-i", GaussianRational(1, -1)),
])
def test_parse(text, expected):
    assert parse_gaussian(text) == expected


@pytest.mark.parametrize("text", ["", "1+2", "i+i", "+", "1/0", "1e3", "0.5", "1_000"])
def test_parse_rejects_garbage(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_gaussian(text)


def test_the_constructor_reads_text_by_the_same_rule():
    assert GaussianRational("-3/4", "2") == GaussianRational(Fraction(-3, 4), 2)
    for text in ("1e3", "0.5", " 1", "1/0"):
        with pytest.raises(ValueError):
            GaussianRational(text)


@given(gaussians)
def test_format_parse_roundtrip(z):
    assert parse_gaussian(format_gaussian(z)) == z


@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


@pytest.mark.parametrize("z", [
    GaussianRational(Fraction(1, 4)),
    GaussianRational(-1),
    GaussianRational(0, 2),
    GaussianRational(3, 4),
    GaussianRational(Fraction(-5, 8), Fraction(3, 2)),
])
def test_sqrt_square_roundtrip(z):
    root = (z * z).sqrt()
    assert root is not None
    assert root * root == z * z
    # principal branch
    assert root.re > 0 or (root.re == 0 and root.im >= 0)


def test_sqrt_missing():
    assert GaussianRational(2).sqrt() is None
    # sqrt(i) = (1+i)/sqrt(2) lies outside Q(i)
    assert GR_I.sqrt() is None


def test_sqrt_check_raises_without_assert(monkeypatch):
    # a wrong root must raise even under python -O, where asserts vanish
    monkeypatch.setattr("hirzebruch.gaussian._rational_sqrt", lambda q: Fraction(1))
    with pytest.raises(ArithmeticError):
        GaussianRational(3, 4).sqrt()


def reference_sqrt(x):
    """(re, im) of the principal root of a rational x, or None, from isqrt alone."""
    s = abs(x)
    n, d = math.isqrt(s.numerator), math.isqrt(s.denominator)
    if n * n != s.numerator or d * d != s.denominator:
        return None
    return (Fraction(n, d), 0) if x >= 0 else (0, Fraction(n, d))


@given(st.one_of(rationals.map(lambda q: q * q), rationals.map(lambda q: -q * q),
                 rationals, st.just(Fraction(0))))
def test_sqrt_of_a_real_matches_a_fraction_reference(x):
    # one formula serves real inputs too: sqrt(x) for x >= 0, i*sqrt(-x) below
    root = GaussianRational(x).sqrt()
    expected = reference_sqrt(x)
    if expected is None:
        assert root is None
    else:
        assert (root.re, root.im) == expected
        assert root * root == x


def test_sqrt_negative_rational():
    root = GaussianRational(-Fraction(9, 4)).sqrt()
    assert root == GaussianRational(0, Fraction(3, 2))

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzebruch.gaussian import (
    GR_I,
    GaussianRational,
    format_gaussian,
    parse_gaussian,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


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
    assert (z * z.conjugate()).re == z.norm() == 25
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


@pytest.mark.parametrize("text", ["", "1+2", "i+i", "+", "1/0"])
def test_parse_rejects_garbage(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_gaussian(text)


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


@given(gaussians)
def test_conjugation_involution(z):
    assert z.conjugate().conjugate() == z
    assert (z.norm() == 0) == (not z)


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


def test_sqrt_negative_rational():
    root = GaussianRational(-Fraction(9, 4)).sqrt()
    assert root == GaussianRational(0, Fraction(3, 2))

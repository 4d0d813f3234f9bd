import ast
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hirzebruch
from hirzebruch.gaussian import (
    GR_I,
    GaussianRational,
    as_gaussian,
    dot,
    format_gaussian,
    integer_parts,
    parse_gaussian,
)
from reference import pair, pair_power, pair_result, reference_sqrt

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
# every operand form the kernels use: the int 0 that sums start from,
# 1/k from the exp and log recurrences, ints, Fractions and Q(i) values
operands = st.one_of(st.just(0), st.builds(lambda k: Fraction(1, k), st.integers(1, 64)),
                     st.integers(-10**6, 10**6), rationals, gaussians)
# ints above 2^64 of either sign, and Q(i) values with such parts
big_ints = st.integers(2**64, 2**100).flatmap(lambda n: st.sampled_from([n, -n]))
big_rationals = st.builds(Fraction, big_ints, st.integers(1, 2**80))
big_gaussians = st.builds(GaussianRational, big_rationals, big_rationals)


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
        assert (z.re, z.im) == pair_result(name, x, y)
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
        a, b = pair_result("*", x, y)
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
    assert pair(z) == pair(x)
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


@given(operands, st.integers(-7, 9))
def test_negation_and_powers_match_the_fraction_pair_reference(x, e):
    z = as_gaussian(x)
    re, im = pair(x)
    assert pair(-z) == (-re, -im)
    assert_canonical(-z)
    if e < 0 and not z:
        with pytest.raises(ZeroDivisionError):
            z ** e
        return
    assert pair(z ** e) == pair_power(x, e)
    assert_canonical(z ** e)


@given(st.lists(st.one_of(st.just(GaussianRational(0)), gaussians), max_size=6))
def test_integer_parts_are_numerators_over_the_lcm_denominator(zs):
    re, im, den = integer_parts(zs)
    assert den == math.lcm(*(z.re.denominator for z in zs), *(z.im.denominator for z in zs))
    assert [GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)] == zs
    assert all(type(v) is int for v in re + im)


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
    ("1/2 + 2/3i", GaussianRational(Fraction(1, 2), Fraction(2, 3))),  # spaces beside a sign
    (" i + 1 ", GaussianRational(1, 1)),  # or at either end
])
def test_parse(text, expected):
    assert parse_gaussian(text) == expected


@pytest.mark.parametrize("text", ["", "1+2", "i+i", "+", "1/0", "1e3", "0.5", "1_000",
                                  "1 2", "1 0/3", "3 i"])
def test_parse_rejects_garbage(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_gaussian(text)


@pytest.mark.parametrize("text, piece", [("1/2+3 i", "'+3 '"), ("1/0i", "'1/0'"),
                                         ("1e3-i", "'1e3'"), ("2 - 1_0i", "'-1_0'")])
def test_a_refused_piece_names_the_whole_literal(text, piece):
    with pytest.raises(ValueError, match=re.escape(f"{piece} in {text!r}")):
        parse_gaussian(text)


def test_the_constructor_reads_text_by_the_same_rule():
    assert GaussianRational("-3/4", "2") == GaussianRational(Fraction(-3, 4), 2)
    for text in ("1e3", "0.5", " 1", "1/0"):
        with pytest.raises(ValueError):
            GaussianRational(text)


@pytest.mark.parametrize("args", [(0.1,), (0, 0.5), (Decimal("0.1"),), (1j,)],
                         ids=["float", "float-imaginary", "decimal", "complex"])
def test_the_constructor_refuses_what_as_gaussian_refuses(args):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        GaussianRational(*args)
    with pytest.raises(TypeError):
        as_gaussian(args[-1])


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
    monkeypatch.setattr("hirzebruch.gaussian._exact_isqrt", lambda n: 1)
    with pytest.raises(ArithmeticError):
        GaussianRational(3, 4).sqrt()


roots = st.one_of(gaussians, big_gaussians)


@given(st.one_of(roots.map(lambda z: z * z), roots.map(lambda z: -z * z), roots,
                 st.just(GaussianRational(0))))
def test_sqrt_matches_the_fraction_formula(z):
    # squares, negated squares and (mostly non-square) arbitrary values
    root = z.sqrt()
    expected = reference_sqrt(z)
    if expected is None:
        assert root is None
    else:
        assert pair(root) == expected
        assert root * root == z
        assert_canonical(root)


@given(st.one_of(gaussians, big_gaussians, st.just(GaussianRational(0))),
       st.one_of(st.integers(-10**6, 10**6), big_ints, rationals, big_rationals,
                 rationals.map(GaussianRational), big_rationals.map(GaussianRational)))
def test_division_by_a_real_matches_the_fraction_pair_reference(z, c):
    if not c:
        with pytest.raises(ZeroDivisionError):
            z / c
        return
    q = z / c
    assert pair(q) == pair_result("/", z, c)
    assert_canonical(q)


def test_only_the_gaussian_module_imports_fractions():
    # Q(i) is the one number type inside the library; Fraction is for its boundary
    importers = set()
    for path in Path(hirzebruch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "fractions" for name in names):
                importers.add(path.name)
    assert importers == {"gaussian.py"}


def reference_real_sqrt(x):
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
    expected = reference_real_sqrt(x)
    if expected is None:
        assert root is None
    else:
        assert (root.re, root.im) == expected
        assert root * root == x


def test_sqrt_negative_rational():
    root = GaussianRational(-Fraction(9, 4)).sqrt()
    assert root == GaussianRational(0, Fraction(3, 2))

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch import catalog
from hirzebruch.catalog import (
    CharacteristicSeries,
    SeriesSpec,
    closed_form_cpn,
    construct,
    format_spec,
    h_n,
    novikov_g,
    parse_spec,
    verify_novikov,
)
from hirzebruch.gaussian import GR_I, GR_ONE, GaussianRational, as_gaussian, parse_gaussian
from hirzebruch.series import InsufficientOrderError, PowerSeries, truncated_product


def rand_fraction(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if q or not nonzero:
            return q


# -- spec parsing ------------------------------------------------------------

def test_parse_spec_grammar():
    spec = parse_spec("dab:a=1,b=1/2")
    assert spec.family == "dab"
    assert spec.params["a"] == 1 and spec.params["b"] == Fraction(1, 2)
    assert parse_spec("gab:a=i,b=0").params["a"] == GR_I
    with pytest.raises(ValueError):
        parse_spec("file:x")  # a series file is a CLI input, not a family
    assert format_spec(spec) == "dab:a=1,b=1/2"


@pytest.mark.parametrize("text", ["nope", "euler", "euler:b=1", "dab:a=1", "txy:x=2,y=3,z=1", "file:",
                                  "dab:a=1,a=2,b=0"])
def test_parse_spec_rejects(text):
    with pytest.raises(ValueError):
        parse_spec(text)


# -- construction -------------------------------------------------------------

def test_euler_series():
    H = construct(parse_spec("euler:a=2"), 3)
    assert H.series == PowerSeries([1, 2, 0, 0])


def test_todd_series():
    # oracle: t/(1 - e^{-t}) by direct series division (test_series covers it)
    H = construct(parse_spec("todd"), 4)
    assert H.series == PowerSeries([1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)])


def test_dab_coth_expansion():
    # oracle: t*cosh(t)/sinh(t) = 1 + t^2/3 - t^4/45 + ...
    H = construct(parse_spec("dab:a=1,b=0"), 4)
    assert H.series == PowerSeries([1, 0, Fraction(1, 3), 0, Fraction(-1, 45)])


def test_dab_a_zero_is_euler():
    b = Fraction(5, 3)
    H = construct(SeriesSpec("dab", {"a": GaussianRational(0), "b": GaussianRational(b)}), 8)
    E = construct(SeriesSpec("euler", {"a": GaussianRational(b)}), 8)
    assert H.series == E.series


def test_txy_removable_singularity():
    # x + y = 0 resolves to the Euler series in x
    H = construct(parse_spec("txy:x=3,y=-3"), 8)
    assert H.series == construct(parse_spec("euler:a=3"), 8).series


def test_dab_equals_shifted_txy():
    rng = random.Random(11)
    for _ in range(5):
        a, b = rand_fraction(rng), rand_fraction(rng)
        d = construct(SeriesSpec("dab", {"a": GaussianRational(a), "b": GaussianRational(b)}), 12)
        t = construct(SeriesSpec("txy", {"x": GaussianRational(a + b), "y": GaussianRational(a - b)}), 12)
        assert d.series == t.series


def test_gab_is_dab_with_imaginary_a():
    rng = random.Random(12)
    a, b = rand_fraction(rng, nonzero=True), rand_fraction(rng)
    g = construct(SeriesSpec("gab", {"a": GaussianRational(a), "b": GaussianRational(b)}), 12)
    d = construct(SeriesSpec("dab", {"a": GaussianRational(0, a), "b": GaussianRational(b)}), 12)
    assert g.series == d.series
    assert all(c.is_real for c in g.series.coeffs)


def test_dab_even_after_removing_linear_term():
    rng = random.Random(13)
    for _ in range(5):
        a, b = rand_fraction(rng), rand_fraction(rng)
        H = construct(SeriesSpec("dab", {"a": GaussianRational(a), "b": GaussianRational(b)}), 12)
        assert H.r(1) == b
        for k in range(3, 13, 2):
            assert not H.series.coefficient(k)


def akiyama_tanigawa_bernoulli(n):
    """B_0..B_n with B_1 = -1/2, by the Akiyama-Tanigawa triangle."""
    row, out = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    out[1] = -out[1]
    return out


# (x, y) of H_{x,y}(t) = x*t + s*t/(e^{st} - 1), s = x + y, from each
# family's defining series: 1 + a*t, t/(1 - e^{-t}), t*(a*coth(a*t) + b)
# (coth u = 1 + 2/(e^{2u} - 1)) and t*(a*cot(a*t) + b) (cot u = i*coth(i*u)).
ORACLE_XY = {
    "euler": lambda p: (p["a"], -p["a"]),
    "todd": lambda p: (1, 0),
    "ty": lambda p: (1, p["y"]),
    "txy": lambda p: (p["x"], p["y"]),
    "dab": lambda p: (p["a"] + p["b"], p["a"] - p["b"]),
    "gab": lambda p: (GR_I * p["a"] + p["b"], GR_I * p["a"] - p["b"]),
}


@pytest.mark.parametrize("text", [
    "euler:a=0", "euler:a=3/2", "euler:a=1/2+2i", "todd", "ty:y=-1/3", "ty:y=2i",
    "txy:x=2,y=1/3", "txy:x=1+i,y=-1/2i", "dab:a=1,b=1/2", "dab:a=1/2+3i,b=-1",
    "gab:a=1,b=0", "gab:a=2/3,b=1-i",
])
def test_coefficients_match_bernoulli_oracle(text):
    # H_{x,y} = x*t + sum_k B_k (s*t)^k / k!, with B_k from an independent recurrence;
    # one real and one complex case reach order 64, past the inverse's degree 40
    order = 64 if text in ("dab:a=1,b=1/2", "dab:a=1/2+3i,b=-1") else 30
    spec = parse_spec(text)
    x, y = map(as_gaussian, ORACLE_XY[spec.family](spec.params))
    s = x + y
    bernoulli = akiyama_tanigawa_bernoulli(order)
    expected = [bernoulli[k] * s ** k / math.factorial(k) for k in range(order + 1)]
    expected[1] = expected[1] + x
    assert construct(spec, order).series == PowerSeries(expected)


def hxy_by_inverse(x, y, order):
    """The reference H_{x,y}: 1/phi + x*t, phi = (e^{st} - 1)/(st), inverted
    over Q(i) for each (x, y)."""
    s = x + y
    phi = PowerSeries([s ** k / math.factorial(k + 1) for k in range(order + 1)])
    return phi.inverse() + PowerSeries([0, x] + [0] * (order - 1))


EVERY_FAMILY = ["euler:a=3/2", "euler:a=1/2+2i", "todd", "ty:y=-1/3", "ty:y=2i",
                "txy:x=2,y=1/3", "txy:x=1+i,y=-1/2i", "dab:a=1,b=1/2", "dab:a=1/2+3i,b=-1",
                "gab:a=2/3,b=1/5", "gab:a=2/3,b=1-i"]


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_construct_matches_the_inverse_of_phi_path(text):
    spec = parse_spec(text)
    x, y = map(as_gaussian, ORACLE_XY[spec.family](spec.params))
    reference = hxy_by_inverse(x, y, 64)
    for order in range(2, 65):
        assert construct(spec, order).series == reference.truncate(order)


@pytest.mark.parametrize("first, second", [(9, 33), (33, 9), (0, 9), (9, 1)])
def test_construct_at_a_lower_order_is_a_prefix(monkeypatch, first, second):
    # at orders 0 and 1 too: x lands at degree 1 only when degree 1 is known
    monkeypatch.setattr(catalog, "_TODD", ())
    spec = parse_spec("gab:a=2/3,b=1-i")
    results = {n: construct(spec, n).series for n in (first, second)}
    low, high = sorted(results)
    assert results[low] == results[high].truncate(low)
    assert results[low].coeffs[:2] == (GR_ONE, parse_gaussian("1-i"))[:low + 1]


def test_todd_table_is_a_tuple_built_to_the_order_asked(monkeypatch):
    monkeypatch.setattr(catalog, "_TODD", ())
    for order, kept in ((20, 21), (10, 21), (21, 22), (257, 258), (3, 258)):
        construct(parse_spec("todd"), order)
        assert type(catalog._TODD) is tuple and len(catalog._TODD) == kept


def test_first_construct_at_order_512_is_not_slower_than_the_inverse_of_phi(monkeypatch):
    # the table's first build, on a cold cache, replaces one inverse over Q(i);
    # the best of two interleaved runs each rides out a change of host speed
    spec = parse_spec("dab:a=1/2+3i,b=-1")
    cold, by_inverse = [], []
    for _ in range(2):
        monkeypatch.setattr(catalog, "_TODD", ())
        start = time.process_time()
        H = construct(spec, 512)
        cold.append(time.process_time() - start)
        start = time.process_time()
        reference = hxy_by_inverse(*catalog._xy(spec), 512)
        by_inverse.append(time.process_time() - start)
        assert H.series == reference
    assert min(cold) <= min(by_inverse)


def test_characteristic_series_validation():
    with pytest.raises(ValueError):
        CharacteristicSeries(PowerSeries([2, 0, 0]))
    assert CharacteristicSeries(PowerSeries([1])).order == 0  # any known order will do
    with pytest.raises(ValueError):
        construct(parse_spec("todd"), -1)


# -- h_n ----------------------------------------------------------------------

def test_h_n_todd_all_one():
    H = construct(parse_spec("todd"), 12)
    assert all(h_n(H, n) == 1 for n in range(13))


def test_h_n_euler():
    a = Fraction(-3, 2)
    H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 10)
    for n in range(11):
        assert h_n(H, n) == (n + 1) * a ** n


def test_h_n_signature_cp2():
    H = construct(parse_spec("txy:x=1,y=1"), 4)
    assert h_n(H, 2) == 1


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
gaussians = st.builds(GaussianRational, small_rationals, small_rationals)


@pytest.mark.parametrize("coeff", [small_rationals, gaussians], ids=["real", "complex"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=10), data=st.data())
def test_h_n_matches_repeated_truncated_product(coeff, n, data):
    # h_n reads log H, as K_n does, so the (n+1)-th power is rebuilt
    # here by plain truncated products, independently of exp and log.
    coeffs = [1] + data.draw(st.lists(coeff, min_size=max(n, 2), max_size=max(n, 2)))
    H = CharacteristicSeries(PowerSeries(coeffs))
    head = [as_gaussian(c) for c in coeffs[: n + 1]]
    power = head
    for _ in range(n):
        power = truncated_product(power, head)
    assert h_n(H, n) == power[n]


def test_h_n_insufficient_order():
    H = construct(parse_spec("todd"), 4)
    with pytest.raises(InsufficientOrderError):
        h_n(H, 5)


def test_h0_and_h1_for_random_series():
    rng = random.Random(21)
    coeffs = [1] + [rand_fraction(rng) for _ in range(6)]
    H = CharacteristicSeries(PowerSeries(coeffs))
    assert h_n(H, 0) == 1
    assert h_n(H, 1) == 2 * H.r(1)


# -- Novikov correspondence -----------------------------------------------------

def test_novikov_g_todd():
    H = construct(parse_spec("todd"), 8)
    g = novikov_g(H, 8)
    assert g == PowerSeries([0] + [Fraction(1, k) for k in range(1, 9)])


def test_novikov_g_euler():
    a = Fraction(2)
    H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 8)
    g = novikov_g(H, 8)
    assert g == PowerSeries([0] + [a ** (k - 1) for k in range(1, 9)])


def test_novikov_g_trivial_series():
    H = CharacteristicSeries(PowerSeries([1, 0, 0, 0, 0]))
    assert novikov_g(H, 4) == PowerSeries([0, 1, 0, 0, 0])


@pytest.mark.parametrize("text", ["dab:a=1,b=1/2", "dab:a=1/2+3i,b=-1", "gab:a=1,b=0",
                                  "euler:a=3"])
def test_novikov_g_is_h_n_over_n_plus_one(text):
    # novikov_g reads one log of H for every degree; h_n takes its own
    H = construct(parse_spec(text), 24)
    for order in (0, 1, 24):
        expected = PowerSeries([0] + [h_n(H, n) / (n + 1) for n in range(order)])
        assert novikov_g(H, order) == expected


@pytest.mark.parametrize("text", ["dab:a=1,b=1/2", "dab:a=1/2+3i,b=-1"])
def test_novikov_g_needs_h_only_to_order_minus_one(text):
    # the t^order coefficient is h_(order-1)/order, which reads r_1..r_(order-1)
    H = construct(parse_spec(text), 10)
    order = H.order + 1
    expected = PowerSeries([0] + [h_n(H, n) / (n + 1) for n in range(order)])
    assert novikov_g(H, order) == expected
    with pytest.raises(InsufficientOrderError):
        novikov_g(H, H.order + 2)


def test_verify_novikov_todd_and_euler():
    assert verify_novikov(construct(parse_spec("todd"), 10), 10).ok
    assert verify_novikov(construct(parse_spec("euler:a=3"), 10), 10).ok


def test_verify_novikov_holds_even_after_corruption():
    # Both routes recompute from the same series, so the correspondence is
    # an identity of exact arithmetic (Lagrange inversion); corrupting a
    # coefficient moves both sides together and the check still passes.
    H = construct(parse_spec("todd"), 10)
    coeffs = list(H.series.coeffs)
    coeffs[2] = coeffs[2] + 1
    bad = CharacteristicSeries(PowerSeries(coeffs))
    assert verify_novikov(bad, 10).ok
    # what the corruption does break: agreement with -log(1-t)
    g = novikov_g(bad, 10)
    minus_log = PowerSeries([0] + [Fraction(1, k) for k in range(1, 11)])
    assert g != minus_log
    # h_2 = 3*r2 + 3*r1^2 absorbs the bump, so t^3 is the first disagreement
    assert g.coefficient(2) == minus_log.coefficient(2)
    assert g.coefficient(3) != minus_log.coefficient(3)


# -- closed forms -----------------------------------------------------------------

def test_closed_form_examples():
    assert closed_form_cpn(parse_spec("txy:x=2,y=3"), 2) == 7
    assert closed_form_cpn(parse_spec("ty:y=0"), 5) == 1
    assert closed_form_cpn(parse_spec("gab:a=1,b=0"), 1) == 0


def test_closed_form_gab_matches_paper_quotient():
    # ((b+ia)^(n+1) - (b-ia)^(n+1)) / (2ia)
    rng = random.Random(31)
    for _ in range(5):
        a = GaussianRational(rand_fraction(rng, nonzero=True))
        b = GaussianRational(rand_fraction(rng))
        spec = SeriesSpec("gab", {"a": a, "b": b})
        ia = GR_I * a
        for n in range(6):
            expected = ((b + ia) ** (n + 1) - (b - ia) ** (n + 1)) / (2 * ia)
            assert closed_form_cpn(spec, n) == expected


def test_closed_form_agrees_with_h_n_across_catalog():
    rng = random.Random(41)
    specs = [
        parse_spec("todd"),
        SeriesSpec("euler", {"a": GaussianRational(rand_fraction(rng))}),
        SeriesSpec("ty", {"y": GaussianRational(rand_fraction(rng))}),
        SeriesSpec("txy", {"x": GaussianRational(rand_fraction(rng)),
                           "y": GaussianRational(rand_fraction(rng))}),
        SeriesSpec("dab", {"a": GaussianRational(rand_fraction(rng)),
                           "b": GaussianRational(rand_fraction(rng))}),
        SeriesSpec("gab", {"a": GaussianRational(rand_fraction(rng)),
                           "b": GaussianRational(rand_fraction(rng))}),
    ]
    for spec in specs:
        H = construct(spec, 8)
        for n in range(9):
            assert closed_form_cpn(spec, n) == h_n(H, n), (spec, n)

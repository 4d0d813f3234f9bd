import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch.catalog import (
    FAMILIES,
    CharacteristicSeries,
    SeriesSpec,
    construct,
    h_n,
    parse_spec,
)
from hirzebruch.chern import (
    GradedPoly,
    chern_data_from_json,
    cpn_chern_numbers,
    evaluate_genus,
    k_polynomials,
    make_partition,
    multiplicative_sequence,
    partitions,
    power_sum,
)
from hirzebruch.gaussian import GaussianRational, dot
from hirzebruch.series import PowerSeries, exp_coefficients, log_coefficients, log_series
from reference import evaluate_k


def chern_class(j):
    return GradedPoly(j, {(j,): 1})


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def rand_series(rng, order):
    return CharacteristicSeries(PowerSeries([1] + [rand_fraction(rng) for _ in range(order)]))


# -- partitions ------------------------------------------------------------------

def test_partitions_reverse_lex():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)


def test_make_partition_canonical():
    assert make_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        make_partition([2, 0])


# -- power sums --------------------------------------------------------------------

def test_power_sum_base_cases():
    assert power_sum(1) == GradedPoly(1, {(1,): 1})
    assert power_sum(2) == GradedPoly(2, {(1, 1): 1, (2,): -2})


def test_cached_power_sum_is_read_only():
    p3 = power_sum(3)
    with pytest.raises(TypeError):
        p3.terms[(3,)] = 0
    with pytest.raises(AttributeError):
        p3.values = ()
    with pytest.raises(AttributeError):
        del p3.degree
    assert p3.terms == {(3,): 3, (2, 1): -3, (1, 1, 1): 1}
    assert p3 == GradedPoly(3, dict(p3.terms))


def test_power_sum_numeric_roots():
    # roots {1, 1}: c1 = 2, c2 = 1, higher c vanish; p_m = 1^m + 1^m = 2
    values = [2, 1, 0, 0, 0, 0]
    for m in range(1, 7):
        assert evaluate_k(power_sum(m), values) == 2


def test_power_sum_three_roots():
    # roots {1, 2, 3}: elementary symmetric values 6, 11, 6
    roots = [1, 2, 3]
    values = [6, 11, 6, 0, 0, 0]
    for m in range(1, 7):
        assert evaluate_k(power_sum(m), values) == sum(r ** m for r in roots)


# -- multiplicative sequence ----------------------------------------------------------

def test_euler_sequence_is_scaled_top_chern():
    a = Fraction(3, 2)
    H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 6)
    for n in range(1, 6):
        K = multiplicative_sequence(H, n)
        assert K == GradedPoly(n, {(n,): a ** n})


def test_todd_k2():
    H = construct(parse_spec("todd"), 4)
    K2 = multiplicative_sequence(H, 2)
    assert K2 == GradedPoly(2, {(1, 1): Fraction(1, 12), (2,): Fraction(1, 12)})


def test_kn_at_projective_generator_returns_r_n():
    rng = random.Random(7)
    H = rand_series(rng, 10)
    ones = [1] + [0] * 9
    for n in range(1, 11):
        K = multiplicative_sequence(H, n)
        assert evaluate_k(K, ones) == H.r(n)


def test_multiplicativity_defining_property():
    rng = random.Random(8)
    for _ in range(3):
        H = rand_series(rng, 8)
        ks = k_polynomials(H, 8)
        a = [rand_fraction(rng) for _ in range(4)]
        b = [rand_fraction(rng) for _ in range(4)]
        c = _poly_product(a, b, 8)
        ta = _k_transform(ks, a, 8)
        tb = _k_transform(ks, b, 8)
        tc = _k_transform(ks, c, 8)
        assert tc == _poly_product_gr(ta, tb, 8)


def _poly_product(a, b, top):
    # coefficients of (1 + sum a_i t^i)(1 + sum b_j t^j) minus the leading 1
    full_a = [Fraction(1)] + list(a)
    full_b = [Fraction(1)] + list(b)
    out = []
    for k in range(1, top + 1):
        acc = Fraction(0)
        for i in range(k + 1):
            if i < len(full_a) and k - i < len(full_b):
                acc += full_a[i] * full_b[k - i]
        out.append(acc)
    return out


def _poly_product_gr(a, b, top):
    full_a = [GaussianRational(1)] + list(a)
    full_b = [GaussianRational(1)] + list(b)
    out = []
    for k in range(1, top + 1):
        acc = GaussianRational(0)
        for i in range(k + 1):
            if i < len(full_a) and k - i < len(full_b):
                acc = acc + full_a[i] * full_b[k - i]
        out.append(acc)
    return out


def _k_transform(ks, cvalues, top):
    padded = list(cvalues) + [Fraction(0)] * (top - len(cvalues))
    return [evaluate_k(ks[m], padded) for m in range(1, top + 1)]


# -- Chern data and evaluation ------------------------------------------------------

def test_cpn_chern_numbers_cp1_cp2():
    assert cpn_chern_numbers(1).terms[(1,)] == 2
    cp2 = cpn_chern_numbers(2)
    assert cp2.terms[(1, 1)] == 9
    assert cp2.terms[(2,)] == 3


def test_cpn_top_chern_is_euler_characteristic():
    for n in range(1, 7):
        assert cpn_chern_numbers(n).terms[(n,)] == n + 1


def test_todd_genus_of_cp2():
    H = construct(parse_spec("todd"), 4)
    value = evaluate_genus(multiplicative_sequence(H, 2), cpn_chern_numbers(2))
    assert value == 1


def test_evaluate_genus_zero_data_and_mismatch():
    H = construct(parse_spec("todd"), 4)
    K2 = multiplicative_sequence(H, 2)
    assert evaluate_genus(K2, GradedPoly(2, {})) == 0
    with pytest.raises(ValueError):
        evaluate_genus(K2, cpn_chern_numbers(3))


def pair(z):
    """z as an (re, im) pair of Fractions."""
    return z.re, z.im


def pair_product(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def pair_sum(pairs):
    pairs = list(pairs)
    return sum(re for re, _ in pairs), sum(im for _, im in pairs)


def rand_gaussian(rng):
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def test_evaluate_genus_matches_a_fraction_pair_reference_sum():
    rng = random.Random(16)
    lams = partitions(4)
    cases = [(set(lams), set(lams)),              # full overlap
             (set(lams), set(lams[1:])),          # a K term missing from X
             (set(lams[:-1]), set(lams)),         # an X number missing from K
             (set(lams[:2]), set(lams[2:]))]      # empty overlap: the sum is 0
    for _ in range(20):
        cases.append(({lam for lam in lams if rng.random() < 0.6},
                      {lam for lam in lams if rng.random() < 0.6}))
    for k_keys, x_keys in cases:
        k_values = {lam: rand_gaussian(rng) for lam in k_keys}
        x_values = {lam: rand_gaussian(rng) for lam in x_keys}
        expected = pair_sum(pair_product(pair(k_values[lam]), pair(x_values[lam]))
                            for lam in k_keys & x_keys)
        assert pair(evaluate_genus(GradedPoly(4, k_values), GradedPoly(4, x_values))) == expected


def test_genus_of_cpn_matches_h_n_across_catalog():
    rng = random.Random(9)
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
        H = construct(spec, 6)
        for n in range(1, 7):
            K = multiplicative_sequence(H, n)
            assert evaluate_genus(K, cpn_chern_numbers(n)) == h_n(H, n), (spec, n)


def test_chern_data_json_roundtrip():
    data = {"dimension": 3, "numbers": [
        {"partition": [3], "value": "4"},
        {"partition": [2, 1], "value": "24"},
        {"partition": [1, 1, 1], "value": 64},
    ]}
    assert chern_data_from_json(data) == cpn_chern_numbers(3)
    complex_data = {"dimension": 2, "numbers": [{"partition": [1, 1], "value": "1/2-3i"}]}
    assert chern_data_from_json(complex_data).terms[(1, 1)] == GaussianRational(Fraction(1, 2), -3)


def test_graded_poly_rejects_a_partition_given_twice():
    with pytest.raises(ValueError, match="twice"):
        GradedPoly(3, {(1, 2): 1, (2, 1): 5})
    with pytest.raises(ValueError, match="twice"):
        GradedPoly(3, {(1, 2): 0, (2, 1): 5})


def test_chern_data_file_rejects_a_partition_listed_twice():
    data = {"dimension": 2, "numbers": [{"partition": [1, 1], "value": "9"},
                                        {"partition": [1, 1], "value": "5"},
                                        {"partition": [2], "value": "3"}]}
    with pytest.raises(ValueError, match=r"\[1, 1\] is given twice"):
        chern_data_from_json(data)


@pytest.mark.parametrize("degree, pairs", [
    (2, [((3,), 1)]),
    (2, [((2, 0), 1)]),
    (3, [((1.5, 1.5), 1)]),
    (-1, []),
    (3, [((2, 1), 1), ((1, 2), 2)]),
], ids=["wrong-weight", "zero-part", "float-part", "negative-degree", "given-twice"])
def test_one_validator_refuses_malformed_input_by_both_routes(degree, pairs):
    # GradedPoly(d, terms) and the JSON reader share one check of their input
    with pytest.raises(ValueError):
        GradedPoly(degree, dict(pairs))
    data = {"dimension": degree,
            "numbers": [{"partition": list(key), "value": str(v)} for key, v in pairs]}
    with pytest.raises(ValueError, match="malformed Chern data file"):
        chern_data_from_json(data)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_cpn_chern_numbers_rebuild_through_the_public_constructor(n):
    X = cpn_chern_numbers(n)
    assert X == GradedPoly(n, dict(X.terms))


def test_graded_poly_sums_start_from_int_zero():
    p2 = power_sum(2)
    assert 0 + p2 is p2
    assert sum([p2, p2]) == 2 * p2
    with pytest.raises(TypeError):
        1 + p2


def test_exp_kernel_undoes_log_kernel_over_graded_polys():
    one = GradedPoly(0, {(): 1})
    total_chern = [one] + [chern_class(j) for j in range(1, 7)]
    assert exp_coefficients(log_coefficients(total_chern), one) == total_chern


def test_arithmetic_keys_are_canonical_and_zero_terms_are_dropped():
    c1, c2 = chern_class(1), chern_class(2)
    assert (c1 * c2).terms == {(2, 1): 1}
    plus = GradedPoly(2, {(1, 1): 1, (2,): 1})
    minus = GradedPoly(2, {(1, 1): 1, (2,): -1})
    # (c1^2 + c2)(c1^2 - c2): the two c2*c1^2 products cancel
    product = plus * minus
    assert product == GradedPoly(4, {(1, 1, 1, 1): 1, (2, 2): -1})
    assert dict(product.terms) == {(1, 1, 1, 1): 1, (2, 2): -1}
    assert not (plus - plus).terms and not (0 * plus).terms
    with pytest.raises(TypeError):
        product.terms[(4,)] = 1


def test_graded_dot_equals_the_sum_of_products():
    c1, c2, c3 = chern_class(1), chern_class(2), chern_class(3)
    p2 = GradedPoly(2, {(1, 1): 2, (2,): Fraction(-1, 3)})
    q1 = GradedPoly(1, {(1,): GaussianRational(1, 2)})
    xs = [c1, p2, c3, GradedPoly(1, {})]
    ys = [p2, q1, GradedPoly(0, {(): 5}), c2]
    assert GradedPoly.dot(xs, ys) == sum(x * y for x, y in zip(xs, ys))
    assert GradedPoly.dot([p2], [c1]) == p2 * c1
    # c1*c2 - c2*c1 + c1^3: the (2, 1) term cancels to zero and is dropped
    cancel = GradedPoly.dot([c1, -1 * c2, c1], [c2, c1, c1 * c1])
    assert dict(cancel.terms) == {(1, 1, 1): 1}
    assert not GradedPoly.dot([c1, c2], [c2, -1 * c1]).terms
    with pytest.raises(ValueError):
        GradedPoly.dot([c1, c1], [c1, c2])


def test_zero_k_n_stays_a_graded_poly():
    H = construct(parse_spec("euler:a=0"), 4)
    ks = k_polynomials(H, 4)
    assert [K.degree for K in ks] == [0, 1, 2, 3, 4]
    assert ks[0] == GradedPoly(0, {(): 1})
    assert all(isinstance(K, GradedPoly) and not K.terms for K in ks[1:])


# -- the dense kernel against a dict-and-sorted reference ----------------------------

def reference_dot(xs, ys):
    """sum_j xs[j]*ys[j] over {partition: value} terms: each product of a
    term of x_j with a term of y_j is keyed by its sorted partition and
    collected with setdefault, then each key is one gaussian.dot. This is
    the library's GradedPoly.dot before the product tables."""
    degree = xs[0].degree + ys[0].degree
    pairs = {}
    for x, y in zip(xs, ys):
        assert x.degree + y.degree == degree
        for k1, v1 in x.terms.items():
            for k2, v2 in y.terms.items():
                key = tuple(sorted(k1 + k2, reverse=True))
                pairs.setdefault(key, []).append((v1, v2))
    return GradedPoly(degree, {key: dot(*zip(*vs)) for key, vs in pairs.items()})


def reference_power_sum(m):
    """(-1)^(m-1)*m times the t^m coefficient of log(1 + c_1 t + ... + c_m t^m),
    by the recurrence k*q_k = k*c_k - sum_{j<k} (j*q_j)*c_{k-j} on reference_dot."""
    kq = [None, chern_class(1)]
    for k in range(2, m + 1):
        kq.append(k * chern_class(k) - reference_dot(kq[1:k], [chern_class(k - j)
                                                               for j in range(1, k)]))
    return (-1) ** (m - 1) * kq[m]


def reference_k_polynomials(H, n):
    """K_0..K_n by the exp recurrence k*K_k = sum_j (j*s_j*p_j)*K_{k-j} on reference_dot."""
    s = log_series(H.series.truncate(n))
    ja = [j * s.coefficient(j) * reference_power_sum(j) for j in range(1, n + 1)]
    out = [GradedPoly(0, {(): 1})]
    for k in range(1, n + 1):
        out.append(reference_dot(ja[:k], out[::-1]) * Fraction(1, k))
    return out


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
q_i = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, small),
                st.builds(GaussianRational, small, small))


@st.composite
def graded_pieces(draw, degree):
    """A GradedPoly of `degree` on a random subset of its partitions, with
    Q(i) values that include explicit zeros."""
    lams = draw(st.lists(st.sampled_from(partitions(degree)), unique=True))
    return GradedPoly(degree, {lam: draw(q_i) for lam in lams})


@st.composite
def graded_runs(draw):
    """A run of 1-4 pairs (x_j, y_j) of one total degree, 0..7."""
    total = draw(st.integers(0, 7))
    splits = draw(st.lists(st.integers(0, total), min_size=1, max_size=4))
    return ([draw(graded_pieces(d)) for d in splits],
            [draw(graded_pieces(total - d)) for d in splits])


@settings(max_examples=150, deadline=None)
@given(graded_runs())
def test_dense_dot_matches_the_dict_reference(run):
    xs, ys = run
    product = GradedPoly.dot(xs, ys)
    assert product == reference_dot(xs, ys)
    assert all(product.terms.values())  # zero coefficients are not terms
    assert product == sum(x * y for x, y in zip(xs, ys))


def test_power_sums_match_the_log_of_the_total_chern_class():
    for m in range(1, 11):
        assert power_sum(m) == reference_power_sum(m), m


# every catalog family, with real and with complex parameters (todd has none)
KN_SPECS = ["todd"] + [
    f"{family}:" + ",".join(f"{p}={v}" for p, v in zip(FAMILIES[family].params, values))
    for family in FAMILIES if family != "todd"
    for values in (("3/2", "-2/7"), ("1/2+3i", "-1/3+i"))]


@pytest.mark.parametrize("spec", KN_SPECS)
def test_k_polynomials_match_the_dict_reference(spec):
    H = construct(parse_spec(spec), 12)
    ks, want = k_polynomials(H, 12), reference_k_polynomials(H, 12)
    assert [dict(K.terms) for K in ks] == [dict(K.terms) for K in want]


# -- cached values are read-only -----------------------------------------------------

def test_cached_cpn_chern_numbers_are_read_only():
    X = cpn_chern_numbers(4)
    with pytest.raises(TypeError):
        X.terms[(4,)] = 0
    with pytest.raises(TypeError):
        X.values[0] = 0
    again = cpn_chern_numbers(4)
    assert again == X and again.terms[(4,)] == 5 and dict(again.terms) == dict(X.terms)
    assert again.values == tuple(X.terms.get(lam, 0) for lam in partitions(4))


def test_chern_data_from_json_is_read_only():
    data = {"dimension": 2, "numbers": [{"partition": [1, 1], "value": "9"},
                                        {"partition": [2], "value": "3"}]}
    X = chern_data_from_json(data)
    with pytest.raises(TypeError):
        X.terms[(1, 1)] = 1
    with pytest.raises(TypeError):
        del X.terms[(2,)]
    assert chern_data_from_json(data) == X == cpn_chern_numbers(2)
    assert X.terms[(1, 1)] == 9

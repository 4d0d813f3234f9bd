"""Acceptance gate: twelve exact-arithmetic criteria, one test per criterion.

Every check is exact (zero tolerance); randomness is seeded so the run is
reproducible. Each test prints a single PASS line when it succeeds (visible
with ``pytest -s`` or in the verbose listing).
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hirzebruch.catalog import (
    CharacteristicSeries,
    SeriesSpec,
    construct,
    h_n,
    parse_spec,
    verify_novikov,
)
from hirzebruch.chern import cpn_chern_numbers, evaluate_genus, k_polynomials
from hirzebruch.gaussian import GaussianRational, as_gaussian
from hirzebruch.localization import ahbr_value, cpn_fixed_points, equivariant_genus
from hirzebruch.rigidity import NotEvenSeriesError, ar_check, classify, classify_oriented, lemma41_residual, reconstruct
from hirzebruch.series import PowerSeries


def rand_fraction(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q or not nonzero:
            return q


def rand_gaussian(rng, nonzero=False):
    return GaussianRational(rand_fraction(rng, nonzero=nonzero))


def rand_catalog_specs(rng):
    return [
        parse_spec("todd"),
        SeriesSpec("euler", {"a": rand_gaussian(rng)}),
        SeriesSpec("ty", {"y": rand_gaussian(rng)}),
        SeriesSpec("txy", {"x": rand_gaussian(rng), "y": rand_gaussian(rng)}),
        SeriesSpec("dab", {"a": rand_gaussian(rng), "b": rand_gaussian(rng)}),
        SeriesSpec("gab", {"a": rand_gaussian(rng), "b": rand_gaussian(rng)}),
    ]


def test_criterion_01_todd_values():
    H = construct(parse_spec("todd"), 12)
    for n in range(13):
        assert h_n(H, n) == 1
    print("ACCEPTANCE 1 PASS: h_n(todd) = 1 for 0 <= n <= 12 (exact)")


def test_criterion_02_txy_closed_form():
    rng = random.Random(2)
    for _ in range(20):
        x = rand_fraction(rng)
        y = rand_fraction(rng)
        while not x + y:
            y = rand_fraction(rng)
        spec = SeriesSpec("txy", {"x": GaussianRational(x), "y": GaussianRational(y)})
        H = construct(spec, 8)
        for n in range(9):
            expected = (x ** (n + 1) - (-y) ** (n + 1)) / (x + y)
            assert h_n(H, n) == expected, (x, y, n)
    print("ACCEPTANCE 2 PASS: h_n(txy) = (x^(n+1) - (-y)^(n+1))/(x+y), "
          "20 random (x, y), n <= 8 (exact)")


def test_criterion_03_euler_genus():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_fraction(rng)
        H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 10)
        for n in range(11):
            assert h_n(H, n) == (n + 1) * a ** n
    print("ACCEPTANCE 3 PASS: h_n(euler:a) = (n+1)*a^n for random a, n <= 10 (exact)")


def test_criterion_04_novikov_correspondence():
    rng = random.Random(4)
    for spec in rand_catalog_specs(rng):
        check = verify_novikov(construct(spec, 12), 12)
        assert check.ok, spec
    print("ACCEPTANCE 4 PASS: Novikov correspondence to order 12 "
          "for every catalog family at random parameters (exact)")


def test_criterion_05_localization_constant_term():
    rng = random.Random(5)
    small = [tuple(c) for m in (1, 2) for c in combinations(range(-4, 5), m + 1)]
    seeded = [tuple(rng.sample(range(-15, 16), 4)) for _ in range(50)]
    for _ in range(10):
        H = CharacteristicSeries(
            PowerSeries([1] + [rand_fraction(rng) for _ in range(16)]))
        for weights in small + seeded:
            fps = cpn_fixed_points(weights)
            s = equivariant_genus(H, fps, 16 - fps.n)
            assert s.valuation >= 0
            assert s.coefficient(0) == h_n(H, fps.n), weights
    print("ACCEPTANCE 5 PASS: localization sum has valuation >= 0 and constant "
          "term h_n for 10 random order-16 series over all small tuples (n <= 2) "
          "plus 50 seeded n = 3 tuples (exact)")


def test_criterion_06_gt_rigidity_sampling():
    rng = random.Random(6)
    for i in range(20):
        a = rand_gaussian(rng, nonzero=True)
        b = rand_gaussian(rng)
        for family in ("dab", "gab"):
            H = construct(SeriesSpec(family, {"a": a, "b": b}), 24)
            report = ar_check(H, max_n=3, order=20, trials=100, seed=600 + i)
            assert report.passed, (family, a, b, report.witness)
    print("ACCEPTANCE 6 PASS: ar_check(max_n=3, order=20, 100 seeded trials) "
          "holds for dab and gab at 20 random parameter pairs (exact)")


def test_criterion_07_signed_fixed_point_formula():
    rng = random.Random(7)
    for _ in range(5):
        x = rand_fraction(rng)
        y = rand_fraction(rng)
        while not x + y:
            y = rand_fraction(rng)
        gx, gy = GaussianRational(x), GaussianRational(y)
        H = construct(SeriesSpec("txy", {"x": gx, "y": gy}), 16)
        for weights in ((0, 1, 2), (0, 1, 3), (-2, 0, 1, 5)):
            fps = cpn_fixed_points(weights)
            s = equivariant_genus(H, fps, 16 - fps.n)
            signed = ahbr_value(gx, gy, fps)
            assert s == signed, weights
            n = fps.n
            assert signed == (gx ** (n + 1) - (-gy) ** (n + 1)) / (gx + gy)
    print("ACCEPTANCE 7 PASS: equivariant genus of H_{x,y} is constant, equals "
          "the signed fixed-point sum, and matches the closed form (exact)")


def test_criterion_08_gt_equivalence_and_perturbations():
    rng = random.Random(8)
    # (a) the whole catalog is GT with the expected discriminant
    a = rand_fraction(rng, nonzero=True)
    b = rand_fraction(rng)
    y = rand_fraction(rng)
    x2 = rand_fraction(rng)
    y2 = rand_fraction(rng)
    cases = [
        (parse_spec("todd"), Fraction(1, 4)),
        (SeriesSpec("euler", {"a": GaussianRational(a)}), Fraction(0)),
        (SeriesSpec("ty", {"y": GaussianRational(y)}), ((1 + y) / 2) ** 2),
        (SeriesSpec("txy", {"x": GaussianRational(x2), "y": GaussianRational(y2)}),
         ((x2 + y2) / 2) ** 2),
        (SeriesSpec("dab", {"a": GaussianRational(a), "b": GaussianRational(b)}), a * a),
        (SeriesSpec("gab", {"a": GaussianRational(a), "b": GaussianRational(b)}), -a * a),
    ]
    for spec, d in cases:
        H = construct(spec, 24)
        assert lemma41_residual(H, 22).is_zero, spec
        report = classify(H)
        assert report.is_gt, spec
        assert report.d == d, spec
        assert report.case == ("E" if not d else "D")
    # (b) bumping any coefficient at degree >= 3 destroys both verdicts
    for _ in range(50):
        spec, _ = cases[rng.randrange(len(cases))]
        coeffs = list(construct(spec, 24).series.coeffs)
        k = rng.randint(3, 20)
        coeffs[k] = coeffs[k] + rand_gaussian(rng, nonzero=True)
        bad = CharacteristicSeries(PowerSeries(coeffs))
        verdict = classify(bad)
        assert not verdict.is_gt and verdict.witness is not None, (spec, k)
        sampled = ar_check(bad, max_n=2, order=22, trials=5, seed=k)
        assert not sampled.passed and sampled.witness is not None, (spec, k)
    print("ACCEPTANCE 8 PASS: at order 24 every catalog series is GT with the "
          "predicted discriminant; 50 random degree->=3 perturbations are "
          "rejected by both classify and ar_check (exact)")


def test_criterion_09_reconstruction_uniqueness():
    rng = random.Random(9)
    for spec in rand_catalog_specs(rng):
        H = construct(spec, 24)
        rebuilt = reconstruct(H.r(1), h_n(H, 2), 24)
        assert rebuilt == H.series, spec
    print("ACCEPTANCE 9 PASS: reconstruct(r1, h2) reproduces all 24 known "
          "coefficients of each catalog GT series (exact)")


def test_criterion_10_oriented_classification():
    rng = random.Random(10)
    a = rand_gaussian(rng, nonzero=True)
    coth = classify_oriented(construct(SeriesSpec("dab", {"a": a, "b": GaussianRational(0)}), 16))
    assert coth.is_gt and coth.oriented and coth.coth_a in (a, -a)
    cot = classify_oriented(construct(SeriesSpec("gab", {"a": a, "b": GaussianRational(0)}), 16))
    assert cot.is_gt and cot.oriented and cot.cot_a in (a, -a)
    with pytest.raises(NotEvenSeriesError) as err:
        classify_oriented(construct(parse_spec("todd"), 16))
    assert err.value.degree == 1
    print("ACCEPTANCE 10 PASS: oriented classifier accepts dab(a,0) and "
          "gab(a,0), rejects todd with a degree-1 witness (exact)")


def _chern_product(a, b, top):
    full_a = [GaussianRational(1)] + [as_gaussian(q) for q in a]
    full_b = [GaussianRational(1)] + [as_gaussian(q) for q in b]
    out = []
    for k in range(1, top + 1):
        acc = GaussianRational(0)
        for i in range(k + 1):
            if i < len(full_a) and k - i < len(full_b):
                acc = acc + full_a[i] * full_b[k - i]
        out.append(acc)
    return out


def test_criterion_11_multiplicativity():
    rng = random.Random(11)
    top = 8
    for _ in range(5):
        H = CharacteristicSeries(
            PowerSeries([1] + [rand_fraction(rng) for _ in range(top)]))
        ks = k_polynomials(H, top)

        def transform(cvalues):
            padded = list(cvalues) + [GaussianRational(0)] * (top - len(cvalues))
            return [ks[m].evaluate(padded) for m in range(1, top + 1)]

        a = [rand_fraction(rng) for _ in range(4)]
        b = [rand_fraction(rng) for _ in range(4)]
        product = _chern_product(a, b, top)
        assert transform(product) == _chern_product(transform(a), transform(b), top)
    print("ACCEPTANCE 11 PASS: K-transform of a product of degree-<=4 Chern "
          "polynomials is the product of K-transforms, all degrees <= 8 (exact)")


def test_criterion_12_cross_module_consistency():
    rng = random.Random(12)
    for spec in rand_catalog_specs(rng):
        H = construct(spec, 6)
        ks = k_polynomials(H, 6)
        for n in range(1, 7):
            assert evaluate_genus(ks[n], cpn_chern_numbers(n)) == h_n(H, n), (spec, n)
    print("ACCEPTANCE 12 PASS: evaluate_genus(K_n, cpn_chern_numbers(n)) = h_n "
          "for all catalog families, 1 <= n <= 6 (exact)")

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch.catalog import CharacteristicSeries, SeriesSpec, construct, h_n, parse_spec
from hirzebruch.gaussian import GR_I, GaussianRational
from hirzebruch.localization import cpn_fixed_points, equivariant_genus
from hirzebruch.rigidity import (
    _MAX_N,
    ARReport,
    NotEvenSeriesError,
    _base_tuples,
    _nonconstant_witness,
    ar1_residual,
    ar_check,
    classify,
    classify_oriented,
    lemma41_residual,
    reconstruct,
    sweep_plan,
)
from hirzebruch.series import InsufficientOrderError, LaurentSeries, PowerSeries


def rand_fraction(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if q or not nonzero:
            return q


def padded(coeffs, order):
    return CharacteristicSeries(PowerSeries(list(coeffs) + [0] * (order + 1 - len(coeffs))))


# -- order-1 residual ---------------------------------------------------------

def test_ar1_vanishes_for_dab():
    rng = random.Random(3)
    for _ in range(5):
        spec = SeriesSpec("dab", {"a": GaussianRational(rand_fraction(rng)),
                                  "b": GaussianRational(rand_fraction(rng))})
        H = construct(spec, 12)
        assert ar1_residual(H, 10) == 0


def test_ar1_odd_series_witness():
    H = CharacteristicSeries(PowerSeries([1, 1, 1, 1]))
    # f(t) + f(-t) = 2*r1 + 2*r3*t^2 with r3 = 1
    assert ar1_residual(H, 2) == PowerSeries([0, 0, 2])


def test_ar1_trivial_series():
    H = padded([1], 6)
    assert ar1_residual(H, 5) == 0


def test_ar1_needs_h_one_degree_past_the_order():
    # f = H/t is known one degree below H, so order H.order would come out short
    H = CharacteristicSeries(PowerSeries([1, 1, 1, 1]))
    assert ar1_residual(H, 2).order == 2
    with pytest.raises(InsufficientOrderError):
        ar1_residual(H, H.order)


# -- order-2 functional equation -------------------------------------------------

def test_lemma41_euler():
    # (-1/t + a)^2 + 2a*(1/t + a) - 1/t^2 = 3a^2 = h2
    a = Fraction(5, 2)
    H = construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 10)
    assert h_n(H, 2) == 3 * a ** 2
    assert lemma41_residual(H, 8).is_zero


def test_lemma41_todd():
    H = construct(parse_spec("todd"), 12)
    assert lemma41_residual(H, 10).is_zero


def test_lemma41_one_plus_t_squared():
    H = padded([1, 0, 1], 6)
    residual = lemma41_residual(H, 4)
    assert residual.coefficient(2) == 1
    assert residual.valuation == 2


def test_lemma41_insufficient_order():
    H = construct(parse_spec("todd"), 6)
    with pytest.raises(InsufficientOrderError):
        lemma41_residual(H, 5)


@pytest.mark.parametrize("spec", ["todd", "dab:a=1/2+i,b=1/3", "ty:y=2"])
def test_lemma41_residual_is_known_to_the_order_asked(spec):
    H = construct(parse_spec(spec), 12)
    for k in range(-2, 11):
        assert lemma41_residual(H, k).order == k


# -- ODE reconstruction ------------------------------------------------------------

def test_reconstruct_todd():
    rebuilt = reconstruct(Fraction(1, 2), 1, 12)
    assert rebuilt == construct(parse_spec("todd"), 12).series


def test_reconstruct_degenerate_case_is_linear():
    a = Fraction(-4, 3)
    rebuilt = reconstruct(a, 3 * a ** 2, 10)
    assert rebuilt == PowerSeries([1, a] + [0] * 9)


def test_reconstruct_dab():
    a, b = Fraction(2), Fraction(1, 3)
    rebuilt = reconstruct(b, a ** 2 + 3 * b ** 2, 12)
    spec = SeriesSpec("dab", {"a": GaussianRational(a), "b": GaussianRational(b)})
    assert rebuilt == construct(spec, 12).series
    assert rebuilt.coefficient(2) == a ** 2 / 3
    assert rebuilt.coefficient(3) == 0
    assert rebuilt.coefficient(4) == -a ** 4 / 45


# -- classification -----------------------------------------------------------------

def test_classify_todd():
    report = classify(construct(parse_spec("todd"), 16))
    assert report.is_gt and report.case == "D"
    assert report.d == Fraction(1, 4)
    assert report.sqrt_d == Fraction(1, 2)
    assert report.closed_form == SeriesSpec(
        "dab", {"a": GaussianRational(Fraction(1, 2)), "b": GaussianRational(Fraction(1, 2))})


def test_classify_one_plus_t_squared_not_gt():
    report = classify(padded([1, 0, 1], 6))
    assert not report.is_gt and report.case == "NotGT"
    assert report.witness == 4
    # reconstruction demands r4 = -1/5 where the input has 0
    assert reconstruct(report.r1, report.h2, 6).coefficient(4) == Fraction(-1, 5)


def test_classify_gab_cot():
    report = classify(construct(parse_spec("gab:a=1,b=0"), 16))
    assert report.is_gt and report.case == "D"
    assert report.d == -1
    assert report.closed_form == SeriesSpec("gab", {"a": GR_I, "b": GaussianRational(0)}) or \
        report.closed_form == SeriesSpec("dab", {"a": GR_I, "b": GaussianRational(0)})
    assert report.gab_form == SeriesSpec("gab", {"a": GaussianRational(1), "b": GaussianRational(0)})


def test_classify_euler_case_e():
    a = Fraction(7, 5)
    report = classify(construct(SeriesSpec("euler", {"a": GaussianRational(a)}), 12))
    assert report.is_gt and report.case == "E"
    assert report.d == 0


def test_classify_without_representable_sqrt():
    # d = 2 has no square root in Q(i); still GT, no closed form
    rebuilt = reconstruct(Fraction(0), Fraction(2), 12)
    report = classify(CharacteristicSeries(rebuilt))
    assert report.is_gt and report.case == "D"
    assert report.d == 2
    assert report.sqrt_d is None and report.closed_form is None


def test_classify_recovers_dab_parameters():
    rng = random.Random(33)
    for _ in range(10):
        a = rand_fraction(rng, nonzero=True)
        b = rand_fraction(rng)
        spec = SeriesSpec("dab", {"a": GaussianRational(a), "b": GaussianRational(b)})
        report = classify(construct(spec, 16))
        assert report.is_gt
        assert report.d == a * a
        assert report.r1 == b


def test_classify_verdict_stable_under_order_extension():
    for text in ("todd", "euler:a=2", "dab:a=1,b=1/2", "gab:a=1/2,b=-1"):
        r16 = classify(construct(parse_spec(text), 16))
        r32 = classify(construct(parse_spec(text), 32))
        assert r16.is_gt == r32.is_gt == True
        assert r16.case == r32.case


def test_reconstruct_idempotent_with_classify():
    H = construct(parse_spec("ty:y=3"), 20)
    report = classify(H)
    assert report.is_gt
    assert reconstruct(report.r1, report.h2, 20) == H.series


def test_classify_reads_the_last_known_coefficient():
    H = construct(parse_spec("todd"), 10)
    coeffs = list(H.series.coeffs)
    coeffs[10] = coeffs[10] + 1
    report = classify(CharacteristicSeries(PowerSeries(coeffs)))
    assert not report.is_gt and report.witness == H.order == 10


# -- oriented classification -----------------------------------------------------

def test_classify_oriented_accepts_coth_and_cot():
    rep = classify_oriented(construct(parse_spec("dab:a=1,b=0"), 16))
    assert rep.is_gt and rep.oriented
    assert rep.coth_a == 1
    rep = classify_oriented(construct(parse_spec("gab:a=2,b=0"), 16))
    assert rep.is_gt
    assert rep.cot_a == 2


def test_classify_oriented_accepts_l_genus():
    rep = classify_oriented(construct(parse_spec("ty:y=1"), 16))
    assert rep.is_gt


def test_classify_oriented_rejects_todd():
    with pytest.raises(NotEvenSeriesError) as err:
        classify_oriented(construct(parse_spec("todd"), 16))
    assert err.value.degree == 1


def test_classify_oriented_reads_the_last_odd_coefficient():
    # odd order 9, and only the degree-9 coefficient is nonzero
    with pytest.raises(NotEvenSeriesError) as err:
        classify_oriented(padded([1] + [0] * 8 + [Fraction(2, 7)], 9))
    assert err.value.degree == 9 and err.value.coefficient == Fraction(2, 7)


# -- AR sampling ------------------------------------------------------------------

def test_nonconstant_witness_is_the_first_nonzero_term_off_degree_zero():
    # a nonzero normalized series starts with a nonzero term, so a pole is found first
    assert _nonconstant_witness(LaurentSeries(-2, [0, 3, 0, 1, 0])) == (-1, 3)
    assert _nonconstant_witness(LaurentSeries(0, [5, 0, 0, 0])) is None
    zero = LaurentSeries(-3, [0, 0])
    assert zero.is_zero and zero.valuation == -2
    assert _nonconstant_witness(zero) is None
    assert _nonconstant_witness(LaurentSeries(0, [2, 0, 0, 7, 1])) == (3, 7)


def test_ar_check_passes_for_dab():
    H = construct(parse_spec("dab:a=2,b=1/3"), 20)
    report = ar_check(H, max_n=3, order=10, trials=10, seed=5)
    assert report.passed and report.witness is None


def test_ar_check_passes_for_euler():
    H = construct(parse_spec("euler:a=-3"), 16)
    report = ar_check(H, max_n=3, order=10, trials=10, seed=5)
    assert report.passed


def test_ar_check_fails_with_scaling_law_witness():
    H = padded([1, 1, 1, 1], 12)
    report = ar_check(H, max_n=1, order=8, trials=5, seed=7)
    assert not report.passed
    (weights, degree, coeff) = report.witness
    assert degree == 2
    w = weights[1] - weights[0]
    assert coeff == 2 * w * w


def affine_class(weights):
    """The sorted weights moved and scaled onto [0, 1], or their reflection
    1 - x if smaller: two tuples agree here exactly when both are integer
    images lam*w + mu (lam != 0) of one tuple w."""
    low, top = min(weights), max(weights)
    unit = sorted(Fraction(w - low, top - low) for w in weights)
    return min(tuple(unit), tuple(1 - x for x in reversed(unit)))


def test_ar_check_localizes_each_affine_class_once(monkeypatch):
    calls = []

    def counted(H, fps, order):
        calls.append(fps)
        return equivariant_genus(H, fps, order)

    monkeypatch.setattr("hirzebruch.rigidity.equivariant_genus", counted)
    report = ar_check(construct(parse_spec("todd"), 14), max_n=2, order=12, trials=0)
    assert report.passed
    assert len(report.tuples_checked) == 124
    first = {}  # the first tuple of each class, the one localized
    for w in report.tuples_checked:
        first.setdefault(affine_class(w), w)
    assert len(first) == 14  # CP^1 in 1 class, CP^2 in 13
    assert calls == [cpn_fixed_points(w) for w in first.values()]


def translation_shape(weights):
    """The sorted weights rebuilt from 0 by their successive gaps."""
    ws = sorted(weights)
    return tuple(accumulate((b - a for a, b in zip(ws, ws[1:])), initial=0))


@settings(max_examples=60, deadline=None)
@given(max_n=st.integers(1, 4), trials=st.integers(0, 8), seed=st.integers())
def test_sweep_plan_marks_the_first_tuple_of_each_affine_class(max_n, trials, seed):
    plan = list(sweep_plan(max_n, 12, trials, seed))
    rng = random.Random(seed)
    assert [w for w, _, _ in plan] == [
        w for m in range(1, max_n + 1)
        for w in _base_tuples(m) + [tuple(rng.sample(range(-20, 21), m + 1))
                                    for _ in range(trials)]]
    # the shapes admission charges: one per translation class of the tuples
    assert {shape for _, shape, _ in plan} == {translation_shape(w) for w, _, _ in plan}
    localized = set()  # the classes of the first tuples seen so far
    for weights, _, first in plan:
        cls = affine_class(weights)
        assert first == (cls not in localized), weights
        localized.add(cls)


def test_sweep_plan_checks_its_arguments_on_the_call_and_draws_lazily(monkeypatch):
    with pytest.raises(ValueError, match="at most 6"):
        sweep_plan(7, 12, 0, 0)  # refused before any tuple is asked for
    built = []

    def counted(m):
        built.append(m)
        return _base_tuples(m)

    monkeypatch.setattr("hirzebruch.rigidity._base_tuples", counted)
    plan = sweep_plan(6, 12, 200, 0)
    assert built == []
    assert next(plan) == ((-4, -3), (0, 1), True)
    assert next(plan) == ((-4, -2), (0, 2), False)
    assert built == [1]


def reference_sweep(H, max_n, order, trials, seed):
    """The ARReport of localizing every tuple of the sweep, each translate,
    multiple and reflection included."""
    checked = []
    for weights, _, _ in sweep_plan(max_n, order, trials, seed):
        checked.append(weights)
        bad = _nonconstant_witness(equivariant_genus(H, cpn_fixed_points(weights), order))
        if bad is not None:
            return ARReport(max_n, order, checked, False, witness=(weights, *bad))
    return ARReport(max_n, order, checked, True)


def bumped(text, order, degree, bump):
    H = construct(parse_spec(text), order)
    coeffs = list(H.series.coeffs)
    coeffs[degree] = coeffs[degree] + bump
    return CharacteristicSeries(PowerSeries(coeffs))


@pytest.mark.parametrize("text, bump", [
    ("todd", 0), ("todd", Fraction(1, 9)),
    ("dab:a=1/2+i,b=1/3", 0), ("dab:a=1/2+i,b=1/3", GaussianRational(1, 2)),
    ("euler:a=-3", 0), ("gab:a=3/5+i,b=-2/7", Fraction(-1, 5)),
])
def test_ar_check_agrees_with_localizing_every_tuple(text, bump):
    # bump adds to the t^6 term, which leaves AR^1 but not AR^2 standing
    # on an even series minus its r1*t
    order, max_n = 8, 3
    H = bumped(text, order + max_n, 6, bump)
    report = ar_check(H, max_n=max_n, order=order, trials=10, seed=3)
    assert report.passed == (not bump)
    assert report == reference_sweep(H, max_n, order, 10, 3)


@settings(max_examples=40, deadline=None)
@given(text=st.sampled_from(["dab:a=2,b=1/3", "ty:y=2", "dab:a=1/2+i,b=1/3", "gab:a=3/5+i,b=-2/7"]),
       max_n=st.integers(1, 3), degree=st.integers(2, 7),
       bump=st.sampled_from([0, Fraction(1, 9), Fraction(-2, 5), GaussianRational(1, 2)]),
       trials=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
def test_ar_check_report_is_the_report_of_localizing_every_tuple(
        text, max_n, degree, bump, trials, seed):
    order = 6
    H = bumped(text, order + max_n, degree, bump)
    assert ar_check(H, max_n, order, trials, seed) == reference_sweep(H, max_n, order, trials, seed)


def test_ar_check_insufficient_order():
    H = construct(parse_spec("todd"), 10)
    with pytest.raises(InsufficientOrderError):
        ar_check(H, max_n=3, order=8)


NOT_GT = [1, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7), Fraction(3, 4)]


@pytest.mark.parametrize("order", [-1, 0, 1])
def test_ar_check_rejects_orders_below_two(order):
    H = padded(NOT_GT, 8)
    with pytest.raises(ValueError, match="at least 2"):
        ar_check(H, max_n=3, order=order, trials=5)


def test_ar_check_rejects_negative_trials():
    H = construct(parse_spec("todd"), 16)
    with pytest.raises(ValueError, match="trials"):
        ar_check(H, max_n=1, order=8, trials=-4)


def test_non_gt_series_fails_at_order_two_but_degree_one_never_moves():
    H = padded(NOT_GT, 8)
    assert not classify(H).is_gt
    report = ar_check(H, max_n=3, order=2, trials=5)
    assert not report.passed and report.witness[1] == 2
    # why orders below 2 are refused: the degree-1 coefficient is always 0
    for weights in [(0, 1), (3, -5), (0, 1, 3), (-2, 7, 4, 11)]:
        s = equivariant_genus(H, cpn_fixed_points(weights), 1)
        assert s.valuation >= 0 and not s.coefficient(1), weights


@pytest.mark.parametrize("m", range(1, _MAX_N + 1))
def test_base_tuples_have_m_plus_one_weights(m):
    assert all(len(w) == m + 1 for w in _base_tuples(m))


def test_ar_check_deterministic_in_seed():
    H = construct(parse_spec("dab:a=1,b=1"), 16)
    r1 = ar_check(H, max_n=2, order=8, trials=15, seed=42)
    r2 = ar_check(H, max_n=2, order=8, trials=15, seed=42)
    assert r1.tuples_checked == r2.tuples_checked


# -- the equivalence chain ------------------------------------------------------------

def test_equivalence_chain_on_random_series():
    rng = random.Random(55)
    candidates = [construct(parse_spec("dab:a=1,b=2"), 16)]
    for _ in range(4):
        coeffs = [1] + [rand_fraction(rng) for _ in range(16)]
        candidates.append(CharacteristicSeries(PowerSeries(coeffs)))
    for H in candidates:
        residuals_vanish = (ar1_residual(H, 10) == 0) and lemma41_residual(H, 10).is_zero
        gt = classify(H).is_gt
        sampled = ar_check(H, max_n=2, order=8, trials=5, seed=9).passed
        assert residuals_vanish == gt == sampled, H.series.coeffs[:5]


def test_ar2_implies_ar3_on_samples():
    # once the order-2 check passes, higher arity stays constant
    for text in ("dab:a=3,b=-1/2", "gab:a=1/2,b=2"):
        H = construct(parse_spec(text), 20)
        assert ar_check(H, max_n=2, order=10, trials=10, seed=1).passed
        assert ar_check(H, max_n=3, order=10, trials=20, seed=2).passed

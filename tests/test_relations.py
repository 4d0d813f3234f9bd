"""Metamorphic relations from the symmetries of H_{x,y}(t) = t(x e^{st} + y)/(e^{st} - 1),
with s = x + y.

- Swap: H_{y,x}(t) = H_{x,y}(-t).
- Conjugation: the conjugate of H_{x,y} is H_{conj x, conj y}.
- Homogeneity: H_{lx,ly}(t) = H_{x,y}(l*t).

None of them needs a reference value. Each runs over every catalog family,
with real and with complex parameters, through the coefficients, h_n, K_n
and the localization sum on signed fixed-point data. A fourth relation is
one of the action, not of H: the CP^n localization sum reads only the
differences w_k - w_i, so a shuffled translate of the weights gives the
same series, and an integer multiple lam*w + mu gives the series at lam*t,
for every H, perturbed ones (not GT) included.
"""
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch.catalog import FAMILIES, CharacteristicSeries, SeriesSpec, construct, h_n
from hirzebruch.chern import k_polynomials
from hirzebruch.gaussian import GaussianRational
from hirzebruch.localization import FixedPoint, FixedPointSet, cpn_fixed_points, equivariant_genus
from hirzebruch.rigidity import classify
from hirzebruch.series import LaurentSeries, PowerSeries

ORDER = 6  # the series order; localization sums go to ORDER - n
N_MAX = 3  # h_n and K_n for n <= N_MAX
FAMILY_NAMES = list(FAMILIES)

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
VALUES = {
    "real": small.map(GaussianRational),
    "complex": st.builds(GaussianRational, small, small.filter(bool)),
}


@functools.lru_cache(maxsize=None)
def specs(family, kind):
    params = FAMILIES[family].params
    return st.fixed_dictionaries({p: VALUES[kind] for p in params}).map(
        lambda values: SeriesSpec(family, values))


def txy(x, y):
    return SeriesSpec("txy", {"x": x, "y": y})


def xy(spec):
    return FAMILIES[spec.family].xy(*(spec.params[p] for p in FAMILIES[spec.family].params))


fixed_point_sets = st.one_of([st.lists(
    st.builds(FixedPoint,
              st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n).map(tuple),
              st.sampled_from([1, -1])),
    min_size=1, max_size=3).map(lambda points: FixedPointSet(tuple(points))) for n in (1, 2, 3)])


cpn_weights = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.integers(-6, 6), min_size=n + 1, max_size=n + 1, unique=True))


def negated(fps):
    return FixedPointSet(tuple(FixedPoint(tuple(-w for w in p.weights), p.sign)
                               for p in fps.points))


def conj(z):
    return GaussianRational(z.re, -z.im)


def conjugated(s):
    return LaurentSeries(s.valuation, [conj(c) for c in s.coeffs])


relation_cases = pytest.mark.parametrize("family, kind", [
    (family, kind) for family in FAMILY_NAMES
    for kind in (("real", "complex") if FAMILIES[family].params else ("real",))])


@relation_cases
@settings(max_examples=2, deadline=None)
@given(data=st.data(), fps=fixed_point_sets)
def test_swap_negates_odd_degrees(family, kind, data, fps):
    spec = data.draw(specs(family, kind))
    x, y = xy(spec)
    H, S = construct(spec, ORDER), construct(txy(y, x), ORDER)
    assert S.series.coeffs == tuple((-1) ** k * c for k, c in enumerate(H.series.coeffs))
    for n, (K, KS) in enumerate(zip(k_polynomials(H, N_MAX), k_polynomials(S, N_MAX))):
        assert h_n(S, n) == (-1) ** n * h_n(H, n)
        assert KS == (-1) ** n * K
    order = ORDER - fps.n
    assert (equivariant_genus(S, fps, order)
            == (-1) ** fps.n * equivariant_genus(H, negated(fps), order))


@relation_cases
@settings(max_examples=2, deadline=None)
@given(data=st.data(), fps=fixed_point_sets)
def test_conjugate_parameters_give_conjugate_values(family, kind, data, fps):
    spec = data.draw(specs(family, kind))
    conj_spec = SeriesSpec(family, {p: conj(v) for p, v in spec.params.items()})
    H, C = construct(spec, ORDER), construct(conj_spec, ORDER)
    assert C.series.coeffs == tuple(conj(c) for c in H.series.coeffs)
    for n, (K, KC) in enumerate(zip(k_polynomials(H, N_MAX), k_polynomials(C, N_MAX))):
        assert h_n(C, n) == conj(h_n(H, n))
        assert dict(KC.terms) == {lam: conj(v) for lam, v in K.terms.items()}
    order = ORDER - fps.n
    assert equivariant_genus(C, fps, order) == conjugated(equivariant_genus(H, fps, order))
    report, conj_report = classify(H), classify(C)
    assert (conj_report.is_gt, conj_report.case) == (report.is_gt, report.case)
    assert (conj_report.r1, conj_report.h2, conj_report.d) == (
        conj(report.r1), conj(report.h2), conj(report.d))


@relation_cases
@settings(max_examples=2, deadline=None)
@given(data=st.data(), fps=fixed_point_sets)
def test_scaling_x_and_y_scales_the_argument(family, kind, data, fps):
    spec = data.draw(specs(family, kind))
    lam = data.draw(VALUES[kind].filter(bool))
    x, y = xy(spec)
    H, T = construct(spec, ORDER), construct(txy(lam * x, lam * y), ORDER)
    assert T.series.coeffs == tuple(lam ** k * c for k, c in enumerate(H.series.coeffs))
    for n, (K, KT) in enumerate(zip(k_polynomials(H, N_MAX), k_polynomials(T, N_MAX))):
        assert h_n(T, n) == lam ** n * h_n(H, n)
        assert KT == lam ** n * K
    # F_T(w t) = lam * F_H(lam w t), one factor per weight
    order = ORDER - fps.n
    assert (equivariant_genus(T, fps, order)
            == lam ** fps.n * equivariant_genus(H, fps, order).scale_argument(lam))


@relation_cases
@settings(max_examples=2, deadline=None)
@given(data=st.data(), w=cpn_weights, shift=st.integers(-9, 9))
def test_shuffled_translates_of_cpn_weights_give_the_same_sum(family, kind, data, w, shift):
    spec = data.draw(specs(family, kind))
    moved = data.draw(st.permutations([v + shift for v in w]))
    H = construct(spec, ORDER)
    order = ORDER - (len(w) - 1)
    assert (equivariant_genus(H, cpn_fixed_points(moved), order)
            == equivariant_genus(H, cpn_fixed_points(w), order))


def perturbed(spec, degree, bump):
    """H of the spec with `bump` added at `degree` >= 3: r1 and h2 stay, so
    the rigidity ODE rebuilds the old H, and the new one is not GT."""
    coeffs = list(construct(spec, ORDER).series.coeffs)
    coeffs[degree] = coeffs[degree] + bump
    return CharacteristicSeries(PowerSeries(coeffs))


def any_spec(kind):
    names = [f for f in FAMILY_NAMES if kind == "real" or FAMILIES[f].params]
    return st.sampled_from(names).flatmap(lambda family: specs(family, kind))


characteristic = {
    "real": any_spec("real").map(lambda spec: construct(spec, ORDER)),
    "complex": any_spec("complex").map(lambda spec: construct(spec, ORDER)),
    "perturbed": st.builds(perturbed, any_spec("real"), st.integers(3, ORDER),
                           st.one_of(VALUES["real"], VALUES["complex"]).filter(bool)),
}


@pytest.mark.parametrize("kind", list(characteristic))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), w=cpn_weights, lam=st.integers(-4, 4).filter(bool),
       mu=st.integers(-9, 9))
def test_integer_affine_images_of_cpn_weights_scale_the_argument(kind, data, w, lam, mu):
    H = data.draw(characteristic[kind])
    if kind == "perturbed":
        assert not classify(H).is_gt
    order = ORDER - (len(w) - 1)
    assert (equivariant_genus(H, cpn_fixed_points([lam * v + mu for v in w]), order)
            == equivariant_genus(H, cpn_fixed_points(w), order).scale_argument(lam))

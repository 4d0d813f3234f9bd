"""Reference values for the benchmark's answer checks.

Nothing here imports hirzebruch. Every expected value comes from its own
closed formula in plain ``Fraction`` arithmetic, so no job is checked
against the code path it times. A Gaussian rational is a pair
``(re, im)`` of Fractions.

Every catalog family is H_{x,y}(t) = t(x e^{st} + y)/(e^{st} - 1) with
s = x + y, which expands as x t + st/(e^{st} - 1), so its coefficients
are [1, (x - y)/2, B_2 s^2/2!, B_3 s^3/3!, ...] with Bernoulli numbers
B_k. The value on CP^n is sum_k x^k (-y)^(n-k), and the GT discriminant
h_2 - 3 r_1^2 is (s/2)^2.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Q = Tuple[Fraction, Fraction]

ZERO: Q = (Fraction(0), Fraction(0))
ONE: Q = (Fraction(1), Fraction(0))
I: Q = (Fraction(0), Fraction(1))


def add(a: Q, b: Q) -> Q:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Q, b: Q) -> Q:
    return (a[0] - b[0], a[1] - b[1])


def neg(a: Q) -> Q:
    return (-a[0], -a[1])


def mul(a: Q, b: Q) -> Q:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scale(a: Q, r) -> Q:
    return (a[0] * r, a[1] * r)


def bernoulli(n: int) -> List[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    table: List[Fraction] = []
    out: List[Fraction] = []
    for m in range(n + 1):
        table.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            table[j - 1] = j * (table[j - 1] - table[j])
        out.append(table[0])
    if n >= 1:
        out[1] = -out[1]  # the algorithm yields the B_1 = +1/2 convention
    return out


def family_xy(family: str, params: Dict[str, Q]) -> Tuple[Q, Q]:
    """The (x, y) of H_{x,y} for a catalog family."""
    if family == "todd":
        return ONE, ZERO
    if family == "ty":
        return ONE, params["y"]
    if family == "txy":
        return params["x"], params["y"]
    if family == "dab":
        a, b = params["a"], params["b"]
        return add(a, b), sub(a, b)
    if family == "gab":
        ia, b = mul(I, params["a"]), params["b"]
        return add(ia, b), sub(ia, b)
    if family == "euler":
        return params["a"], neg(params["a"])
    raise ValueError(f"no H_xy form for family {family!r}")


def characteristic_coeffs(x: Q, y: Q, order: int, bern: Sequence[Fraction]) -> List[Q]:
    """Coefficients 0..order of H_{x,y}; `bern` must reach B_order."""
    s = add(x, y)
    coeffs = [ONE, scale(sub(x, y), Fraction(1, 2))]
    s_power = mul(s, s)
    for k in range(2, order + 1):
        coeffs.append(scale(s_power, bern[k] / math.factorial(k)))
        s_power = mul(s_power, s)
    return coeffs[: order + 1]


def cpn_value(x: Q, y: Q, n: int) -> Q:
    """Genus of CP^n: sum_k x^k (-y)^(n-k)."""
    xs, ys = [ONE], [ONE]
    for _ in range(n):
        xs.append(mul(xs[-1], x))
        ys.append(mul(ys[-1], neg(y)))
    total = ZERO
    for k in range(n + 1):
        total = add(total, mul(xs[k], ys[n - k]))
    return total


def gt_discriminant(x: Q, y: Q) -> Q:
    half_s = scale(add(x, y), Fraction(1, 2))
    return mul(half_s, half_s)


def is_real(coeffs: Sequence[Q]) -> bool:
    return all(not c[1] for c in coeffs)


def ar_tuple_count(max_n: int, trials: int) -> int:
    """Weight tuples a passing ar_check sweep visits, per its documented
    sampling: all distinct tuples in [-4, 4] when m <= 2, two fixed gapped
    tuples, and `trials` random ones, for each m = 1..max_n."""
    total = 0
    for m in range(1, max_n + 1):
        total += (math.comb(9, m + 1) if m <= 2 else 0) + 2 + trials
    return total


def product_chern_numbers(dims: Sequence[int]) -> Dict[Tuple[int, ...], int]:
    """Chern numbers of CP^{d_1} x ... x CP^{d_r}, indexed by partitions.

    The total Chern class is prod_i (1 + u_i)^(d_i + 1) with u_i^(d_i + 1)
    = 0; c_lambda is the coefficient of prod_i u_i^(d_i) in prod_j c_{lambda_j}.
    """
    dims = tuple(dims)
    top = sum(dims)
    # c_j as {exponent vector: integer coefficient}
    classes: List[Dict[Tuple[int, ...], int]] = [dict() for _ in range(top + 1)]
    for exps in itertools.product(*(range(d + 1) for d in dims)):
        coeff = 1
        for d, e in zip(dims, exps):
            coeff *= math.comb(d + 1, e)
        classes[sum(exps)][exps] = coeff

    def times(p, r):
        out: Dict[Tuple[int, ...], int] = {}
        for e1, c1 in p.items():
            for e2, c2 in r.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if all(a <= d for a, d in zip(e, dims)):
                    out[e] = out.get(e, 0) + c1 * c2
        return out

    numbers = {}
    for lam in partitions(top):
        poly = {tuple(0 for _ in dims): 1}
        for part in lam:
            poly = times(poly, classes[part])
        numbers[lam] = poly.get(dims, 0)
    return numbers


def partitions(n: int) -> List[Tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining, largest, prefix):
        if not remaining:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


# -- text in the CLI's number format: "p/q", "p/q+r/si", "ri", "i" --------


def format_q(z: Q) -> str:
    re, im = z
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def parse_q(text: str) -> Q:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    cut = max(s.rfind("+", 1), s.rfind("-", 1))
    re_text, im_text = (s[:cut], s[cut:-1]) if cut > 0 else ("0", s[:-1])
    if im_text in ("", "+"):
        im = Fraction(1)
    elif im_text == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_text)
    return (Fraction(re_text), im)

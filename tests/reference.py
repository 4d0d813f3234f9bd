"""Reference code shared by the tests, written over the public API only."""
import math
from fractions import Fraction

from hirzebruch.gaussian import GR_ZERO, GaussianRational


def evaluate_k(K, c):
    """K(c_1, c_2, ...) for a graded piece K and values c[j - 1] of c_j: the
    sum over K.terms of each coefficient times the values its partition names."""
    return sum((v * math.prod(c[j - 1] for j in lam) for lam, v in K.terms.items()), GR_ZERO)


def pair(x):
    """(re, im) of an int, a Fraction or a GaussianRational as a plain pair
    of Fractions; a pair is returned as it is."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def pair_result(op, x, y):
    """x op y for op in "+", "-", "*", "/", over Fraction pairs."""
    (a, b), (c, d) = pair(x), pair(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def reference_sqrt(z):
    """(re, im) of the principal square root of z in Q(i), or None, by the
    Fraction formula: r = |z|, re = sqrt((x + r)/2) and im = sqrt((r - x)/2)
    with the sign of y, each a Fraction root of numerator and denominator."""
    x, y = pair(z)
    r = _fraction_sqrt(x * x + y * y)
    if r is None:
        return None
    u, v = _fraction_sqrt((x + r) / 2), _fraction_sqrt((r - x) / 2)
    if u is None or v is None:
        return None
    return u, -v if y < 0 else v


def _fraction_sqrt(q):
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def pair_power(x, e):
    """x ** e over Fraction pairs: |e| multiplications by x, inverted for e < 0."""
    result = one = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        result = pair_result("*", result, x)
    return result if e >= 0 else pair_result("/", one, result)


def pair_product(a, b):
    """Degrees 0..min(len(a), len(b)) - 1 of the series product a*b, each
    summed term by term over Fraction pairs."""
    out = []
    for k in range(min(len(a), len(b))):
        total = (Fraction(0), Fraction(0))
        for i in range(k + 1):
            total = pair_result("+", total, pair_result("*", a[i], b[k - i]))
        out.append(total)
    return out

"""Reference code shared by the tests, written over the public API only."""
import math

from hirzebruch.gaussian import GR_ZERO


def evaluate_k(K, c):
    """K(c_1, c_2, ...) for a graded piece K and values c[j - 1] of c_j: the
    sum over K.terms of each coefficient times the values its partition names."""
    return sum((v * math.prod(c[j - 1] for j in lam) for lam, v in K.terms.items()), GR_ZERO)

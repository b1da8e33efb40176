"""Student-t distribution via the regularized incomplete beta function.

The incomplete beta is evaluated with the standard continued-fraction
expansion (modified Lentz iteration) after the usual symmetry split, the
same construction used by the classic Cephes/Numerical Recipes routines.
Accuracy is comfortably below 1e-10 absolute over the degrees of freedom
and t ranges this package needs (df up to 1000, |t| up to 50), which the
test suite checks against a high-precision quadrature oracle.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_LENTZ_EPS = 1e-16
_LENTZ_TINY = 1e-300


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _LENTZ_TINY:
                d = _LENTZ_TINY
            c = 1.0 + aa / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:  # tested after the odd step only
            return h
    return h  # converged to float precision in practice long before this


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"betainc needs a, b > 0, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc(0.5 * df, 0.5, x)
    return tail if t < 0 else 1.0 - tail


def t_quantile(p: float, df: float) -> float:
    """Inverse of t_cdf by bracketed bisection; |t_cdf(result) - p| <= 1e-10."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if p == 0.5:
        return 0.0

    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
        if lo < -1e300:
            break
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            break

    best = 0.5 * (lo + hi)
    best_gap = abs(t_cdf(best, df) - p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gap = t_cdf(mid, df) - p
        if abs(gap) < best_gap:
            best, best_gap = mid, abs(gap)
        if best_gap <= 1e-12:
            break
        if gap < 0:
            lo = mid
        else:
            hi = mid
    return best

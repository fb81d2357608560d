"""Self-contained numerical primitives: logistic, normal, chi-square, Student t.

Everything here is implemented in plain Python/numpy so that the statistical
contracts of this package do not depend on an external statistics library.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sigmoid",
    "norm_cdf",
    "chi2_sf_1df",
    "t_sf_two_sided",
    "betainc_reg",
]


def sigmoid(x):
    """Logistic function 1/(1+exp(-x)), overflow-safe for any float input.

    Accepts scalars or numpy arrays; returns the matching type.
    """
    if np.isscalar(x):
        # np.exp keeps the scalar and array paths bit-identical.
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        z = float(np.exp(x))
        return z / (1.0 + z)
    x = np.asarray(x, dtype=float)
    # e = exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so the
    # quotient is bit for bit the scalar path's, with no masked gathers.
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def norm_cdf(x: float) -> float:
    """Standard normal CDF, from `math.erfc` so the tails keep their digits."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chi2_sf_1df(x: float) -> float:
    """Upper tail of the chi-square distribution with 1 degree of freedom.

    Uses the exact identity P(X > x) = P(|Z| > sqrt(x)) = erfc(sqrt(x / 2))
    for Z standard normal.
    """
    if x <= 0.0:
        return 1.0
    return math.erfc(math.sqrt(x / 2.0))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail P(|T| >= t) for Student's t with `df` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))

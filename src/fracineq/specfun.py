"""Special functions needed by the closed-form kernel moments.

Everything here is hand-rolled on purpose so the closed forms and the
quadrature oracles share no code: gamma is a Lanczos approximation,
the incomplete beta goes through integrate_singular, and the Gauss
hypergeometric is a plain power series with a terminating fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quad import Tolerance, integrate_singular

# Lanczos coefficients, g = 7, 9 terms; ~1 ulp on the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

_BETA_INC_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_subdiv=2000)

_SERIES_CUTOFF = 1e-16
_SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SpecfunResult:
    """Value plus a self-reported absolute error estimate."""

    value: float
    abs_error_estimate: float


def gamma(x: float) -> float:
    """Gamma function for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError("gamma requires x > 0, got %r" % (x,))
    if x < 0.5:
        # one recurrence step keeps the Lanczos kernel in its sweet spot;
        # it passes float64's range for x below about 5.6e-309
        value = gamma(x + 1.0) / x
    else:
        z = x - 1.0
        s = _LANCZOS[0]
        for i in range(1, len(_LANCZOS)):
            s += _LANCZOS[i] / (z + i)
        t = z + _LANCZOS_G + 0.5
        try:
            value = _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * s
        except OverflowError:   # t ** (z + 0.5) alone, from x = 142.37
            value = math.inf
    if value == math.inf:   # the product passes float64 from x = 142.215
        raise OverflowError("gamma(%r) overflows float64" % (x,))
    return value


def beta(x: float, y: float) -> float:
    """Euler beta via the gamma ratio; x, y > 0."""
    if not (x > 0.0 and y > 0.0):
        raise DomainError("beta requires x > 0 and y > 0, got (%r, %r)" % (x, y))
    return gamma(x) * gamma(y) / gamma(x + y)


def beta_inc_result(a: float, x: float, y: float) -> SpecfunResult:
    """Non-regularized incomplete beta int_0^a t^(x-1) (1-t)^(y-1) dt.

    Upper limit a in [0, 1); a = 0 is the empty integral, a = 1 is
    rejected (use beta for the complete integral).
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError("beta_inc requires x > 0 and y > 0, got (%r, %r)" % (x, y))
    if a == 0.0:
        return SpecfunResult(0.0, 0.0)
    if not (0.0 < a < 1.0):
        raise DomainError(
            "beta_inc upper limit must lie in [0, 1); got a=%r "
            "(for a = 1 use beta)" % (a,))
    # weight t^(x-1) handled by substitution; (1-t)^(y-1) stays smooth on [0, a]
    res = integrate_singular(lambda t: (1.0 - t) ** (y - 1.0),
                             0.0, a, x - 1.0, 0.0, _BETA_INC_TOL)
    return SpecfunResult(res.value, res.abs_error_estimate)


def beta_inc(a: float, x: float, y: float) -> float:
    return beta_inc_result(a, x, y).value


def _series_2f1(a: float, b: float, c: float, z: float) -> SpecfunResult:
    """Power series sum_n (a)_n (b)_n / (c)_n z^n / n! for |z| < 1."""
    total = 1.0
    term = 1.0
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        if term == 0.0:
            return SpecfunResult(total, 0.0)
        total += term
        if abs(term) < _SERIES_CUTOFF * abs(total):
            return SpecfunResult(total, abs(term))
    # cap hit: geometric tail bound with the asymptotic ratio |z|
    r = abs(z)
    tail = abs(term) * r / (1.0 - r) if r < 1.0 else math.inf
    return SpecfunResult(total, tail)


def hyp2f1_result(a: float, b: float, c: float, z: float) -> SpecfunResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for c > b > 0 and 0 <= z < 1.

    Terminating series (a a non-positive integer) is summed exactly.
    Otherwise the direct series is used; it converges for every z < 1,
    slowly near 1, in which case the truncation tail is reported in
    abs_error_estimate rather than silently dropped.
    """
    if not (c > b > 0.0):
        raise DomainError("hyp2f1 requires c > b > 0, got (b=%r, c=%r)" % (b, c))
    if not (0.0 <= z < 1.0) or not math.isfinite(z):
        raise DomainError("hyp2f1 requires 0 <= z < 1, got z=%r" % (z,))
    if z == 0.0:
        return SpecfunResult(1.0, 0.0)
    return _series_2f1(a, b, c, z)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    return hyp2f1_result(a, b, c, z).value

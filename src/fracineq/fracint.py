"""Riemann-Liouville fractional integrals on finite intervals.

J^k[a+] f(x) = 1/Gamma(k) int_a^x (x - t)^(k-1) f(t) dt      (x > a)
J^k[b-] f(x) = 1/Gamma(k) int_x^b (t - x)^(k-1) f(t) dt      (x < b)

Order k = 0 is the identity operator (J^0 f = f), k = 1 the classical
integral.  The (x - t)^(k-1) factor is handed to integrate_singular as
an explicit endpoint weight, so 0 < k < 1 costs nothing extra.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError
from .quad import QuadResult, Tolerance, integrate_singular
from .specfun import gamma


def _check_order(kappa: float) -> None:
    if not (kappa >= 0.0) or not math.isfinite(kappa):
        raise DomainError("fractional order must satisfy kappa >= 0, got %r" % (kappa,))


def rl_left_result(f: Callable[[float], float], a: float, kappa: float,
                   x: float, tol: Tolerance | None = None) -> QuadResult:
    """Left-sided integral anchored at a, evaluated at x > a."""
    _check_order(kappa)
    if kappa == 0.0:
        return QuadResult(float(f(x)), 0.0, 0)
    if not x > a:
        raise DomainError("rl_left requires x > a, got a=%r x=%r" % (a, x))
    g = 1.0 / gamma(kappa)
    res = integrate_singular(f, a, x, 0.0, kappa - 1.0, tol)
    return QuadResult(g * res.value, g * res.abs_error_estimate, res.subdivisions)


def rl_right_result(f: Callable[[float], float], b: float, kappa: float,
                    x: float, tol: Tolerance | None = None) -> QuadResult:
    """Right-sided integral anchored at b, evaluated at x < b."""
    _check_order(kappa)
    if kappa == 0.0:
        return QuadResult(float(f(x)), 0.0, 0)
    if not x < b:
        raise DomainError("rl_right requires x < b, got b=%r x=%r" % (b, x))
    g = 1.0 / gamma(kappa)
    res = integrate_singular(f, x, b, kappa - 1.0, 0.0, tol)
    return QuadResult(g * res.value, g * res.abs_error_estimate, res.subdivisions)


def rl_left(f: Callable[[float], float], a: float, kappa: float, x: float,
            tol: Tolerance | None = None) -> float:
    return rl_left_result(f, a, kappa, x, tol).value


def rl_right(f: Callable[[float], float], b: float, kappa: float, x: float,
             tol: Tolerance | None = None) -> float:
    return rl_right_result(f, b, kappa, x, tol).value


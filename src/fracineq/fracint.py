"""Riemann-Liouville fractional integrals on finite intervals.

J^k[a+] f(x) = 1/Gamma(k) int_a^x (x - t)^(k-1) f(t) dt      (x > a)
J^k[b-] f(x) = 1/Gamma(k) int_x^b (t - x)^(k-1) f(t) dt      (x < b)

Order k = 0 is the identity operator (J^0 f = f), k = 1 the classical
integral.  The (x - t)^(k-1) factor is an explicit endpoint weight of
quad.singular_jobs, so 0 < k < 1 costs nothing extra.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError
from .quad import QuadResult, Tolerance, integrate, singular_jobs
from .specfun import gamma


def rl_job(f: Callable[[float], float], anchor: float, kappa: float,
           x: float, left: bool) -> tuple:
    """(job, g): the one (h, lo, hi) quadrature job of rl_left_result(f,
    anchor, kappa, x) (left) or rl_right_result, and its scale, kappa > 0.

    g times the job's result is that integral.  Raises what rl_*_result
    raises before integrating.
    """
    if not (kappa >= 0.0) or not math.isfinite(kappa):
        raise DomainError("fractional order must satisfy kappa >= 0, got %r" % (kappa,))
    if left:
        if not x > anchor:
            raise DomainError("rl_left requires x > a, got a=%r x=%r"
                              % (anchor, x))
        weight = (anchor, x, 1.0, kappa)
    else:
        if not x < anchor:
            raise DomainError("rl_right requires x < b, got b=%r x=%r"
                              % (anchor, x))
        weight = (x, anchor, kappa, 1.0)
    return singular_jobs(f, *weight)[0], 1.0 / gamma(kappa)


def _rl_result(left, f, anchor, kappa, x, tol):
    if kappa == 0.0:
        return QuadResult(float(f(x)), 0.0, 0)
    job, g = rl_job(f, anchor, kappa, x, left)
    res = integrate(*job, tol)
    return QuadResult(g * res.value, g * res.abs_error_estimate, res.subdivisions)


def rl_left_result(f: Callable[[float], float], a: float, kappa: float,
                   x: float, tol: Tolerance | None = None) -> QuadResult:
    """Left-sided integral anchored at a, evaluated at x > a."""
    return _rl_result(True, f, a, kappa, x, tol)


def rl_right_result(f: Callable[[float], float], b: float, kappa: float,
                    x: float, tol: Tolerance | None = None) -> QuadResult:
    """Right-sided integral anchored at b, evaluated at x < b."""
    return _rl_result(False, f, b, kappa, x, tol)


def rl_left(f: Callable[[float], float], a: float, kappa: float, x: float,
            tol: Tolerance | None = None) -> float:
    return rl_left_result(f, a, kappa, x, tol).value


def rl_right(f: Callable[[float], float], b: float, kappa: float, x: float,
             tol: Tolerance | None = None) -> float:
    return rl_right_result(f, b, kappa, x, tol).value


"""Adaptive quadrature on finite intervals.

Core rule is the 15-point Kronrod extension of 7-point Gauss.  Intervals
are bisected worst-error-first until the summed error estimate meets
max(abs_tol, rel_tol * |value|) or the subdivision budget runs out.

integrate_singular handles integrands with an explicit endpoint weight
(t - lo)^p_lo (hi - t)^p_hi, p > -1, by the power substitution
t = lo + v^k: with k chosen so that k (p+1) - 1 >= 3 the transformed
integrand is smooth enough for the plain rule.  Interior kinks are the
caller's problem; callers are expected to split at known kink locations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError

_EPS = np.finfo(float).eps

# Kronrod-15 abscissae (positive half) and weights, Gauss-7 weights.
# The embedded Gauss nodes are every second Kronrod node.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class Tolerance:
    """Requested accuracy for one integration call."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdiv: int = 2000


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


class _Evaluator:
    """Calls f on an array of any shape, falling back to a scalar loop.

    The vector path is tried until it fails once; integrands built from
    numpy ufuncs get evaluated a whole array at a time, plain-Python ones
    per element.
    """

    def __init__(self, f: Callable[[float], float]):
        self.f = f
        self.vectorized = None

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        if self.vectorized is not False:
            try:
                ys = np.asarray(self.f(xs), dtype=float)
                if ys.shape == xs.shape:
                    self.vectorized = True
                    return ys
            except (TypeError, ValueError, AttributeError, IndexError):
                pass
            self.vectorized = False
        return np.array([float(self.f(float(x))) for x in xs.ravel()]
                        ).reshape(xs.shape)


def _gk15(ev: _Evaluator, lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 pass over [lo, hi]: (value, error estimate)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = center + half * _NODES
    ys = ev(xs)
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise EvaluationError(
            "integrand returned a non-finite value at t=%.17g" % bad,
            abscissa=float(bad),
        )
    resk = float(_WK15 @ ys)
    resg = float(_WG15 @ ys)
    resabs = float(_WK15 @ np.abs(ys))
    mean = 0.5 * resk
    resasc = float(_WK15 @ np.abs(ys - mean))
    err = abs((resk - resg) * half)
    resasc *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # never claim accuracy below the round-off floor of the samples
    err = max(err, 50.0 * _EPS * resabs * abs(half))
    return resk * half, err


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: Tolerance | None = None) -> QuadResult:
    """Integrate f over the finite interval [lo, hi].

    Raises DomainError for a malformed interval, EvaluationError if f
    produces a non-finite sample, ConvergenceError (carrying the best
    estimate) if max_subdiv bisections do not reach tolerance.
    """
    tol = tol if tol is not None else Tolerance()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration interval must be finite")
    if hi < lo:
        raise DomainError("integration interval is reversed: lo=%g hi=%g" % (lo, hi))
    if hi == lo:
        return QuadResult(0.0, 0.0, 0)

    ev = _Evaluator(f)
    value, err = _gk15(ev, lo, hi)
    total_value, total_err = value, err
    nsub = 0
    heap = []
    counter = 0
    heapq.heappush(heap, (-err, counter, lo, hi, value, err))

    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total_value)):
        if nsub >= tol.max_subdiv:
            best = QuadResult(total_value, total_err, nsub)
            raise ConvergenceError(
                "no convergence after %d subdivisions "
                "(value=%.17g, error=%.3g)" % (nsub, total_value, total_err),
                estimate=best,
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        if e <= 0.1 * _EPS * abs(total_value):
            # worst interval is already at round-off level; cannot improve
            heapq.heappush(heap, (-e, counter + 1, a, b, v, e))
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            best = QuadResult(total_value, total_err, nsub)
            raise ConvergenceError(
                "interval [%.17g, %.17g] cannot be split further" % (a, b),
                estimate=best,
            )
        v1, e1 = _gk15(ev, a, mid)
        v2, e2 = _gk15(ev, mid, b)
        total_value += (v1 + v2) - v
        total_err += (e1 + e2) - e
        nsub += 1
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2))

    return QuadResult(total_value, total_err, nsub)


def _is_nonneg_integer(p: float) -> bool:
    return p >= 0.0 and abs(p - round(p)) < 1e-14


def _substitution_order(p: float) -> int:
    # k (p+1) - 1 >= 3 makes the transformed weight at least C^3 at v = 0
    return max(2, math.ceil(4.0 / (p + 1.0)))


def _one_sided(g, A: float, B: float, p: float, at_lower: bool,
               tol: Tolerance) -> QuadResult:
    """Integrate g(t) * |t - endpoint|^p with the weight anchored at A or B."""
    if _is_nonneg_integer(p):
        n = int(round(p))
        if at_lower:
            w = lambda t: g(t) * (t - A) ** n
        else:
            w = lambda t: g(t) * (B - t) ** n
        return integrate(w, A, B, tol)
    k = _substitution_order(p)
    vmax = (B - A) ** (1.0 / k)
    expo = k * (p + 1.0) - 1.0
    if at_lower:
        h = lambda v: k * v ** expo * g(A + v ** k)
    else:
        h = lambda v: k * v ** expo * g(B - v ** k)
    return integrate(h, 0.0, vmax, tol)


def integrate_singular(f: Callable[[float], float], lo: float, hi: float,
                       p_lo: float, p_hi: float,
                       tol: Tolerance | None = None) -> QuadResult:
    """Integrate f(t) (t - lo)^p_lo (hi - t)^p_hi over [lo, hi].

    f itself must be finite on the closed interval; the endpoint weights
    carry all the singular behaviour.  Exponents must exceed -1, anything
    else is a divergent weight and raises DomainError.
    """
    tol = tol if tol is not None else Tolerance()
    if not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise DomainError("weight exponents must be finite")
    if p_lo <= -1.0 or p_hi <= -1.0:
        raise DomainError(
            "weight exponent <= -1 is non-integrable: p_lo=%g p_hi=%g"
            % (p_lo, p_hi))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration interval must be finite")
    if hi < lo:
        raise DomainError("integration interval is reversed: lo=%g hi=%g" % (lo, hi))
    if hi == lo:
        return QuadResult(0.0, 0.0, 0)

    smooth_lo = _is_nonneg_integer(p_lo)
    smooth_hi = _is_nonneg_integer(p_hi)
    half_tol = Tolerance(tol.abs_tol * 0.5, tol.rel_tol, tol.max_subdiv)

    if smooth_lo and smooth_hi:
        n_lo, n_hi = int(round(p_lo)), int(round(p_hi))
        w = lambda t: f(t) * (t - lo) ** n_lo * (hi - t) ** n_hi
        return integrate(w, lo, hi, tol)
    if smooth_hi:
        n_hi = int(round(p_hi))
        g = (lambda t: f(t) * (hi - t) ** n_hi) if n_hi else f
        return _one_sided(g, lo, hi, p_lo, True, tol)
    if smooth_lo:
        n_lo = int(round(p_lo))
        g = (lambda t: f(t) * (t - lo) ** n_lo) if n_lo else f
        return _one_sided(g, lo, hi, p_hi, False, tol)

    # both endpoints singular: split in the middle, fold the far weight
    mid = 0.5 * (lo + hi)
    g_lo = lambda t: f(t) * (hi - t) ** p_hi
    g_hi = lambda t: f(t) * (t - lo) ** p_lo
    r1 = _one_sided(g_lo, lo, mid, p_lo, True, half_tol)
    r2 = _one_sided(g_hi, mid, hi, p_hi, False, half_tol)
    return QuadResult(r1.value + r2.value,
                      r1.abs_error_estimate + r2.abs_error_estimate,
                      r1.subdivisions + r2.subdivisions)

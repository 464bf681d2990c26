"""Kernel moments and the inequality families built on them.

The kernel moments are integrals over [0, 1] of the Simpson-type kernel
|(k+1)lam - t^k| against low-order weights:

    phi1 = int t |(k+1)lam - t^k| dt
    phi2 = int t^(1+alpha) ... dt           (t^alpha weight)
    phi3 = int t (1 - t^alpha) ... dt
    phi4 = int t^p |(k+1)lam - t^k|^p dt    (Hoelder companion, p > 1)

Each has a two-branch closed form with branch point lam = 1/(k+1),
where the kink t* = ((k+1)lam)^(1/k) leaves [0, 1].  phi_oracle
re-evaluates the defining integrals by adaptive quadrature, split at
t*, and is the authority whenever a closed form is in doubt.

Two closed forms needed repair.  The circulated phi3 carries a
constant term k/((k+2)(k+alpha+2)) whose numerator must be alpha (the
literal version fails phi3(k, lam, 0) = 0, breaks phi1 = phi2 + phi3,
and disagrees with the oracle whenever alpha != k).  The circulated
phi4 middle branch omits a 1/k factor on its 2F1 term, invisible at
k = 1 but off by exactly that factor otherwise.  phi3() and phi4()
are the corrected forms; tests/conftest.py keeps the uncorrected ones
(phi3_literal, phi4_literal) so the discrepancies stay visible.
Corollary transcriptions that inherited the phi3 constant are flagged
by corollary_check, never patched silently: the general bound is
always the authoritative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amconvex import FnTriple, is_admitted
from .errors import AdmissionError, ConvergenceError, DomainError, check_unit_interval
from .identity import (Params, direct_with_budget, end_coef, kernel_cuts,
                       memoized, memoized_integrals)
from .quad import Tolerance, unwrap
from .specfun import beta, beta_inc, hyp2f1, hyp2f1_result

HOLDS_SLACK = 1e-9
COROLLARY_MATCH_TOL = 1e-10
# the largest scaled 2F1 truncation tail phi4's middle branch returns
PHI4_TAIL_BUDGET = 1e-13

_ORACLE_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_subdiv=4000)
_LHS_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_subdiv=2000)


def _check_kl(kappa: float, lam: float) -> None:
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError("kappa must be > 0, got %r" % (kappa,))
    check_unit_interval("lambda", lam)


# --- closed forms ----------------------------------------------------------
# c = (k+1) lam throughout; "below" means lam <= 1/(k+1) (kink inside [0,1])

def _phi1_below(kappa, lam):
    c = (kappa + 1.0) * lam
    return kappa * c ** ((kappa + 2.0) / kappa) / (kappa + 2.0) \
        - 0.5 * c + 1.0 / (kappa + 2.0)


def _phi1_above(kappa, lam):
    c = (kappa + 1.0) * lam
    return 0.5 * c - 1.0 / (kappa + 2.0)


def _by_kink(below, above, kappa, lam, *args):
    return (below if lam <= 1.0 / (kappa + 1.0) else above)(kappa, lam, *args)


def phi1(kappa: float, lam: float) -> float:
    _check_kl(kappa, lam)
    return _by_kink(_phi1_below, _phi1_above, kappa, lam)


def _phi2_below(kappa, lam, alpha):
    c = (kappa + 1.0) * lam
    s = kappa + alpha + 2.0
    return 2.0 * kappa * c ** (s / kappa) / ((alpha + 2.0) * s) \
        - c / (alpha + 2.0) + 1.0 / s


def _phi2_above(kappa, lam, alpha):
    c = (kappa + 1.0) * lam
    return c / (alpha + 2.0) - 1.0 / (kappa + alpha + 2.0)


def phi2(kappa: float, lam: float, alpha: float) -> float:
    _check_kl(kappa, lam)
    check_unit_interval("alpha", alpha)
    return _by_kink(_phi2_below, _phi2_above, kappa, lam, alpha)


def _phi3_below(kappa, lam, alpha):
    c = (kappa + 1.0) * lam
    s = kappa + alpha + 2.0
    return kappa * c ** ((kappa + 2.0) / kappa) / (kappa + 2.0) \
        - 2.0 * kappa * c ** (s / kappa) / ((alpha + 2.0) * s) \
        - alpha * c / (2.0 * (alpha + 2.0)) \
        + alpha / ((kappa + 2.0) * s)


def _phi3_above(kappa, lam, alpha):
    c = (kappa + 1.0) * lam
    return alpha * c / (2.0 * (alpha + 2.0)) \
        - alpha / ((kappa + 2.0) * (kappa + alpha + 2.0))


def phi3(kappa: float, lam: float, alpha: float) -> float:
    """Corrected closed form (constant-term numerator alpha)."""
    _check_kl(kappa, lam)
    check_unit_interval("alpha", alpha)
    return _by_kink(_phi3_below, _phi3_above, kappa, lam, alpha)


def _check_p(p: float) -> None:
    if not (p > 1.0 and math.isfinite(p)):
        raise DomainError("phi4 requires p > 1, got %r" % (p,))


def _phi4_mid(kappa, lam, p):
    # 0 < c <= 1; at c == 1 the second term vanishes and 2F1(..; 0) = 1
    c = (kappa + 1.0) * lam
    expo = (1.0 + (kappa + 1.0) * p) / kappa
    first = c ** expo / kappa * beta((1.0 + p) / kappa, 1.0 + p)
    scale = 1.0 / kappa * (1.0 - c) ** (p + 1.0) / (p + 1.0)
    series = hyp2f1_result(1.0 - (1.0 + p) / kappa, 1.0, p + 2.0, 1.0 - c)
    tail = scale * series.abs_error_estimate
    if tail > PHI4_TAIL_BUDGET:
        raise ConvergenceError("phi4(%r, %r, %r): 2F1 series near z = 1 cut with a "
                               "tail estimate of %.3g" % (kappa, lam, p, tail))
    return first + scale * series.value


def _phi4_upper(kappa, lam, p):
    # c >= 1: the kink sits at or beyond t = 1
    c = (kappa + 1.0) * lam
    x, y = (1.0 + p) / kappa, 1.0 + p
    inc = beta(x, y) if c == 1.0 else _beta_inc(1.0 / c, x, y)
    return c ** ((p * (kappa + 1.0) + 1.0) / kappa) / kappa * inc


def phi4(kappa: float, lam: float, p: float) -> float:
    """Corrected closed form (1/kappa on the middle-branch 2F1 term); in a
    sweep, its incomplete beta is shared with the printed 2b-e and 2b-g."""
    _check_kl(kappa, lam)
    _check_p(p)
    if lam == 0.0:
        return 1.0 / (p * (kappa + 1.0) + 1.0)
    if lam < 1.0 / (kappa + 1.0):
        return _phi4_mid(kappa, lam, p)
    return _phi4_upper(kappa, lam, p)


# --- quadrature oracle -----------------------------------------------------

# which -> (closed form of (kappa, lam, extra), oracle integrand of
# (t, kernel value, extra), the argument extra is: None, "alpha" or "p").
# The closed forms are looked up at call time, so wrapping phi1..phi4 sees them.
_MOMENTS = {
    1: (lambda k, lam, _: phi1(k, lam), lambda t, kern, _: t * kern, None),
    2: (lambda k, lam, al: phi2(k, lam, al),
        lambda t, kern, al: t ** (1.0 + al) * kern, "alpha"),
    3: (lambda k, lam, al: phi3(k, lam, al),
        lambda t, kern, al: t * (1.0 - t ** al) * kern, "alpha"),
    4: (lambda k, lam, p: phi4(k, lam, p),
        lambda t, kern, p: t ** p * kern ** p, "p"),
}
_CHECK_ARG = {"alpha": lambda al: check_unit_interval("alpha", al), "p": _check_p}


def _moment_key(which: int, kappa: float, lam: float, alpha, p) -> tuple:
    # extra is the one argument the moment reads, and it must be given
    if which not in tuple(_MOMENTS):
        raise DomainError("which must be 1..4, got %r" % (which,))
    arg = _MOMENTS[which][2]
    extra = {"alpha": alpha, "p": p}.get(arg)
    if arg and extra is None:
        raise DomainError("phi%d needs %s" % (which, arg))
    return (which, kappa, lam, extra)


def phi(which: int, kappa: float, lam: float, *,
        alpha: float | None = None, p: float | None = None) -> float:
    """Closed form of phi<which>; arguments as for phi_oracle.

    In a sweep each moment is computed once, and phi4 shares its
    incomplete beta through the sweep's memo.
    """
    key = _moment_key(which, kappa, lam, alpha, p)
    return memoized(("phi",) + key, lambda: _MOMENTS[which][0](*key[1:]))


def _oracle_spec(key: tuple, shared: dict) -> tuple:
    """(jobs, scale) of a phi_oracle memo key: phi_oracle's argument
    checks, then its (integrand, lo, hi) segments, summed.

    Cut at identity.kernel_cuts; within each segment the kernel sign is
    fixed, so no abs() enters the integrand.
    """
    _, which, kappa, lam, extra = key
    _check_kl(kappa, lam)
    _, moment, arg = _MOMENTS[which]
    if arg:
        _CHECK_ARG[arg](extra)
    c, cuts = kernel_cuts(kappa, lam)
    signs = (1.0, -1.0) if len(cuts) == 3 else (1.0 if c >= 1.0 else -1.0,)

    def job(sign):
        return lambda t: moment(t, np.maximum(sign * (c - t ** kappa), 0.0), extra)

    return [(job(sign), lo, hi) for lo, hi, sign in zip(cuts, cuts[1:], signs)], 1.0


def phi_oracle(which: int, kappa: float, lam: float, *,
               alpha: float | None = None, p: float | None = None) -> float:
    """Evaluate the defining integral of phi<which> by quadrature.

    Integrates the segments between the kink t* and the ends in one
    batch and sums them in order.  Completely independent of the closed
    forms and of the beta/2F1 machinery.  In a sweep the value is computed
    once (fill_phi_oracles computes many in one batch).
    """
    key = ("phi-oracle",) + _moment_key(which, kappa, lam, alpha, p)
    res, = unwrap(memoized_integrals([key], _oracle_spec, _ORACLE_TOL))
    return res.value


def fill_phi_oracles(specs) -> None:
    """Compute phi_oracle of each (which, kappa, lam, alpha, p) of specs at
    the default tolerance, in one memoized_integrals call; a spec without
    the alpha or p its moment reads raises DomainError first."""
    keys = [("phi-oracle",) + _moment_key(*spec) for spec in specs]
    memoized_integrals(keys, _oracle_spec, _ORACLE_TOL)


# --- reports ---------------------------------------------------------------

def _tightness(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        # degenerate f'' == 0 case: lhs is quadrature roundoff, report 0
        # rather than inf/nan; a real violation still shows up as inf
        return 0.0 if lhs <= HOLDS_SLACK else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class BoundReport:
    which: str
    lhs: float
    rhs: float
    holds: bool
    tightness: float


def _report(which: str, lhs: float, rhs: float) -> BoundReport:
    return BoundReport(which=which, lhs=lhs, rhs=rhs,
                       holds=lhs <= rhs + HOLDS_SLACK,
                       tightness=_tightness(lhs, rhs))


def _require_admitted(fn: FnTriple, alpha: float, m: float, q: float,
                      upper: float) -> None:
    report = is_admitted(fn, alpha, m, q, upper)
    if not report.holds:
        raise AdmissionError(
            "%s: |f''|^%g is not (%g, %g)-convex on [0, %g]; "
            "max violation %.3g at (x, y, t)=%r"
            % (fn.name, q, alpha, m, upper, report.max_violation,
               report.worst_point),
            report=report)


def _second_derivs(p: Params, fn: FnTriple) -> tuple:
    """|f''| at x, a/m and b, once per (fn, x, a, m, b) in a sweep."""
    return memoized(("second-derivs", fn, p.x, p.a, p.m, p.b),
                    lambda: tuple(abs(float(fn.ddf(u)))
                                  for u in (p.x, p.a / p.m, p.b)))


def _mixes(p: Params, fn: FnTriple, c2: float, c3: float, den: float) -> tuple:
    """((c2 |f''(x)|^q + c3 m |f''(a/m)|^q)/den)^(1/q) and the same at b."""
    d2x, d2a, d2b = _second_derivs(p, fn)
    q = p.q
    return tuple(((c2 * d2x ** q + c3 * p.m * d ** q) / den) ** (1.0 / q)
                 for d in (d2a, d2b))


def _hoelder_terms(p: Params, fn: FnTriple) -> tuple:
    """The Hoelder exponent q/(q-1) and the flat (alpha+1) mixes at p."""
    return (p.q / (p.q - 1.0),) + _mixes(p, fn, 1.0, p.alpha, p.alpha + 1.0)


def _power_mean_terms(p: Params, fn: FnTriple) -> tuple:
    """phi1^(1-1/q) and the a- and b-side phi2/phi3 mixes ^(1/q) at p."""
    f1 = phi(1, p.kappa, p.lam)
    f2 = phi(2, p.kappa, p.lam, alpha=p.alpha)
    f3 = phi(3, p.kappa, p.lam, alpha=p.alpha)
    d2x, d2a, d2b = _second_derivs(p, fn)
    q = p.q
    # (m |f''|^q) phi3 here, (c3 m) |f''|^q in _mixes: merging them moves last bits
    ia = d2x ** q * f2 + p.m * d2a ** q * f3
    ib = d2x ** q * f2 + p.m * d2b ** q * f3
    pref = f1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    return pref, ia ** (1.0 / q), ib ** (1.0 / q)


def _theorem_lhs(p: Params, fn: FnTriple) -> float:
    # admission first, so an unadmitted function never costs an integral
    _require_admitted(fn, p.alpha, p.m, p.q, max(p.b, p.a / p.m))
    return abs(direct_with_budget(p, fn)[0])


def bound_thm211(p: Params, fn: FnTriple) -> BoundReport:
    """Power-mean route: phi1^(1-1/q) with the phi2/phi3 inner mix.

    In a sweep each input of the report is computed once: its lhs,
    |direct side|, once per identity point, and each phi moment and |f''|
    value once.
    """
    lhs = _theorem_lhs(p, fn)
    pref, ga, gb = _power_mean_terms(p, fn)
    rhs = pref * (end_coef(p, p.a) * ga + end_coef(p, p.mb) * gb)
    return _report("thm211", lhs, rhs)


def bound_thm22(p: Params, fn: FnTriple) -> BoundReport:
    """Hoelder route: phi4^(1/p) with the flat (alpha+1) inner mix; q > 1.

    In a sweep each input of the report is computed once, as for
    bound_thm211.
    """
    if not p.q > 1.0:
        raise DomainError("the Hoelder route needs q > 1, got q=%r" % (p.q,))
    lhs = _theorem_lhs(p, fn)
    pp, ga, gb = _hoelder_terms(p, fn)
    f4 = phi(4, p.kappa, p.lam, p=pp)
    rhs = f4 ** (1.0 / pp) * (end_coef(p, p.a) * ga + end_coef(p, p.mb) * gb)
    return _report("thm22", lhs, rhs)


# --- classical baselines (kappa = m = alpha = 1) ---------------------------

def _check_classical(fn: FnTriple, a: float, b: float, lam: float,
                     q: float) -> None:
    check_unit_interval("lambda", lam)
    if not q >= 1.0:
        raise DomainError("q must be >= 1, got %r" % (q,))
    if not (0.0 <= a < b):
        raise DomainError("need 0 <= a < b, got a=%r b=%r" % (a, b))
    _require_admitted(fn, 1.0, 1.0, q, b)


def _average_spec(key: tuple, shared: dict) -> tuple:
    """(jobs, scale) of a ("simpson-avg", fn, a, b) key: int_a^b f."""
    _, fn, a, b = key
    return [(fn.f, a, b)], 1.0


def _simpson_blend_lhs(fn: FnTriple, a: float, b: float, lam: float) -> float:
    mid = 0.5 * (a + b)
    # the average reads no lambda: one integral per (fn, a, b)
    total, = unwrap(memoized_integrals([("simpson-avg", fn, a, b)],
                                       _average_spec, _LHS_TOL))
    avg = total.value / (b - a)
    return abs((1.0 - lam) * float(fn.f(mid))
               + lam * 0.5 * (float(fn.f(a)) + float(fn.f(b))) - avg)


def _sarikaya_terms_low(lam: float) -> tuple[float, float, float]:
    pref = lam ** 3 / 3.0 + (1.0 - 3.0 * lam) / 24.0
    ca = lam ** 4 / 6.0 + (3.0 - 8.0 * lam) / 192.0
    cb = (2.0 - lam) * lam ** 3 / 6.0 + (5.0 - 16.0 * lam) / 192.0
    return pref, ca, cb


def _sarikaya_terms_high(lam: float) -> tuple[float, float, float]:
    pref = (3.0 * lam - 1.0) / 24.0
    ca = (8.0 * lam - 3.0) / 192.0
    cb = (16.0 * lam - 5.0) / 192.0
    return pref, ca, cb


def bound_sarikaya(fn: FnTriple, a: float, b: float, lam: float, q: float,
                   literal: bool = False) -> BoundReport:
    """Classical two-branch Simpson-type baseline for convex |f''|^q.

    The circulated lower branch prints |f''(b)|^q twice in its second
    group; the default restores the a/b symmetry (literal=False).  Pass
    literal=True to evaluate the uncorrected form.
    """
    _check_classical(fn, a, b, lam, q)
    da = abs(float(fn.ddf(a)))
    db = abs(float(fn.ddf(b)))
    low = lam <= 0.5
    pref, ca, cb = (_sarikaya_terms_low if low else _sarikaya_terms_high)(lam)
    g1 = (ca * da ** q + cb * db ** q) ** (1.0 / q)
    second = db if literal and low else da
    g2 = (ca * db ** q + cb * second ** q) ** (1.0 / q)
    prefactor = pref ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    lhs = _simpson_blend_lhs(fn, a, b, lam)
    rhs = (b - a) ** 2 / 2.0 * prefactor * (g1 + g2)
    return _report("sarikaya-literal" if literal else "sarikaya", lhs, rhs)


def remark_phi1(lam: float) -> float:
    """kappa = alpha = 1 moment table, written directly in lambda."""
    if lam <= 0.5:
        return 8.0 * (lam ** 3 / 3.0 + (1.0 - 3.0 * lam) / 24.0)
    return (3.0 * lam - 1.0) / 3.0


def remark_phi2(lam: float) -> float:
    if lam <= 0.5:
        return 16.0 * (lam ** 4 / 6.0 + (3.0 - 8.0 * lam) / 192.0)
    return (8.0 * lam - 3.0) / 12.0


def remark_phi3(lam: float) -> float:
    if lam <= 0.5:
        return (-8.0 * lam ** 4 + 8.0 * lam ** 3 - lam) / 3.0 + 1.0 / 12.0
    return (4.0 * lam - 1.0) / 12.0


def remark_bound(fn: FnTriple, a: float, b: float, lam: float,
                 q: float) -> BoundReport:
    """The kappa = m = alpha = 1 specialization with its own moment table."""
    _check_classical(fn, a, b, lam, q)
    mid = 0.5 * (a + b)
    dm = abs(float(fn.ddf(mid)))
    da = abs(float(fn.ddf(a)))
    db = abs(float(fn.ddf(b)))
    r1, r2, r3 = remark_phi1(lam), remark_phi2(lam), remark_phi3(lam)
    g1 = (dm ** q * r2 + da ** q * r3) ** (1.0 / q)
    g2 = (dm ** q * r2 + db ** q * r3) ** (1.0 / q)
    prefactor = r1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    lhs = _simpson_blend_lhs(fn, a, b, lam)
    rhs = (b - a) ** 2 / 16.0 * prefactor * (g1 + g2)
    return _report("remark", lhs, rhs)


# --- corollary transcriptions ---------------------------------------------
# Each printed right-hand side is transcribed as circulated, with the
# compact-notation readings 23^(a+2) -> 2*3^(a+2), 83^(a-1) -> 8*3^(a-1)
# and the undefined symbol s read as alpha.  corollary_check compares the
# transcription against the scaled general bound and reports, never
# repairs, any mismatch.

@dataclass(frozen=True)
class CorollaryReport(BoundReport):
    printed_rhs: float
    discrepancy: float
    matches_printed: bool
    typo_suspect: bool
    note: str


def _beta_inc(a: float, x: float, y: float) -> float:
    """beta_inc(a, x, y), once per sweep."""
    return memoized(("beta_inc", a, x, y), lambda: beta_inc(a, x, y))


def _printed_2a_a(p: Params, fn: FnTriple) -> float:
    # q = 1, and x ** 1.0 is x: these are the printed phi2/phi3 mixes
    w, k = p.width, p.kappa
    _, ga, gb = _power_mean_terms(p, fn)
    return (p.x - p.a) ** (k + 1.0) / w * ga + (p.mb - p.x) ** (k + 1.0) / w * gb


def _printed_midpoint_pm(p: Params, fn: FnTriple) -> float:
    # the symbol-referencing midpoint form shared by several corollaries
    pref, ga, gb = _power_mean_terms(p, fn)
    return p.width ** 2 / (8.0 * (p.kappa + 1.0)) * pref * (ga + gb)


def _printed_2a_d(p: Params, fn: FnTriple) -> float:
    w, q, al = p.width, p.q, p.alpha
    den = 3.0 ** (al + 3.0) * (al + 2.0) * (al + 3.0)
    f2p = (2.0 ** (al + 4.0) - 2.0 * 3.0 ** (al + 2.0)
           + 3.0 ** (al + 3.0) * (al + 2.0)) / den
    f3p = (-2.0 ** (al + 4.0) - al * 3.0 ** (al + 2.0) * (al + 3.0)
           + 3.0 ** (al + 3.0) * (al + 2.0)
           + 8.0 * 3.0 ** (al - 1.0) * (al + 2.0) * (al + 3.0)) / den
    return w ** 2 / 162.0 * (81.0 / 8.0) ** (1.0 / q) \
        * sum(_mixes(p, fn, f2p, f3p, 1.0))


def _printed_2a_e(p: Params, fn: FnTriple) -> float:
    w, k, q, al = p.width, p.kappa, p.q, p.alpha
    d2x, d2a, d2b = _second_derivs(p, fn)
    ia = d2x ** q + k * p.m * d2a ** q / (k + 2.0)
    ib = d2x ** q + k * p.m * d2b ** q / (k + 2.0)
    return w ** 2 / (8.0 * (k + 1.0) * (al * k + 2.0)) \
        * ((k + 2.0) / (k + al + 2.0)) ** (1.0 / q) \
        * (ia ** (1.0 / q) + ib ** (1.0 / q))


def _printed_2a_f(p: Params, fn: FnTriple) -> float:
    w, q, al = p.width, p.q, p.alpha
    # 1.0 * m is m exactly: the printed 3 |f''(x)|^q + m |f''(a/m)|^q
    return w ** 2 / 48.0 * (1.0 / (al + 3.0)) ** (1.0 / q) \
        * sum(_mixes(p, fn, 3.0, 1.0, 1.0))


def _printed_2a_g(p: Params, fn: FnTriple) -> float:
    w, k, q, al = p.width, p.kappa, p.q, p.alpha
    f2 = k * (k + al + 3.0) / ((al + 2.0) * (k + al + 2.0))
    f3 = al * (k + 1.0) / (2.0 * (al + 2.0)) - k / ((k + 2.0) * (k + al + 2.0))
    f1 = k * (k + 3.0) / (2.0 * (k + 2.0))
    pref = f1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    return w ** 2 / (8.0 * (k + 1.0)) * pref * sum(_mixes(p, fn, f2, f3, 1.0))


def _printed_2a_h(p: Params, fn: FnTriple) -> float:
    w, q, al = p.width, p.q, p.alpha
    f2 = (al + 4.0) / ((al + 2.0) * (al + 3.0))
    f3 = (3.0 * al ** 2 + 8.0 * al - 2.0) / (3.0 * (al + 2.0) * (al + 3.0))
    pref = (2.0 / 3.0) ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    return w ** 2 / 16.0 * pref * sum(_mixes(p, fn, f2, f3, 1.0))


def _printed_2b_a(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp, ga, gb = _hoelder_terms(p, fn)
    f4 = phi(4, k, p.lam, p=pp)
    return f4 ** (1.0 / pp) * w ** 2 / (8.0 * (k + 1.0)) * (ga + gb)


def _printed_2b_c(p: Params, fn: FnTriple) -> float:
    pp, ga, gb = _hoelder_terms(p, fn)
    # as circulated: no 1/(p+1) on the 2F1 term
    f4p = (2.0 / 3.0) ** (1.0 + 2.0 * pp) * beta(1.0 + pp, 1.0 + pp) \
        + (1.0 / 3.0) ** (1.0 + pp) * hyp2f1(-pp, 1.0, pp + 2.0, 1.0 / 3.0)
    return p.width ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_d(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp, ga, gb = _hoelder_terms(p, fn)
    f4p = 1.0 / (pp * (k + 1.0) + 1.0)
    return w ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_e(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp, ga, gb = _hoelder_terms(p, fn)
    f4p = (1.0 + k) ** ((pp * (k + 1.0) + 1.0) / k) / k \
        * _beta_inc(1.0 / (1.0 + k), (1.0 + pp) / k, 1.0 + pp)
    return w ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_g(p: Params, fn: FnTriple) -> float:
    pp, ga, gb = _hoelder_terms(p, fn)
    inc = _beta_inc(0.5, 1.0 + pp, 1.0 + pp)
    return p.width ** 2 / 4.0 * (2.0 * inc) ** (1.0 / pp) * (ga + gb)


@dataclass(frozen=True)
class _CorollarySpec:
    printed: object
    x_mid: bool
    lam_req: float | None
    kappa_req: float | None
    q_req: str           # "one", "gt1" or "any"
    typo_suspect: bool
    note: str


_COROLLARIES = {
    "2a-a": _CorollarySpec(
        _printed_2a_a, False, None, None, "one", True,
        "coefficient prints (x-a)^(k+1)/w where the general bound has "
        "(x-a)^(k+2)/((k+1) w)"),
    "2a-b": _CorollarySpec(
        _printed_midpoint_pm, True, None, None, "any", False,
        "midpoint form; references the moment symbols, matches the "
        "general bound exactly"),
    "2a-c": _CorollarySpec(
        _printed_midpoint_pm, True, 1.0 / 3.0, None, "any", False,
        "lambda = 1/3 midpoint form; matches the general bound exactly"),
    "2a-d": _CorollarySpec(
        _printed_2a_d, True, 1.0 / 3.0, 1.0, "any", True,
        "expanded constants (readings 23^(a+2) -> 2*3^(a+2), "
        "83^(a-1) -> 8*3^(a-1)); the phi2 constant drops a factor "
        "(alpha+3) and the phi3 constant misprints the power of 3"),
    "2a-e": _CorollarySpec(
        _printed_2a_e, True, 0.0, None, "any", True,
        "symbol s read as alpha; prefactor prints (alpha*k+2) for (k+2) "
        "and the inner constant prints k where alpha belongs; coincides "
        "with the general bound only at alpha = k = 1"),
    "2a-f": _CorollarySpec(
        _printed_2a_f, True, 0.0, 1.0, "any", True,
        "symbol s read as alpha; the m-term misses its alpha factor, "
        "coincides with the general bound only at alpha = 1"),
    "2a-g": _CorollarySpec(
        _printed_2a_g, True, 1.0, None, "any", True,
        "inner constant inherits the phi3 constant-term defect "
        "(k where alpha belongs); coincides at alpha = k"),
    "2a-h": _CorollarySpec(
        _printed_2a_h, True, 1.0, 1.0, "any", True,
        "m-coefficient prints (3a^2+8a-2)/(3(a+2)(a+3)); the validated "
        "moment gives a(2a+7)/(3(a+2)(a+3)), equal only at alpha = 1"),
    "2b-a": _CorollarySpec(
        _printed_2b_a, True, None, None, "gt1", False,
        "midpoint Hoelder form; matches the general bound exactly"),
    "2b-b": _CorollarySpec(
        _printed_2b_a, True, 1.0 / 3.0, None, "gt1", False,
        "lambda = 1/3 Hoelder form; matches the general bound exactly"),
    "2b-c": _CorollarySpec(
        _printed_2b_c, True, 1.0 / 3.0, 1.0, "gt1", True,
        "the expanded phi4 omits the 1/(p+1) factor on its 2F1 term"),
    "2b-d": _CorollarySpec(
        _printed_2b_d, True, 0.0, None, "gt1", True,
        "prefactor prints w^2/16 inside a general-k statement; the "
        "general bound carries w^2/(8(k+1)), equal only at k = 1"),
    "2b-e": _CorollarySpec(
        _printed_2b_e, True, 1.0, None, "gt1", True,
        "prefactor prints w^2/16 inside a general-k statement; the "
        "general bound carries w^2/(8(k+1)), equal only at k = 1"),
    "2b-g": _CorollarySpec(
        _printed_2b_g, True, 1.0, 1.0, "gt1", False,
        "lambda = k = 1 Hoelder form; matches the general bound exactly"),
}
COROLLARY_IDS = tuple(_COROLLARIES)


def corollary_unmet(cid: str, p: Params) -> str | None:
    """The first specialization of corollary cid that p misses, or None.

    The specializations are the midpoint x, a pinned lambda or kappa and
    the q regime; corollary_check raises DomainError with this message.
    """
    spec = _COROLLARIES[cid]
    tol = 1e-12
    if spec.x_mid and abs(p.x - 0.5 * (p.a + p.mb)) > tol * max(1.0, abs(p.mb)):
        return "%s requires x = (a + m b)/2" % cid
    if spec.lam_req is not None and abs(p.lam - spec.lam_req) > tol:
        return "%s requires lambda = %g" % (cid, spec.lam_req)
    if spec.kappa_req is not None and abs(p.kappa - spec.kappa_req) > tol:
        return "%s requires kappa = %g" % (cid, spec.kappa_req)
    if spec.q_req == "one" and p.q != 1.0:
        return "%s requires q = 1" % cid
    if spec.q_req == "gt1" and not p.q > 1.0:
        return "%s requires q > 1" % cid
    return None


def corollary_check(cid: str, p: Params, fn: FnTriple) -> CorollaryReport:
    """Compare a printed corollary right-hand side with the general bound.

    The returned rhs is always the scaled general bound; the printed
    value and its discrepancy ride along for reporting.  Raises
    DomainError when p does not satisfy the corollary's specialization
    (midpoint x, pinned lambda/kappa, q regime).
    """
    spec = _COROLLARIES.get(cid)
    if spec is None:
        raise DomainError("unknown corollary id %r; valid ids: %s"
                          % (cid, ", ".join(COROLLARY_IDS)))
    unmet = corollary_unmet(cid, p)
    if unmet is not None:
        raise DomainError(unmet)

    # q > 1 corollaries specialize the Hoelder route, the rest the power mean
    base = (bound_thm22 if spec.q_req == "gt1" else bound_thm211)(p, fn)
    scale = (2.0 / p.width) ** (p.kappa - 1.0) if spec.x_mid else 1.0
    rep = _report("corollary:" + cid, scale * base.lhs, scale * base.rhs)
    printed_rhs = float(spec.printed(p, fn))
    discrepancy = abs(printed_rhs - rep.rhs)
    return CorollaryReport(**vars(rep),
                           printed_rhs=printed_rhs,
                           discrepancy=discrepancy,
                           matches_printed=discrepancy <= COROLLARY_MATCH_TOL,
                           typo_suspect=spec.typo_suspect,
                           note=spec.note)

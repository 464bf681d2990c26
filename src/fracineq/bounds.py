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
are the corrected forms; phi3_literal() and phi4_literal() keep the
uncorrected versions so the discrepancies stay visible.  Corollary
transcriptions that inherited the phi3 constant are flagged by
corollary_check, never patched silently: the general bound is always
the authoritative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amconvex import FnTriple, is_admitted
from .errors import AdmissionError, DomainError
from .identity import Params, direct_with_budget, memoized
from .quad import Tolerance, integrate
from .specfun import beta, beta_inc, hyp2f1

HOLDS_SLACK = 1e-9
COROLLARY_MATCH_TOL = 1e-10

_ORACLE_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_subdiv=4000)
_LHS_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_subdiv=2000)


def _check_kl(kappa: float, lam: float) -> None:
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError("kappa must be > 0, got %r" % (kappa,))
    if not (0.0 <= lam <= 1.0):
        raise DomainError("lambda must lie in [0, 1], got %r" % (lam,))


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must lie in [0, 1], got %r" % (alpha,))


# --- closed forms ----------------------------------------------------------
# c = (k+1) lam throughout; "below" means lam <= 1/(k+1) (kink inside [0,1])

def _phi1_below(kappa, lam):
    c = (kappa + 1.0) * lam
    return kappa * c ** ((kappa + 2.0) / kappa) / (kappa + 2.0) \
        - 0.5 * c + 1.0 / (kappa + 2.0)


def _phi1_above(kappa, lam):
    c = (kappa + 1.0) * lam
    return 0.5 * c - 1.0 / (kappa + 2.0)


def phi1(kappa: float, lam: float) -> float:
    _check_kl(kappa, lam)
    if lam <= 1.0 / (kappa + 1.0):
        return _phi1_below(kappa, lam)
    return _phi1_above(kappa, lam)


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
    _check_alpha(alpha)
    if lam <= 1.0 / (kappa + 1.0):
        return _phi2_below(kappa, lam, alpha)
    return _phi2_above(kappa, lam, alpha)


def _phi3_below(kappa, lam, alpha, const_num):
    c = (kappa + 1.0) * lam
    s = kappa + alpha + 2.0
    return kappa * c ** ((kappa + 2.0) / kappa) / (kappa + 2.0) \
        - 2.0 * kappa * c ** (s / kappa) / ((alpha + 2.0) * s) \
        - alpha * c / (2.0 * (alpha + 2.0)) \
        + const_num / ((kappa + 2.0) * s)


def _phi3_above(kappa, lam, alpha, const_num):
    c = (kappa + 1.0) * lam
    return alpha * c / (2.0 * (alpha + 2.0)) \
        - const_num / ((kappa + 2.0) * (kappa + alpha + 2.0))


def _phi3(kappa, lam, alpha, const_num):
    _check_kl(kappa, lam)
    _check_alpha(alpha)
    if lam <= 1.0 / (kappa + 1.0):
        return _phi3_below(kappa, lam, alpha, const_num)
    return _phi3_above(kappa, lam, alpha, const_num)


def phi3(kappa: float, lam: float, alpha: float) -> float:
    """Corrected closed form (constant-term numerator alpha)."""
    return _phi3(kappa, lam, alpha, alpha)


def phi3_literal(kappa: float, lam: float, alpha: float) -> float:
    """Uncorrected closed form (constant-term numerator kappa).

    Kept for adjudication: coincides with phi3 iff alpha == kappa, is
    negative at alpha = 0, and fails the oracle otherwise.
    """
    return _phi3(kappa, lam, alpha, kappa)


def _check_p(p: float) -> None:
    if not (p > 1.0 and math.isfinite(p)):
        raise DomainError("phi4 requires p > 1, got %r" % (p,))


def _phi4_mid(kappa, lam, p, second_scale=None):
    # 0 < c <= 1; at c == 1 the second term vanishes and 2F1(..; 0) = 1
    c = (kappa + 1.0) * lam
    expo = (1.0 + (kappa + 1.0) * p) / kappa
    first = c ** expo / kappa * beta((1.0 + p) / kappa, 1.0 + p)
    if second_scale is None:
        second_scale = 1.0 / kappa
    second = second_scale * (1.0 - c) ** (p + 1.0) / (p + 1.0) \
        * hyp2f1(1.0 - (1.0 + p) / kappa, 1.0, p + 2.0, 1.0 - c)
    return first + second


def _phi4_upper(kappa, lam, p):
    # c >= 1: the kink sits at or beyond t = 1
    c = (kappa + 1.0) * lam
    x, y = (1.0 + p) / kappa, 1.0 + p
    inc = beta(x, y) if c == 1.0 else beta_inc(1.0 / c, x, y)
    return c ** ((p * (kappa + 1.0) + 1.0) / kappa) / kappa * inc


def _phi4(kappa, lam, p, second_scale=None):
    _check_kl(kappa, lam)
    _check_p(p)
    if lam == 0.0:
        return 1.0 / (p * (kappa + 1.0) + 1.0)
    if lam < 1.0 / (kappa + 1.0):
        return _phi4_mid(kappa, lam, p, second_scale)
    return _phi4_upper(kappa, lam, p)


def phi4(kappa: float, lam: float, p: float) -> float:
    """Corrected closed form (1/kappa on the middle-branch 2F1 term)."""
    return _phi4(kappa, lam, p)


def phi4_literal(kappa: float, lam: float, p: float) -> float:
    """Uncorrected middle branch (no 1/kappa on the 2F1 term).

    Kept for adjudication: substituting s = c + (1-c)w into the
    post-kink piece of the defining integral produces
    (1-c)^(p+1) / (kappa (p+1)) 2F1(...), so the circulated form is
    too large by the factor 1/kappa for kappa < 1 (too small for
    kappa > 1) whenever the kink is interior.  Coincides with phi4
    at kappa = 1 and on the other two branches.
    """
    return _phi4(kappa, lam, p, second_scale=1.0)


# --- quadrature oracle -----------------------------------------------------

def _check_which(which: int, alpha: float | None, p: float | None) -> None:
    if which not in (1, 2, 3, 4):
        raise DomainError("which must be 1..4, got %r" % (which,))
    if which in (2, 3) and alpha is None:
        raise DomainError("phi%d needs alpha" % which)
    if which == 4 and p is None:
        raise DomainError("phi4 needs p")


def phi(which: int, kappa: float, lam: float, *,
        alpha: float | None = None, p: float | None = None) -> float:
    """Closed form of phi<which>; arguments as for phi_oracle."""
    _check_which(which, alpha, p)
    if which == 1:
        return phi1(kappa, lam)
    if which == 2:
        return phi2(kappa, lam, alpha)
    if which == 3:
        return phi3(kappa, lam, alpha)
    return phi4(kappa, lam, p)


def phi_oracle(which: int, kappa: float, lam: float, *,
               alpha: float | None = None, p: float | None = None,
               tol: Tolerance | None = None) -> float:
    """Evaluate the defining integral of phi<which> by quadrature.

    Splits at the kink t*; within each segment the kernel sign is fixed,
    so no abs() enters the integrand.  Completely independent of the
    closed forms and of the beta/2F1 machinery.
    """
    _check_kl(kappa, lam)
    _check_which(which, alpha, p)
    if which in (2, 3):
        _check_alpha(alpha)
    if which == 4:
        _check_p(p)
    tol = tol if tol is not None else _ORACLE_TOL

    c = (kappa + 1.0) * lam
    if c <= 0.0:
        segments = [(0.0, 1.0, -1.0)]
    elif c >= 1.0:
        segments = [(0.0, 1.0, 1.0)]
    else:
        tstar = c ** (1.0 / kappa)
        segments = [(0.0, tstar, 1.0), (tstar, 1.0, -1.0)]

    def integrand(t, sign):
        kern = np.maximum(sign * (c - t ** kappa), 0.0)
        if which == 1:
            return t * kern
        if which == 2:
            return t ** (1.0 + alpha) * kern
        if which == 3:
            return t * (1.0 - t ** alpha) * kern
        return t ** p * kern ** p

    total = 0.0
    for lo, hi, sign in segments:
        total += integrate(lambda t: integrand(t, sign), lo, hi, tol).value
    return total


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


def _coefs(p: Params) -> tuple[float, float]:
    w, k = p.width, p.kappa
    c1 = (p.x - p.a) ** (k + 2.0) / ((k + 1.0) * w)
    c2 = (p.mb - p.x) ** (k + 2.0) / ((k + 1.0) * w)
    return c1, c2


def _second_derivs(p: Params, fn: FnTriple) -> tuple[float, float, float]:
    return (abs(float(fn.ddf(p.x))),
            abs(float(fn.ddf(p.a / p.m))),
            abs(float(fn.ddf(p.b))))


def _holder_inner(p: Params, fn: FnTriple) -> tuple[float, float]:
    # the flat (alpha+1) mixes of |f''|^q, each to the power 1/q
    d2x, d2a, d2b = _second_derivs(p, fn)
    q, al = p.q, p.alpha
    ia = (d2x ** q + al * p.m * d2a ** q) / (al + 1.0)
    ib = (d2x ** q + al * p.m * d2b ** q) / (al + 1.0)
    return ia ** (1.0 / q), ib ** (1.0 / q)


def _theorem_lhs(p: Params, fn: FnTriple, check_admission: bool,
                 memo: dict | None) -> float:
    # admission first, so an unadmitted function never costs an integral
    if check_admission:
        _require_admitted(fn, p.alpha, p.m, p.q, max(p.b, p.a / p.m))
    return abs(direct_with_budget(p, fn, memo)[0])


def bound_thm211(p: Params, fn: FnTriple, check_admission: bool = True,
                 memo: dict | None = None) -> BoundReport:
    """Power-mean route: phi1^(1-1/q) with the phi2/phi3 inner mix.

    With a memo the report is computed once per (fn, p, check_admission),
    and its lhs, |direct side|, once per identity point.
    """
    return memoized(memo, ("thm211", fn, p, check_admission),
                    lambda: _thm211(p, fn, check_admission, memo))


def _thm211(p, fn, check_admission, memo):
    lhs = _theorem_lhs(p, fn, check_admission, memo)
    f1 = phi1(p.kappa, p.lam)
    f2 = phi2(p.kappa, p.lam, p.alpha)
    f3 = phi3(p.kappa, p.lam, p.alpha)
    d2x, d2a, d2b = _second_derivs(p, fn)
    q = p.q
    inner_a = d2x ** q * f2 + p.m * d2a ** q * f3
    inner_b = d2x ** q * f2 + p.m * d2b ** q * f3
    c1, c2 = _coefs(p)
    pref = f1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    rhs = pref * (c1 * inner_a ** (1.0 / q) + c2 * inner_b ** (1.0 / q))
    return _report("thm211", lhs, rhs)


def bound_thm22(p: Params, fn: FnTriple, check_admission: bool = True,
                memo: dict | None = None) -> BoundReport:
    """Hoelder route: phi4^(1/p) with the flat (alpha+1) inner mix; q > 1.

    With a memo the report is computed once per (fn, p, check_admission),
    and its lhs, |direct side|, once per identity point.
    """
    return memoized(memo, ("thm22", fn, p, check_admission),
                    lambda: _thm22(p, fn, check_admission, memo))


def _thm22(p, fn, check_admission, memo):
    if not p.q > 1.0:
        raise DomainError("the Hoelder route needs q > 1, got q=%r" % (p.q,))
    lhs = _theorem_lhs(p, fn, check_admission, memo)
    pp = p.q / (p.q - 1.0)
    f4 = phi4(p.kappa, p.lam, pp)
    ga, gb = _holder_inner(p, fn)
    c1, c2 = _coefs(p)
    rhs = f4 ** (1.0 / pp) * (c1 * ga + c2 * gb)
    return _report("thm22", lhs, rhs)


# --- classical baselines (kappa = m = alpha = 1) ---------------------------

def _check_classical(fn: FnTriple, a: float, b: float, lam: float, q: float,
                     check_admission: bool) -> None:
    if not (0.0 <= lam <= 1.0):
        raise DomainError("lambda must lie in [0, 1], got %r" % (lam,))
    if not q >= 1.0:
        raise DomainError("q must be >= 1, got %r" % (q,))
    if not (0.0 <= a < b):
        raise DomainError("need 0 <= a < b, got a=%r b=%r" % (a, b))
    if check_admission:
        _require_admitted(fn, 1.0, 1.0, q, b)


def _simpson_blend_lhs(fn: FnTriple, a: float, b: float, lam: float,
                       memo: dict | None = None) -> float:
    def compute():
        mid = 0.5 * (a + b)
        avg = integrate(fn.f, a, b, _LHS_TOL).value / (b - a)
        return abs((1.0 - lam) * float(fn.f(mid))
                   + lam * 0.5 * (float(fn.f(a)) + float(fn.f(b))) - avg)
    return memoized(memo, ("simpson", fn, a, b, lam), compute)


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
                   literal: bool = False, check_admission: bool = True,
                   memo: dict | None = None) -> BoundReport:
    """Classical two-branch Simpson-type baseline for convex |f''|^q.

    The circulated lower branch prints |f''(b)|^q twice in its second
    group; the default restores the a/b symmetry (literal=False).  Pass
    literal=True to evaluate the uncorrected form.  The lhs is taken
    from memo when one is given.
    """
    _check_classical(fn, a, b, lam, q, check_admission)
    da = abs(float(fn.ddf(a)))
    db = abs(float(fn.ddf(b)))
    if lam <= 0.5:
        pref, ca, cb = _sarikaya_terms_low(lam)
        g1 = (ca * da ** q + cb * db ** q) ** (1.0 / q)
        second = db if literal else da
        g2 = (ca * db ** q + cb * second ** q) ** (1.0 / q)
    else:
        pref, ca, cb = _sarikaya_terms_high(lam)
        g1 = (ca * da ** q + cb * db ** q) ** (1.0 / q)
        g2 = (ca * db ** q + cb * da ** q) ** (1.0 / q)
    prefactor = pref ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    lhs = _simpson_blend_lhs(fn, a, b, lam, memo)
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


def remark_bound(fn: FnTriple, a: float, b: float, lam: float, q: float,
                 check_admission: bool = True,
                 memo: dict | None = None) -> BoundReport:
    """The kappa = m = alpha = 1 specialization with its own moment table.

    The lhs is taken from memo when one is given.
    """
    _check_classical(fn, a, b, lam, q, check_admission)
    mid = 0.5 * (a + b)
    dm = abs(float(fn.ddf(mid)))
    da = abs(float(fn.ddf(a)))
    db = abs(float(fn.ddf(b)))
    r1, r2, r3 = remark_phi1(lam), remark_phi2(lam), remark_phi3(lam)
    g1 = (dm ** q * r2 + da ** q * r3) ** (1.0 / q)
    g2 = (dm ** q * r2 + db ** q * r3) ** (1.0 / q)
    prefactor = r1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    lhs = _simpson_blend_lhs(fn, a, b, lam, memo)
    rhs = (b - a) ** 2 / 16.0 * prefactor * (g1 + g2)
    return _report("remark", lhs, rhs)


# --- corollary transcriptions ---------------------------------------------
# Each printed right-hand side is transcribed as circulated, with the
# compact-notation readings 23^(a+2) -> 2*3^(a+2), 83^(a-1) -> 8*3^(a-1)
# and the undefined symbol s read as alpha.  corollary_check compares the
# transcription against the scaled general bound and reports, never
# repairs, any mismatch.

@dataclass(frozen=True)
class CorollaryReport:
    which: str
    lhs: float
    rhs: float            # authoritative: the scaled general bound
    holds: bool
    tightness: float
    printed_rhs: float
    general_rhs: float
    discrepancy: float
    matches_printed: bool
    typo_suspect: bool
    note: str


def _printed_2a_a(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    f2 = phi2(k, p.lam, p.alpha)
    f3 = phi3(k, p.lam, p.alpha)
    d2x, d2a, d2b = _second_derivs(p, fn)
    return (p.x - p.a) ** (k + 1.0) / w * (d2x * f2 + p.m * d2a * f3) \
        + (p.mb - p.x) ** (k + 1.0) / w * (d2x * f2 + p.m * d2b * f3)


def _printed_midpoint_pm(p: Params, fn: FnTriple) -> float:
    # the symbol-referencing midpoint form shared by several corollaries
    w, k, q = p.width, p.kappa, p.q
    f1 = phi1(k, p.lam)
    f2 = phi2(k, p.lam, p.alpha)
    f3 = phi3(k, p.lam, p.alpha)
    d2x, d2a, d2b = _second_derivs(p, fn)
    pref = w ** 2 / (8.0 * (k + 1.0)) * (f1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0)
    ia = d2x ** q * f2 + p.m * d2a ** q * f3
    ib = d2x ** q * f2 + p.m * d2b ** q * f3
    return pref * (ia ** (1.0 / q) + ib ** (1.0 / q))


def _printed_2a_d(p: Params, fn: FnTriple) -> float:
    w, q, al = p.width, p.q, p.alpha
    den = 3.0 ** (al + 3.0) * (al + 2.0) * (al + 3.0)
    f2p = (2.0 ** (al + 4.0) - 2.0 * 3.0 ** (al + 2.0)
           + 3.0 ** (al + 3.0) * (al + 2.0)) / den
    f3p = (-2.0 ** (al + 4.0) - al * 3.0 ** (al + 2.0) * (al + 3.0)
           + 3.0 ** (al + 3.0) * (al + 2.0)
           + 8.0 * 3.0 ** (al - 1.0) * (al + 2.0) * (al + 3.0)) / den
    d2x, d2a, d2b = _second_derivs(p, fn)
    ia = f2p * d2x ** q + p.m * f3p * d2a ** q
    ib = f2p * d2x ** q + p.m * f3p * d2b ** q
    return w ** 2 / 162.0 * (81.0 / 8.0) ** (1.0 / q) \
        * (ia ** (1.0 / q) + ib ** (1.0 / q))


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
    d2x, d2a, d2b = _second_derivs(p, fn)
    ia = 3.0 * d2x ** q + p.m * d2a ** q
    ib = 3.0 * d2x ** q + p.m * d2b ** q
    return w ** 2 / 48.0 * (1.0 / (al + 3.0)) ** (1.0 / q) \
        * (ia ** (1.0 / q) + ib ** (1.0 / q))


def _printed_2a_g(p: Params, fn: FnTriple) -> float:
    w, k, q, al = p.width, p.kappa, p.q, p.alpha
    d2x, d2a, d2b = _second_derivs(p, fn)
    f2 = k * (k + al + 3.0) / ((al + 2.0) * (k + al + 2.0))
    f3 = al * (k + 1.0) / (2.0 * (al + 2.0)) - k / ((k + 2.0) * (k + al + 2.0))
    f1 = k * (k + 3.0) / (2.0 * (k + 2.0))
    ia = f2 * d2x ** q + p.m * f3 * d2a ** q
    ib = f2 * d2x ** q + p.m * f3 * d2b ** q
    pref = f1 ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    return w ** 2 / (8.0 * (k + 1.0)) * pref \
        * (ia ** (1.0 / q) + ib ** (1.0 / q))


def _printed_2a_h(p: Params, fn: FnTriple) -> float:
    w, q, al = p.width, p.q, p.alpha
    d2x, d2a, d2b = _second_derivs(p, fn)
    f2 = (al + 4.0) / ((al + 2.0) * (al + 3.0))
    f3 = (3.0 * al ** 2 + 8.0 * al - 2.0) / (3.0 * (al + 2.0) * (al + 3.0))
    ia = f2 * d2x ** q + p.m * f3 * d2a ** q
    ib = f2 * d2x ** q + p.m * f3 * d2b ** q
    pref = (2.0 / 3.0) ** (1.0 - 1.0 / q) if q > 1.0 else 1.0
    return w ** 2 / 16.0 * pref * (ia ** (1.0 / q) + ib ** (1.0 / q))


def _printed_2b_a(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp = p.q / (p.q - 1.0)
    ga, gb = _holder_inner(p, fn)
    return phi4(k, p.lam, pp) ** (1.0 / pp) * w ** 2 / (8.0 * (k + 1.0)) * (ga + gb)


def _printed_2b_c(p: Params, fn: FnTriple) -> float:
    w = p.width
    pp = p.q / (p.q - 1.0)
    # as circulated: no 1/(p+1) on the 2F1 term
    f4p = (2.0 / 3.0) ** (1.0 + 2.0 * pp) * beta(1.0 + pp, 1.0 + pp) \
        + (1.0 / 3.0) ** (1.0 + pp) * hyp2f1(-pp, 1.0, pp + 2.0, 1.0 / 3.0)
    ga, gb = _holder_inner(p, fn)
    return w ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_d(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp = p.q / (p.q - 1.0)
    f4p = 1.0 / (pp * (k + 1.0) + 1.0)
    ga, gb = _holder_inner(p, fn)
    return w ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_e(p: Params, fn: FnTriple) -> float:
    w, k = p.width, p.kappa
    pp = p.q / (p.q - 1.0)
    f4p = (1.0 + k) ** ((pp * (k + 1.0) + 1.0) / k) / k \
        * beta_inc(1.0 / (1.0 + k), (1.0 + pp) / k, 1.0 + pp)
    ga, gb = _holder_inner(p, fn)
    return w ** 2 / 16.0 * f4p ** (1.0 / pp) * (ga + gb)


def _printed_2b_g(p: Params, fn: FnTriple) -> float:
    w = p.width
    pp = p.q / (p.q - 1.0)
    ga, gb = _holder_inner(p, fn)
    return w ** 2 / 4.0 * (2.0 * beta_inc(0.5, 1.0 + pp, 1.0 + pp)) ** (1.0 / pp) \
        * (ga + gb)


@dataclass(frozen=True)
class _CorollarySpec:
    family: str          # "pm" (power-mean) or "hoelder"
    printed: object
    x_mid: bool
    lam_req: float | None
    kappa_req: float | None
    q_req: str           # "one", "gt1" or "any"
    typo_suspect: bool
    note: str


COROLLARY_IDS = ("2a-a", "2a-b", "2a-c", "2a-d", "2a-e", "2a-f", "2a-g",
                 "2a-h", "2b-a", "2b-b", "2b-c", "2b-d", "2b-e", "2b-g")

_COROLLARIES = {
    "2a-a": _CorollarySpec(
        "pm", _printed_2a_a, False, None, None, "one", True,
        "coefficient prints (x-a)^(k+1)/w where the general bound has "
        "(x-a)^(k+2)/((k+1) w)"),
    "2a-b": _CorollarySpec(
        "pm", _printed_midpoint_pm, True, None, None, "any", False,
        "midpoint form; references the moment symbols, matches the "
        "general bound exactly"),
    "2a-c": _CorollarySpec(
        "pm", _printed_midpoint_pm, True, 1.0 / 3.0, None, "any", False,
        "lambda = 1/3 midpoint form; matches the general bound exactly"),
    "2a-d": _CorollarySpec(
        "pm", _printed_2a_d, True, 1.0 / 3.0, 1.0, "any", True,
        "expanded constants (readings 23^(a+2) -> 2*3^(a+2), "
        "83^(a-1) -> 8*3^(a-1)); the phi2 constant drops a factor "
        "(alpha+3) and the phi3 constant misprints the power of 3"),
    "2a-e": _CorollarySpec(
        "pm", _printed_2a_e, True, 0.0, None, "any", True,
        "symbol s read as alpha; prefactor prints (alpha*k+2) for (k+2) "
        "and the inner constant prints k where alpha belongs; coincides "
        "with the general bound only at alpha = k = 1"),
    "2a-f": _CorollarySpec(
        "pm", _printed_2a_f, True, 0.0, 1.0, "any", True,
        "symbol s read as alpha; the m-term misses its alpha factor, "
        "coincides with the general bound only at alpha = 1"),
    "2a-g": _CorollarySpec(
        "pm", _printed_2a_g, True, 1.0, None, "any", True,
        "inner constant inherits the phi3 constant-term defect "
        "(k where alpha belongs); coincides at alpha = k"),
    "2a-h": _CorollarySpec(
        "pm", _printed_2a_h, True, 1.0, 1.0, "any", True,
        "m-coefficient prints (3a^2+8a-2)/(3(a+2)(a+3)); the validated "
        "moment gives a(2a+7)/(3(a+2)(a+3)), equal only at alpha = 1"),
    "2b-a": _CorollarySpec(
        "hoelder", _printed_2b_a, True, None, None, "gt1", False,
        "midpoint Hoelder form; matches the general bound exactly"),
    "2b-b": _CorollarySpec(
        "hoelder", _printed_2b_a, True, 1.0 / 3.0, None, "gt1", False,
        "lambda = 1/3 Hoelder form; matches the general bound exactly"),
    "2b-c": _CorollarySpec(
        "hoelder", _printed_2b_c, True, 1.0 / 3.0, 1.0, "gt1", True,
        "the expanded phi4 omits the 1/(p+1) factor on its 2F1 term"),
    "2b-d": _CorollarySpec(
        "hoelder", _printed_2b_d, True, 0.0, None, "gt1", True,
        "prefactor prints w^2/16 inside a general-k statement; the "
        "general bound carries w^2/(8(k+1)), equal only at k = 1"),
    "2b-e": _CorollarySpec(
        "hoelder", _printed_2b_e, True, 1.0, None, "gt1", True,
        "prefactor prints w^2/16 inside a general-k statement; the "
        "general bound carries w^2/(8(k+1)), equal only at k = 1"),
    "2b-g": _CorollarySpec(
        "hoelder", _printed_2b_g, True, 1.0, 1.0, "gt1", False,
        "lambda = k = 1 Hoelder form; matches the general bound exactly"),
}


def corollary_check(cid: str, p: Params, fn: FnTriple,
                    check_admission: bool = True,
                    memo: dict | None = None) -> CorollaryReport:
    """Compare a printed corollary right-hand side with the general bound.

    The returned rhs is always the scaled general bound; the printed
    value and its discrepancy ride along for reporting.  Raises
    DomainError when p does not satisfy the corollary's specialization
    (midpoint x, pinned lambda/kappa, q regime).  The lhs is taken
    from memo when one is given.
    """
    spec = _COROLLARIES.get(cid)
    if spec is None:
        raise DomainError("unknown corollary id %r; valid ids: %s"
                          % (cid, ", ".join(COROLLARY_IDS)))
    tol = 1e-12
    if spec.x_mid and abs(p.x - 0.5 * (p.a + p.mb)) > tol * max(1.0, abs(p.mb)):
        raise DomainError("%s requires x = (a + m b)/2" % cid)
    if spec.lam_req is not None and abs(p.lam - spec.lam_req) > tol:
        raise DomainError("%s requires lambda = %g" % (cid, spec.lam_req))
    if spec.kappa_req is not None and abs(p.kappa - spec.kappa_req) > tol:
        raise DomainError("%s requires kappa = %g" % (cid, spec.kappa_req))
    if spec.q_req == "one" and p.q != 1.0:
        raise DomainError("%s requires q = 1" % cid)
    if spec.q_req == "gt1" and not p.q > 1.0:
        raise DomainError("%s requires q > 1" % cid)

    if spec.family == "pm":
        base = bound_thm211(p, fn, check_admission=check_admission,
                            memo=memo)
    else:
        base = bound_thm22(p, fn, check_admission=check_admission, memo=memo)
    scale = 1.0 if cid == "2a-a" else (2.0 / p.width) ** (p.kappa - 1.0)
    lhs = scale * base.lhs
    general_rhs = scale * base.rhs
    printed_rhs = float(spec.printed(p, fn))
    discrepancy = abs(printed_rhs - general_rhs)
    matches = discrepancy <= COROLLARY_MATCH_TOL
    return CorollaryReport(
        which="corollary:" + cid,
        lhs=lhs,
        rhs=general_rhs,
        holds=lhs <= general_rhs + HOLDS_SLACK,
        tightness=_tightness(lhs, general_rhs),
        printed_rhs=printed_rhs,
        general_rhs=general_rhs,
        discrepancy=discrepancy,
        matches_printed=matches,
        typo_suspect=spec.typo_suspect,
        note=spec.note)

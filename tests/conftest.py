"""Helpers shared by the test modules: the stock parameter grid, a
finite-difference check of a corpus entry's derivatives, the whole-grid
admission check that the slab loop must match bit for bit, the
uncorrected printed closed forms of phi3 and phi4 (the errata reference),
the two-call GK15 rule that quad._rule must match bit for bit, and a call
made outside any open sweep memo."""

import contextvars

import numpy as np

from fracineq import FnTriple, Params, beta, hyp2f1, phi4
from fracineq.amconvex import DEFAULT_GRID, ConvexityReport
from fracineq.errors import EvaluationError
from fracineq.quad import _Evaluator


def alone(call, *args, **kwargs):
    """call(*args, **kwargs) in a fresh context, where no sweep_memo is
    open: computed afresh, as every caller outside a sweep computes it."""
    return contextvars.Context().run(call, *args, **kwargs)


def standard_grid(a: float, b: float):
    """The stock parameter grid used by the test batteries.

    Yields Params over lambda x kappa x m x five x-stations; lambda
    includes both branch regions and the branch point 1/(kappa+1).
    """
    for kappa in (0.5, 1.0, 2.0):
        for lam in (0.0, 1.0 / (kappa + 1.0), 1.0 / 3.0, 0.5, 1.0):
            for m in (0.6, 1.0):
                if not a < m * b:
                    continue
                for j in range(5):
                    x = a + (m * b - a) * j / 4.0
                    yield Params(a=a, b=b, m=m, x=x, lam=lam, kappa=kappa)


def validate_derivatives(fn: FnTriple, n: int = 32, rel_tol: float = 1e-6) -> None:
    """Check df and ddf against centered differences of f and df.

    Sample points avoid the domain edges where the power-law members
    have unbounded third derivatives.  Raises AssertionError on failure.
    """
    lo, hi = 0.0, 1.0
    span = hi - lo
    pts = np.linspace(lo + 0.05 * span, hi - 0.05 * span, n)
    h = 6e-6 * max(1.0, span)
    for x in pts:
        fd1 = (float(fn.f(x + h)) - float(fn.f(x - h))) / (2.0 * h)
        fd2 = (float(fn.df(x + h)) - float(fn.df(x - h))) / (2.0 * h)
        d1 = float(fn.df(x))
        d2 = float(fn.ddf(x))
        if abs(fd1 - d1) > rel_tol * max(1.0, abs(d1)):
            raise AssertionError(
                "%s: df mismatch at x=%.6g (fd=%.12g, df=%.12g)"
                % (fn.name, x, fd1, d1))
        if abs(fd2 - d2) > rel_tol * max(1.0, abs(d2)):
            raise AssertionError(
                "%s: ddf mismatch at x=%.6g (fd=%.12g, ddf=%.12g)"
                % (fn.name, x, fd2, d2))


def reference_am_convex(g, alpha: float, m: float, domain: tuple = (0.0, 1.0),
                        grid: tuple = DEFAULT_GRID) -> ConvexityReport:
    """check_am_convex as one whole-grid pass, for valid arguments only.

    Every temporary spans the whole (nx, ny, nt) grid and np.argmax picks
    the first maximum in C order.  check_am_convex runs the same
    arithmetic per element in slabs of x-rows and must return an equal
    report.
    """
    lo, hi = float(domain[0]), float(domain[1])
    nx, ny, nt = grid
    xs = np.linspace(lo, hi, nx)
    ys = np.linspace(lo, hi, ny)
    ts = np.linspace(0.0, 1.0, nt)

    X = xs[:, None, None]
    Y = ys[None, :, None]
    T = ts[None, None, :]
    arg = T * X + m * (1.0 - T) * Y
    ev = _Evaluator(g)
    g_arg, g_x, g_y = ev(arg), ev(xs), ev(ys)
    if not (np.all(np.isfinite(g_arg)) and np.all(np.isfinite(g_x))
            and np.all(np.isfinite(g_y))):
        raise EvaluationError("g returned a non-finite value on the check grid")

    ta = ts ** alpha  # 0**0 == 1.0, matching the t^0 = 1 convention
    bound = ta[None, None, :] * g_x[:, None, None] \
        + m * (1.0 - ta)[None, None, :] * g_y[None, :, None]
    viol = g_arg - bound
    idx = np.unravel_index(np.argmax(viol), viol.shape)
    worst = (float(xs[idx[0]]), float(ys[idx[1]]), float(ts[idx[2]]))
    return ConvexityReport(alpha=alpha, m=m,
                           max_violation=float(viol[idx]),
                           worst_point=worst,
                           samples=nx * ny * nt)


def phi3_literal(kappa: float, lam: float, alpha: float) -> float:
    """phi3 as printed: constant-term numerator kappa where alpha belongs.

    Coincides with phi3 iff alpha == kappa, is nonzero at alpha = 0, and
    fails the oracle otherwise.  Valid arguments only.
    """
    c = (kappa + 1.0) * lam
    s = kappa + alpha + 2.0
    if lam <= 1.0 / (kappa + 1.0):
        return kappa * c ** ((kappa + 2.0) / kappa) / (kappa + 2.0) \
            - 2.0 * kappa * c ** (s / kappa) / ((alpha + 2.0) * s) \
            - alpha * c / (2.0 * (alpha + 2.0)) \
            + kappa / ((kappa + 2.0) * s)
    return alpha * c / (2.0 * (alpha + 2.0)) - kappa / ((kappa + 2.0) * s)


def phi4_literal(kappa: float, lam: float, p: float) -> float:
    """phi4 as printed: no 1/kappa on the middle-branch 2F1 term.

    Substituting s = c + (1-c)w into the post-kink piece of the defining
    integral produces (1-c)^(p+1) / (kappa (p+1)) 2F1(...), so the
    printed form is too large by the factor 1/kappa for kappa < 1 (too
    small for kappa > 1) whenever the kink is interior.  Coincides with
    phi4 at kappa = 1 and on the other two branches.  Valid arguments only.
    """
    if lam == 0.0 or lam >= 1.0 / (kappa + 1.0):
        return phi4(kappa, lam, p)
    c = (kappa + 1.0) * lam
    expo = (1.0 + (kappa + 1.0) * p) / kappa
    first = c ** expo / kappa * beta((1.0 + p) / kappa, 1.0 + p)
    return first + (1.0 - c) ** (p + 1.0) / (p + 1.0) \
        * hyp2f1(1.0 - (1.0 + p) / kappa, 1.0, p + 2.0, 1.0 - c)


_EPS = float(np.finfo(float).eps)


def rule_reference(resabs: float, resk: float, resg: float, resasc: float,
                   half: float) -> tuple:
    """quad._rule as abs(half), min(1, r ** 1.5) and max(err, floor).

    quad._rule drops the abs (half is never negative), takes resasc itself
    for r >= 1 or a NaN r, and picks the floor with one comparison; it must
    return the same bits.  This form raises OverflowError where r ** 1.5
    passes the float range.
    """
    err = abs((resk - resg) * half)
    resasc *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(half))
    return resk * half, err

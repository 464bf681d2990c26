"""Helpers shared by the test modules: the stock parameter grid, a
finite-difference check of a corpus entry's derivatives, and the
whole-grid admission check that the slab loop must match bit for bit."""

import numpy as np

from fracineq import FnTriple, Params
from fracineq.amconvex import DEFAULT_GRID, ConvexityReport
from fracineq.errors import EvaluationError
from fracineq.quad import _Evaluator


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
    lo, hi = fn.domain_hint
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

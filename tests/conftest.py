"""Helpers shared by the test modules: the stock parameter grid and a
finite-difference check of a corpus entry's derivatives."""

import numpy as np

from fracineq import FnTriple, Params


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

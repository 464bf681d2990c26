"""The blended endpoint/fractional quantity and its kernel-integral form.

For parameters (a, b, m, x, lambda, kappa) with a < m b and a <= x <= m b,
writing w = m b - a, the direct side is

  (1-lam) [(x-a)^k + (mb-x)^k]/w f(x)
  + lam [(x-a)^k f(a) + (mb-x)^k f(mb)]/w
  + (1/(k+1) - lam) [(mb-x)^(k+1) - (x-a)^(k+1)]/w f'(x)
  - Gamma(k+1)/w [ J^k[x-] f(a) + J^k[x+] f(mb) ],

where J^k[x-] f(a) integrates (t-a)^(k-1) f(t) over [a, x] and
J^k[x+] f(mb) integrates (mb-t)^(k-1) f(t) over [x, mb]; both operators
are anchored at x.  (The Gamma(k+1) factor and the anchoring were fixed
by integrating the kernel side by parts and confirmed by the residual
oracle on asymmetric parameter sets; see kernel_side.)

The kernel side expresses the same quantity through f'':

  (x-a)^(k+2)/((k+1) w) int_0^1 t ((k+1)lam - t^k) f''(t x + (1-t) a) dt
  + (mb-x)^(k+2)/((k+1) w) int_0^1 t ((k+1)lam - t^k) f''(t x + m (1-t) b) dt.

residual() evaluates both and reports |direct - kernel| against a budget
assembled from the quadrature error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amconvex import FnTriple
from .errors import DomainError
from .fracint import rl_job, rl_left_result, rl_right_result, rl_scaled
from .quad import Tolerance, integrate_batch, integrate_groups
from .specfun import gamma

# slack on top of the propagated quadrature budget in the residual test
RESIDUAL_FLOOR = 1e-9
RESIDUAL_BUDGET_FACTOR = 10.0

_KERNEL_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_subdiv=2000)


@dataclass(frozen=True)
class Params:
    """One admissible parameter point.

    Invariants: a >= 0, 0 < m <= 1, a < m b, a <= x <= m b,
    0 <= lam <= 1, kappa > 0, 0 <= alpha <= 1, q >= 1.
    """

    a: float
    b: float
    m: float
    x: float
    lam: float
    kappa: float
    alpha: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "m", "x", "lam", "kappa", "alpha", "q"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("parameter %s must be finite" % name)
        if self.a < 0.0:
            raise DomainError("a must be >= 0, got a=%r" % (self.a,))
        if not (0.0 < self.m <= 1.0):
            raise DomainError("m must lie in (0, 1], got m=%r" % (self.m,))
        if not self.a < self.m * self.b:
            raise DomainError("need a < m*b, got a=%r, m*b=%r"
                              % (self.a, self.m * self.b))
        if not (self.a <= self.x <= self.m * self.b):
            raise DomainError("need a <= x <= m*b, got x=%r with a=%r, m*b=%r"
                              % (self.x, self.a, self.m * self.b))
        if not (0.0 <= self.lam <= 1.0):
            raise DomainError("lambda must lie in [0, 1], got %r" % (self.lam,))
        if not self.kappa > 0.0:
            raise DomainError("kappa must be > 0, got %r" % (self.kappa,))
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError("alpha must lie in [0, 1], got %r" % (self.alpha,))
        if not self.q >= 1.0:
            raise DomainError("q must be >= 1, got %r" % (self.q,))

    @property
    def mb(self) -> float:
        return self.m * self.b

    @property
    def width(self) -> float:
        return self.mb - self.a


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    residual: float
    quad_error_budget: float

    @property
    def ok(self) -> bool:
        return self.residual <= (RESIDUAL_BUDGET_FACTOR * self.quad_error_budget
                                 + RESIDUAL_FLOOR)


def memoized(memo: dict | None, key: tuple, compute):
    """compute(), stored in memo under key when a memo is given.

    A sweep passes one dict down to every check so that each value is
    computed at most once per sweep.  Each key is a tag plus exactly the
    inputs its computation reads; functions enter keys as FnTriple
    objects, never by name, so two functions that share a name never
    share an entry.  A computation that raises stores nothing.
    """
    if memo is None:
        return compute()
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = compute()
        return value


def point_key(p: Params, fn: FnTriple) -> tuple:
    """The inputs both sides of the identity read: alpha and q enter neither."""
    return (fn, p.a, p.b, p.m, p.x, p.lam, p.kappa)


def _rl_specs(p: Params, fn: FnTriple) -> list:
    """(memo key, left, anchor, x) of each one-sided integral at p with a
    nonzero gap: rl_left_result if left else rl_right_result, of fn.f.

    Neither reads lambda, and each reads only its own end: J^k[x-] f(a)
    is the right-sided integral anchored at x, evaluated at a, and
    J^k[x+] f(mb) the left-sided one anchored at x, evaluated at m b.
    """
    specs = []
    if p.x - p.a > 0.0:
        specs.append((("rl-right", fn, p.a, p.x, p.kappa), False, p.x, p.a))
    if p.mb - p.x > 0.0:
        specs.append((("rl-left", fn, p.x, p.mb, p.kappa), True, p.x, p.mb))
    return specs


def _direct_with_budget(p: Params, fn: FnTriple,
                        memo: dict | None = None) -> tuple[float, float]:
    mb, w, k = p.mb, p.width, p.kappa
    xa = p.x - p.a
    bx = mb - p.x
    value = (1.0 - p.lam) * (xa ** k + bx ** k) / w * float(fn.f(p.x))
    value += p.lam * (xa ** k * float(fn.f(p.a)) + bx ** k * float(fn.f(mb))) / w
    value += (1.0 / (k + 1.0) - p.lam) \
        * (bx ** (k + 1.0) - xa ** (k + 1.0)) / w * float(fn.df(p.x))
    gk1 = gamma(k + 1.0)
    frac = 0.0
    budget = 0.0
    for key, left, anchor, at in _rl_specs(p, fn):
        rl = rl_left_result if left else rl_right_result
        res = memoized(memo, key,
                       lambda: rl(fn.f, anchor, k, at, _KERNEL_TOL))
        frac += res.value
        budget += res.abs_error_estimate
    value -= gk1 / w * frac
    return value, gk1 / w * budget


def fill_rl_integrals(pairs, memo: dict) -> None:
    """Batch-compute the one-sided integrals of these (Params, fn) pairs
    not in memo, in one integrate_batch of their own.

    Only the integrals that succeed are stored, so a failing one is
    recomputed alone when the direct side reads it, and raises there
    exactly as it would without this call.
    """
    todo = {key: (fn.f, anchor, p.kappa, at, left)
            for p, fn in pairs for key, left, anchor, at in _rl_specs(p, fn)
            if key not in memo}
    ready = []
    for key, spec in todo.items():
        try:
            ready.append((key,) + rl_job(*spec))
        except OverflowError:
            continue    # Gamma(kappa) overflows: the row raises it alone
    got = integrate_batch([job for _, job, _ in ready], _KERNEL_TOL)
    for (key, _, g), res in zip(ready, got):
        if not isinstance(res, Exception):
            memo[key] = rl_scaled(g, res)


def direct_side(p: Params, fn: FnTriple) -> float:
    """The blend of point values, derivative term and fractional integrals."""
    return _direct_with_budget(p, fn)[0]


def _kernel_pieces(fn: FnTriple, anchor: float, x: float, lam: float,
                   k: float) -> list:
    """The (integrand, lo, hi) jobs of one kernel half.

    The half is int_0^1 t ((k+1)lam - t^k) f''(anchor + t (x - anchor)) dt,
    split at t* = ((k+1)lam)^(1/k) when that point is interior.
    """
    c = (k + 1.0) * lam
    tstar = c ** (1.0 / k) if 0.0 < c < 1.0 else None
    cuts = [0.0, 1.0] if tstar is None else [0.0, tstar, 1.0]
    ddf, span = fn.ddf, x - anchor

    # one call per GK pass: scalar C arithmetic keeps every bit of the
    # per-node loop, without a failed vector probe on each integral.
    # ravel lets the evaluator's scalar retry re-raise an error from ddf.
    def g(ts):
        return [t * (c - t ** k) * float(ddf(anchor + t * span))
                for t in np.ravel(ts).tolist()]

    return [(g, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _kernel_halves(halves: list) -> list:
    """(total, budget) of each (fn, anchor, x, lam, kappa) kernel half.

    Every piece of every half is integrated in one batch; a half whose
    piece fails holds that piece's error (the first, in cut order)
    instead, exactly the error it raises alone.
    """
    out = []
    for got in integrate_groups([_kernel_pieces(*half) for half in halves],
                                _KERNEL_TOL):
        if not isinstance(got, Exception):
            total, budget = 0.0, 0.0
            for res in got:
                total += res.value
                budget += res.abs_error_estimate
            got = (total, budget)
        out.append(got)
    return out


def _kernel_half(fn: FnTriple, anchor: float, x: float, lam: float,
                 k: float) -> tuple[float, float]:
    """One kernel half's (total, budget); raises the error of a failing piece."""
    got, = _kernel_halves([(fn, anchor, x, lam, k)])
    if isinstance(got, Exception):
        raise got
    return got


def _half_keys(p: Params, fn: FnTriple) -> list:
    """(gap, memo key) of each kernel half at p with a nonzero gap to x.

    Each half reads only its own anchor: a, or m b.
    """
    return [(gap, ("kernel-half", fn, anchor, p.x, p.lam, p.kappa))
            for gap, anchor in ((p.x - p.a, p.a), (p.mb - p.x, p.mb))
            if gap > 0.0]


def fill_kernel_halves(pairs, memo: dict) -> None:
    """Batch-compute the kernel halves of these (Params, fn) pairs not in memo.

    Only the halves that succeed are stored, so a failing half is
    recomputed alone when the identity reads it, and raises there exactly
    as it would without this call.
    """
    todo = {key: key[1:] for p, fn in pairs for _, key in _half_keys(p, fn)
            if key not in memo}
    for key, got in zip(todo, _kernel_halves(list(todo.values()))):
        if not isinstance(got, Exception):
            memo[key] = got


def _kernel_with_budget(p: Params, fn: FnTriple,
                        memo: dict | None = None) -> tuple[float, float]:
    k, w = p.kappa, p.width
    value, budget = 0.0, 0.0
    for gap, key in _half_keys(p, fn):
        coef = gap ** (k + 2.0) / ((k + 1.0) * w)
        tot, bud = memoized(memo, key, lambda: _kernel_half(*key[1:]))
        value += coef * tot
        budget += coef * bud
    return value, budget


def kernel_side(p: Params, fn: FnTriple) -> float:
    """Same quantity via the t ((k+1)lam - t^k) f'' kernel integrals.

    Both integrals are split at t* = ((k+1)lam)^(1/k) whenever that
    point is interior, matching the splits used by the closed-form
    kernel moments downstream.
    """
    return _kernel_with_budget(p, fn)[0]


def direct_with_budget(p: Params, fn: FnTriple,
                       memo: dict | None = None) -> tuple[float, float]:
    """The direct side and its quadrature budget, once per point in a memo."""
    return memoized(memo, ("direct",) + point_key(p, fn),
                    lambda: _direct_with_budget(p, fn, memo))


def residual(p: Params, fn: FnTriple,
             memo: dict | None = None) -> IdentityCheck:
    """|direct - kernel| against the sum of both sides' quadrature budgets.

    With a memo, the direct side is computed at most once per point and
    each kernel half once; summing the halves is left uncached.  Of the
    sweep's checks only this one reads the kernel side, so a sweep
    without identity checks never starts a kernel integral.
    """
    lhs, b1 = direct_with_budget(p, fn, memo)
    rhs, b2 = _kernel_with_budget(p, fn, memo)
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                         quad_error_budget=b1 + b2)


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

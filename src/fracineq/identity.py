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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .amconvex import FnTriple
from .errors import DomainError, check_unit_interval
from .fracint import rl_job
from .quad import QuadResult, Tolerance, integrate_batch, unwrap
from .specfun import gamma

# slack on top of the propagated quadrature budget in the residual test
RESIDUAL_FLOOR = 1e-9
RESIDUAL_BUDGET_FACTOR = 10.0

SIDE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_subdiv=2000)
_MISSING = object()     # memo.get's default: no stored value is this
_MEMO: ContextVar = ContextVar("sweep_memo", default=None)


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
        check_unit_interval("lambda", self.lam)
        if not self.kappa > 0.0:
            raise DomainError("kappa must be > 0, got %r" % (self.kappa,))
        check_unit_interval("alpha", self.alpha)
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


@contextmanager
def sweep_memo():
    """A fresh memo, yielded, that memoized and memoized_integrals store
    into until the block exits, by an error too; none is open outside one.

    Each key is a tag plus exactly the inputs its computation reads;
    functions enter keys as FnTriple objects, never by name, so two
    functions that share a name never share an entry.
    """
    token = _MEMO.set({})
    try:
        yield _MEMO.get()
    finally:
        _MEMO.reset(token)


def memoized(key: tuple, compute):
    """compute(), stored under key in the open sweep_memo, if any; a
    computation that raises stores nothing."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


def memoized_integrals(keys: list, build, tol: Tolerance) -> list:
    """Each key's QuadResult, in order, stored in the open memo if one is.

    build(key, shared) returns the (f, lo, hi) quadrature jobs of the
    integral a key names and a scale: the integral is the scale times the
    sum of their results, in job order; shared is one dict per call, for
    work the jobs share.  The jobs of every distinct key missing from
    the memo run in one integrate_batch at tol, so a sweep block and a
    single reader make the same call, with many keys or one.  A key whose
    build raises, or one of whose jobs fails, gets that error (the first
    in job order) in place of a QuadResult and is not stored: its next
    reader computes it again and gets the same error.  When every key is
    in the memo this is one lookup per key.
    """
    store = _MEMO.get()
    store = {} if store is None else store
    try:
        return [store[key] for key in keys]
    except KeyError:
        pass
    failed, todo, shared = {}, [], {}
    for key in dict.fromkeys(keys):
        if key not in store:
            try:
                todo.append((key,) + build(key, shared))
            except Exception as exc:    # the key's own failure, for its reader
                failed[key] = exc
    results = iter(integrate_batch([job for _, jobs, _ in todo for job in jobs],
                                   tol))
    for key, jobs, scale in todo:
        parts = [next(results) for _ in jobs]
        errors = [res for res in parts if isinstance(res, Exception)]
        if errors:
            failed[key] = errors[0]
            continue
        value, err = 0.0, 0.0
        for res in parts:
            value += res.value
            err += res.abs_error_estimate
        store[key] = QuadResult(scale * value, scale * err,
                                sum(res.subdivisions for res in parts))
    return [failed[key] if key in failed else store[key] for key in keys]


def point_key(p: Params, fn: FnTriple) -> tuple:
    """The inputs both sides of the identity read: alpha and q enter neither."""
    return (fn, p.a, p.b, p.m, p.x, p.lam, p.kappa)


def _ends(p: Params, fn: FnTriple) -> list:
    """(end, RL key, kernel-half key) of each end of [a, m b] that x is not
    at, a first.  The one-sided RL integral of f (J^k[x-] f(a), J^k[x+] f(mb))
    is anchored at x, evaluated at the end and reads no lambda; the kernel
    half is anchored at the end.  Neither reads the other end."""
    x, k = p.x, p.kappa
    return [(end, ("rl", fn, x, end, k), ("kernel-half", fn, end, x, p.lam, k))
            for end in (p.a, p.mb) if end != x]


def _direct_with_budget(p: Params, fn: FnTriple) -> tuple[float, float]:
    mb, w, k = p.mb, p.width, p.kappa
    xa, bx = p.x - p.a, mb - p.x
    value = (1.0 - p.lam) * (xa ** k + bx ** k) / w * float(fn.f(p.x))
    value += p.lam * (xa ** k * float(fn.f(p.a)) + bx ** k * float(fn.f(mb))) / w
    value += (1.0 / (k + 1.0) - p.lam) \
        * (bx ** (k + 1.0) - xa ** (k + 1.0)) / w * float(fn.df(p.x))
    gk1 = gamma(k + 1.0)
    frac, budget = 0.0, 0.0
    keys = [rl for _, rl, _ in _ends(p, fn)]
    for res in unwrap(memoized_integrals(keys, side_spec, SIDE_TOL)):
        frac += res.value
        budget += res.abs_error_estimate
    value -= gk1 / w * frac
    return value, gk1 / w * budget


def direct_side(p: Params, fn: FnTriple) -> float:
    """The blend of point values, derivative term and fractional integrals."""
    return _direct_with_budget(p, fn)[0]


def kernel_cuts(k: float, lam: float) -> tuple:
    """(c, cuts): c = (k+1) lam, and [0, t*, 1] with t* = c^(1/k), where the
    kernel c - t^k changes sign, when 0 < c < 1; else [0, 1]."""
    c = (k + 1.0) * lam
    return c, [0.0, c ** (1.0 / k), 1.0] if 0.0 < c < 1.0 else [0.0, 1.0]


def _kernel_pieces(fn: FnTriple, anchor: float, x: float, lam: float,
                   k: float, shared: dict) -> list:
    """The (integrand, lo, hi) jobs of one kernel half.

    The half is int_0^1 t ((k+1)lam - t^k) f''(anchor + t (x - anchor)) dt,
    cut at kernel_cuts.  The t^k and f'' samples of each distinct node
    block are computed once in shared, for every half that samples it:
    t^k per kappa, f'' per (fn, anchor, x).
    """
    c, cuts = kernel_cuts(k, lam)
    ddf, span = fn.ddf, x - anchor
    pows = shared.setdefault(("pow", k), {})
    derivs = shared.setdefault(("ddf", fn, anchor, x), {})

    # Python's pow and one scalar f'' per node, mapped at C level: numpy's
    # array ** and a vector f'' can differ from them in the last bit.
    # ravel lets the evaluator's scalar retry re-raise an error from ddf.
    def g(ts):
        ts = np.ravel(ts)
        key, n = ts.tobytes(), len(ts)
        if key not in pows:
            pows[key] = np.fromiter(map(pow, ts.tolist(), repeat(k)), float, n)
        if key not in derivs:
            derivs[key] = np.fromiter(map(ddf, (anchor + ts * span).tolist()),
                                      float, n)
        return ts * (c - pows[key]) * derivs[key]

    return [(g, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def side_spec(key: tuple, shared: dict) -> tuple:
    """memoized_integrals' (jobs, scale) of an _ends key, at SIDE_TOL: a
    kernel half's pieces, summed, or the one job of rl_left_result (end
    past x) or rl_right_result of fn.f, anchored at x, evaluated at end."""
    if key[0] == "kernel-half":
        return _kernel_pieces(*key[1:], shared), 1.0
    _, fn, x, end, kappa = key
    job, g = rl_job(fn.f, x, kappa, end, end > x)
    return [job], g


def fill_sides(pairs: list) -> None:
    """Store in the open memo every integral both sides read at each
    (Params, fn) of pairs, in one lockstep batch (per pair its RL integrals,
    then its kernel halves); as in memoized_integrals, a failing integral is
    not stored."""
    keys = []
    for p, fn in pairs:
        ends = _ends(p, fn)
        keys += [rl for _, rl, _ in ends] + [half for _, _, half in ends]
    memoized_integrals(keys, side_spec, SIDE_TOL)


def end_coef(p: Params, end: float) -> float:
    """|x - end|^(k+2)/((k+1) w): the weight of the kernel half anchored at
    end, in the kernel side and in both theorems' right-hand sides."""
    k = p.kappa
    return abs(p.x - end) ** (k + 2.0) / ((k + 1.0) * p.width)


def _kernel_with_budget(p: Params, fn: FnTriple) -> tuple[float, float]:
    ends = _ends(p, fn)
    got = unwrap(memoized_integrals([half for _, _, half in ends],
                                    side_spec, SIDE_TOL))
    value, budget = 0.0, 0.0
    for (end, _, _), half in zip(ends, got):
        coef = end_coef(p, end)
        value += coef * half.value
        budget += coef * half.abs_error_estimate
    return value, budget


def kernel_side(p: Params, fn: FnTriple) -> float:
    """Same quantity via the t ((k+1)lam - t^k) f'' kernel integrals.

    Both integrals are split at t* = ((k+1)lam)^(1/k) whenever that
    point is interior, matching the splits used by the closed-form
    kernel moments downstream.
    """
    return _kernel_with_budget(p, fn)[0]


def direct_with_budget(p: Params, fn: FnTriple) -> tuple[float, float]:
    """The direct side and its quadrature budget, once per point in a sweep."""
    return memoized(("direct",) + point_key(p, fn),
                    lambda: _direct_with_budget(p, fn))


def residual(p: Params, fn: FnTriple) -> IdentityCheck:
    """|direct - kernel| against the sum of both sides' quadrature budgets.

    In a sweep, the direct side is computed at most once per point and
    each kernel half once; summing the halves is left uncached.  Of the
    sweep's checks only this one reads the kernel side, so a sweep
    without identity checks never starts a kernel integral.
    """
    lhs, b1 = direct_with_budget(p, fn)
    rhs, b2 = _kernel_with_budget(p, fn)
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                         quad_error_budget=b1 + b2)

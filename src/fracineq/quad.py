"""Adaptive quadrature on finite intervals.

Core rule is the 15-point Kronrod extension of 7-point Gauss.  Intervals
are bisected worst-error-first until the summed error estimate meets
max(abs_tol, rel_tol * |value|) or the subdivision budget runs out.

integrate_batch runs that loop for many integrals in lockstep: each
round, every unfinished integral bisects its own worst interval, and the
rule sums of all new intervals are taken in one (rows, 15) numpy block.
Each integral keeps its own worst-first order, so batching changes no
bit of any result; integrate is a batch of one.  A job whose integrand
returns numpy arrays also samples its likely next splits (LOOKAHEAD).

integrate_singular handles integrands with an explicit endpoint weight
(t - lo)^p_lo (hi - t)^p_hi, p > -1, by the power substitution t = lo + v^k,
which makes them smooth enough for the plain rule; with p + 1 < 0.5 the
integrand's value at the endpoint is subtracted first.  singular_jobs
builds those jobs without running them, so callers can put them in a
batch.  Interior kinks are the caller's problem; callers are expected to
split at known kink locations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError

_EPS = float(np.finfo(float).eps)
_FLOOR = 50.0 * _EPS    # a rule's error never reads below _FLOOR resabs half
LOOKAHEAD = 5   # levels down its bisection path a native job samples ahead
WORK = [0, 0]   # GK15 rounds, rows sampled since import: read differences

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
_WKG15 = np.stack([_WK15, _WG15])


@dataclass(frozen=True)
class Tolerance:
    """Requested accuracy for one integration call."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdiv: int = 2000


@dataclass(frozen=True, slots=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


_DEFAULT_TOL = Tolerance()
_NO_WORK = QuadResult(0.0, 0.0, 0)     # the integral over an empty interval


class _Evaluator:
    """Calls f on an array of any shape, falling back to a scalar loop.

    The vector path is tried until it fails once; integrands built from
    numpy ufuncs get evaluated a whole array at a time, plain-Python ones
    per element.
    """

    def __init__(self, f: Callable[[float], float]):
        self.f = f
        self.vectorized = None
        self.native = False     # the vector path returned an np.ndarray

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        if self.vectorized is not False:
            try:
                raw = self.f(xs)
                ys = np.asarray(raw, dtype=float)
                if ys.shape == xs.shape:
                    self.vectorized = True
                    self.native = isinstance(raw, np.ndarray)
                    return ys
            except (TypeError, ValueError, AttributeError, IndexError):
                pass
            self.vectorized = self.native = False
        return np.array([float(self.f(float(x))) for x in xs.ravel()]
                        ).reshape(xs.shape)


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration interval must be finite")
    if hi < lo:
        raise DomainError("integration interval is reversed: lo=%g hi=%g" % (lo, hi))


class _Job:
    """One integral's worst-first bisection state inside integrate_batch."""

    __slots__ = ("slot", "ev", "lo", "hi", "todo", "split", "heap", "value",
                 "err", "nsub", "ahead")

    def __init__(self, slot: int, f: Callable[[float], float], lo: float,
                 hi: float):
        self.slot, self.lo, self.hi = slot, lo, hi
        self.ev = _Evaluator(f)
        self.todo = [(lo, hi)]      # intervals to sample this round
        self.split = None           # (value, error) of the interval bisected
        self.heap, self.nsub = [], 0
        self.ahead = {}             # (lo, hi) -> rule of a lookahead row

    def advance(self, rules: list, tol: Tolerance) -> QuadResult | None:
        """Take the (value, error) of each todo interval; pick the next split.

        A native job's todo goes on with the halves of its next LOOKAHEAD
        splits toward the end of [lo, hi] the split interval touches (with
        both or neither, the side the last split took), whose rules wait in
        ahead; while both halves of the next split are there, it is
        bisected too.
        Returns the result once tolerance (or the round-off floor) is met,
        None when todo holds the next split.
        """
        todo = self.todo
        if len(todo) > 2:
            self.ahead.update(zip(todo[2:], rules[2:]))
            todo, rules = todo[:2], rules[:2]
        if self.split is None:
            ((lo, hi),), ((v, e),) = todo, rules
            self.value, self.err = v, e
            worst = (-e, 0, lo, hi, v, e)
        while True:
            if self.split is not None:
                ((a, mid), (_, b)), ((v1, e1), (v2, e2)) = todo, rules
                v, e = self.split
                self.value += (v1 + v2) - v
                self.err += (e1 + e2) - e
                self.nsub += 1
                # tie-break counter: 1, 2, ... in push order, unique per heap
                heapq.heappush(self.heap, (-e1, 2 * self.nsub - 1, a, mid, v1, e1))
                worst = heapq.heappushpop(self.heap,
                                          (-e2, 2 * self.nsub, mid, b, v2, e2))
            if not math.isfinite(self.value + self.err):
                self._check_rules(rules)
            if not self.err > max(tol.abs_tol, tol.rel_tol * abs(self.value)):
                return self._best()
            if self.nsub >= tol.max_subdiv:
                raise ConvergenceError(
                    "no convergence after %d subdivisions "
                    "(value=%.17g, error=%.3g)" % (self.nsub, self.value, self.err),
                    estimate=self._best(),
                )
            _, _, a, b, v, e = worst
            if e <= 0.1 * _EPS * abs(self.value):
                # worst interval is already at round-off level; cannot improve
                return self._best()
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                raise ConvergenceError(
                    "interval [%.17g, %.17g] cannot be split further" % (a, b),
                    estimate=self._best(),
                )
            self.split = (v, e)
            at_lo, at_hi = a == self.lo, b == self.hi
            left = at_lo if at_lo != at_hi else a == self.todo[0][0]
            self.todo = todo = [(a, mid), (mid, b)]
            if not (todo[0] in self.ahead and todo[1] in self.ahead):
                for _ in range(LOOKAHEAD if self.ev.native else 0):
                    a, b = (a, mid) if left else (mid, b)
                    mid = 0.5 * (a + b)
                    todo += (a, mid), (mid, b)
                return None
            rules = [self.ahead.pop(iv) for iv in todo]

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """The integrand at xs, the nodes of todo.  A lookahead call that raises
        drops the lookahead (rows of 0) and samples the real rows through ev."""
        if len(self.todo) > 2:
            try:
                ys = self.ev.f(xs)
                if isinstance(ys, np.ndarray) and ys.shape == xs.shape:
                    return np.asarray(ys, dtype=float)
            except Exception:   # a lookahead node's failure is not the job's
                pass
            self.todo = self.todo[:2]   # the real rows: the first 30 nodes
            return np.concatenate([self.ev(xs[:30]), np.zeros(len(xs) - 30)])
        return self.ev(xs)

    def _check_rules(self, rules: list) -> None:
        """Raise ConvergenceError for the first non-finite rule of todo.

        No sample was non-finite (that is an EvaluationError), so its
        weighted sums overflowed.  Any non-finite rule makes a total
        non-finite, so only then is this called.
        """
        for (a, b), (v, e) in zip(self.todo, rules):
            if not (math.isfinite(v) and math.isfinite(e)):
                raise ConvergenceError(
                    "rule sum over [%.17g, %.17g] is not finite although "
                    "every sample is (value=%.17g, error=%.3g)" % (a, b, v, e),
                    estimate=self._best())

    def _best(self) -> QuadResult:
        return QuadResult(self.value, self.err, self.nsub)


def _rule(resabs: float, resk: float, resg: float, resasc: float,
          half: float) -> tuple[float, float]:
    """(value, error) of one GK 7/15 pass, from its weighted sample sums; half >= 0.
    The error is resasc min(1, r^1.5): r >= 1 and a NaN r give resasc."""
    err = abs((resk - resg) * half)
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        r = 200.0 * err / resasc
        err = resasc * r ** 1.5 if r < 1.0 else resasc
    # never claim accuracy below the round-off floor of the samples
    floor = _FLOOR * resabs * half
    return resk * half, floor if floor > err else err


def _gk15_round(live: list) -> list:
    """One Gauss-Kronrod 7/15 pass over every todo interval of every job.

    The nodes of all todo intervals form one (rows, 15) block; each job
    samples a 1-D view of its own rows in one call (_Job.sample).  The rule
    sums of all rows are then taken together with vecdot, which reduces
    each row exactly as a 1-D dot product does (a matrix-vector product
    does not).  Returns, per job, its (value, error) pairs or the
    exception that stopped it.
    """
    mid, half, xs, ys, out = [], [], [], [], []
    for job in live:
        for lo, hi in job.todo:
            mid.append(0.5 * (lo + hi))
            half.append(0.5 * (hi - lo))
    WORK[0] += 1
    WORK[1] += len(mid)
    nodes = np.multiply.outer(half, _NODES)
    nodes += np.array(mid)[:, None]
    r = 0
    for job in live:
        n = len(job.todo)
        xs.append(nodes[r:r + n].ravel())
        r += n
        try:
            ys.append(job.sample(xs[-1]))
            out.append(None)
        except Exception as exc:    # the job's own failure, kept in its slot
            ys.append(np.zeros_like(xs[-1]))
            out.append(exc)
    ys = (ys[0] if len(ys) == 1 else np.concatenate(ys)).reshape(-1, 15)
    absy = np.abs(ys)
    resabs = np.vecdot(absy, _WK15).tolist()
    # every Kronrod weight is positive, so any non-finite sample makes
    # resabs non-finite; only then are the samples looked at
    if not math.isfinite(sum(resabs)):
        ys = _flag_bad_samples(live, xs, ys, out)
    sums = np.vecdot(ys[:, None, :], _WKG15)      # columns resk, resg
    np.abs(ys - 0.5 * sums[:, :1], out=absy)
    rules = list(map(_rule, resabs, *zip(*sums.tolist()),
                     np.vecdot(absy, _WK15).tolist(), half))
    r = 0
    for j, (job, x) in enumerate(zip(live, xs)):
        out[j] = out[j] or rules[r:r + len(job.todo)]
        r += len(x) // 15
    return out


def _flag_bad_samples(live: list, xs: list, ys: np.ndarray, out: list) -> np.ndarray:
    """Put an EvaluationError in out for each job with a non-finite sample.

    The error names the job's first such sample in node order; one in a
    lookahead row only drops the job's lookahead rows, which then read 0.
    Returns a copy of ys with those jobs' rows zeroed, which keeps the
    block's remaining sums quiet (ys may be an integrand's own array).
    """
    ys = ys.copy()
    r = 0
    for j, (job, x) in enumerate(zip(live, xs)):
        n = len(x) // 15
        bad = ~np.isfinite(ys[r:r + n])
        if out[j] is None and bad[2:].any():
            job.todo = job.todo[:2]
            ys[r + 2:r + n] = 0.0
            bad[2:] = False
        bad = x[bad.ravel()]
        if out[j] is None and bad.size:
            out[j] = EvaluationError(
                "integrand returned a non-finite value at t=%.17g" % bad[0],
                abscissa=float(bad[0]),
            )
            ys[r:r + n] = 0.0
        r += n
    return ys


def integrate_batch(jobs: list, tol: Tolerance | None = None) -> list:
    """Integrate each (f, lo, hi) of jobs; one QuadResult or error per job.

    The integrals advance in lockstep: each round, every unfinished job
    bisects its own worst interval, exactly as it would alone, so each
    result is bit for bit the one a batch of one gives.  A job whose
    integrand yields a non-finite sample holds an EvaluationError, one
    that misses tolerance holds a ConvergenceError carrying its best
    estimate, one whose integrand raises holds that exception; the other
    jobs go on.  A malformed interval raises DomainError before any work.
    """
    tol = tol if tol is not None else _DEFAULT_TOL
    for _, lo, hi in jobs:
        _check_interval(lo, hi)
    out = [_NO_WORK] * len(jobs)
    live = [_Job(i, f, lo, hi) for i, (f, lo, hi) in enumerate(jobs) if hi > lo]
    while live:
        still = []
        for job, got in zip(live, _gk15_round(live)):
            if not isinstance(got, Exception):
                try:
                    got = job.advance(got, tol)
                except ConvergenceError as exc:
                    got = exc
            if got is None:
                still.append(job)
            else:
                out[job.slot] = got
        live = still
    return out


def unwrap(results: list) -> list:
    """results, of integrate_batch or memoized_integrals, once none is an
    error: the first error among them is raised."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: Tolerance | None = None) -> QuadResult:
    """Integrate f over the finite interval [lo, hi].

    Raises DomainError for a malformed interval, EvaluationError if f
    produces a non-finite sample, ConvergenceError (carrying the best
    estimate) if max_subdiv bisections do not reach tolerance or a rule
    sum overflows although every sample is finite.
    """
    return unwrap(integrate_batch([(f, lo, hi)], tol))[0]


def _is_nonneg_integer(p: float) -> bool:
    return p >= 0.0 and abs(p - round(p)) < 1e-14


def _one_sided(g, A: float, B: float, p: float, at_lower: bool) -> tuple:
    """The substituted (h, lo, hi) job of g(t) * |t - endpoint|^p, anchored at A or B.

    With p + 1 < 0.5, g at the anchor is subtracted and its exact weighted
    integral added back as a constant over [0, vmax] (singularity subtraction).
    """
    subtract = p + 1.0 < 0.5 and B > A
    # k (p+1) - 1 >= 3 makes h C^3 at v = 0; k (p+2) - 1 >= 3 once g is subtracted
    k = max(2, math.ceil(4.0 / (p + 2.0 if subtract else p + 1.0)))
    vmax = (B - A) ** (1.0 / k)
    expo = k * (p + 1.0) - 1.0
    at = (lambda v: A + v ** k) if at_lower else (lambda v: B - v ** k)
    if not subtract:
        return (lambda v: k * v ** expo * g(at(v))), 0.0, vmax
    g0 = float(g(at(0.0)))
    exact = g0 * (B - A) ** (p + 1.0) / (p + 1.0)
    return (lambda v: k * v ** expo * (g(at(v)) - g0) + exact / vmax), 0.0, vmax


def singular_jobs(f: Callable[[float], float], lo: float, hi: float,
                  p_lo: float, p_hi: float) -> list:
    """The (h, lo, hi) jobs of integrate_singular, after its argument checks.

    One, run at the caller's tolerance, when at most one endpoint weight
    is singular; two, each at half the absolute tolerance, when both are.
    The sum of their results, in order, is the weighted integral (0 when
    hi == lo: every job is then empty).
    """
    if not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise DomainError("weight exponents must be finite")
    if p_lo <= -1.0 or p_hi <= -1.0:
        raise DomainError(
            "weight exponent <= -1 is non-integrable: p_lo=%g p_hi=%g"
            % (p_lo, p_hi))
    _check_interval(lo, hi)

    smooth_lo = _is_nonneg_integer(p_lo)
    smooth_hi = _is_nonneg_integer(p_hi)
    if smooth_lo and smooth_hi:
        n_lo, n_hi = int(round(p_lo)), int(round(p_hi))
        return [(lambda t: f(t) * (t - lo) ** n_lo * (hi - t) ** n_hi, lo, hi)]
    if smooth_hi:
        n_hi = int(round(p_hi))
        g = (lambda t: f(t) * (hi - t) ** n_hi) if n_hi else f
        return [_one_sided(g, lo, hi, p_lo, True)]
    if smooth_lo:
        n_lo = int(round(p_lo))
        g = (lambda t: f(t) * (t - lo) ** n_lo) if n_lo else f
        return [_one_sided(g, lo, hi, p_hi, False)]

    # both endpoints singular: split in the middle, fold the far weight
    mid = 0.5 * (lo + hi)
    g_lo = lambda t: f(t) * (hi - t) ** p_hi
    g_hi = lambda t: f(t) * (t - lo) ** p_lo
    return [_one_sided(g_lo, lo, mid, p_lo, True),
            _one_sided(g_hi, mid, hi, p_hi, False)]


def integrate_singular(f: Callable[[float], float], lo: float, hi: float,
                       p_lo: float, p_hi: float,
                       tol: Tolerance | None = None) -> QuadResult:
    """Integrate f(t) (t - lo)^p_lo (hi - t)^p_hi over [lo, hi].

    f itself must be finite on the closed interval; the endpoint weights
    carry all the singular behaviour.  Exponents must exceed -1, anything
    else is a divergent weight and raises DomainError.
    """
    tol = tol if tol is not None else _DEFAULT_TOL
    jobs = singular_jobs(f, lo, hi, p_lo, p_hi)
    if len(jobs) < 2:
        return integrate(*jobs[0], tol)
    half_tol = Tolerance(tol.abs_tol * 0.5, tol.rel_tol, tol.max_subdiv)
    r1, r2 = unwrap(integrate_batch(jobs, half_tol))
    return QuadResult(r1.value + r2.value,
                      r1.abs_error_estimate + r2.abs_error_estimate,
                      r1.subdivisions + r2.subdivisions)

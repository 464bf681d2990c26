"""(alpha, m)-convexity: grid checker and the admitted function corpus.

g is (alpha, m)-convex on [0, B] when for all x, y in [0, B], t in [0, 1]

    g(t x + m (1 - t) y) <= t^alpha g(x) + m (1 - t^alpha) g(y),

with (alpha, m) in [0, 1] x (0, 1].  The convention t^0 = 1 applies at
t = 0.  The grid checker below is the admission authority for every
bound in this package: a (fn, alpha, m, q) combination is usable only
if check_am_convex accepts |f''|^q on the relevant domain.

Note that for m = 1 and alpha < 1 the class is brutally small: letting
t -> 0+ forces g(y) >= g(y) * alpha-weighted mixtures that most convex
functions fail.  The corpus claims below were chosen analytically and
are re-validated by the checker in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, check_unit_interval
from .quad import _Evaluator

DEFAULT_GRID = (41, 41, 33)
VIOLATION_TOL = 1e-12
# samples per slab: each temporary stays under glibc's 128 KiB mmap threshold
SLAB_SAMPLES = 12_000
# an untouched block of this size, freed at import, raises glibc's heap trim
# threshold to twice it: the heap top a check's slab temporaries free is then
# kept mapped for the next check, wherever the temporaries sit in the heap
TRIM_GUARD_BYTES = 1 << 19
np.empty(TRIM_GUARD_BYTES, np.uint8)


@dataclass(frozen=True, eq=False)
class FnTriple:
    """A test function with its first two derivatives.

    The callables must accept numpy arrays; df and ddf are spot-checked
    against finite differences of their antiderivative in the tests.
    Equal and hashed by identity, so cache keys never compare fields.
    """

    f: Callable
    df: Callable
    ddf: Callable
    name: str


@dataclass(frozen=True)
class ConvexityReport:
    alpha: float
    m: float
    max_violation: float
    worst_point: tuple  # (x, y, t)
    samples: int

    @property
    def holds(self) -> bool:
        return self.max_violation <= VIOLATION_TOL


def check_am_convex(g: Callable, alpha: float, m: float,
                    domain: tuple = (0.0, 1.0),
                    grid: tuple = DEFAULT_GRID) -> ConvexityReport:
    """Grid test of the defining inequality on domain = [0, B], in slabs of x-rows
    (of y-values within one x-row when a y-t plane is larger than a slab)."""
    check_unit_interval("alpha", alpha)
    if not (0.0 < m <= 1.0):
        raise DomainError("m must lie in (0, 1], got %r" % (m,))
    try:
        lo, hi = map(float, domain)
        nx, ny, nt = grid
    except (TypeError, ValueError):     # a wrong shape, or a bound that is no number
        raise DomainError("bad domain or grid shape: %r, %r" % (domain, grid)) from None
    if lo != 0.0 or not 0.0 < hi < np.inf:
        raise DomainError("domain must be [0, B] with finite B > 0, got %r" % (domain,))
    if not all(isinstance(n, (int, np.integer)) and n > 0 for n in (nx, ny, nt)):
        raise DomainError("grid counts must be positive integers, got %r" % (grid,))
    xs = np.linspace(lo, hi, nx)
    ys = np.linspace(lo, hi, ny)
    ts = np.linspace(0.0, 1.0, nt)
    ta = ts ** alpha  # 0**0 == 1.0, matching the t^0 = 1 convention
    cols = min(ny, max(1, SLAB_SAMPLES // nt))
    rows = max(1, SLAB_SAMPLES // (cols * nt))  # 1 unless cols == ny
    ev = _Evaluator(g)
    best = None
    for j in range(0, ny, cols):    # y outermost: one y-slab's tables live at a time
        my_t = m * (1.0 - ts) * ys[j:j + cols, None]
        for i in range(0, nx, rows):
            g_arg = ev(ts * xs[i:i + rows, None, None] + my_t)
            if i == j == 0:  # after the first slab, which sets ev's vector choice
                g_x, g_y = ev(xs), ev(ys)
                finite = np.isfinite(g_x).all() and np.isfinite(g_y).all()
            if not (finite and np.isfinite(g_arg).all()):
                raise EvaluationError("g returned a non-finite value on the check grid")
            if i == 0:
                mg_y = m * (1.0 - ta) * g_y[j:j + cols, None]
            viol = g_arg - (ta * g_x[i:i + rows, None, None] + mg_y)
            k = viol.argmax()
            here = (viol.flat[k], -((i * ny + j) * nt + k))
            if best is None or here > best:  # keeps the first maximum in C order
                best = here
    ix, iy, it = np.unravel_index(-best[1], (nx, ny, nt))
    return ConvexityReport(alpha=alpha, m=m, max_violation=float(best[0]),
                           worst_point=(float(xs[ix]), float(ys[iy]), float(ts[it])),
                           samples=nx * ny * nt)


@dataclass(frozen=True)
class CorpusEntry:
    fn: FnTriple
    # (alpha, m, q) combinations for which |f''|^q passed the grid check
    admissions: tuple = field(default_factory=tuple)


def _pow_triple(s: float, name: str) -> FnTriple:
    # f = x^(s+2) / ((s+1)(s+2)) so that f'' = x^s exactly
    c1 = (s + 1.0) * (s + 2.0)
    return FnTriple(
        f=lambda x, s=s, c1=c1: x ** (s + 2.0) / c1,
        df=lambda x, s=s: x ** (s + 1.0) / (s + 1.0),
        ddf=lambda x, s=s: x ** s,
        name=name,
    )


# Built once and cached: the admission cache is keyed on FnTriple objects,
# so every caller must see the same triples.
@functools.cache
def corpus() -> tuple:
    """The admitted function corpus.

    Each admission tuple was accepted by check_am_convex on [0, 1] (and
    is re-verified there in the tests).  The m < 1 entries rely on
    f''(x) = x^s with m^(s-1) <= alpha, which keeps the defining
    inequality valid all the way to t = 0.
    """
    cubic = FnTriple(f=lambda x: x ** 3 / 6.0,
                     df=lambda x: x ** 2 / 2.0,
                     ddf=lambda x: x + 0.0,
                     name="cubic/6")
    quart = FnTriple(f=lambda x: x ** 4 / 12.0,
                     df=lambda x: x ** 3 / 3.0,
                     ddf=lambda x: x * x,
                     name="quart/12")
    expf = FnTriple(f=np.exp, df=np.exp, ddf=np.exp, name="exp")
    return (
        CorpusEntry(cubic, ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 0.6, 1.0))),
        CorpusEntry(quart, ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.5, 0.5, 1.0))),
        CorpusEntry(expf, ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0))),
        CorpusEntry(_pow_triple(0.25, "pow-2.25"), ((1.0, 1.0, 4.0), (1.0, 1.0, 8.0))),
        CorpusEntry(_pow_triple(0.5, "pow-2.5"),
                    ((1.0, 1.0, 2.0), (1.0, 1.0, 4.0), (0.5, 0.5, 4.0))),
        CorpusEntry(_pow_triple(0.75, "pow-2.75"),
                    ((1.0, 1.0, 2.0), (0.5, 0.25, 2.0))),
    )


@functools.cache
def corpus_by_name() -> MappingProxyType:
    """Read-only view of the corpus keyed by function name."""
    return MappingProxyType({entry.fn.name: entry for entry in corpus()})


_ADMISSION_CACHE: dict = {}


def is_admitted(fn: FnTriple, alpha: float, m: float, q: float,
                upper: float) -> ConvexityReport:
    """Cached grid check of |f''|^q at (alpha, m) on [0, upper].

    Keyed on the FnTriple object, never its name: two functions that
    share a name must each pass their own check.
    """
    key = (fn, float(alpha), float(m), float(q), float(upper))
    report = _ADMISSION_CACHE.get(key)
    if report is None:
        g = lambda u: np.abs(fn.ddf(u)) ** q
        report = check_am_convex(g, alpha, m, (0.0, upper))
        _ADMISSION_CACHE[key] = report
    return report

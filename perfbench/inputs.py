"""Seeded inputs for the three benchmark workloads.

Seed 0 reproduces the stock grids exactly: the full-check sweep on the
package's default grid, the acceptance gate's criterion-02 oracle grid,
and every corpus admission claim plus the pinned rejections.

Any other seed keeps each grid's shape and jitters every value that is
not pinned inside its own stratum: the interval between the midpoints
to its stock neighbours, with the outermost strata reaching the edge of
the domain the acceptance gates cover (kappa 0.25-3, lambda = 0 or
0.05-1, p 1.5-4, a <= x <= m b).  Jittered sampling keeps the mix of
work close to the stock grid's, so seeds differ in their inputs more
than in how much work a run does.  Pinned values are the ones the
printed corollaries specialize to (x = (a + m b)/2, lambda in
{0, 1/3, 1}, kappa = 1) and the interval ends, so every seed still
drives the corollary fan-out and both one-sided identity cases.

The sweep keeps the stock kappa axis (0.5, 1, 2) on every seed.  Its
work depends on kappa unevenly: moving one kappa of the stock grid
inside its stratum changes its quadrature passes by up to 19%, and
seeded grids made 11-38% more passes than the stock one, while x,
lambda and q move them by about 1%.  A seeded sweep then measured the
draw more than the program.  The oracle grid still jitters kappa
across its whole domain.

The known edge defects (phi4 truncation as lambda -> 0, gamma overflow
for p >= 170, the name-keyed admission cache) lie outside these
domains; they belong to robustness tests, not to the timed grids.
"""

from __future__ import annotations

import random

SWEEP_CHECKS = ("identity", "thm211", "thm22", "sarikaya", "remark",
                "corollaries", "phi-oracle")
SWEEP_FNS = ("cubic/6", "quart/12", "exp", "pow-2.25", "pow-2.5", "pow-2.75")

ORACLE_KAPPAS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
ORACLE_LAMS = tuple(i * 0.05 for i in range(21))
ORACLE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
ORACLE_PS = (1.5, 2.0, 4.0)

# Every corpus admission claim, as (fn name, alpha, m, q), all holding.
ADMISSION_CLAIMS = (
    ("cubic/6", 1.0, 1.0, 1.0), ("cubic/6", 1.0, 1.0, 2.0),
    ("cubic/6", 1.0, 0.6, 1.0),
    ("quart/12", 1.0, 1.0, 1.0), ("quart/12", 1.0, 1.0, 2.0),
    ("quart/12", 0.5, 0.5, 1.0),
    ("exp", 1.0, 1.0, 1.0), ("exp", 1.0, 1.0, 2.0),
    ("pow-2.25", 1.0, 1.0, 4.0), ("pow-2.25", 1.0, 1.0, 8.0),
    ("pow-2.5", 1.0, 1.0, 2.0), ("pow-2.5", 1.0, 1.0, 4.0),
    ("pow-2.5", 0.5, 0.5, 4.0),
    ("pow-2.75", 1.0, 1.0, 2.0), ("pow-2.75", 0.5, 0.25, 2.0),
)
# Pinned rejections, as (g name, alpha, m): each fails on every [0, B].
ADMISSION_REJECTIONS = (
    ("sqrt", 0.5, 1.0), ("square", 0.5, 1.0), ("exp", 1.0, 0.6),
    ("one", 1.0, 0.5),
)
# Claims hold on [0, 1], hence on every [0, B] with B <= 1; the pinned
# rejections are homogeneous or fail at y = 0, hence fail on every [0, B].
ADMISSION_WIDTHS = 53
ADMISSION_WIDTH_RANGE = (0.25, 1.0)


def jitter(stock, lo, hi, rng, pinned=()):
    """Draw each non-pinned value uniformly inside its stratum."""
    out = []
    last = len(stock) - 1
    for i, v in enumerate(stock):
        if rng is None or v in pinned:
            out.append(v)
            continue
        left = lo if i == 0 else max(lo, 0.5 * (stock[i - 1] + v))
        right = hi if i == last else min(hi, 0.5 * (v + stock[i + 1]))
        out.append(rng.uniform(left, right))
    return out


def _rng(seed: int):
    return None if seed == 0 else random.Random(seed)


def sweep_grid(seed: int) -> dict:
    """Axis values of the full-check sweep, keyed as in the config file."""
    rng = _rng(seed)
    q2 = 2.0
    if rng is not None:
        # p in [1.5, 2] (q in [2, 3]) keeps every corpus admission verdict
        # of the stock q = 2, so every seed emits the stock row set
        p = rng.uniform(1.5, 2.0)
        q2 = p / (p - 1.0)
    return {
        "a": [0.0],
        "b": [1.0],
        "m": [0.6, 1.0],
        "x": jitter((0.0, 0.15, 0.3, 0.45, 0.6), 0.0, 0.6, rng,
                    pinned=(0.0, 0.3, 0.6)),
        "lambda": jitter((0.0, 1.0 / 3.0, 0.5, 1.0), 0.05, 1.0, rng,
                         pinned=(0.0, 1.0 / 3.0, 1.0)),
        # the stock kappa axis: see the module docstring
        "kappa": [0.5, 1.0, 2.0],
        "alpha": [1.0],
        "q": [1.0, q2],
    }


def sweep_config_text(seed: int) -> str:
    """The sweep's key = value config; floats are written exactly."""
    lines = []
    for key, values in sweep_grid(seed).items():
        lines.extend("%s = %r" % (key, float(v)) for v in values)
    lines.extend("fn = %s" % name for name in SWEEP_FNS)
    lines.extend("check = %s" % c for c in SWEEP_CHECKS)
    return "\n".join(lines) + "\n"


def oracle_ops(seed: int) -> list:
    """Criterion-02 battery: (which, kappa, lam, alpha, p) per op."""
    rng = _rng(seed)
    kappas = jitter(ORACLE_KAPPAS, 0.25, 3.0, rng)
    lams = jitter(ORACLE_LAMS, 0.05, 1.0, rng, pinned=(0.0,))
    alphas = jitter(ORACLE_ALPHAS, 0.0, 1.0, rng)
    ps = jitter(ORACLE_PS, 1.5, 4.0, rng)
    ops = []
    for k in kappas:
        for lam in lams:
            ops.append((1, k, lam, None, None))
            for al in alphas:
                ops.append((2, k, lam, al, None))
                ops.append((3, k, lam, al, None))
            for p in ps:
                ops.append((4, k, lam, None, p))
    return ops


def admission_ops(seed: int) -> list:
    """(kind, name, alpha, m, q, width, expected verdict) per check."""
    lo, hi = ADMISSION_WIDTH_RANGE
    n = ADMISSION_WIDTHS
    stock = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    widths = jitter(stock, lo, hi, _rng(seed), pinned=(hi,))
    ops = []
    for w in widths:
        for name, alpha, m, q in ADMISSION_CLAIMS:
            ops.append(("claim", name, alpha, m, q, w, True))
        for name, alpha, m in ADMISSION_REJECTIONS:
            ops.append(("reject", name, alpha, m, 1.0, w, False))
    return ops

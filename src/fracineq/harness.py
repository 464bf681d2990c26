"""Batch checks and the command-line front end.

Subcommands:

  phi            evaluate one kernel moment, optionally against the oracle
  identity-check residual of the direct vs kernel form at one point
  bound-check    one bound report (211, 22, sarikaya, remark, corollary:<id>)
  sweep          grid of checks from a key=value config, results to CSV
  sanity         classical midpoint/trapezoid/Simpson cross-checks
  remark-table   remark vs sarikaya comparison table at kappa = m = alpha = 1

Exit codes: 0 success, 1 numerical failure (a bound violated, a residual
over budget), 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bounds
from .amconvex import corpus, corpus_by_name
from .errors import AdmissionError, ConvergenceError, DomainError, EvaluationError
from .identity import Params, fill_sides, memoized, point_key, residual, sweep_memo
from .quad import Tolerance, integrate

CSV_COLUMNS = ("check", "fn", "a", "b", "m", "x", "lambda", "kappa",
               "alpha", "q", "lhs", "rhs", "holds", "tightness", "residual")

PHI_ORACLE_TOL = 1e-10

_SWEEP_NUMERIC_KEYS = ("a", "b", "m", "x", "lambda", "kappa", "alpha", "q")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


@dataclass(frozen=True)
class SweepConfig:
    a: tuple
    b: tuple
    m: tuple
    x: tuple
    lam: tuple
    kappa: tuple
    alpha: tuple
    q: tuple
    fns: tuple
    checks: tuple


DEFAULT_CONFIG = SweepConfig(
    a=(0.0,),
    b=(1.0,),
    m=(0.6, 1.0),
    x=(0.0, 0.15, 0.3, 0.45, 0.6),
    lam=(0.0, 1.0 / 3.0, 0.5, 1.0),
    kappa=(0.5, 1.0, 2.0),
    alpha=(1.0,),
    q=(1.0, 2.0),
    fns=tuple(e.fn.name for e in corpus()),
    checks=("identity",),
)


def parse_sweep_config(path: str) -> SweepConfig:
    """Read a plain key = value file; repeated keys accumulate into lists."""
    raw: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError("%s: not UTF-8 text: %s" % (path, exc)) from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError("%s:%d: expected key = value, got %r"
                              % (path, lineno, line))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _SWEEP_NUMERIC_KEYS:
            try:
                raw.setdefault(key, []).append(float(value))
            except ValueError:
                raise DomainError("%s:%d: %s needs a number, got %r"
                                  % (path, lineno, key, value)) from None
        elif key in ("fn", "check"):
            known = corpus_by_name() if key == "fn" else _SWEEP_CHECKS
            if value not in known:
                raise DomainError("%s:%d: unknown %s %r (known: %s)"
                                  % (path, lineno, key, value,
                                     ", ".join(sorted(known))))
            raw.setdefault(key, []).append(value)
        else:
            raise DomainError("%s:%d: unknown key %r" % (path, lineno, key))
    # each key given replaces its field of DEFAULT_CONFIG
    fields = {"lambda": "lam", "fn": "fns", "check": "checks"}
    return replace(DEFAULT_CONFIG,
                   **{fields.get(key, key): tuple(v) for key, v in raw.items()})


@dataclass(frozen=True)
class SweepSummary:
    rows_total: int
    rows_held: int
    skipped: int
    failed: int
    worst_tightness: float
    max_identity_residual: float

    @property
    def ok(self) -> bool:
        return self.rows_held == self.rows_total and self.failed == 0


# --- the sweep's checks ------------------------------------------------------
# Each producer maps (grid point, its Params or None, FnTriple) to a list
# of (which, lhs, rhs, holds, tightness, residual) rows.  Raising
# DomainError or AdmissionError, or returning no rows, counts the pair as
# skipped; so does a point without valid Params, for the checks that read
# them.  Raising a numerical error counts the pair as failed; a producer
# that emits several rows puts a _Failed in place of each row whose
# numerics failed, so the rows that computed fine are kept.
# Producers look bounds.* and residual up when called, never at import,
# so code that swaps those module attributes sees every call.

_NUMERICAL_ERRORS = (ConvergenceError, EvaluationError, OverflowError)


class _Failed(NamedTuple):
    which: str
    error: Exception


def _grid_params(pt):
    """The Params of a grid point, or None when the point is invalid."""
    try:
        return Params(*pt)
    except DomainError:
        return None


def _on_params(produce):
    """A producer of rows from (Params, fn); invalid points skip."""
    def rows(pt, prm, fn):
        return [] if prm is None else produce(prm, fn)
    return rows


def _identity_rows(prm, fn):
    chk = memoized(("identity",) + point_key(prm, fn), lambda: residual(prm, fn))
    return [("identity", chk.lhs, chk.rhs, chk.ok, 0.0, chk.residual)]


def _bound_rows(rep):
    return [(rep.which, rep.lhs, rep.rhs, rep.holds, rep.tightness, 0.0)]


def _classical(check, name):
    """check's producer: the row of bounds.<name>(fn, a, b, lambda, q), or []
    for a domain or admission skip, computed once per distinct input."""
    def rows(pt, _prm, fn):
        args = (fn, pt[0], pt[1], pt[4], pt[7])

        def compute():
            try:
                return _bound_rows(getattr(bounds, name)(*args))
            except (DomainError, AdmissionError):
                return []
        return memoized((check,) + args, compute)
    return rows


def _corollary_rows(prm, fn):
    # the ids corollary_unmet lets through (it reads only the Params and checks
    # thm22's q > 1 too) all reach one _theorem_lhs admission check next: the
    # first id's skip is every id's, and it goes up to run_sweep
    ids = memoized(("corollary-ids", prm),
                   lambda: [cid for cid in bounds.COROLLARY_IDS
                            if bounds.corollary_unmet(cid, prm) is None])
    rows = []
    for cid in ids:
        try:
            rep = bounds.corollary_check(cid, prm, fn)
        except _NUMERICAL_ERRORS as exc:
            rows.append(_Failed("corollary:" + cid, exc))
            continue
        rows.append((rep.which, rep.lhs, rep.rhs, rep.holds, rep.tightness,
                     rep.discrepancy))
    return rows


def _phi_specs(tail):
    """(which, kappa, lambda, alpha, p) of each moment defined at a
    (lambda, kappa, alpha, q) tail; phi4 needs q > 1."""
    lam, kappa, alpha, q = tail
    p = q / (q - 1.0) if q > 1.0 else None
    return [(n, kappa, lam, alpha, p)
            for n in ((1, 2, 3) if p is None else (1, 2, 3, 4))]


def _phi_rows(pt, _prm, _fn):
    """Closed form (lhs) vs oracle (rhs) of each moment defined at pt."""
    rows = []
    for n, kappa, lam, alpha, p in _phi_specs(pt[4:]):
        try:
            closed = bounds.phi(n, kappa, lam, alpha=alpha, p=p)
            oracle = bounds.phi_oracle(n, kappa, lam, alpha=alpha, p=p)
        except _NUMERICAL_ERRORS as exc:
            rows.append(_Failed("phi%d" % n, exc))
            continue
        diff = abs(closed - oracle)
        rows.append(("phi%d" % n, closed, oracle, diff <= PHI_ORACLE_TOL,
                     0.0, diff))
    return rows


_CHECKS = {
    "identity": _on_params(_identity_rows),
    "thm211": _on_params(lambda prm, fn: _bound_rows(bounds.bound_thm211(prm, fn))),
    "thm22": _on_params(lambda prm, fn: _bound_rows(bounds.bound_thm22(prm, fn))),
    "sarikaya": _classical("sarikaya", "bound_sarikaya"),
    "remark": _classical("remark", "remark_bound"),
    "corollaries": _on_params(_corollary_rows),
}
_SWEEP_CHECKS = tuple(_CHECKS) + ("phi-oracle",)


def _grid(cfg: SweepConfig, by_name):
    """Each grid point, in grid order, with its Params or None if invalid.

    Integrals the rows will read are filled into the open memo ahead of them
    in lockstep batches: the oracle integrals of every phi moment before the
    first point, and with the identity check the one-sided integrals and
    kernel halves of each (a, b, m, x) block, together, before its points.
    """
    tails = list(itertools.product(cfg.lam, cfg.kappa, cfg.alpha, cfg.q))
    if "phi-oracle" in cfg.checks:
        bounds.fill_phi_oracles(
            [spec for tail in tails for spec in _phi_specs(tail)])
    for block in itertools.product(cfg.a, cfg.b, cfg.m, cfg.x):
        points = [(block + tail, _grid_params(block + tail)) for tail in tails]
        if "identity" in cfg.checks:
            fill_sides([(prm, by_name[name].fn) for _, prm in points
                        if prm is not None for name in cfg.fns])
        yield from points


def run_sweep(cfg: SweepConfig, out_path: str) -> SweepSummary:
    """Evaluate the configured checks over the full parameter grid.

    One CSV row per (grid point x function x check); combinations that
    fail a precondition (invalid Params, unadmitted function, q = 1 for
    the Hoelder route) are counted as skipped, not errors.  phi-oracle
    rows do not involve a function and are emitted once per distinct
    (kappa, lambda, alpha, q), with fn = "-".  A row whose numerics fail
    (no convergence, a non-finite sample, an overflow) is counted as
    failed, named on stderr, and the sweep goes on; a corollary id or a
    phi moment fails alone, any other check for its whole (check, fn)
    pair.

    Each input of a report is computed once, in the sweep_memo opened with
    out_path, and shared by every check and every alpha and q that reads it:
    each grid point's Params, each one-sided RL integral and kernel half, the
    direct and kernel sides and residual of each identity point (fn, a, b, m,
    x, lambda, kappa), each phi moment and its oracle, each |f''| triple, the
    ids of the corollaries that apply at each Params, the Simpson average per
    (fn, a, b), and each sarikaya and remark row (or skip) per (fn, a, b,
    lambda, q); each row rebuilds its thm211/thm22 report from them.  Most
    integrals run in lockstep batches (see _grid); no bit of a row moves.

    out_path is opened before any work, and each row is written as it is
    produced: a bad path fails first, and a crash keeps the rows before it.
    Rows are the bytes csv.writer writes, built directly: no field needs
    quoting (check ids, corpus names, numbers, true/false).
    """
    by_name = corpus_by_name()
    total = 0
    skipped = 0
    failed = 0
    held = 0
    worst_tight = 0.0
    max_resid = 0.0
    phi_seen = set()

    with open(out_path, "w", encoding="utf-8", newline="") as fh, sweep_memo():
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for pt, prm in _grid(cfg, by_name):
            cells = ",".join(map(_fmt, pt))
            for check in cfg.checks:
                if check == "phi-oracle":
                    if pt[4:] in phi_seen:
                        continue
                    phi_seen.add(pt[4:])
                    batches = [("-", None, _phi_rows)]
                else:
                    batches = [(name, by_name[name].fn, _CHECKS[check])
                               for name in cfg.fns]
                for fn_name, fn, produce in batches:
                    try:
                        out = produce(pt, prm, fn)
                    except (DomainError, AdmissionError):
                        out = []
                    except _NUMERICAL_ERRORS as exc:
                        out = [_Failed(check, exc)]
                    if not out:
                        skipped += 1
                    for row in out:
                        if isinstance(row, _Failed):
                            failed += 1
                            where = " ".join("%s=%r" % kv for kv in
                                             zip(_SWEEP_NUMERIC_KEYS, pt))
                            print("sweep: %s failed for fn %s at %s: %s"
                                  % (row.which, fn_name, where, row.error),
                                  file=sys.stderr)
                            continue
                        which, lhs, rhs, ok, tight, res = row
                        # %.17g writes what _fmt does
                        fh.write("%s,%s,%s,%.17g,%.17g,%s,%.17g,%.17g\r\n" % (
                            which, fn_name, cells, lhs, rhs, _fmt_bool(ok),
                            tight, res))
                        total += 1
                        held += ok
                        worst_tight = max(worst_tight, tight)
                        if which == "identity":
                            max_resid = max(max_resid, res)

    return SweepSummary(rows_total=total, rows_held=int(held),
                        skipped=skipped, failed=failed,
                        worst_tightness=worst_tight,
                        max_identity_residual=max_resid)


# --- classical sanity ------------------------------------------------------

@dataclass(frozen=True)
class SanityCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SanityReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def sanity_classical() -> SanityReport:
    """Hermite-Hadamard chain and the classical Simpson error bound.

    Pure kappa = m = alpha = 1 facts with textbook constants; if these
    fail, nothing downstream deserves trust.
    """
    checks = []
    tol = Tolerance(abs_tol=1e-13, rel_tol=1e-13)
    slack = 1e-12
    for entry in corpus():
        f = entry.fn.f
        avg = integrate(f, 0.0, 1.0, tol).value
        mid = float(f(0.5))
        ends = 0.5 * (float(f(0.0)) + float(f(1.0)))
        ok = mid <= avg + slack and avg <= ends + slack
        checks.append(SanityCheck(
            name="hermite-hadamard %s" % entry.fn.name, ok=ok,
            detail="f(mid)=%.12g <= avg=%.12g <= ends=%.12g"
                   % (mid, avg, ends)))

    e = math.e
    simpson = (math.exp(0.0) + 4.0 * math.exp(0.5) + math.exp(1.0)) / 6.0
    exact = e - 1.0
    err = abs(simpson - exact)
    limit = e / 2880.0
    checks.append(SanityCheck(
        name="simpson error bound exp", ok=err <= limit + slack,
        detail="|S - I| = %.6g <= e/2880 = %.6g" % (err, limit)))

    aff = lambda t: 2.0 * t + 0.5
    avg = integrate(aff, 0.0, 1.0, tol).value
    mid = aff(0.5)
    ends = 0.5 * (aff(0.0) + aff(1.0))
    ok = abs(mid - avg) <= slack and abs(avg - ends) <= slack
    checks.append(SanityCheck(
        name="affine equality case", ok=ok,
        detail="mid=%.12g avg=%.12g ends=%.12g" % (mid, avg, ends)))
    return SanityReport(checks=tuple(checks))


# --- remark vs sarikaya ----------------------------------------------------

REMARK_TABLE_LAMBDAS = tuple(i / 10.0 for i in range(11))
REMARK_TABLE_QS = (1.0, 2.0, 4.0)
REMARK_TABLE_FNS = ("exp", "quart/12")


def remark_comparison_table() -> list:
    """Rows comparing the remark bound with the sarikaya baseline.

    On [0, 1] with kappa = m = alpha = 1; both right-hand sides bound
    the same quantity, so each row records whether each holds and which
    is smaller.  Nothing asserts superiority; that column is informational.
    """
    by_name = corpus_by_name()
    rows = []
    for fn_name in REMARK_TABLE_FNS:
        fn = by_name[fn_name].fn
        for lam in REMARK_TABLE_LAMBDAS:
            for q in REMARK_TABLE_QS:
                rem = bounds.remark_bound(fn, 0.0, 1.0, lam, q)
                sar = bounds.bound_sarikaya(fn, 0.0, 1.0, lam, q)
                rows.append({
                    "fn": fn_name,
                    "lambda": _fmt(lam),
                    "q": _fmt(q),
                    "lhs": _fmt(rem.lhs),
                    "remark_rhs": _fmt(rem.rhs),
                    "sarikaya_rhs": _fmt(sar.rhs),
                    "remark_holds": _fmt_bool(rem.holds),
                    "sarikaya_holds": _fmt_bool(sar.holds),
                    "remark_leq_sarikaya": _fmt_bool(rem.rhs <= sar.rhs),
                })
    return rows


def write_remark_table(out_path: str) -> list:
    """Open out_path, then compute the table into it; returns its rows."""
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        rows = remark_comparison_table()
        writer = csv.DictWriter(fh, rows[0])
        writer.writeheader()
        writer.writerows(rows)
    return rows


# --- CLI -------------------------------------------------------------------

def _add_param_args(sp):
    sp.add_argument("--fn", required=True, choices=sorted(corpus_by_name()))
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--x", type=float, default=0.5)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0 / 3.0)
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=1.0)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracineq",
        description="numerical checks for fractional Simpson-type bounds "
                    "under (alpha, m)-convexity")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi", help="evaluate one kernel moment")
    sp.add_argument("which", type=int, choices=(1, 2, 3, 4))
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--oracle", action="store_true",
                    help="also evaluate the defining integral")

    sp = sub.add_parser("identity-check",
                        help="direct vs kernel form residual at one point")
    _add_param_args(sp)

    sp = sub.add_parser("bound-check", help="evaluate one bound report")
    sp.add_argument("--thm", required=True,
                    help="211, 22, sarikaya, remark or corollary:<id>")
    sp.add_argument("--literal", action="store_true",
                    help="sarikaya only: evaluate the uncorrected branch")
    _add_param_args(sp)

    sp = sub.add_parser("sweep", help="run a grid of checks to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)

    sub.add_parser("sanity", help="classical cross-checks")

    sp = sub.add_parser("remark-table",
                        help="remark vs sarikaya comparison table")
    sp.add_argument("--out", default=None)
    return ap


def _cmd_phi(args) -> int:
    k, lam = args.kappa, args.lam
    kw = dict(alpha=args.alpha, p=args.p)
    closed = bounds.phi(args.which, k, lam, **kw)
    oracle = bounds.phi_oracle(args.which, k, lam, **kw) if args.oracle else None
    print("phi%d = %s" % (args.which, _fmt(closed)))
    if oracle is not None:
        print("oracle = %s" % _fmt(oracle))
        print("abs diff = %.3g" % abs(closed - oracle))
        if abs(closed - oracle) > PHI_ORACLE_TOL:
            return 1
    return 0


def _params(args) -> Params:
    return Params(a=args.a, b=args.b, m=args.m, x=args.x, lam=args.lam,
                  kappa=args.kappa, alpha=args.alpha, q=args.q)


def _cmd_identity(args) -> int:
    chk = residual(_params(args), corpus_by_name()[args.fn].fn)
    print("lhs      = %s" % _fmt(chk.lhs))
    print("rhs      = %s" % _fmt(chk.rhs))
    print("residual = %.6g (budget %.6g)" % (chk.residual,
                                             chk.quad_error_budget))
    print("PASS" if chk.ok else "FAIL")
    return 0 if chk.ok else 1


def _cmd_bound(args) -> int:
    fn = corpus_by_name()[args.fn].fn
    if args.thm == "sarikaya":
        rep = bounds.bound_sarikaya(fn, args.a, args.b, args.lam, args.q,
                                    literal=args.literal)
    elif args.thm == "remark":
        rep = bounds.remark_bound(fn, args.a, args.b, args.lam, args.q)
    elif args.thm == "211":
        rep = bounds.bound_thm211(_params(args), fn)
    elif args.thm == "22":
        rep = bounds.bound_thm22(_params(args), fn)
    elif args.thm.startswith("corollary:"):
        rep = bounds.corollary_check(args.thm.split(":", 1)[1], _params(args),
                                     fn)
    else:
        raise DomainError("unknown --thm %r" % (args.thm,))
    print("which     = %s" % rep.which)
    print("lhs       = %s" % _fmt(rep.lhs))
    print("rhs       = %s" % _fmt(rep.rhs))
    print("holds     = %s" % _fmt_bool(rep.holds))
    print("tightness = %s" % _fmt(rep.tightness))
    if hasattr(rep, "printed_rhs"):
        print("printed_rhs = %s" % _fmt(rep.printed_rhs))
        print("discrepancy = %.6g (matches_printed=%s, typo_suspect=%s)"
              % (rep.discrepancy, _fmt_bool(rep.matches_printed),
                 _fmt_bool(rep.typo_suspect)))
        print("note: %s" % rep.note)
    return 0 if rep.holds else 1


def _cmd_sweep(args) -> int:
    cfg = parse_sweep_config(args.config)
    summary = run_sweep(cfg, args.out)
    print("rows=%d held=%d skipped=%d failed=%d"
          % (summary.rows_total, summary.rows_held, summary.skipped,
             summary.failed))
    print("worst_tightness=%s" % _fmt(summary.worst_tightness))
    print("max_identity_residual=%s" % _fmt(summary.max_identity_residual))
    print("wrote %s" % args.out)
    return 0 if summary.ok else 1


def _cmd_sanity(_args) -> int:
    report = sanity_classical()
    for c in report.checks:
        print("%s %s: %s" % ("PASS" if c.ok else "FAIL", c.name, c.detail))
    return 0 if report.ok else 1


def _cmd_remark_table(args) -> int:
    rows = write_remark_table(args.out) if args.out else remark_comparison_table()
    if args.out:
        print("wrote %s (%d rows)" % (args.out, len(rows)))
    better = sum(r["remark_leq_sarikaya"] == "true" for r in rows)
    all_hold = all(r["remark_holds"] == "true"
                   and r["sarikaya_holds"] == "true" for r in rows)
    print("rows=%d both_bounds_hold=%s remark_leq_sarikaya=%d/%d"
          % (len(rows), _fmt_bool(all_hold), better, len(rows)))
    if not args.out:
        for r in rows:
            print("%s lambda=%s q=%s lhs=%s remark=%s sarikaya=%s"
                  % (r["fn"], r["lambda"], r["q"], r["lhs"],
                     r["remark_rhs"], r["sarikaya_rhs"]))
    return 0 if all_hold else 1


_COMMANDS = {
    "phi": _cmd_phi,
    "identity-check": _cmd_identity,
    "bound-check": _cmd_bound,
    "sweep": _cmd_sweep,
    "sanity": _cmd_sanity,
    "remark-table": _cmd_remark_table,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(all="ignore"):     # the failure line says enough
            return _COMMANDS[args.command](args)
    except (DomainError, AdmissionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()

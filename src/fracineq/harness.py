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
import math
import sys
from dataclasses import dataclass

from . import bounds
from .amconvex import corpus, corpus_by_name
from .errors import AdmissionError, ConvergenceError, DomainError, EvaluationError
from .identity import Params, memoized, point_key, residual
from .quad import Tolerance, integrate

CSV_COLUMNS = ("check", "fn", "a", "b", "m", "x", "lambda", "kappa",
               "alpha", "q", "lhs", "rhs", "holds", "tightness", "residual")

PHI_ORACLE_TOL = 1e-10

_SWEEP_NUMERIC_KEYS = ("a", "b", "m", "x", "lambda", "kappa", "alpha", "q")
_SWEEP_CHECKS = ("identity", "thm211", "thm22", "sarikaya", "remark",
                 "corollaries", "phi-oracle")


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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
            elif key == "fn":
                if value not in corpus_by_name():
                    raise DomainError("%s:%d: unknown fn %r (known: %s)"
                                      % (path, lineno, value,
                                         ", ".join(sorted(corpus_by_name()))))
                raw.setdefault("fn", []).append(value)
            elif key == "check":
                if value not in _SWEEP_CHECKS:
                    raise DomainError("%s:%d: unknown check %r (known: %s)"
                                      % (path, lineno, value,
                                         ", ".join(_SWEEP_CHECKS)))
                raw.setdefault("check", []).append(value)
            else:
                raise DomainError("%s:%d: unknown key %r" % (path, lineno, key))
    d = DEFAULT_CONFIG
    return SweepConfig(
        a=tuple(raw.get("a", d.a)),
        b=tuple(raw.get("b", d.b)),
        m=tuple(raw.get("m", d.m)),
        x=tuple(raw.get("x", d.x)),
        lam=tuple(raw.get("lambda", d.lam)),
        kappa=tuple(raw.get("kappa", d.kappa)),
        alpha=tuple(raw.get("alpha", d.alpha)),
        q=tuple(raw.get("q", d.q)),
        fns=tuple(raw.get("fn", d.fns)),
        checks=tuple(raw.get("check", d.checks)),
    )


@dataclass(frozen=True)
class SweepSummary:
    rows_total: int
    rows_held: int
    skipped: int
    worst_tightness: float
    max_identity_residual: float

    @property
    def ok(self) -> bool:
        return self.rows_held == self.rows_total


def _param_points(cfg: SweepConfig):
    for a in cfg.a:
        for b in cfg.b:
            for m in cfg.m:
                for x in cfg.x:
                    for lam in cfg.lam:
                        for kappa in cfg.kappa:
                            for alpha in cfg.alpha:
                                for q in cfg.q:
                                    yield (a, b, m, x, lam, kappa, alpha, q)


def _row(check, fn_name, pt, lhs, rhs, holds, tightness, res):
    a, b, m, x, lam, kappa, alpha, q = pt
    return {
        "check": check, "fn": fn_name,
        "a": _fmt(a), "b": _fmt(b), "m": _fmt(m), "x": _fmt(x),
        "lambda": _fmt(lam), "kappa": _fmt(kappa), "alpha": _fmt(alpha),
        "q": _fmt(q),
        "lhs": _fmt(lhs), "rhs": _fmt(rhs), "holds": _fmt_bool(holds),
        "tightness": _fmt(tightness), "residual": _fmt(res),
    }


def run_sweep(cfg: SweepConfig, out_path: str) -> SweepSummary:
    """Evaluate the configured checks over the full parameter grid.

    One CSV row per (grid point x function x check); combinations that
    fail a precondition (invalid Params, unadmitted function, q = 1 for
    the Hoelder route) are counted as skipped, not errors.  phi-oracle
    rows do not involve a function and are emitted once per distinct
    (kappa, lambda, alpha, q), with fn = "-".

    Each distinct identity point (fn, a, b, m, x, lambda, kappa) is
    evaluated once per call: its residual, direct side and kernel side
    are shared by every check and every alpha and q, and the Simpson
    blend lhs once per (fn, a, b, lambda).
    """
    by_name = corpus_by_name()
    memo: dict = {}
    rows = []
    skipped = 0
    held = 0
    worst_tight = 0.0
    max_resid = 0.0
    phi_seen = set()

    for pt in _param_points(cfg):
        a, b, m, x, lam, kappa, alpha, q = pt
        for check in cfg.checks:
            if check == "phi-oracle":
                key = (kappa, lam, alpha, q)
                if key in phi_seen:
                    continue
                phi_seen.add(key)
                specs = [(1, bounds.phi1(kappa, lam),
                          bounds.phi_oracle(1, kappa, lam)),
                         (2, bounds.phi2(kappa, lam, alpha),
                          bounds.phi_oracle(2, kappa, lam, alpha=alpha)),
                         (3, bounds.phi3(kappa, lam, alpha),
                          bounds.phi_oracle(3, kappa, lam, alpha=alpha))]
                if q > 1.0:
                    pp = q / (q - 1.0)
                    specs.append((4, bounds.phi4(kappa, lam, pp),
                                  bounds.phi_oracle(4, kappa, lam, p=pp)))
                for n, closed, oracle in specs:
                    diff = abs(closed - oracle)
                    ok = diff <= PHI_ORACLE_TOL
                    rows.append(_row("phi%d" % n, "-", pt, closed, oracle,
                                     ok, 0.0, diff))
                    held += ok
                continue

            for fn_name in cfg.fns:
                entry = by_name[fn_name]
                if check == "identity":
                    try:
                        prm = Params(a=a, b=b, m=m, x=x, lam=lam, kappa=kappa,
                                     alpha=alpha, q=q)
                    except DomainError:
                        skipped += 1
                        continue
                    key = ("identity",) + point_key(prm, entry.fn)
                    chk = memoized(memo, key,
                                   lambda: residual(prm, entry.fn, memo))
                    rows.append(_row(check, fn_name, pt, chk.lhs, chk.rhs,
                                     chk.ok, 0.0, chk.residual))
                    held += chk.ok
                    max_resid = max(max_resid, chk.residual)
                elif check in ("thm211", "thm22"):
                    try:
                        prm = Params(a=a, b=b, m=m, x=x, lam=lam, kappa=kappa,
                                     alpha=alpha, q=q)
                        fnc = (bounds.bound_thm211 if check == "thm211"
                               else bounds.bound_thm22)
                        rep = fnc(prm, entry.fn, memo=memo)
                    except (DomainError, AdmissionError):
                        skipped += 1
                        continue
                    rows.append(_row(check, fn_name, pt, rep.lhs, rep.rhs,
                                     rep.holds, rep.tightness, 0.0))
                    held += rep.holds
                    worst_tight = max(worst_tight, rep.tightness)
                elif check in ("sarikaya", "remark"):
                    try:
                        fnc = (bounds.bound_sarikaya if check == "sarikaya"
                               else bounds.remark_bound)
                        rep = fnc(entry.fn, a, b, lam, q, memo=memo)
                    except (DomainError, AdmissionError):
                        skipped += 1
                        continue
                    rows.append(_row(check, fn_name, pt, rep.lhs, rep.rhs,
                                     rep.holds, rep.tightness, 0.0))
                    held += rep.holds
                    worst_tight = max(worst_tight, rep.tightness)
                elif check == "corollaries":
                    try:
                        prm = Params(a=a, b=b, m=m, x=x, lam=lam, kappa=kappa,
                                     alpha=alpha, q=q)
                    except DomainError:
                        skipped += 1
                        continue
                    emitted = False
                    for cid in bounds.COROLLARY_IDS:
                        try:
                            rep = bounds.corollary_check(cid, prm, entry.fn,
                                                         memo=memo)
                        except (DomainError, AdmissionError):
                            continue
                        rows.append(_row(rep.which, fn_name, pt, rep.lhs,
                                         rep.rhs, rep.holds, rep.tightness,
                                         rep.discrepancy))
                        held += rep.holds
                        worst_tight = max(worst_tight, rep.tightness)
                        emitted = True
                    if not emitted:
                        skipped += 1

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return SweepSummary(rows_total=len(rows), rows_held=int(held),
                        skipped=skipped, worst_tightness=worst_tight,
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


def remark_comparison_table(a: float = 0.0, b: float = 1.0) -> list:
    """Rows comparing the remark bound with the sarikaya baseline.

    kappa = m = alpha = 1 throughout; both right-hand sides bound the
    same quantity, so each row records whether each holds and which is
    smaller.  Nothing asserts superiority; that column is informational.
    """
    by_name = corpus_by_name()
    rows = []
    for fn_name in REMARK_TABLE_FNS:
        fn = by_name[fn_name].fn
        for lam in REMARK_TABLE_LAMBDAS:
            for q in REMARK_TABLE_QS:
                rem = bounds.remark_bound(fn, a, b, lam, q)
                sar = bounds.bound_sarikaya(fn, a, b, lam, q)
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


def write_remark_table(rows: list, out_path: str) -> None:
    cols = ("fn", "lambda", "q", "lhs", "remark_rhs", "sarikaya_rhs",
            "remark_holds", "sarikaya_holds", "remark_leq_sarikaya")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)


# --- CLI -------------------------------------------------------------------

def _add_param_args(sp, need_fn=True):
    if need_fn:
        sp.add_argument("--fn", required=True,
                        choices=sorted(corpus_by_name()))
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
    if args.which == 1:
        closed = bounds.phi1(k, lam)
        oracle = bounds.phi_oracle(1, k, lam) if args.oracle else None
    elif args.which in (2, 3):
        if args.alpha is None:
            raise DomainError("phi%d needs --alpha" % args.which)
        fnc = bounds.phi2 if args.which == 2 else bounds.phi3
        closed = fnc(k, lam, args.alpha)
        oracle = (bounds.phi_oracle(args.which, k, lam, alpha=args.alpha)
                  if args.oracle else None)
    else:
        if args.p is None:
            raise DomainError("phi4 needs --p")
        closed = bounds.phi4(k, lam, args.p)
        oracle = bounds.phi_oracle(4, k, lam, p=args.p) if args.oracle else None
    print("phi%d = %s" % (args.which, _fmt(closed)))
    if oracle is not None:
        print("oracle = %s" % _fmt(oracle))
        print("abs diff = %.3g" % abs(closed - oracle))
        if abs(closed - oracle) > PHI_ORACLE_TOL:
            return 1
    return 0


def _cmd_identity(args) -> int:
    fn = corpus_by_name()[args.fn].fn
    prm = Params(a=args.a, b=args.b, m=args.m, x=args.x, lam=args.lam,
                 kappa=args.kappa, alpha=args.alpha, q=args.q)
    chk = residual(prm, fn)
    print("lhs      = %s" % _fmt(chk.lhs))
    print("rhs      = %s" % _fmt(chk.rhs))
    print("residual = %.6g (budget %.6g)" % (chk.residual,
                                             chk.quad_error_budget))
    print("PASS" if chk.ok else "FAIL")
    return 0 if chk.ok else 1


def _cmd_bound(args) -> int:
    fn = corpus_by_name()[args.fn].fn
    if args.thm in ("sarikaya", "remark"):
        if args.thm == "sarikaya":
            rep = bounds.bound_sarikaya(fn, args.a, args.b, args.lam, args.q,
                                        literal=args.literal)
        else:
            rep = bounds.remark_bound(fn, args.a, args.b, args.lam, args.q)
    else:
        prm = Params(a=args.a, b=args.b, m=args.m, x=args.x, lam=args.lam,
                     kappa=args.kappa, alpha=args.alpha, q=args.q)
        if args.thm == "211":
            rep = bounds.bound_thm211(prm, fn)
        elif args.thm == "22":
            rep = bounds.bound_thm22(prm, fn)
        elif args.thm.startswith("corollary:"):
            rep = bounds.corollary_check(args.thm.split(":", 1)[1], prm, fn)
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
    print("rows=%d held=%d skipped=%d" % (summary.rows_total,
                                          summary.rows_held, summary.skipped))
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
    rows = remark_comparison_table()
    if args.out:
        write_remark_table(rows, args.out)
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


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "phi":
            return _cmd_phi(args)
        if args.command == "identity-check":
            return _cmd_identity(args)
        if args.command == "bound-check":
            return _cmd_bound(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "sanity":
            return _cmd_sanity(args)
        if args.command == "remark-table":
            return _cmd_remark_table(args)
        raise DomainError("unknown command %r" % (args.command,))
    except (DomainError, AdmissionError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ConvergenceError, EvaluationError, OverflowError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()

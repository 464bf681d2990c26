"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream;
under default capture they surface for failing criteria only.
"""

import itertools
import math
import time

from fracineq import (beta, beta_inc, bound_thm211, bound_thm22,
                      corollary_check, corpus, gamma, hyp2f1, phi1, phi2,
                      phi3, phi4, phi_oracle, residual, rl_left, rl_right,
                      Params)
from fracineq.amconvex import is_admitted
from fracineq.bounds import (_phi1_below, _phi1_above, _phi2_below,
                             _phi2_above, _phi3_below, _phi3_above,
                             _phi4_mid, _phi4_upper, remark_phi1, remark_phi2,
                             remark_phi3)
from fracineq.harness import remark_comparison_table, sanity_classical
from fracineq.quad import Tolerance

from conftest import standard_grid

KAPPAS_ORACLE = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
LAMS_ORACLE = tuple(i * 0.05 for i in range(21))
ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
PS = (1.5, 2.0, 4.0)
KAPPAS_CONTINUITY = (0.25, 0.5, 1.0, 2.0, 3.0)


def report(num, label, ok, detail):
    print("[%s] criterion %d (%s): %s" % ("PASS" if ok else "FAIL",
                                          num, label, detail))
    return ok


def test_criterion_01_identity_residuals():
    t0 = time.time()
    worst = 0.0
    checked = failed = 0
    for entry in corpus():
        for (a, b) in ((0.0, 1.0), (0.2, 1.2)):
            for p in standard_grid(a, b):
                chk = residual(p, entry.fn)
                checked += 1
                worst = max(worst, chk.residual)
                failed += not chk.ok
    elapsed = time.time() - t0
    ok = failed == 0 and checked == 1800 and elapsed < 30.0
    assert report(1, "identity residual contract", ok,
                  "%d points x 6 fns, worst residual %.2e, %.1fs"
                  % (checked // 6, worst, elapsed))


def test_criterion_02_phi_closed_forms_vs_oracle():
    t0 = time.time()
    worst = 0.0
    n = 0
    for k, lam in itertools.product(KAPPAS_ORACLE, LAMS_ORACLE):
        worst = max(worst, abs(phi1(k, lam) - phi_oracle(1, k, lam)))
        n += 1
        for al in ALPHAS:
            worst = max(worst,
                        abs(phi2(k, lam, al) - phi_oracle(2, k, lam, alpha=al)),
                        abs(phi3(k, lam, al) - phi_oracle(3, k, lam, alpha=al)))
            n += 2
        for p in PS:
            worst = max(worst, abs(phi4(k, lam, p) - phi_oracle(4, k, lam, p=p)))
            n += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    assert report(2, "phi1..phi4 vs quadrature oracle", ok,
                  "%d evaluations, max |closed - oracle| = %.2e, %.1fs"
                  % (n, worst, elapsed))


def test_criterion_03_branch_continuity():
    worst = 0.0
    for k in KAPPAS_CONTINUITY:
        lam = 1.0 / (k + 1.0)
        worst = max(worst, abs(_phi1_below(k, lam) - _phi1_above(k, lam)))
        for al in ALPHAS:
            worst = max(worst,
                        abs(_phi2_below(k, lam, al) - _phi2_above(k, lam, al)),
                        abs(_phi3_below(k, lam, al)
                            - _phi3_above(k, lam, al)))
        for p in PS:
            worst = max(worst, abs(_phi4_mid(k, lam, p) - _phi4_upper(k, lam, p)))
    ok = worst <= 1e-12
    assert report(3, "branch agreement at lambda = 1/(kappa+1)", ok,
                  "max mismatch %.2e over kappa %s" % (worst, KAPPAS_CONTINUITY))


def test_criterion_04_decomposition():
    worst = 0.0
    for k, lam, al in itertools.product(KAPPAS_ORACLE, LAMS_ORACLE, ALPHAS):
        worst = max(worst, abs(phi2(k, lam, al) + phi3(k, lam, al) - phi1(k, lam)))
    ok = worst <= 1e-12
    assert report(4, "phi1 = phi2 + phi3", ok,
                  "max |phi2 + phi3 - phi1| = %.2e on the full grid" % worst)


def test_criterion_05_remark_tables():
    worst = 0.0
    for i in range(11):
        lam = i / 10.0
        worst = max(worst,
                    abs(remark_phi1(lam) - phi1(1.0, lam)),
                    abs(remark_phi2(lam) - phi2(1.0, lam, 1.0)),
                    abs(remark_phi3(lam) - phi3(1.0, lam, 1.0)))
    ok = worst <= 1e-12
    assert report(5, "printed remark tables vs phi(1, lambda)", ok,
                  "max deviation %.2e at lambda in {0, 0.1, ..., 1}" % worst)


def test_criterion_06_theorem_validity():
    rows = failures = 0
    for entry in corpus():
        for (alpha, m, q) in entry.admissions:
            assert is_admitted(entry.fn, alpha, m, q, 1.0).holds
            for kappa in (0.5, 1.0, 2.0):
                for lam in (0.0, 1.0 / (kappa + 1.0), 1.0 / 3.0, 0.5, 1.0):
                    for j in range(5):
                        x = m * j / 4.0
                        p = Params(a=0.0, b=1.0, m=m, x=x, lam=lam,
                                   kappa=kappa, alpha=alpha, q=q)
                        r = bound_thm211(p, entry.fn)
                        rows += 1
                        failures += not r.holds
                        if q > 1.0:
                            r = bound_thm22(p, entry.fn)
                            rows += 1
                            failures += not r.holds
    ok = failures == 0 and rows > 0
    assert report(6, "bounds hold on all admitted pairs", ok,
                  "%d rows over 15 admissions x 75-point grids, %d violations"
                  % (rows, failures))


def test_criterion_07_specialization_cross_checks():
    exp = next(e.fn for e in corpus() if e.fn.name == "exp")
    problems = []

    def pt(lam, kappa, q, alpha=1.0):
        return Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=lam, kappa=kappa,
                      alpha=alpha, q=q)

    # faithful at their coincidence points: agreement to 1e-10
    for cid, p in (("2a-h", pt(1.0, 1.0, 2.0)),
                   ("2b-d", pt(0.0, 1.0, 2.0)),
                   ("2b-g", pt(1.0, 1.0, 1.5)),
                   ("2b-g", pt(1.0, 1.0, 4.0))):
        r = corollary_check(cid, p, exp)
        if not (r.matches_printed and r.discrepancy <= 1e-10 and r.holds):
            problems.append("%s disc=%.2e" % (cid, r.discrepancy))

    # known-defective prints: the mismatch must be detected and reported
    # with the general bound authoritative, not patched over
    # (at kappa = 1 the rhs is the theorem's own, unscaled)
    for cid, p, general in (("2a-d", pt(1.0 / 3.0, 1.0, 2.0), bound_thm211),
                            ("2b-c", pt(1.0 / 3.0, 1.0, 2.0), bound_thm22)):
        r = corollary_check(cid, p, exp)
        if r.matches_printed or not r.typo_suspect or not r.note:
            problems.append("%s not flagged" % cid)
        if r.rhs != general(p, exp).rhs or not r.holds:
            problems.append("%s authority" % cid)

    # the general values feeding those two ids are oracle-confirmed here
    for which, kw in ((2, {"alpha": 1.0}), (3, {"alpha": 1.0}),
                      (4, {"p": 2.0})):
        closed = {2: phi2, 3: phi3, 4: phi4}[which]
        arg = kw.get("alpha", kw.get("p"))
        d = abs(closed(1.0, 1.0 / 3.0, arg)
                - phi_oracle(which, 1.0, 1.0 / 3.0, **kw))
        if d > 1e-10:
            problems.append("phi%d oracle %.2e" % (which, d))

    ok = not problems
    assert report(7, "corollary printed forms vs general bounds", ok,
                  "2a-h/2b-d/2b-g match <= 1e-10; 2a-d/2b-c reported "
                  "discrepant, general value oracle-confirmed"
                  if ok else "; ".join(problems))


def test_criterion_08_special_function_identities():
    worst_rec = 0.0
    for x in (0.3, 0.5, 1.0, 1.7, 2.5, 4.2, 7.9):
        worst_rec = max(worst_rec,
                        abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0))
    worst_sym = 0.0
    for (x, y) in ((0.5, 2.5), (1.5, 4.0), (2.0, 3.0)):
        worst_sym = max(worst_sym, abs(beta(x, y) - beta(y, x)))
    worst_half = 0.0
    for p in PS:
        worst_half = max(worst_half, abs(2.0 * beta_inc(0.5, 1.0 + p, 1.0 + p)
                                         - beta(1.0 + p, 1.0 + p)))
    exact_one = all(hyp2f1(a, b, c, 0.0) == 1.0
                    for (a, b, c) in ((1.0, 1.0, 2.0), (-2.0, 1.0, 4.0),
                                     (0.5, 2.0, 3.5)))
    ok = worst_rec <= 1e-12 and worst_sym <= 1e-12 and worst_half <= 1e-12 \
        and exact_one
    assert report(8, "gamma/beta/2F1 identities", ok,
                  "recursion %.1e, symmetry %.1e, half-range beta %.1e, "
                  "2F1(0) exact: %s" % (worst_rec, worst_sym, worst_half,
                                        exact_one))


def test_criterion_09_rl_reductions():
    worst_classical = 0.0
    for x in (0.25, 0.6, 1.0):
        worst_classical = max(
            worst_classical,
            abs(rl_left(math.exp, 0.0, 1.0, x) - (math.exp(x) - 1.0)),
            abs(rl_right(math.exp, 1.0, 1.0, 1.0 - x) - (math.e - math.exp(1.0 - x))))
    inner = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_subdiv=2000)
    half = lambda u: rl_left(lambda t: t, 0.0, 0.5, u, tol=inner)
    nested = rl_left(half, 0.0, 0.5, 1.0, tol=inner)
    semigroup_err = abs(nested - rl_left(lambda t: t, 0.0, 1.0, 1.0))
    ok = worst_classical <= 1e-11 and semigroup_err <= 1e-8
    assert report(9, "RL order-1 and semigroup reductions", ok,
                  "classical %.1e, J^1/2 twice vs J^1: %.1e"
                  % (worst_classical, semigroup_err))


def test_criterion_10_classical_sanity():
    rep = sanity_classical()
    detail = "%d checks" % len(rep.checks)
    if not rep.ok:
        detail += "; failing: " + ", ".join(c.name for c in rep.checks
                                            if not c.ok)
    assert report(10, "Hermite-Hadamard chain and Simpson 1/2880", rep.ok,
                  detail)


def test_criterion_11_remark_vs_baseline_table():
    rows = remark_comparison_table()
    bad = [r for r in rows
           if r["remark_holds"] != "true" or r["sarikaya_holds"] != "true"]
    n_better = sum(r["remark_leq_sarikaya"] == "true" for r in rows)
    ok = len(rows) == 66 and not bad
    # the sharper-than-baseline claim is measured and reported, by design
    # never asserted
    assert report(11, "remark vs two-branch baseline table", ok,
                  "66 rows, both bounds valid on all; remark <= baseline "
                  "on %d/66 (reported only)" % n_better)

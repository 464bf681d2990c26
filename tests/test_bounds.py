"""Kernel moments phi1..phi4 against the quadrature oracle, and the two
theorem bounds built on them.

phi3 and phi4 each have a *_literal twin in conftest preserving a
defective printed form (wrong constant-term numerator; missing 1/kappa
on the mid-branch 2F1 term).  Tests pin both the corrected values and the size of the
defect so neither can silently regress.
"""

import itertools
import math

import numpy as np
import pytest

from fracineq import (AdmissionError, ConvergenceError, DomainError,
                      EvaluationError, Params,
                      beta, beta_inc,
                      bound_sarikaya, bound_thm211, bound_thm22,
                      corpus_by_name, direct_side, phi1, phi2, phi3,
                      phi, phi4, phi_oracle, quad, remark_bound)
from fracineq.amconvex import FnTriple
from fracineq.bounds import (_ORACLE_TOL, PHI4_TAIL_BUDGET, fill_phi_oracles,
                             remark_phi1, remark_phi2, remark_phi3)
from fracineq.identity import sweep_memo
from fracineq.specfun import hyp2f1_result
from fracineq.quad import integrate

from conftest import alone, phi3_literal, phi4_literal

FNS = {k: v.fn for k, v in corpus_by_name().items()}

KAPPAS = (0.25, 0.5, 1.0, 2.0, 3.0)


# --- closed forms vs pinned values ---------------------------------------

def test_phi1_pinned():
    # kappa=1, lam=1/3: int_0^1 t |2/3 - t| dt = 8/81
    assert abs(phi1(1.0, 1.0 / 3.0) - 8.0 / 81.0) <= 1e-15
    # lam=1 upper branch: int_0^1 t (kappa+1-t^kappa) dt = kappa (kappa+3) / (2 (kappa+2))
    assert abs(phi1(1.0, 1.0) - 2.0 / 3.0) <= 1e-15
    # lam=0: int_0^1 t^(kappa+1) dt
    assert abs(phi1(2.0, 0.0) - 0.25) <= 1e-15


def test_phi2_phi3_alpha_one_pinned():
    # classical tables at kappa=1, lam=1
    assert abs(phi2(1.0, 1.0, 1.0) - 5.0 / 12.0) <= 1e-15
    assert abs(phi3(1.0, 1.0, 1.0) - 0.25) <= 1e-15
    # midpoint lam=1/3 values
    assert abs(phi2(1.0, 1.0 / 3.0, 1.0) - 59.0 / 972.0) <= 1e-15
    assert abs(phi3(1.0, 1.0 / 3.0, 1.0) - 37.0 / 972.0) <= 1e-15


def test_phi4_pinned():
    assert abs(phi4(1.0, 0.0, 2.0) - 0.2) <= 1e-15          # 1/(p(k+1)+1)
    assert abs(phi4(1.0, 1.0 / 3.0, 2.0) - 2.0 / 135.0) <= 1e-15
    # lam=1, kappa=1: 2^(2p) B(1+p, 1+p)
    for p in (1.5, 2.0, 4.0):
        expect = 2.0 ** (2.0 * p) * beta(1.0 + p, 1.0 + p)
        assert abs(phi4(1.0, 1.0, p) - expect) <= 1e-14


def test_phi3_alpha_zero_vanishes():
    # alpha = 0 makes the inner weight (1 - t^0) identically zero
    for k in KAPPAS:
        for lam in (0.0, 0.2, 0.5, 1.0):
            assert phi3(k, lam, 0.0) == 0.0


def test_phi3_literal_preserves_the_defect():
    # the defective constant term uses kappa where alpha belongs; at
    # alpha=0 it no longer vanishes, which is how the defect was caught
    v = phi3_literal(1.5, 0.2, 0.0)
    assert abs(v - 0.12244897959183673) <= 1e-15
    assert phi3(1.5, 0.2, 0.0) == 0.0
    # and the two agree exactly when alpha == kappa
    assert phi3_literal(1.0, 0.3, 1.0) == phi3(1.0, 0.3, 1.0)


def test_phi4_literal_drops_the_kappa_scale():
    # the printed mid-branch is missing 1/kappa on its 2F1 term,
    # invisible at kappa=1
    assert phi4_literal(1.0, 1.0 / 3.0, 2.0) == phi4(1.0, 1.0 / 3.0, 2.0)
    k, lam, p = 0.25, 0.05, 1.5
    got = phi4_literal(k, lam, p)
    want = phi_oracle(4, k, lam, p=p)
    assert abs(got - want) > 0.2
    assert abs(phi4(k, lam, p) - want) <= 1e-12


def test_criterion_02_oracles_fit_in_4580_engine_rounds():
    # the oracle integrals of acceptance criterion 2, counted as CI counts
    # the sweep's: native integrands bisect through their lookahead rows,
    # so most of the 13,166 splits need no round of their own (4,358;
    # one round per split would be 13,962)
    from test_acceptance import ALPHAS, KAPPAS_ORACLE, LAMS_ORACLE, PS

    start = quad.WORK[0]
    for k, lam in itertools.product(KAPPAS_ORACLE, LAMS_ORACLE):
        phi_oracle(1, k, lam)
        for al in ALPHAS:
            phi_oracle(2, k, lam, alpha=al)
            phi_oracle(3, k, lam, alpha=al)
        for p in PS:
            phi_oracle(4, k, lam, p=p)
    rounds = quad.WORK[0] - start
    assert rounds <= 4580, "%d GK15 rounds, limit 4580" % rounds


def _serial_oracle(which, kappa, lam, alpha=None, p=None):
    """phi_oracle as it summed its segments before they became jobs: each
    segment integrated in turn, its value added to a running total."""
    c = (kappa + 1.0) * lam
    if c <= 0.0:
        segments = [(0.0, 1.0, -1.0)]
    elif c >= 1.0:
        segments = [(0.0, 1.0, 1.0)]
    else:
        tstar = c ** (1.0 / kappa)
        segments = [(0.0, tstar, 1.0), (tstar, 1.0, -1.0)]

    def integrand(t, sign):
        kern = np.maximum(sign * (c - t ** kappa), 0.0)
        if which == 1:
            return t * kern
        if which == 2:
            return t ** (1.0 + alpha) * kern
        if which == 3:
            return t * (1.0 - t ** alpha) * kern
        return t ** p * kern ** p

    total = 0.0
    for lo, hi, sign in segments:
        total += integrate(lambda t: integrand(t, sign), lo, hi,
                           _ORACLE_TOL).value
    return total


def test_oracle_jobs_equal_the_serial_segment_sum_bit_for_bit():
    # the criterion-02 grid; phi_oracle alone and the sweep's one-batch
    # fill must both give the serial sum of the old code, bit for bit
    specs = []
    for k, lam in itertools.product((0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
                                    [i * 0.05 for i in range(21)]):
        specs.append((1, k, lam, None, None))
        for al in (0.0, 0.25, 0.5, 0.75, 1.0):
            specs += [(2, k, lam, al, None), (3, k, lam, al, None)]
        specs += [(4, k, lam, None, p) for p in (1.5, 2.0, 4.0)]
    with sweep_memo() as memo:
        fill_phi_oracles(specs)
        assert len(memo) == len(specs) == 1764
        for which, k, lam, al, p in specs:
            want = _serial_oracle(which, k, lam, al, p)
            assert alone(phi_oracle, which, k, lam, alpha=al, p=p) == want
            assert phi_oracle(which, k, lam, alpha=al, p=p) == want


@pytest.mark.parametrize("spec", [(2, 1.0, 0.5, None, None),
                                  (3, 1.0, 0.5, None, 2.0),
                                  (4, 1.0, 0.5, 1.0, None)])
def test_a_spec_missing_its_argument_fails_before_any_oracle_round(spec):
    # the moment key checks it, so neither this spec nor the good one
    # before it reaches the engine
    start = quad.WORK[:]
    with sweep_memo() as memo, pytest.raises(DomainError, match="needs"):
        fill_phi_oracles([(1, 1.0, 0.5, None, None), spec])
    assert quad.WORK == start and memo == {}


def test_phi_oracle_raises_the_error_of_its_integral():
    # t^p |c - t^kappa|^p at p = 1e308 is 0 * inf at the first nodes; the
    # failed integral is not stored, so each reader gets the error
    with sweep_memo() as memo, np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            with pytest.raises(EvaluationError, match="non-finite"):
                phi_oracle(4, 1.0, 1.0, p=1e308)
    assert memo == {}


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("lam", (0.0, 0.1, 0.3, 0.6, 1.0))
def test_phi1_against_oracle(k, lam):
    assert abs(phi1(k, lam) - phi_oracle(1, k, lam)) <= 1e-11


@pytest.mark.parametrize("k", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
def test_phi2_phi3_against_oracle(k, alpha):
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert abs(phi2(k, lam, alpha) - phi_oracle(2, k, lam, alpha=alpha)) <= 1e-11
        assert abs(phi3(k, lam, alpha) - phi_oracle(3, k, lam, alpha=alpha)) <= 1e-11


@pytest.mark.parametrize("k", (0.25, 1.0, 2.0))
@pytest.mark.parametrize("p", (1.5, 2.0, 4.0))
def test_phi4_against_oracle(k, p):
    for lam in (0.0, 0.05, 0.4, 1.0):
        assert abs(phi4(k, lam, p) - phi_oracle(4, k, lam, p=p)) <= 1e-11


@pytest.mark.parametrize("k", KAPPAS)
def test_branch_continuity(k):
    lam = 1.0 / (k + 1.0)
    eps = 1e-9
    for fn, kw in ((phi1, {}), (phi2, {"alpha": 0.7}), (phi3, {"alpha": 0.7}),
                   (phi4, {"p": 2.0})):
        if kw.get("alpha") is not None:
            lo = fn(k, lam - eps, kw["alpha"])
            at = fn(k, lam, kw["alpha"])
            hi = fn(k, lam + eps, kw["alpha"])
        elif kw.get("p") is not None:
            lo = fn(k, lam - eps, kw["p"])
            at = fn(k, lam, kw["p"])
            hi = fn(k, lam + eps, kw["p"])
        else:
            lo, at, hi = fn(k, lam - eps), fn(k, lam), fn(k, lam + eps)
        assert abs(lo - at) <= 1e-6 and abs(hi - at) <= 1e-6
        assert abs(lo - hi) <= 1e-6


@pytest.mark.parametrize("k", KAPPAS)
@pytest.mark.parametrize("alpha", (0.25, 0.75, 1.0))
def test_decomposition(k, alpha):
    # splitting |f''| into its two convexity weights must tile phi1
    for lam in (0.0, 0.15, 1.0 / (k + 1.0), 0.8, 1.0):
        s = phi2(k, lam, alpha) + phi3(k, lam, alpha)
        assert abs(s - phi1(k, lam)) <= 1e-13


def test_phi1_phi4_pinned_at_lambda_one_third():
    assert abs(phi1(1.0, 1.0 / 3.0) - 8.0 / 81.0) <= 1e-15
    assert abs(phi4(1.0, 1.0 / 3.0, 2.0) - 2.0 / 135.0) <= 1e-15


@pytest.mark.parametrize("k", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("lam", (0.0, 0.2, 1.0 / 3.0, 0.9))
def test_phi_dispatches_to_each_closed_form(k, lam):
    for alpha in (0.25, 1.0):
        for p in (1.5, 3.0):
            assert phi(1, k, lam, alpha=alpha, p=p) == phi1(k, lam)
            assert phi(2, k, lam, alpha=alpha, p=p) == phi2(k, lam, alpha)
            assert phi(3, k, lam, alpha=alpha, p=p) == phi3(k, lam, alpha)
            assert phi(4, k, lam, alpha=alpha, p=p) == phi4(k, lam, p)


# mpmath.quad at 40 digits of int_0^1 t^2 |1.001 - t^0.001|^2 dt
PHI4_SMALL_KAPPA = 6.2948156373665661e-07


def test_phi_oracle_at_a_small_kappa():
    assert phi_oracle(4, 1e-3, 1.0, p=2.0) == pytest.approx(PHI4_SMALL_KAPPA,
                                                             rel=1e-9)


@pytest.mark.xfail(strict=True, reason="its incomplete beta, weight t^2999 "
                   "on [0, 1/1.001], comes back as about 4e-14 for 3.1e-11 "
                   "(ROADMAP aim 3)")
def test_phi4_at_a_small_kappa():
    assert phi4(1e-3, 1.0, 2.0) == pytest.approx(PHI4_SMALL_KAPPA, rel=1e-9)


def test_phi_needs_its_arguments():
    with pytest.raises(DomainError):
        phi(2, 1.0, 0.5)
    with pytest.raises(DomainError):
        phi(3, 1.0, 0.5, p=2.0)
    with pytest.raises(DomainError):
        phi(4, 1.0, 0.5, alpha=1.0)
    with pytest.raises(DomainError):
        phi(5, 1.0, 0.5, alpha=1.0, p=2.0)


def test_phi_domain_errors():
    with pytest.raises(DomainError):
        phi1(0.0, 0.5)
    with pytest.raises(DomainError):
        phi1(1.0, -0.1)
    with pytest.raises(DomainError):
        phi2(1.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        phi4(1.0, 0.5, 1.0)   # Hoelder conjugate must exceed 1
    with pytest.raises(DomainError):
        phi_oracle(5, 1.0, 0.5)


@pytest.mark.parametrize("lam", (1e-12, 1e-6))
def test_phi4_raises_where_its_2f1_series_is_cut_short(lam):
    # near z = 1 the middle branch's 2F1 series stops at its term cap; the
    # values it returned were off the oracle by 7.3e-7 and 5.8e-7
    with pytest.raises(ConvergenceError) as exc:
        phi4(8.0, lam, 1.01)
    assert "tail estimate" in str(exc.value)
    c = 9.0 * lam
    tail = hyp2f1_result(1.0 - 2.01 / 8.0, 1.0, 3.01, 1.0 - c).abs_error_estimate
    assert tail * (1.0 - c) ** 2.01 / (8.0 * 2.01) > PHI4_TAIL_BUDGET


# --- theorem bounds ------------------------------------------------------

def test_equality_case_is_tight():
    # cubic/6 at lam=0, q=1: |f''| = x is (1,1)-convex with equality, and
    # the kernel bound collapses to an identity
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.0, kappa=1.0, alpha=1.0, q=1.0)
    r = bound_thm211(p, FNS["cubic/6"])
    assert r.holds
    assert abs(r.lhs - 1.0 / 48.0) <= 1e-12
    assert abs(r.tightness - 1.0) <= 1e-12


def test_zero_second_derivative_degenerate():
    affine = FnTriple(f=lambda u: 2.0 * u + 0.5, df=lambda u: 2.0,
                      ddf=lambda u: 0.0, name="affine")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=1.0, q=1.0)
    r = bound_thm211(p, affine)
    assert r.rhs == 0.0 and r.lhs <= 1e-13
    assert r.holds
    assert r.tightness == 0.0  # 0/0 reported as 0, not nan


@pytest.mark.parametrize("name,alpha,m,q", [
    ("cubic/6", 1.0, 1.0, 1.0),
    ("cubic/6", 1.0, 0.6, 1.0),
    ("quart/12", 0.5, 0.5, 1.0),
    ("exp", 1.0, 1.0, 2.0),
    ("pow-2.25", 1.0, 1.0, 4.0),
    ("pow-2.75", 0.5, 0.25, 2.0),
])
def test_thm211_holds_on_admitted_pairs(name, alpha, m, q):
    for kappa in (0.5, 1.0, 2.0):
        for lam in (0.0, 1.0 / 3.0, 1.0):
            p = Params(a=0.0, b=1.0, m=m, x=m / 2.0, lam=lam, kappa=kappa,
                       alpha=alpha, q=q)
            r = bound_thm211(p, FNS[name])
            assert r.holds, (name, kappa, lam, r.lhs, r.rhs)
            assert 0.0 <= r.tightness <= 1.0 + 1e-12


@pytest.mark.parametrize("name,alpha,m,q", [
    ("exp", 1.0, 1.0, 2.0),
    ("pow-2.5", 1.0, 1.0, 2.0),
    ("pow-2.5", 0.5, 0.5, 4.0),
    ("quart/12", 1.0, 1.0, 2.0),
])
def test_thm22_holds_on_admitted_pairs(name, alpha, m, q):
    for kappa in (0.5, 1.0, 2.0):
        for lam in (0.0, 0.5, 1.0):
            p = Params(a=0.0, b=1.0, m=m, x=m / 2.0, lam=lam, kappa=kappa,
                       alpha=alpha, q=q)
            r = bound_thm22(p, FNS[name])
            assert r.holds, (name, kappa, lam, r.lhs, r.rhs)


def test_thm22_rejects_q_one():
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=1.0, q=1.0)
    with pytest.raises(DomainError):
        bound_thm22(p, FNS["exp"])


def test_bounds_enforce_admission():
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=0.5, q=1.0)
    with pytest.raises(AdmissionError):
        bound_thm211(p, FNS["exp"])


def test_thm22_dominates_thm211_is_not_assumed():
    # the two routes are genuinely different estimates; record an example
    # where the power-mean route is the tighter one
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=1.0 / 3.0, kappa=1.0,
               alpha=1.0, q=2.0)
    r1 = bound_thm211(p, FNS["exp"])
    r2 = bound_thm22(p, FNS["exp"])
    assert r1.rhs < r2.rhs


# --- the classical two-branch baseline -----------------------------------

def test_sarikaya_branches_agree_at_half():
    for q in (1.0, 2.0, 3.0):
        from fracineq.bounds import _sarikaya_terms_low, _sarikaya_terms_high
        lo = _sarikaya_terms_low(0.5)
        hi = _sarikaya_terms_high(0.5)
        for u, v in zip(lo, hi):
            assert abs(u - v) <= 1e-15
        r_lo = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.5 - 1e-12, q)
        r_hi = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.5 + 1e-12, q)
        assert abs(r_lo.rhs - r_hi.rhs) <= 1e-9


def test_sarikaya_branch_constants_pinned():
    from fracineq.bounds import _sarikaya_terms_low, _sarikaya_terms_high
    # at lam=1/2 both branches give P=1/48, A=1/192, B=3/192
    for terms in (_sarikaya_terms_low(0.5), _sarikaya_terms_high(0.5)):
        P, A, B = terms
        assert abs(P - 1.0 / 48.0) <= 1e-15
        assert abs(A - 1.0 / 192.0) <= 1e-15
        assert abs(B - 3.0 / 192.0) <= 1e-15


def test_sarikaya_simpson_exactness():
    r = bound_sarikaya(FNS["cubic/6"], 0.0, 1.0, 1.0 / 3.0, 1.0)
    assert r.lhs <= 1e-13
    assert r.rhs > 0.0
    assert r.holds


def test_sarikaya_literal_duplicates_endpoint():
    # the printed low branch uses |f''(b)|^q twice in its second group;
    # for monotone ddf that inflates the bound, and the two versions
    # coincide exactly when f''(a) == f''(b)
    r = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.2, 1.0)
    rl = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.2, 1.0, literal=True)
    assert rl.rhs > r.rhs
    sym = FnTriple(f=lambda u: u * u, df=lambda u: 2.0 * u,
                   ddf=lambda u: 2.0, name="square")
    r = bound_sarikaya(sym, 0.0, 1.0, 0.2, 1.0)
    rl = bound_sarikaya(sym, 0.0, 1.0, 0.2, 1.0, literal=True)
    assert r.rhs == rl.rhs
    # high branch has no duplicated term
    r = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.8, 2.0)
    rl = bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.8, 2.0, literal=True)
    assert r.rhs == rl.rhs


def test_sarikaya_holds_on_unit_interval():
    for name in ("cubic/6", "quart/12", "exp"):
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            for q in (1.0, 2.0):
                r = bound_sarikaya(FNS[name], 0.0, 1.0, lam, q)
                assert r.holds, (name, lam, q)


def test_sarikaya_domain():
    with pytest.raises(DomainError):
        bound_sarikaya(FNS["exp"], 1.0, 0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        bound_sarikaya(FNS["exp"], 0.0, 1.0, 0.5, 0.5)


def test_sarikaya_raises_the_error_of_its_average():
    # |f''| = 1 is admitted, but f has a pole at the midpoint t = 0.5
    fn = FnTriple(f=lambda t: 1.0 / (t - 0.5), df=lambda t: -1.0 / (t - 0.5) ** 2,
                  ddf=lambda t: 1.0 + 0.0 * t, name="pole")
    with np.errstate(divide="ignore"), \
            pytest.raises(EvaluationError, match="at t=0.5"):
        bound_sarikaya(fn, 0.0, 1.0, 0.5, 1.0)


# --- the kappa = m = alpha = 1 remark tables -----------------------------

def test_remark_tables_match_phi_specialization():
    for lam in [i / 10.0 for i in range(11)]:
        assert abs(remark_phi1(lam) - phi1(1.0, lam)) <= 1e-13
        assert abs(remark_phi2(lam) - phi2(1.0, lam, 1.0)) <= 1e-13
        assert abs(remark_phi3(lam) - phi3(1.0, lam, 1.0)) <= 1e-13


def test_remark_matches_thm211_specialization():
    # remark rhs == thm211 rhs at kappa=m=alpha=1, x=(a+b)/2
    for lam in (0.0, 0.3, 2.0 / 3.0, 1.0):
        for q in (1.0, 2.0):
            p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=lam, kappa=1.0,
                       alpha=1.0, q=q)
            r_gen = bound_thm211(p, FNS["exp"])
            r_rem = remark_bound(FNS["exp"], 0.0, 1.0, lam, q)
            assert abs(r_gen.rhs - r_rem.rhs) <= 1e-10
            assert abs(r_gen.lhs - r_rem.lhs) <= 1e-12


def test_remark_lhs_is_the_blended_quadrature_error():
    # lam=1/3 is Simpson; exp on [0,1] misses by ~5.8e-4
    r = remark_bound(FNS["exp"], 0.0, 1.0, 1.0 / 3.0, 1.0)
    simpson = (math.exp(0.0) + 4.0 * math.exp(0.5) + math.exp(1.0)) / 6.0
    assert abs(r.lhs - abs(simpson - (math.e - 1.0))) <= 1e-11

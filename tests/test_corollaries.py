"""Printed specialization formulas against the general bounds.

Each id carries a transcription of the circulated formula.  Five are
faithful restatements and must agree with the general bound to 1e-10;
the rest carry printing defects and must be *reported* as discrepant
with the general value staying authoritative, never patched to match.
"""

import math

import pytest

from fracineq import (AdmissionError, DomainError, Params, beta, beta_inc,
                      corollary_check, corpus_by_name)
from fracineq.bounds import (COROLLARY_IDS, COROLLARY_MATCH_TOL,
                             corollary_unmet)

FNS = {k: v.fn for k, v in corpus_by_name().items()}


def mk(lam, kappa, q, alpha=1.0, m=1.0, a=0.0, b=1.0):
    return Params(a=a, b=b, m=m, x=(a + m * b) / 2.0, lam=lam, kappa=kappa,
                  alpha=alpha, q=q)


def test_id_inventory():
    # 2b-f does not exist: the circulated list jumps from (e) to (g)
    assert len(COROLLARY_IDS) == 14
    assert "2b-f" not in COROLLARY_IDS
    assert "2b-g" in COROLLARY_IDS


def test_unknown_id_rejected():
    with pytest.raises(DomainError):
        corollary_check("2b-f", mk(1.0, 1.0, 2.0), FNS["exp"])


# --- faithful transcriptions: must match the general bound ---------------

@pytest.mark.parametrize("cid,p", [
    ("2a-b", mk(0.0, 2.0, 1.0)),
    ("2a-b", mk(0.7, 0.5, 3.0)),
    ("2a-c", mk(1.0 / 3.0, 0.5, 2.0)),
    ("2a-c", mk(1.0 / 3.0, 2.0, 1.0)),
    ("2b-a", mk(0.5, 0.5, 2.0)),
    ("2b-a", mk(0.9, 2.0, 3.0)),
    ("2b-b", mk(1.0 / 3.0, 2.0, 4.0)),
    ("2b-g", mk(1.0, 1.0, 4.0)),
    ("2b-g", mk(1.0, 1.0, 1.5)),
])
def test_exact_transcriptions(cid, p):
    r = corollary_check(cid, p, FNS["exp"])
    assert r.matches_printed, (cid, r.discrepancy)
    assert r.discrepancy <= COROLLARY_MATCH_TOL
    assert not r.typo_suspect
    assert r.holds


# --- coincidence points of the defective ones ----------------------------

@pytest.mark.parametrize("cid,p", [
    ("2a-e", mk(0.0, 1.0, 2.0)),           # alpha = kappa = 1
    ("2a-f", mk(0.0, 1.0, 2.0)),           # alpha = 1
    ("2a-g", mk(1.0, 1.0, 1.0)),           # alpha = kappa
    ("2a-h", mk(1.0, 1.0, 2.0)),           # alpha = 1
    ("2b-d", mk(0.0, 1.0, 2.0)),           # kappa = 1
    ("2b-e", mk(1.0, 1.0, 2.0)),           # kappa = 1
])
def test_defective_forms_coincide_at_special_points(cid, p):
    r = corollary_check(cid, p, FNS["exp"])
    assert r.matches_printed, (cid, r.discrepancy)
    assert r.typo_suspect  # still flagged: agreement here is coincidence


def test_2ag_coincides_wherever_alpha_equals_kappa():
    p = mk(1.0, 0.5, 2.0, alpha=0.5, m=0.25)
    r = corollary_check("2a-g", p, FNS["pow-2.75"])
    assert r.matches_printed
    assert r.discrepancy <= 1e-12


# --- defects that never coincide -----------------------------------------

def test_2aa_coefficient_defect():
    # prints (x-a)^(kappa+1)/w for (x-a)^(kappa+2)/((kappa+1) w); no
    # rescaling hides that, so the printed rhs overshoots at every kappa
    for kappa in (0.5, 1.0, 2.0):
        r = corollary_check("2a-a", mk(1.0 / 3.0, kappa, 1.0), FNS["exp"])
        assert not r.matches_printed
        assert r.printed_rhs > r.rhs
        assert r.holds  # the general bound itself is still valid


def test_2ad_constant_block_defect():
    r = corollary_check("2a-d", mk(1.0 / 3.0, 1.0, 2.0), FNS["exp"])
    assert not r.matches_printed
    assert r.discrepancy > 1e-3
    # same verdict on an admitted alpha < 1 pairing
    r = corollary_check("2a-d", mk(1.0 / 3.0, 1.0, 1.0, alpha=0.5, m=0.5),
                        FNS["quart/12"])
    assert not r.matches_printed


def test_2bc_missing_reciprocal_factor():
    r = corollary_check("2b-c", mk(1.0 / 3.0, 1.0, 2.0), FNS["exp"])
    assert not r.matches_printed
    # the printed expansion drops 1/(p+1) on its 2F1 term (p = conjugate
    # exponent = 2 here), so the printed phi4 block is too large
    assert r.printed_rhs > r.rhs


@pytest.mark.parametrize("cid,kappa", [("2b-d", 0.5), ("2b-d", 2.0),
                                       ("2b-e", 0.5), ("2b-e", 2.0)])
def test_2bd_2be_prefactor_defect_off_kappa_one(cid, kappa):
    lam = 0.0 if cid == "2b-d" else 1.0
    r = corollary_check(cid, mk(lam, kappa, 2.0), FNS["exp"])
    assert not r.matches_printed
    assert r.typo_suspect


@pytest.mark.parametrize("cid,p", [
    ("2a-e", mk(0.0, 1.5, 2.0, alpha=0.5, m=0.25)),
    ("2a-f", mk(0.0, 1.0, 1.0, alpha=0.5, m=0.5)),
    ("2a-h", mk(1.0, 1.0, 2.0, alpha=0.5, m=0.25)),
])
def test_alpha_defects_visible_below_one(cid, p):
    fn = FNS["pow-2.75"] if p.m == 0.25 else FNS["quart/12"]
    r = corollary_check(cid, p, fn)
    assert not r.matches_printed
    assert r.discrepancy > 1e-6
    assert r.holds


# --- the Beta identity behind 2b-g ---------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_half_range_beta_identity(p):
    # the symmetric integrand makes B(1/2; 1+p, 1+p) exactly half the
    # complete integral, which is why 2b-g matches despite its different
    # printed prefactor
    assert abs(2.0 * beta_inc(0.5, 1.0 + p, 1.0 + p)
               - beta(1.0 + p, 1.0 + p)) <= 1e-12


# --- requirement validation ----------------------------------------------

def test_specialization_requirements_enforced():
    with pytest.raises(DomainError):   # x must sit at the midpoint
        corollary_check("2a-b", Params(a=0.0, b=1.0, m=1.0, x=0.3, lam=0.5,
                                       kappa=1.0, alpha=1.0, q=1.0), FNS["exp"])
    with pytest.raises(DomainError):   # 2a-c pins lambda = 1/3
        corollary_check("2a-c", mk(0.5, 1.0, 1.0), FNS["exp"])
    with pytest.raises(DomainError):   # 2a-d pins kappa = 1
        corollary_check("2a-d", mk(1.0 / 3.0, 2.0, 1.0), FNS["exp"])
    with pytest.raises(DomainError):   # 2a-a is the q = 1 statement
        corollary_check("2a-a", mk(1.0 / 3.0, 1.0, 2.0), FNS["exp"])
    with pytest.raises(DomainError):   # Hoelder family needs q > 1
        corollary_check("2b-a", mk(0.5, 1.0, 1.0), FNS["exp"])
    with pytest.raises(DomainError):   # 2b-d is the lambda = 0 statement
        corollary_check("2b-d", mk(0.5, 1.0, 2.0), FNS["exp"])


@pytest.mark.parametrize("cid", COROLLARY_IDS)
def test_unmet_specialization_is_what_corollary_check_raises(cid):
    # the sweep filters ids with corollary_unmet before calling
    # corollary_check, so the two must agree on every point
    for x in (0.25, 0.5):
        for lam in (0.0, 1.0 / 3.0, 0.5, 1.0):
            for kappa in (0.5, 1.0):
                for q in (1.0, 2.0):
                    p = Params(a=0.0, b=1.0, m=1.0, x=x, lam=lam, kappa=kappa,
                               alpha=1.0, q=q)
                    unmet = corollary_unmet(cid, p)
                    if unmet is None:
                        assert corollary_check(cid, p, FNS["exp"]).which \
                            == "corollary:" + cid
                    else:
                        with pytest.raises(DomainError) as exc:
                            corollary_check(cid, p, FNS["exp"])
                        assert str(exc.value) == unmet


def test_admission_still_gates_corollaries():
    with pytest.raises(AdmissionError):
        corollary_check("2a-b", mk(0.0, 1.0, 1.0, alpha=0.5), FNS["exp"])


def test_report_fields_cohere():
    r = corollary_check("2b-a", mk(0.5, 2.0, 2.0), FNS["exp"])
    assert r.which == "corollary:2b-a"
    assert abs(r.discrepancy - abs(r.printed_rhs - r.rhs)) <= 1e-18
    assert r.note
    assert 0.0 < r.tightness <= 1.0


def test_scaled_general_bound_is_interval_invariant():
    # the corollary normalization absorbs the (2/w)^(kappa-1) between the
    # general coefficient and the printed w^2 prefactor; on a shifted
    # interval the same midpoint comparison still matches for the
    # faithful ids
    p = mk(0.5, 2.0, 2.0, a=0.2, b=1.2)
    r = corollary_check("2b-a", p, FNS["exp"])
    assert r.matches_printed
    assert r.holds

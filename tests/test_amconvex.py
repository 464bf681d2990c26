import math

import numpy as np
import pytest

from fracineq import AdmissionError, DomainError, EvaluationError, FnTriple
from fracineq import check_am_convex, corpus, corpus_by_name
from fracineq.amconvex import is_admitted

from conftest import validate_derivatives


def test_corpus_has_six_members_with_claims():
    entries = corpus()
    assert len(entries) == 6
    names = {e.fn.name for e in entries}
    assert names == {"cubic/6", "quart/12", "exp", "pow-2.25", "pow-2.5",
                     "pow-2.75"}
    assert all(e.admissions for e in entries)


def test_corpus_derivative_triples_consistent():
    for entry in corpus():
        validate_derivatives(entry.fn)


def test_validate_derivatives_catches_wrong_df():
    bad = FnTriple(f=lambda u: u ** 3, df=lambda u: u ** 2,  # missing the 3
                   ddf=lambda u: 6.0 * u, name="bad-cubic")
    with pytest.raises(AssertionError):
        validate_derivatives(bad)


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.fn.name)
def test_every_claimed_admission_verifies_on_the_grid(entry):
    for (alpha, m, q) in entry.admissions:
        report = is_admitted(entry.fn, alpha, m, q, 1.0)
        assert report.holds, (entry.fn.name, alpha, m, q, report.max_violation)


def test_classical_convexity_is_the_alpha_m_one_case():
    report = check_am_convex(lambda u: np.asarray(u) ** 2, 1.0, 1.0)
    assert report.holds
    assert report.max_violation <= 1e-12


def test_rejections():
    # t -> 0+ with m = 1, alpha < 1 forces g(x) >= g(y) for all pairs,
    # so ordinary convex functions fail unless constant
    r = check_am_convex(lambda u: np.sqrt(u), 0.5, 1.0)
    assert not r.holds
    assert r.max_violation > 0.4
    x, y, t = r.worst_point
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= t <= 1.0

    r = check_am_convex(lambda u: np.asarray(u) ** 2, 0.5, 1.0)
    assert not r.holds

    # e^(qx) needs m close to 1: at m = 0.6 the t=0 face fails badly
    r = check_am_convex(np.exp, 1.0, 0.6)
    assert not r.holds
    assert r.max_violation > 0.39


def test_positive_constant_fails_for_m_below_one():
    # g == 1: t=0 needs 1 <= m
    r = check_am_convex(lambda u: np.ones_like(np.asarray(u, dtype=float)), 1.0, 0.5)
    assert not r.holds
    assert abs(r.max_violation - 0.5) <= 1e-12


def test_t_zero_face_uses_the_t_power_alpha_limit():
    # at t=0 the weight on g(x) must be 0 even for alpha=0 (0^0 read as
    # the t -> 0+ limit); g == 0 passes for every (alpha, m)
    for alpha in (0.0, 0.5, 1.0):
        r = check_am_convex(lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                            alpha, 0.7)
        assert r.holds


def test_domain_validation():
    with pytest.raises(DomainError):
        check_am_convex(np.exp, 1.5, 1.0)
    with pytest.raises(DomainError):
        check_am_convex(np.exp, 1.0, 0.0)
    with pytest.raises(DomainError):
        check_am_convex(np.exp, 1.0, 1.0, domain=(0.5, 1.0))  # must start at 0


def test_non_finite_samples_reported():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError):
            check_am_convex(lambda u: np.log(np.asarray(u) - 0.5), 1.0, 1.0)


def test_scalar_only_callable_falls_back():
    r = check_am_convex(lambda u: math.exp(u), 1.0, 1.0, grid=(9, 9, 9))
    assert r.holds


def test_admission_cache_returns_same_report():
    fn = corpus_by_name()["exp"].fn
    r1 = is_admitted(fn, 1.0, 1.0, 2.0, 1.0)
    r2 = is_admitted(fn, 1.0, 1.0, 2.0, 1.0)
    assert r1 is r2


def test_admission_cache_keys_on_the_function_not_its_name():
    # a different function that borrows the name "exp" must face its own
    # grid check, not inherit the corpus exp's cached admission
    from fracineq import Params, bound_thm211

    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=1.0, q=1.0)
    assert bound_thm211(p, corpus_by_name()["exp"].fn).holds
    impostor = FnTriple(f=lambda u: np.sin(6.0 * u),
                        df=lambda u: 6.0 * np.cos(6.0 * u),
                        ddf=lambda u: -36.0 * np.sin(6.0 * u), name="exp")
    with pytest.raises(AdmissionError):
        bound_thm211(p, impostor)


def test_admission_checks_ddf_power_not_f():
    # |f''|^q of pow-2.5 is x^(q/2); convex for q >= 2 but the (0.5, 1)
    # pairing fails on the grid, mirroring the sqrt rejection above
    fn = corpus_by_name()["pow-2.5"].fn
    assert is_admitted(fn, 1.0, 1.0, 2.0, 1.0).holds
    assert not is_admitted(fn, 0.5, 1.0, 1.0, 1.0).holds


def test_admission_error_carries_report():
    from fracineq import Params, bound_thm211

    fn = corpus_by_name()["exp"].fn
    p = Params(a=0.0, b=1.0, m=0.6, x=0.3, lam=0.5, kappa=1.0, alpha=1.0, q=1.0)
    with pytest.raises(AdmissionError) as exc:
        bound_thm211(p, fn)
    assert exc.value.report is not None
    assert not exc.value.report.holds
    assert "exp" in str(exc.value)

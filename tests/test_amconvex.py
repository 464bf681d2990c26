import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import fracineq
from fracineq import AdmissionError, DomainError, EvaluationError, FnTriple
from fracineq import amconvex, check_am_convex, corpus, corpus_by_name
from fracineq.amconvex import DEFAULT_GRID, is_admitted

from conftest import reference_am_convex, validate_derivatives


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


@pytest.mark.parametrize("kwargs", [
    {"domain": (0.0, math.inf)},
    {"domain": (0.0, math.nan)},
    {"grid": (0, 41, 33)},          # no sample, so no maximum
    {"grid": (41, -3, 33)},
    {"grid": (2.5, 41, 33)},
    {"grid": (41, 41, 33.0)},
    {"grid": (41, 41)},
    {"grid": 41},
    {"domain": (0.0,)},
    {"domain": (0.0, 0.5, 1.0)},
    {"domain": ("0", "x")},
    {"domain": 1.0},
], ids=["B-inf", "B-nan", "nx-0", "ny-negative", "nx-float", "nt-float",
        "grid-pair", "grid-scalar", "domain-one", "domain-three",
        "domain-not-a-number", "domain-scalar"])
def test_bad_grid_or_width_is_a_domain_error(kwargs):
    # rejected before any numpy work, so no RuntimeWarning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            check_am_convex(np.exp, 1.0, 1.0, **kwargs)


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


# --- the slab loop against the whole-grid reference -------------------------

_PINNED_REJECTIONS = (
    (np.sqrt, 0.5, 1.0),
    (lambda u: np.asarray(u) ** 2, 0.5, 1.0),
    (np.exp, 1.0, 0.6),
    (lambda u: np.ones_like(np.asarray(u, dtype=float)), 1.0, 0.5),
)


def _admission_cases():
    """(g, alpha, m) of every corpus claim, then the pinned rejections."""
    cases = [(lambda u, ddf=e.fn.ddf, q=q: np.abs(ddf(u)) ** q, alpha, m)
             for e in corpus() for alpha, m, q in e.admissions]
    return cases + list(_PINNED_REJECTIONS)


def _assert_matches_reference(g, alpha, m, domain=(0.0, 1.0),
                              grid=DEFAULT_GRID):
    got = check_am_convex(g, alpha, m, domain, grid)
    want = reference_am_convex(g, alpha, m, domain, grid)
    assert got.max_violation == want.max_violation, (alpha, m, domain, grid)
    assert got.worst_point == want.worst_point, (alpha, m, domain, grid)
    assert got.samples == want.samples
    return got


@pytest.mark.parametrize("width", (1.0, 0.8, 0.6180339887498949, 0.25))
def test_slab_loop_matches_the_whole_grid_on_every_admission_case(width):
    cases = _admission_cases()
    assert len(cases) == 19
    for g, alpha, m in cases:
        _assert_matches_reference(g, alpha, m, (0.0, width))


@pytest.mark.parametrize("slab_rows", (1, 2, 3, 40))
def test_slab_loop_matches_the_whole_grid_for_any_slab_size(monkeypatch,
                                                            slab_rows):
    monkeypatch.setattr(amconvex, "SLAB_SAMPLES", slab_rows * 41 * 33)
    for g, alpha, m in _admission_cases():
        _assert_matches_reference(g, alpha, m, (0.0, 0.7))


def test_slab_loop_keeps_the_t_power_zero_convention():
    for g in (np.sqrt, np.exp, lambda u: np.asarray(u) ** 2):
        for m in (0.5, 1.0):
            _assert_matches_reference(g, 0.0, m)


def test_slab_loop_keeps_the_first_of_tied_maxima():
    # g == 1 at m = 0.5 peaks at 0.5 on the whole t = 0 face, in every slab
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    r = _assert_matches_reference(one, 1.0, 0.5)
    assert r.max_violation == 0.5 and r.worst_point == (0.0, 0.0, 0.0)
    assert _assert_matches_reference(one, 0.3, 0.8).worst_point == (0.0, 0.0, 0.0)


def test_slab_loop_matches_the_whole_grid_on_the_scalar_fallback(monkeypatch):
    monkeypatch.setattr(amconvex, "SLAB_SAMPLES", 2 * 9 * 9)   # five slabs
    g = lambda u: math.exp(u) - 3.0 * u
    for alpha, m in ((1.0, 1.0), (0.5, 0.7), (0.0, 1.0)):
        _assert_matches_reference(g, alpha, m, (0.0, 2.0), grid=(9, 9, 9))


@pytest.mark.parametrize("grid", [
    (17, 41, 33),       # 8-row slabs: 8, 8, 1
    (1, 41, 33),
    (4, 120, 101),      # one y-t plane is more than a slab: 118 + 2 y-values
    (6, 200, 200),      # 60-y-value slabs: 60, 60, 60, 20 per x-row
])
def test_slab_loop_matches_the_whole_grid_on_other_grids(grid):
    for g, alpha, m in _admission_cases():
        _assert_matches_reference(g, alpha, m, (0.0, 0.9), grid)


@pytest.mark.parametrize("slab", (33, 34, 5 * 33, 40 * 33))
def test_y_slabs_match_the_whole_grid(monkeypatch, slab):
    # slabs smaller than one y-t plane split each x-row along y, in
    # y-slabs of 1, 1, 5 and 40 values (the last leaves one over)
    monkeypatch.setattr(amconvex, "SLAB_SAMPLES", slab)
    for g, alpha, m in _admission_cases():
        _assert_matches_reference(g, alpha, m, (0.0, 0.7))
    one = lambda u: np.ones_like(np.asarray(u, dtype=float))
    assert _assert_matches_reference(one, 1.0, 0.5).worst_point == (0.0, 0.0, 0.0)


def test_non_finite_value_in_the_last_x_row_is_reported():
    # finite at every x and y node and in every x-row but the last
    # (x = 1): there t = 31/32, y = 1 gives arg = 0.984375 at m = 0.5
    g = lambda u: np.where((u > 0.98) & (u < 1.0), np.inf, u)
    with pytest.raises(EvaluationError) as want:
        reference_am_convex(g, 1.0, 0.5)
    with pytest.raises(EvaluationError) as got:
        check_am_convex(g, 1.0, 0.5)
    assert str(got.value) == str(want.value)


def _minor_faults_in_20_checks(grid):
    """Minor page faults of 20 checks on grid after 3 warm-up checks, in a
    fresh interpreter."""
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from fracineq import check_am_convex, corpus_by_name
        ddf = corpus_by_name()["pow-2.5"].fn.ddf
        checks = [(lambda u: np.abs(ddf(u)) ** 4.0, 0.5, 0.5),
                  (np.sqrt, 0.5, 1.0), (np.exp, 1.0, 1.0)]
        def run(n):
            for i in range(n):
                g, alpha, m = checks[i %% len(checks)]
                check_am_convex(g, alpha, m, (0.0, 0.8), %r)
        run(3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(20)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """ % (grid,))
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracineq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(out.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_default_grid_checks_make_no_page_faults_after_warm_up():
    # every temporary of a slab stays under glibc's mmap threshold, so the
    # checks reuse heap pages; whole-grid temporaries cost ~400 faults each
    faults = _minor_faults_in_20_checks(DEFAULT_GRID)
    assert faults <= 10 * 20, "%d minor page faults in 20 checks" % faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_large_y_t_plane_checks_make_no_page_faults_after_warm_up():
    # one 200 x 200 y-t plane is more than a slab, so slabs split it along
    # y; whole x-row slabs made about 560 faults per check here
    faults = _minor_faults_in_20_checks((6, 200, 200))
    assert faults <= 10 * 20, "%d minor page faults in 20 checks" % faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage")
def test_checks_make_no_page_faults_whatever_the_heap_layout():
    # each round holds one more block, which moves what sits above the slab
    # temporaries in the heap.  Without amconvex's trim guard, glibc trimmed
    # the heap top they freed after some of these layouts (rounds 35-39 in
    # most environments) and every check faulted it back in: 18-70 faults
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from fracineq import check_am_convex, corpus_by_name
        ddf = corpus_by_name()["pow-2.5"].fn.ddf
        checks = [(lambda u: np.abs(ddf(u)) ** 4.0, 0.5, 0.5),
                  (np.sqrt, 0.5, 1.0), (np.exp, 1.0, 1.0)]
        def run(n):
            for i in range(n):
                g, alpha, m = checks[i % len(checks)]
                check_am_convex(g, alpha, m, (0.0, 0.8), (6, 200, 200))
        held, faults = [], []
        for block in range(1000, 40000, 997):
            held.append(bytearray(block))
            run(3)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run(6)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(max(faults))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracineq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert int(out.stdout) <= 10 * 6, "%s minor page faults in 6 checks" % out.stdout

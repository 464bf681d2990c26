"""The two-sided identity: direct evaluation vs the second-derivative kernel.

The direct side blends endpoint/midpoint values of f with a pair of
fractional integrals anchored at x; the kernel side integrates
t ((kappa+1) lambda - t^kappa) f'' over both subintervals.  Equality is
exact in theory, so residuals are held to the quadrature budget.
"""

import collections
import math

import numpy as np
import pytest

from fracineq import DomainError, EvaluationError, Params, corpus_by_name, direct_side, \
    kernel_side, residual, rl_left, rl_right
from fracineq.amconvex import FnTriple
from fracineq.fracint import rl_left_result, rl_right_result
import fracineq.identity
from fracineq.identity import (SIDE_TOL, _ends, direct_with_budget, fill_sides,
                               memoized, memoized_integrals, side_spec,
                               sweep_memo)
from fracineq.specfun import gamma

from conftest import alone, standard_grid

FNS = {k: v.fn for k, v in corpus_by_name().items()}

# the slot of each kind of integral in an identity._ends triple
RL, HALF = 1, 2


def _fill(pairs, kind):
    """One memoized_integrals call over the integrals of one kind that the
    two sides read at each (Params, fn) pair, as fill_sides fills both."""
    keys = [end[kind] for p, fn in pairs for end in _ends(p, fn)]
    memoized_integrals(keys, side_spec, SIDE_TOL)


def _rl_sides(memo):
    """Which one-sided integrals memo holds: True for those over [x, m b],
    evaluated at an end past their anchor x, False for those over [a, x]."""
    return {key[3] > key[2] for key in memo if key[0] == "rl"}


def test_symmetric_frozen_case():
    # f = x^2 (= 2 * cubic/6 ddf antiderivative...), by hand:
    # lam=0, kappa=1, m=1, x=1/2 reduces to f(1/2) - int_0^1 f = 1/4 - 1/3
    fn = FnTriple(f=lambda u: u * u, df=lambda u: 2.0 * u,
                  ddf=lambda u: 2.0, name="square")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.0, kappa=1.0)
    assert abs(direct_side(p, fn) - (-1.0 / 12.0)) <= 1e-12
    assert abs(kernel_side(p, fn) - (-1.0 / 12.0)) <= 1e-12


def test_simpson_exact_for_cubic():
    # lam=1/3, kappa=1 is Simpson's rule; degree-3 exactness makes the
    # direct side vanish identically
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=1.0 / 3.0, kappa=1.0)
    assert abs(direct_side(p, FNS["cubic/6"])) <= 1e-13


@pytest.mark.parametrize("name", sorted(FNS))
def test_residual_on_asymmetric_point(name):
    p = Params(a=0.1, b=1.0, m=0.8, x=0.3, lam=0.7, kappa=0.5)
    chk = residual(p, FNS[name])
    assert chk.ok, (name, chk.residual, chk.quad_error_budget)
    assert chk.residual <= 1e-10


@pytest.mark.parametrize("kappa", [1e-3, 1e-4, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("name", sorted(FNS))
def test_residual_holds_at_a_small_kappa(name, kappa):
    # identity-check's default point.  Without subtracting f at the anchor
    # of the one-sided integrals, 5 of 6 functions failed at kappa 1e-3
    # (residuals 1.3e-6 to 3.3e-5) and all 6 at 1e-4.  Rebuilding the RL
    # order as (kappa - 1) + 1 lost about eps/kappa of it: all 6 failed at
    # 1e-6, 1e-9 and 1e-12 (exp read 1.07e-10 at 1e-6, budget 3.4e-13)
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=1.0 / 3.0, kappa=kappa)
    chk = residual(p, FNS[name])
    assert chk.ok and chk.residual <= chk.quad_error_budget, (name, chk)


def test_residual_holds_at_random_points_for_every_fn():
    # both sides agree within their budget over random valid Params: a and m
    # at or off 0 and 1, widths from 1e-3 to 3, x anywhere in [a, m b] with
    # both ends, kappa from 1e-3 to 8 or from 1e-9 to 1e-3
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    unit = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))

    @hyp.settings(max_examples=500, derandomize=True, deadline=None,
                  database=None)
    @hyp.given(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
               st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
               st.floats(1e-3, 3.0), unit, unit,
               st.one_of(st.floats(1e-3, 8.0), st.floats(1e-9, 1e-3)))
    def check(a, m, w, t, lam, kappa):
        b = (a + w) / m
        mb = m * b
        x = {0.0: a, 1.0: mb}.get(t, min(a + t * (mb - a), mb))
        p = Params(a=a, b=b, m=m, x=x, lam=lam, kappa=kappa)
        for name, fn in FNS.items():
            chk = residual(p, fn)
            assert chk.ok, (name, p, chk)

    check()


def test_orientation_is_discriminated():
    """The alternate reading (operators anchored at the interval ends,
    evaluated at x) is not the identity; the residual oracle must reject
    it loudly on an asymmetric point."""
    fn = FNS["exp"]
    p = Params(a=0.1, b=1.0, m=0.8, x=0.3, lam=0.7, kappa=0.5)
    k, w = p.kappa, p.mb - p.a

    def direct_alternate():
        ends = (1.0 - p.lam) * ((p.x - p.a) ** k + (p.mb - p.x) ** k) / w * fn.f(p.x)
        ends += p.lam * ((p.x - p.a) ** k * fn.f(p.a)
                         + (p.mb - p.x) ** k * fn.f(p.mb)) / w
        frac = rl_left(fn.f, p.a, k, p.x) + rl_right(fn.f, p.mb, k, p.x)
        return ends - gamma(k + 1.0) / w * frac

    good = abs(direct_alternate() - kernel_side(p, fn))
    assert good > 0.1  # clearly not an identity
    assert residual(p, fn).residual <= 1e-12


def test_gamma_factor_is_discriminated():
    # replacing Gamma(kappa+1) by Gamma(alpha+1) must break the identity
    # whenever alpha != kappa
    fn = FNS["exp"]
    p = Params(a=0.1, b=1.0, m=0.8, x=0.3, lam=0.7, kappa=0.5, alpha=1.0)
    lhs = direct_side(p, fn)
    rhs = kernel_side(p, fn)
    assert abs(lhs - rhs) <= 1e-12
    frac = rl_right(fn.f, p.x, p.kappa, p.a) + rl_left(fn.f, p.x, p.kappa, p.mb)
    skew = (gamma(p.alpha + 1.0) - gamma(p.kappa + 1.0)) / (p.mb - p.a) * frac
    assert abs((lhs - skew) - rhs) > 0.1


def test_endpoint_lambdas():
    fn = FNS["exp"]
    for lam in (0.0, 1.0):
        p = Params(a=0.0, b=1.0, m=1.0, x=0.4, lam=lam, kappa=1.5)
        chk = residual(p, fn)
        assert chk.ok


def test_x_at_interval_ends():
    # x = a and x = mb kill one of the two kernel pieces
    fn = FNS["quart/12"]
    for x in (0.0, 0.6):
        p = Params(a=0.0, b=1.0, m=0.6, x=x, lam=0.5, kappa=2.0)
        chk = residual(p, fn)
        assert chk.ok, (x, chk.residual)


def test_kink_interior_case():
    # lam < 1/(kappa+1) puts the kernel sign change strictly inside (0,1)
    fn = FNS["exp"]
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.2, kappa=1.0)
    chk = residual(p, fn)
    assert chk.ok
    assert chk.residual <= 1e-12


def test_standard_grid_shape():
    pts = list(standard_grid(0.0, 1.0))
    assert len(pts) == 150  # 3 kappa x 5 lambda x 2 m x 5 x-stations
    assert all(p.a <= p.x <= p.mb for p in pts)
    lams = {round(p.lam, 12) for p in pts if p.kappa == 2.0}
    assert round(1.0 / 3.0, 12) in lams  # branch point 1/(kappa+1)


def test_standard_grid_residuals_exp():
    worst = 0.0
    for p in standard_grid(0.2, 1.2):
        chk = residual(p, FNS["exp"])
        assert chk.ok
        worst = max(worst, chk.residual)
    assert worst <= 1e-10


def test_memo_shared_across_points_changes_no_bit():
    # one memo over the whole grid: the points share RL integrals across
    # lambda and kernel halves across m and x, and every field of every
    # residual must still equal the one computed afresh
    with sweep_memo() as memo:
        for fn in FNS.values():
            for p in standard_grid(0.0, 1.0):
                assert residual(p, fn) == alone(residual, p, fn), (fn.name, p)
    halves = [k for k in memo if k[0] == "kernel-half"]
    points = [k for k in memo if k[0] == "direct"]
    assert 0 < len(halves) < 2 * len(points)


def _per_node(fn, anchor, x, lam, k):
    """The kernel integrand as a list, one Python expression per node: the
    values the native integrand and its sample tables must reproduce."""
    c, span = (k + 1.0) * lam, x - anchor
    return lambda ts: [t * (c - t ** k) * float(fn.ddf(anchor + t * span))
                       for t in np.ravel(ts).tolist()]


def test_the_kernel_integrand_is_the_per_node_list_bit_for_bit():
    # every node block the engine samples (lookahead rows and table reads
    # included) for every corpus function, at a kappa whose t^k numpy's
    # array power may round otherwise and at kappa 2, both anchors
    from fracineq.identity import _kernel_pieces
    from fracineq.quad import QuadResult, integrate_batch

    shared, jobs, refs, same = {}, [], [], []
    for fn in FNS.values():
        for lam, k in ((0.0, 0.5), (1.0 / 3.0, 0.5), (0.5, 2.0)):
            for anchor in (0.0, 1.0):
                ref = _per_node(fn, anchor, 0.3, lam, k)
                for g, lo, hi in _kernel_pieces(fn, anchor, 0.3, lam, k,
                                                shared):
                    def spy(ts, g=g, ref=ref):
                        got = g(ts)
                        same.append(got.tobytes() == np.array(ref(ts)).tobytes())
                        return got

                    jobs.append((spy, lo, hi))
                    refs.append((ref, lo, hi))
                    # a scalar call, as the evaluator's retry makes
                    assert g(0.375).tolist() == ref(0.375)
    got = integrate_batch(jobs, SIDE_TOL)
    assert all(isinstance(res, QuadResult) for res in got)
    assert got == integrate_batch(refs, SIDE_TOL)
    assert len(same) > len(jobs) and all(same)
    # the halves of one (fn, anchor, x) read the same f'' blocks
    assert len(shared) == 2 * len(FNS) + 2


def test_a_raising_second_derivative_gives_what_the_per_node_list_gives():
    # pow-2.5's half from the anchor a = 0 at x = 0.3, lambda 1/3, kappa
    # 0.5 bisects [0, t*] toward 0.  f'' raising at a node that only its
    # lookahead rows sample changes no bit; raising at a node a real row
    # samples is the same error, in the same round, as the per-node list's
    from fracineq.identity import _kernel_pieces
    from fracineq.quad import integrate_batch

    base = FNS["pow-2.5"]
    args = (0.0, 0.3, 1.0 / 3.0, 0.5)
    real, seen = set(), set()

    def recorded(into):
        return FnTriple(f=base.f, df=base.df, name=base.name,
                        ddf=lambda u: into.add(u) or base.ddf(u))

    jobs = _kernel_pieces(recorded(seen), *args, {})
    want = integrate_batch([(_per_node(recorded(real), *args), lo, hi)
                            for _, lo, hi in jobs], SIDE_TOL)
    assert integrate_batch(jobs, SIDE_TOL) == want
    assert want[0].subdivisions > 5

    def outcome(results):
        return [(type(r).__name__, str(r)) for r in results]

    for bad, expect in ((min(seen - real), want), (min(real), None)):
        raised = []

        def ddf(u, bad=bad):
            if u == bad:
                raised.append(u)
                raise ValueError("no f'' at %r" % u)
            return base.ddf(u)

        fn = FnTriple(f=base.f, df=base.df, ddf=ddf, name="raises")
        got = integrate_batch(_kernel_pieces(fn, *args, {}), SIDE_TOL)
        assert raised
        ref = integrate_batch([(_per_node(fn, *args), lo, hi)
                               for _, lo, hi in jobs], SIDE_TOL)
        assert outcome(got) == outcome(ref)
        if expect:
            assert got == expect
        else:
            assert isinstance(got[0], ValueError)


def test_kernel_side_passes_on_the_error_of_a_raising_second_derivative():
    def ddf(u):
        raise ValueError("no f'' at %r" % u)

    fn = FnTriple(f=math.exp, df=math.exp, ddf=ddf, name="raises")
    with pytest.raises(ValueError, match="no f''"):
        kernel_side(Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0), fn)


def test_filled_halves_change_no_bit_and_a_failing_half_raises_alone():
    # f'' is not finite past 0.7: at x = 0.5 the half anchored at m b = 1
    # fails and the half anchored at a = 0 does not
    def ddf(u):
        return math.inf if u > 0.7 else math.exp(u)

    bad = FnTriple(f=math.exp, df=math.exp, ddf=ddf, name="inf-past-0.7")
    pairs = [(p, fn) for fn in (FNS["exp"], FNS["pow-2.5"], bad)
             for p in standard_grid(0.0, 1.0) if p.x == 0.5]
    with sweep_memo() as memo:
        _fill(pairs, HALF)
        assert all(k[0] == "kernel-half" for k in memo)
        stored = {(k[1], k[2]) for k in memo}
        assert (bad, 0.0) in stored and (bad, 1.0) not in stored
        for p, fn in pairs:
            if fn is bad and p.x < p.mb:
                with pytest.raises(EvaluationError) as filled:
                    residual(p, fn)
                with pytest.raises(EvaluationError) as fresh:
                    alone(residual, p, fn)
                assert str(filled.value) == str(fresh.value)
            else:
                assert residual(p, fn) == alone(residual, p, fn), (fn.name, p)
    # the identity read only halves that were already filled or failed
    assert {(k[1], k[2]) for k in memo if k[0] == "kernel-half"} == stored


def _rl_fresh(fn, key):
    # the call the direct side makes for a memo key it does not hold
    _, _, x, end, kappa = key
    if end > x:
        return rl_left_result(fn.f, x, kappa, end, SIDE_TOL)
    return rl_right_result(fn.f, x, kappa, end, SIDE_TOL)


def test_filled_rl_integrals_equal_fresh_ones():
    # one batch over the whole grid for each function: every one-sided
    # integral it stores must equal rl_*_result computed alone, bit for bit
    for fn in FNS.values():
        with sweep_memo() as memo:
            _fill([(p, fn) for p in standard_grid(0.0, 1.0)], RL)
            assert memo and all(k[0] == "rl" for k in memo)
            assert _rl_sides(memo) == {True, False}
            for key, res in memo.items():
                assert res == _rl_fresh(fn, key), (fn.name, key)
            for p in standard_grid(0.0, 1.0):
                assert direct_with_budget(p, fn) \
                    == alone(direct_with_budget, p, fn)


def test_a_failing_rl_integral_is_not_stored_and_raises_alone():
    # f is not finite past 0.7: at x = 0.5 the integral over [x, m b] = [0.5, 1]
    # fails and the one over [a, x] = [0, 0.5] does not
    def f(u):
        return math.inf if u > 0.7 else math.exp(u)

    bad = FnTriple(f=f, df=math.exp, ddf=math.exp, name="inf-past-0.7")
    pairs = [(p, bad) for p in standard_grid(0.0, 1.0)
             if p.x == 0.5 and p.m == 1.0]
    with sweep_memo() as memo:
        _fill(pairs, RL)
        assert {k[0] for k in memo} == {"rl"} and _rl_sides(memo) == {False}
        for p, fn in pairs:
            with pytest.raises(EvaluationError) as filled:
                direct_with_budget(p, fn)
            with pytest.raises(EvaluationError) as fresh:
                alone(direct_with_budget, p, fn)
            assert str(filled.value) == str(fresh.value)
    # the failed integral was recomputed alone and stored nothing either
    assert {k[0] for k in memo} == {"rl"} and _rl_sides(memo) == {False}


def test_a_filled_block_is_read_without_building_a_job(monkeypatch):
    # after one fill of an (a, b, m, x) block, every residual there must
    # read its integrals from the memo: one lookup each, no job built
    block = [(p, fn) for p in standard_grid(0.0, 1.0)
             if (p.m, p.x) == (1.0, 0.5) for fn in FNS.values()]
    with sweep_memo():
        fill_sides(block)
        built = collections.Counter()
        for name in ("rl_job", "_kernel_pieces"):
            original = getattr(fracineq.identity, name)

            def spy(*args, name=name, original=original):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(fracineq.identity, name, spy)
        for p, fn in block:
            residual(p, fn)
        assert not built
        # the spies do see a point outside the block build its jobs
        residual(Params(a=0.0, b=1.0, m=1.0, x=0.25, lam=0.5, kappa=1.0),
                 FNS["exp"])
    assert built["rl_job"] == 2 and built["_kernel_pieces"] == 2


def test_a_mixed_fill_stores_each_kind_as_it_is_stored_alone():
    # one batch of RL integrals and kernel halves together must store every
    # value bit for bit as a batch of either kind alone, and the same keys
    # (a failing integral of either kind is stored by neither)
    def f(u):
        return math.inf if u > 0.7 else math.exp(u)

    bad = FnTriple(f=f, df=math.exp, ddf=f, name="inf-past-0.7")
    pairs = [(p, fn) for p in standard_grid(0.0, 1.0)
             for fn in (FNS["exp"], FNS["pow-2.5"], bad)]
    separate = {}
    with sweep_memo() as mixed:
        fill_sides(pairs)
    for kind in (RL, HALF):
        with sweep_memo() as memo:
            _fill(pairs, kind)
        separate.update(memo)
    assert mixed.keys() == separate.keys()
    bad_keys = {k for p, fn in pairs if fn is bad
                for _, rl, half in _ends(p, fn) for k in (rl, half)}
    assert 0 < len(bad_keys & mixed.keys()) < len(bad_keys)
    for key, value in mixed.items():
        assert repr(value) == repr(separate[key]), key


def test_params_validation():
    with pytest.raises(DomainError):
        Params(a=-0.1, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0)
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=0.0, x=0.5, lam=0.5, kappa=1.0)
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.1, x=0.5, lam=0.5, kappa=1.0)
    with pytest.raises(DomainError):
        Params(a=0.9, b=1.0, m=0.6, x=0.5, lam=0.5, kappa=1.0)  # a >= m b
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.0, x=1.2, lam=0.5, kappa=1.0)  # x > m b
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=1.5, kappa=1.0)
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=0.0)
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=2.0)
    with pytest.raises(DomainError):
        Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, q=0.5)
    p = Params(a=0.2, b=1.2, m=0.6, x=0.5, lam=0.5, kappa=1.0)
    assert p.mb == pytest.approx(0.72)
    assert p.width == pytest.approx(0.52)


@pytest.mark.parametrize("name", ["a", "b", "m", "x", "lam", "kappa", "alpha", "q"])
def test_a_non_finite_parameter_is_a_domain_error(name):
    fields = dict(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0, alpha=1.0, q=1.0)
    fields[name] = math.nan
    with pytest.raises(DomainError, match="parameter %s must be finite" % name):
        Params(**fields)


def test_memoized_stores_nothing_when_its_compute_raises():
    # a skip or a failure is not a value: its next reader computes again
    calls = []

    def compute():
        calls.append(len(calls))
        if len(calls) == 1:
            raise EvaluationError("first call fails")
        return 7.0

    with sweep_memo() as memo:
        with pytest.raises(EvaluationError):
            memoized(("tag", 1.0), compute)
        assert memo == {}
        assert memoized(("tag", 1.0), compute) == 7.0
        assert memoized(("tag", 1.0), compute) == 7.0
    assert calls == [0, 1] and memo == {("tag", 1.0): 7.0}


def test_constant_function_degenerate():
    fn = FnTriple(f=lambda u: 3.0, df=lambda u: 0.0, ddf=lambda u: 0.0,
                  name="const")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0)
    assert abs(kernel_side(p, fn)) == 0.0
    assert abs(direct_side(p, fn)) <= 1e-13

import math
import struct

import numpy as np
import pytest

from fracineq import DomainError, EvaluationError, ConvergenceError, quad
from fracineq.quad import (_EPS, QuadResult, Tolerance, _rule, integrate,
                           integrate_batch, integrate_singular, singular_jobs)


@pytest.mark.parametrize("f,lo,hi,expect", [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (math.sin, 0.0, math.pi, 2.0),
    (lambda t: t ** 5, 0.0, 1.0, 1.0 / 6.0),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    (lambda t: math.exp(-t * t), -2.0, 2.0, math.sqrt(math.pi) * math.erf(2.0)),
])
def test_smooth_integrals(f, lo, hi, expect):
    res = integrate(f, lo, hi)
    assert abs(res.value - expect) <= 1e-12 * max(1.0, abs(expect))
    # the estimate must cover the actual error (QUADPACK-style, conservative)
    assert abs(res.value - expect) <= 10.0 * res.abs_error_estimate + 1e-13


def test_oscillatory_needs_subdivision():
    expect = (1.0 - math.cos(50.0)) / 50.0
    res = integrate(lambda t: math.sin(50.0 * t), 0.0, 1.0)
    assert abs(res.value - expect) <= 1e-12
    assert res.subdivisions > 0


def test_zero_width_interval():
    res = integrate(math.exp, 0.3, 0.3)
    assert res.value == 0.0
    assert res.abs_error_estimate == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(math.exp, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(math.exp, 0.0, math.inf)


def test_vectorized_and_scalar_agree():
    import numpy as np

    def scalar_only(t):
        # math.exp chokes on arrays, forcing the scalar fallback path
        return math.exp(-t) * math.cos(3.0 * t)

    def arrayable(t):
        return np.exp(-t) * np.cos(3.0 * t)

    a = integrate(scalar_only, 0.0, 2.0)
    b = integrate(arrayable, 0.0, 2.0)
    assert abs(a.value - b.value) <= 1e-14


def test_convergence_error_carries_estimate():
    tol = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdiv=3)
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda t: math.sin(40.0 * t) ** 2, 0.0, 3.0, tol)
    est = exc.value.estimate
    assert isinstance(est, QuadResult)
    expect = 1.5 - math.sin(120.0) / 160.0  # int_0^3 sin(40 t)^2 dt
    # the partial answer is rough, but its own error bar must cover it
    assert abs(est.value - expect) <= est.abs_error_estimate


def test_a_round_off_level_interval_ends_the_bisection():
    # a zero tolerance is never met: the run stops once its worst interval's
    # error is at round-off level, with the integral to within 2 ulps
    res = integrate(np.exp, 0.0, 1.0, Tolerance(0.0, 0.0))
    assert res.subdivisions == 734
    assert abs(res.value - (math.e - 1.0)) <= 4.5e-16


def test_an_interval_with_no_midpoint_raises_with_its_estimate():
    # 1e300 over one ulp: the error estimate meets no tolerance, and
    # [1, nextafter(1, 2)] has no float strictly inside it to split at
    with pytest.raises(ConvergenceError, match="cannot be split") as exc:
        integrate(lambda t: 1e300, 1.0, math.nextafter(1.0, 2.0),
                  Tolerance(0.0, 0.0, 10))
    est = exc.value.estimate
    assert isinstance(est, QuadResult) and est.subdivisions == 0
    assert est.value == pytest.approx(1e300 * 2.0 ** -52)


def test_evaluation_error_reports_abscissa():
    def bad(t):
        if 0.4 < t < 0.6:
            return math.nan
        return t

    with pytest.raises(EvaluationError) as exc:
        integrate(bad, 0.0, 1.0)
    assert 0.4 < exc.value.abscissa < 0.6


def test_infinite_sample_reports_its_abscissa():
    # the first Kronrod node past 0.9 in ascending order: 0.5 + 0.5 * x_3
    first_bad = 0.5 + 0.5 * 0.864864423359769072789712788640926
    with pytest.raises(EvaluationError) as exc:
        integrate(lambda t: math.inf if t > 0.9 else t, 0.0, 1.0)
    assert exc.value.abscissa == first_bad
    assert "t=%.17g" % first_bad in str(exc.value)


def test_a_non_finite_sample_leaves_the_integrand_output_alone():
    import numpy as np

    returned = []

    def f(t):
        returned.append(np.where(t > 0.9, np.nan, t))
        return returned[-1]

    with pytest.raises(EvaluationError):
        integrate(f, 0.0, 1.0)
    assert np.isnan(returned[0]).sum() == 3 and returned[0][0] > 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_huge_finite_samples_are_not_an_evaluation_error():
    # every sample is finite, so no EvaluationError; the weighted sums
    # overflow, and an overflowed sum is no result: it is a ConvergenceError
    # that names the interval and carries the overflowed estimate
    with pytest.raises(ConvergenceError, match=r"over \[0, 1\] is not finite") \
            as exc:
        integrate(lambda t: 1e308 + 0.0 * t, 0.0, 1.0)
    assert exc.value.estimate == QuadResult(math.inf, math.inf, 0)


def _nan_in_middle(t):
    return math.nan if 0.4 < t < 0.6 else t


def _raises(t):
    raise ValueError("no value at %r" % t)


def _kernel_like(ts):
    # the shape of the identity's kernel integrals: a t^kappa kink at 0
    return [t * (0.45 - t ** 0.5) * math.exp(0.3 + 0.7 * t) for t in ts.tolist()]


def _solo(f, lo, hi, tol):
    try:
        return integrate(f, lo, hi, tol)
    except Exception as exc:
        return exc


def test_batch_equals_each_job_alone():
    tol = Tolerance(max_subdiv=60)
    jobs = [
        (math.exp, 0.0, 1.0),                        # smooth, one pass
        (lambda t: abs(t - 0.3), 0.0, 1.0),          # kinked
        (_kernel_like, 0.0, 1.0),                    # kernel-like
        (_nan_in_middle, 0.0, 1.0),                  # EvaluationError
        (lambda t: math.sin(1.0 / t), 0.0, 1.0),     # hits max_subdiv
        (math.exp, 0.7, 0.7),                        # hi == lo
        (_raises, 0.0, 1.0),                         # integrand raises
        (lambda t: math.sin(50.0 * t), 0.0, 1.0),    # many bisections
    ]
    got = integrate_batch(jobs, tol)
    assert len(got) == len(jobs)
    kinds = []
    for (f, lo, hi), res in zip(jobs, got):
        alone = _solo(f, lo, hi, tol)
        assert type(res) is type(alone)
        kinds.append(type(res).__name__)
        if isinstance(alone, QuadResult):
            assert res == alone
        else:
            assert str(res) == str(alone)
            assert getattr(res, "estimate", None) == getattr(alone, "estimate",
                                                             None)
            assert getattr(res, "abscissa", None) == getattr(alone, "abscissa",
                                                             None)
    assert kinds == ["QuadResult", "QuadResult", "QuadResult",
                     "EvaluationError", "ConvergenceError", "QuadResult",
                     "ValueError", "QuadResult"]
    assert got[2].subdivisions > 5 and got[4].estimate.subdivisions == 60
    assert got[5] == QuadResult(0.0, 0.0, 0)


def _serial_reference(f, lo, hi, tol):
    """The one-integral loop integrate_batch replaced: one 15-node integrand
    call and four 1-D dot products per GK pass, each child in turn."""
    import heapq

    import numpy as np

    from fracineq.quad import _EPS, _NODES, _WG15, _WK15, _Evaluator

    ev = _Evaluator(f)

    def gk15(a, b):
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        ys = ev(center + half * _NODES)
        resabs = float(_WK15 @ np.abs(ys))
        resk, resg = float(_WK15 @ ys), float(_WG15 @ ys)
        resasc = float(_WK15 @ np.abs(ys - 0.5 * resk)) * abs(half)
        err = abs((resk - resg) * half)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        return resk * half, max(err, 50.0 * _EPS * resabs * abs(half))

    value, err = gk15(lo, hi)
    heap, counter, nsub = [(-err, 0, lo, hi, value, err)], 0, 0
    while err > max(tol.abs_tol, tol.rel_tol * abs(value)):
        assert nsub < tol.max_subdiv
        _, _, a, b, v, e = heapq.heappop(heap)
        if e <= 0.1 * _EPS * abs(value):
            break
        mid = 0.5 * (a + b)
        (v1, e1), (v2, e2) = gk15(a, mid), gk15(mid, b)
        value += (v1 + v2) - v
        err += (e1 + e2) - e
        nsub += 1
        heapq.heappush(heap, (-e1, counter + 1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 2, mid, b, v2, e2))
        counter += 2
    return QuadResult(value, err, nsub)


def _work_since(start):
    """[GK15 rounds, rows sampled] since start, an earlier copy of quad.WORK."""
    return [now - then for now, then in zip(quad.WORK, start)]


def test_one_round_integral_adds_one_round_and_one_row():
    start = quad.WORK[:]
    res = integrate(lambda t: 2.0 * t + 1.0, 0.0, 1.0)
    assert res.subdivisions == 0 and _work_since(start) == [1, 1]


def test_a_batch_round_adds_one_round_and_a_row_per_job():
    start = quad.WORK[:]
    got = integrate_batch([(lambda t: 2.0 * t + 1.0, 0.0, 1.0),
                           (lambda t: t * t, -1.0, 2.0),
                           (math.cos, 0.0, 0.5)])
    assert [res.subdivisions for res in got] == [0, 0, 0]
    assert _work_since(start) == [1, 3]


def test_batch_matches_the_serial_loop_bit_for_bit():
    import numpy as np

    from fracineq import Params, corpus_by_name
    from fracineq.bounds import _oracle_spec
    from fracineq.identity import SIDE_TOL, _kernel_pieces

    # native integrands that bisect deeply: both segments of the
    # criterion-02 phi4 oracle at a small lambda, and a sqrt cusp at 0
    deep = _oracle_spec(("phi-oracle", 4, 3.0, 0.05, 1.5), {})[0]
    deep.append((lambda t: np.sqrt(t) * np.cos(t), 0.0, 1.5))
    jobs = [(np.exp, 0.0, 1.0), (lambda t: np.sin(30.0 * t), 0.0, 2.0),
            (lambda t: abs(t - 0.3), 0.0, 1.0)] + deep
    for entry in corpus_by_name().values():
        for lam, kappa in ((0.0, 0.5), (1.0 / 3.0, 0.5), (0.5, 2.0)):
            p = Params(a=0.0, b=1.0, m=1.0, x=0.3, lam=lam, kappa=kappa)
            for anchor in (p.a, p.mb):
                jobs += _kernel_pieces(entry.fn, anchor, p.x, lam, kappa, {})
    got = integrate_batch(jobs, SIDE_TOL)
    for (f, lo, hi), res in zip(jobs, got):
        assert res == _serial_reference(f, lo, hi, SIDE_TOL)
    assert sum(r.subdivisions for r in got) > 5 * len(jobs)

    # alone, each deep job bisects through its lookahead rows: fewer
    # rounds than one per bisection, and every bit the same
    for f, lo, hi in deep:
        start = quad.WORK[:]
        res, = integrate_batch([(f, lo, hi)], SIDE_TOL)
        rounds, _ = _work_since(start)
        assert res == _serial_reference(f, lo, hi, SIDE_TOL)
        assert res.subdivisions > 8 and rounds < res.subdivisions + 1


def test_lookahead_heads_for_the_end_of_the_job_it_splits():
    import numpy as np

    from fracineq.bounds import _ORACLE_TOL, _oracle_spec
    from fracineq.identity import SIDE_TOL

    # the [0, t*] segment of the phi4 oracle at kappa 2, lambda 0.3, p 1.5
    # splits toward 0 and toward t* by turns: its lookahead follows the
    # end each split touches (13 rounds when it followed the last split)
    (f, lo, hi), _ = _oracle_spec(("phi-oracle", 4, 2.0, 0.3, 1.5), {})[0]
    start = quad.WORK[:]
    res, = integrate_batch([(f, lo, hi)], _ORACLE_TOL)
    rounds, _ = _work_since(start)
    assert res == _serial_reference(f, lo, hi, _ORACLE_TOL)
    assert res.subdivisions == 24 and rounds <= 8

    # sqrt(1 - t) splits toward 1 only: after the first split (which looks
    # left) its lookahead heads right (8 rounds when it followed the split)
    f = lambda t: np.sqrt(1.0 - t)
    start = quad.WORK[:]
    res, = integrate_batch([(f, 0.0, 1.0)], SIDE_TOL)
    rounds, _ = _work_since(start)
    assert res == _serial_reference(f, 0.0, 1.0, SIDE_TOL)
    assert res.subdivisions == 23 and rounds <= 6


# 0.1875 is the centre node of [0.125, 0.25], an interval of the first
# lookahead path of [0, 1] that sqrt(1 - t) never bisects down to: only a
# lookahead row samples it
_LOOKAHEAD_ONLY = 0.1875


def test_a_non_finite_lookahead_sample_gives_the_serial_result():
    import numpy as np

    from fracineq.identity import SIDE_TOL

    sampled = []

    def f(t):
        sampled.append(bool(np.any(t == _LOOKAHEAD_ONLY)))
        return np.where(t == _LOOKAHEAD_ONLY, np.nan, np.sqrt(1.0 - t))

    got, = integrate_batch([(f, 0.0, 1.0)], SIDE_TOL)
    assert any(sampled)
    sampled.clear()
    assert got == _serial_reference(f, 0.0, 1.0, SIDE_TOL)
    assert not any(sampled) and got.subdivisions > 8


def test_an_integrand_raising_at_a_lookahead_node_stays_vectorized():
    import numpy as np

    from fracineq.identity import SIDE_TOL

    calls = []

    def f(t):
        calls.append(t)
        if np.any(t == _LOOKAHEAD_ONLY):
            raise ValueError("no value at %r" % _LOOKAHEAD_ONLY)
        return np.sqrt(1.0 - t)

    got, = integrate_batch([(f, 0.0, 1.0)], SIDE_TOL)
    # it raised once, on a lookahead block, and was never called per node
    assert sum(bool(np.any(t == _LOOKAHEAD_ONLY)) for t in calls) == 1
    assert all(isinstance(t, np.ndarray) and t.size >= 15 for t in calls)
    assert got == _serial_reference(f, 0.0, 1.0, SIDE_TOL)


def test_a_list_returning_integrand_samples_no_lookahead_rows():
    start = quad.WORK[:]
    got, = integrate_batch([(_kernel_like, 0.0, 1.0)])
    assert got.subdivisions > 5
    assert _work_since(start) == [1 + got.subdivisions,
                                  1 + 2 * got.subdivisions]


def test_batch_rejects_a_malformed_interval_before_any_work():
    calls = []
    with pytest.raises(DomainError):
        integrate_batch([(lambda t: calls.append(t) or t, 0.0, 1.0),
                         (math.exp, 1.0, 0.0)])
    assert not calls


@pytest.mark.parametrize("p_lo,p_hi,expect", [
    (-0.5, 0.0, 2.0),                 # int_0^1 t^(-1/2)
    (0.5, 0.0, 2.0 / 3.0),            # int_0^1 t^(1/2)
    (0.0, -0.5, 2.0),
    (-0.5, -0.5, math.pi),            # Beta(1/2, 1/2)
    (2.0, 0.0, 1.0 / 3.0),            # integer exponent, no substitution
    (0.0, 0.0, 1.0),
])
def test_weighted_unit_integrals(p_lo, p_hi, expect):
    res = integrate_singular(lambda t: 1.0, 0.0, 1.0, p_lo, p_hi)
    assert abs(res.value - expect) <= 1e-11 * max(1.0, abs(expect))


def test_weighted_general_interval():
    # int_1^3 (t-1)^(-1/2) e^t dt, via erfi-free reference value from
    # substitution u = sqrt(t-1): 2 e int_0^sqrt(2) e^(u^2) du
    inner = integrate(lambda u: math.exp(u * u), 0.0, math.sqrt(2.0))
    expect = 2.0 * math.e * inner.value
    res = integrate_singular(math.exp, 1.0, 3.0, -0.5, 0.0)
    assert abs(res.value - expect) <= 1e-10 * expect


def test_weight_matches_plain_quadrature_when_smooth():
    a = integrate_singular(math.exp, 0.0, 1.0, 1.0, 2.0)
    b = integrate(lambda t: math.exp(t) * t * (1.0 - t) ** 2, 0.0, 1.0)
    assert abs(a.value - b.value) <= 1e-13


def test_nonintegrable_weight_rejected():
    with pytest.raises(DomainError):
        integrate_singular(lambda t: 1.0, 0.0, 1.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_singular(lambda t: 1.0, 0.0, 1.0, 0.0, -1.5)


def test_non_finite_weight_exponent_rejected():
    with pytest.raises(DomainError, match="finite"):
        integrate_singular(np.exp, 0.0, 1.0, math.nan, 0.0)


@pytest.mark.parametrize("p_lo,p_hi", [
    (0.0, 0.0), (2.0, -0.5), (-0.5, 1.0), (-0.5, -0.5), (0.5, 0.3),
    (-0.999, 0.0), (1.0, -0.7), (-0.7, -0.999)])
def test_weighted_integral_over_an_empty_interval_is_zero(p_lo, p_hi):
    # every weight shape: no sample is taken, and the result is exactly 0
    calls = []
    res = integrate_singular(lambda t: calls.append(t) or 1.0, 0.5, 0.5,
                             p_lo, p_hi)
    assert res == QuadResult(0.0, 0.0, 0)
    assert math.copysign(1.0, res.value) == 1.0
    assert not calls


def test_singular_both_ends_asymmetric():
    # Beta(0.7, 1.4) with a non-constant smooth factor
    from fracineq import beta

    res = integrate_singular(lambda t: 1.0 + t, 0.0, 1.0, -0.3, 0.4)
    expect = beta(0.7, 1.4) + beta(1.7, 1.4)
    assert abs(res.value - expect) <= 1e-11


def test_both_singular_ends_run_in_one_batch():
    # the two halves, each at half the absolute tolerance, advance in one
    # lockstep batch and give the bits each gives alone, summed in order
    f = lambda t: np.exp(t) * np.cos(3.0 * t)
    jobs = singular_jobs(f, 0.0, 2.0, 0.7, 0.4)     # the orders p + 1
    half = Tolerance(0.5e-12, 1e-12, 2000)
    alone = []
    for job in jobs:
        start = quad.WORK[:]
        alone.append((integrate(*job, half), _work_since(start)[0]))
    start = quad.WORK[:]
    res = integrate_singular(f, 0.0, 2.0, -0.3, -0.6)
    assert _work_since(start)[0] == max(rounds for _, rounds in alone)
    (r1, _), (r2, _) = alone
    assert res == QuadResult(r1.value + r2.value,
                             r1.abs_error_estimate + r2.abs_error_estimate,
                             r1.subdivisions + r2.subdivisions)


@pytest.mark.parametrize("p", [-0.6, -0.999, -0.9999])
def test_a_weight_near_the_non_integrable_edge_sees_its_integrand(p):
    # int_0^1 t^p e^t dt = sum_n 1/(n! (n + p + 1)).  With p + 1 < 0.5 the
    # anchor value e^0 is subtracted and integrated exactly; under t = v^k
    # alone (k = 40,000 at p = -0.9999) every node of the first round sat
    # where e^t - 1 reads about 0.  Mirrored at the upper end too.
    expect = math.fsum(1.0 / (math.factorial(n) * (n + p + 1.0))
                       for n in range(30))
    lower = integrate_singular(math.exp, 0.0, 1.0, p, 0.0)
    upper = integrate_singular(lambda t: math.exp(1.0 - t), 0.0, 1.0, 0.0, p)
    assert lower.value == pytest.approx(expect, rel=1e-13)
    assert upper.value == pytest.approx(expect, rel=1e-13)


# --- the one-branch GK15 rule against its two-call form ----------------------

def _rule_bits(sums):
    """_rule(*sums) and rule_reference(*sums) as packed doubles."""
    from conftest import rule_reference
    try:
        want = rule_reference(*sums)
    except OverflowError:
        # r ** 1.5 passes the float range: r >= 1, so min(1, r^1.5) is 1
        resabs, resk, _, resasc, half = sums
        want = (resk * half, max(resasc * half, 50.0 * _EPS * resabs * half))
    return struct.pack("<2d", *_rule(*sums)), struct.pack("<2d", *want)


@pytest.mark.parametrize("sums", [
    (3.0, 1.0, 0.0, 200.0, 1.0),            # r = 1 exactly
    (3.0, 1.0, 0.0, 100.0, 1.0),            # r = 2
    (3.0, 1.0, 0.0, 5e-324, 1.0),           # r = inf
    (3.0, 1.0, 0.0, 2e-298, 1.0),           # r = 1e300: r ** 1.5 overflows
    (3.0, 1e-3, 0.0, 7.0, 0.25),            # r < 1
    (3.0, 1.0, 0.5, 0.0, 1.0),              # resasc = 0
    (3.0, 0.5, 0.5, 7.0, 1.0),              # err = 0
    (3.0, math.nan, 0.5, 7.0, 1.0),         # NaN sum: NaN r
    (math.nan, 0.5, 0.25, math.nan, 1.0),   # NaN resabs and resasc
    (3.0, math.inf, 0.5, 7.0, 1.0),         # inf sum: r = inf
    (3.0, 0.5, 0.25, math.inf, 1.0),        # inf resasc: inf * 0
    (math.inf, 0.5, 0.25, 7.0, 1e-3),       # inf floor
    (3.0, 0.5, 0.25, 7.0, 0.0),             # half = +0.0
    (1e308, 1e308, -1e308, 1e308, 0.5),     # sums near 1e308: err overflows
    (1e308, 1e308, 1e307, 1e308, 1e-3),
    (1.7e308, 1e308, 9e307, 1e-300, 1.0),
])
def test_rule_matches_its_two_call_form_on_pinned_sums(sums):
    got, want = _rule_bits(sums)
    assert got == want, sums


def test_rule_matches_its_two_call_form_on_random_sums():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # resabs and resasc sum |samples|: never negative, maybe inf or NaN
    nonneg = st.one_of(st.floats(min_value=0.0),
                       st.sampled_from((math.inf, math.nan)))

    @hyp.settings(max_examples=500, deadline=None, database=None)
    @hyp.given(nonneg, st.floats(), st.floats(), nonneg,
               st.floats(min_value=0.0, max_value=1e308))
    def check(resabs, resk, resg, resasc, half):
        sums = (resabs, resk, resg, resasc, half)
        got, want = _rule_bits(sums)
        assert got == want, sums

    check()

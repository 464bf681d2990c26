import math

import pytest

from fracineq import DomainError, EvaluationError, ConvergenceError
from fracineq.quad import QuadResult, Tolerance, integrate, integrate_singular


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_huge_finite_samples_are_not_an_evaluation_error():
    # every sample is finite, so no EvaluationError; the weighted sums
    # overflow to inf and the result carries that, as it always has
    res = integrate(lambda t: 1e308 + 0.0 * t, 0.0, 1.0)
    assert res == QuadResult(math.inf, math.inf, 0)


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


def test_singular_both_ends_asymmetric():
    # Beta(0.7, 1.4) with a non-constant smooth factor
    from fracineq import beta

    res = integrate_singular(lambda t: 1.0 + t, 0.0, 1.0, -0.3, 0.4)
    expect = beta(0.7, 1.4) + beta(1.7, 1.4)
    assert abs(res.value - expect) <= 1e-11

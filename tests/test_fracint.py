import math

import pytest

from fracineq import DomainError, corpus_by_name, gamma, rl_left, rl_right
from fracineq.fracint import rl_left_result, rl_right_result
from fracineq.quad import Tolerance


def test_order_one_is_classical_integral():
    # J^1[0+] e^t (x) = e^x - 1
    for x in (0.25, 1.0, 2.0):
        assert abs(rl_left(math.exp, 0.0, 1.0, x) - (math.exp(x) - 1.0)) <= 1e-11
    # J^1[1-] e^t (x) = e - e^x
    for x in (0.0, 0.5, 0.9):
        assert abs(rl_right(math.exp, 1.0, 1.0, x) - (math.e - math.exp(x))) <= 1e-11


def test_order_zero_is_identity():
    assert rl_left(math.exp, 0.0, 0.0, 0.7) == math.exp(0.7)
    assert rl_right(math.sin, 2.0, 0.0, 0.3) == math.sin(0.3)


def test_half_order_pinned():
    # power rule: J^k[0+] t (x) = x^(1+k) / Gamma(2+k)
    expect = 1.0 / gamma(2.5)          # 0.75225277806367508...
    assert abs(rl_left(lambda t: t, 0.0, 0.5, 1.0) - expect) <= 1e-12
    # right-sided mirror at x=0, b=1: (1/Gamma(0.5)) int_0^1 t^(-1/2) t dt
    expect = (2.0 / 3.0) / math.sqrt(math.pi)
    assert abs(rl_right(lambda t: t, 1.0, 0.5, 0.0) - expect) <= 1e-12


@pytest.mark.parametrize("kappa", [0.3, 0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
def test_power_rule(kappa, nu):
    # J^k[0+] t^nu (x) = Gamma(nu+1)/Gamma(nu+1+k) x^(nu+k)
    x = 0.8
    got = rl_left(lambda t: t ** nu, 0.0, kappa, x)
    expect = gamma(nu + 1.0) / gamma(nu + 1.0 + kappa) * x ** (nu + kappa)
    assert abs(got - expect) <= 1e-11 * max(1.0, expect)


def test_linearity():
    f = math.exp
    g = math.sin
    combo = rl_left(lambda t: f(t) + 2.0 * g(t), 0.1, 0.7, 1.1)
    parts = rl_left(f, 0.1, 0.7, 1.1) + 2.0 * rl_left(g, 0.1, 0.7, 1.1)
    assert abs(combo - parts) <= 1e-12


def test_semigroup_half_half_is_one():
    inner_tol = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_subdiv=2000)
    f = lambda t: t
    g = lambda u: rl_left(f, 0.0, 0.5, u, tol=inner_tol)
    nested = rl_left(g, 0.0, 0.5, 1.0, tol=inner_tol)
    classical = rl_left(f, 0.0, 1.0, 1.0)
    assert abs(nested - classical) <= 1e-8


def test_reflection_symmetry():
    # J^k[b-] f (x) equals J^k[0+] f(b - .) (b - x) for f on [x, b]
    f = math.exp
    k, b, x = 0.7, 1.2, 0.4
    left_of_reflected = rl_left(lambda t: f(b - t), 0.0, k, b - x)
    assert abs(rl_right(f, b, k, x) - left_of_reflected) <= 1e-12


def test_result_error_budget():
    res = rl_left_result(math.exp, 0.0, 0.5, 1.0)
    assert res.abs_error_estimate < 1e-10
    assert res.value == rl_left(math.exp, 0.0, 0.5, 1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        rl_left(math.exp, 0.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        rl_left(math.exp, 1.0, 0.5, 1.0)    # needs x > a
    with pytest.raises(DomainError):
        rl_right(math.exp, 1.0, 0.5, 1.0)   # needs x < b
    with pytest.raises(DomainError):
        rl_right(math.exp, 1.0, math.nan, 0.5)


@pytest.mark.xfail(strict=True, reason="at kappa = 1e-3 the substitution "
                   "t = v^4000 leaves every GK15 node of the first round "
                   "sampling about 0, and the absolute tolerance accepts it "
                   "(ROADMAP aim 3)")
def test_right_integral_at_a_small_order():
    # pow-2.5, f = x^2.5/3.75: J^k[0.5-] f(0) = 0.5^(2.5+k) / ((2.5+k) 3.75
    # Gamma(k)), 1.8846e-5 at k = 1e-3 by mpmath at 40 digits; the
    # quadrature returns 5.4e-22 +- 1.1e-21 in 0 subdivisions
    f = corpus_by_name()["pow-2.5"].fn.f
    res = rl_right_result(f, 0.5, 1e-3, 0.0)
    assert res.value == pytest.approx(1.8846440857151318e-05, rel=1e-9)

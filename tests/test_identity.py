"""The two-sided identity: direct evaluation vs the second-derivative kernel.

The direct side blends endpoint/midpoint values of f with a pair of
fractional integrals anchored at x; the kernel side integrates
t ((kappa+1) lambda - t^kappa) f'' over both subintervals.  Equality is
exact in theory, so residuals are held to the quadrature budget.
"""

import math

import pytest

from fracineq import DomainError, Params, corpus_by_name, direct_side, \
    kernel_side, residual, rl_left, rl_right
from fracineq.amconvex import FnTriple
from fracineq.identity import standard_grid
from fracineq.specfun import gamma

FNS = {k: v.fn for k, v in corpus_by_name().items()}


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
    memo = {}
    for fn in FNS.values():
        for p in standard_grid(0.0, 1.0):
            assert residual(p, fn, memo) == residual(p, fn), (fn.name, p)
    halves = [k for k in memo if k[0] == "kernel-half"]
    points = [k for k in memo if k[0] == "direct"]
    assert 0 < len(halves) < 2 * len(points)


def test_kernel_side_passes_on_the_error_of_a_raising_second_derivative():
    def ddf(u):
        raise ValueError("no f'' at %r" % u)

    fn = FnTriple(f=math.exp, df=math.exp, ddf=ddf, name="raises")
    with pytest.raises(ValueError, match="no f''"):
        kernel_side(Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0), fn)


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


def test_constant_function_degenerate():
    fn = FnTriple(f=lambda u: 3.0, df=lambda u: 0.0, ddf=lambda u: 0.0,
                  name="const")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.5, lam=0.5, kappa=1.0)
    assert abs(kernel_side(p, fn)) == 0.0
    assert abs(direct_side(p, fn)) <= 1e-13

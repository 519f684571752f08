import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3inv.arith import odd_primes
from so3inv.errors import (
    DenominatorDivisibleByK,
    InsufficientTerms,
    NonzeroConstantInExp,
    So3InvError,
)
from so3inv.series import (
    RatSeries,
    half_log_tail,
    shadow,
    u_over_sinh_terms,
    vee,
)
from so3inv.nt import Lens
from so3inv.ohtsuki import closed_lambda_series
from zq_reference import (FactorialNotInvertible, NonUnitDivisor, NotAUnit,
                          at_half_log, exp_sum_series, gauss_moment_diamond,
                          q_power, q_power_recurrence, s_div, schoolbook_mul,
                          ser_pow, sinh_over_u, u_over_sinh,
                          vee_per_coefficient, x_over_log_pow)


def _log1p(cap):
    """log(1+x) = sum_{n>=1} (-1)^(n+1) x^n / n, written out."""
    return RatSeries(
        [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, cap + 1)], cap)


def _x(cap):
    return RatSeries([0, 1], cap)


def test_min_cap_mixing():
    a = RatSeries([1, 1], cap=10)
    b = RatSeries([1, 2, 3], cap=4)
    assert (a + b).cap == 4
    assert (a * b).cap == 4


def test_mul_and_pow():
    x = _x(6)
    s = ser_pow(x + 1, 3)
    assert [int(c) for c in s.coeffs[:4]] == [1, 3, 3, 1]
    assert s.coeffs[4] == 0
    # as for CycInt, a negative power asks for an inverse: none is taken
    with pytest.raises(NotAUnit, match=r"\*\* -1"):
        ser_pow(x + 1, -1)


def test_s_div_inverts():
    s = RatSeries([1, 5, -2, Fraction(1, 3)], cap=8)
    q = s_div(RatSeries.const(1, 8), s)
    assert s * q == RatSeries.const(1, 8)


def test_s_div_nonunit():
    with pytest.raises(NonUnitDivisor):
        s_div(RatSeries.const(1, 4), _x(4))


def test_compose_requires_zero_constant():
    with pytest.raises(NonzeroConstantInExp):
        _x(4).compose(RatSeries.const(1, 4))


def test_log1p_and_q_power():
    half = q_power(Fraction(1, 2), 8)
    assert half * half == _x(8) + 1
    assert q_power(3, 8) == ser_pow(_x(8) + 1, 3)
    # exponent addition
    a, b = Fraction(2, 3), Fraction(-1, 4)
    assert q_power(a, 8) * q_power(b, 8) == q_power(a + b, 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=25).flatmap(
    lambda cap: st.lists(st.fractions(min_value=-50, max_value=50,
                                      max_denominator=1000),
                         max_size=cap + 1).map(lambda cs: RatSeries(cs, cap))))
def test_at_half_log_matches_horner_compose(s):
    out = at_half_log(s)
    assert out.cap == s.cap
    assert out.coeffs == s.compose(_log1p(s.cap) * Fraction(1, 2)).coeffs


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=50),
       st.integers(min_value=0, max_value=25))
def test_at_half_log_of_exp_is_q_power(c, cap):
    # e^(cT) at T = (1/2)log(1+x) is (1+x)^(c/2), since e^(2T) = 1 + x
    exp_ct = RatSeries([c ** n / factorial(n) for n in range(cap + 1)], cap)
    assert at_half_log(exp_ct) == q_power(c / 2, cap)


def test_at_half_log_small_caps():
    assert at_half_log(RatSeries([3], 0)) == RatSeries([3], 0)
    # T = x/2 - x^2/4 + x^3/6 - ...
    assert at_half_log(_x(3)).coeffs == (
        0, Fraction(1, 2), Fraction(-1, 4), Fraction(1, 6))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50,
                             max_denominator=1000), max_size=42),
       st.fractions(min_value=-20, max_value=20, max_denominator=50),
       st.integers(min_value=0, max_value=40))
def test_half_log_tail_matches_shifted_references(F, c, cap):
    # [x^(n+1)] of (1+x)^(c/2), of F(T) and of F(T) e^(cT) = F(T) (1+x)^(c/2)
    f = RatSeries(F, cap + 1)
    assert (half_log_tail([1], c, cap).coeffs
            == q_power(c / 2, cap + 1).coeffs[1:])
    assert half_log_tail(F, 0, cap).coeffs == at_half_log(f).coeffs[1:]
    assert (half_log_tail(F, c, cap).coeffs
            == (at_half_log(f) * q_power(c / 2, cap + 1)).coeffs[1:])


def test_half_log_tail_small_caps():
    assert half_log_tail([], 3, 2) == RatSeries([], 2)
    # [x^1] (1+x)^(3/2) and T e^(0 T) = T = x/2 - x^2/4 + x^3/6 - ...
    assert half_log_tail([5], 3, 0).coeffs == (Fraction(15, 2),)
    assert half_log_tail([0, 1], 0, 2).coeffs == (
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 6))


def _sinh_quotient_u(a, cap):
    """sinh(a*u)/sinh(u) as a series in u, by one series division."""
    def sinh_over_u(b):
        return RatSeries([Fraction(b) ** (n + 1) / factorial(n + 1)
                          if n % 2 == 0 else 0 for n in range(cap + 1)], cap)
    return s_div(sinh_over_u(a), sinh_over_u(1))


def _sinh_ratio(a, cap):
    """sinh(a*T)/sinh(T) at T = (1/2)log(1+x): the u-series
    sinh(a*u)/sinh(u) re-expanded at u = T."""
    return at_half_log(_sinh_quotient_u(a, cap))


def test_sinh_ratio_edges():
    assert _sinh_ratio(1, 8) == RatSeries.const(1, 8)
    assert _sinh_ratio(0, 8) == RatSeries([], 8)
    for a in (2, 3, Fraction(1, 2), Fraction(-2, 5)):
        assert _sinh_ratio(a, 8).coeffs[0] == Fraction(a)


def test_sinh_ratio_integer_is_chebyshev_like():
    # sinh(3T)/sinh(T) = 4cosh^2(T) - 1 = 2cosh(2T) + 1, and
    # cosh(2T) = (q + 1/q)/2 with q = 1+x.
    q = _x(10) + 1
    expect = q + s_div(RatSeries.const(1, 10), q) + 1
    assert _sinh_ratio(3, 10) == expect


def test_half_lens_ratio_regression():
    # 2*sinh(T/2)/sinh(T) = sech(T/2): leading lambda values 1, 0, -1/32, 1/32
    s = _sinh_ratio(Fraction(1, 2), 6) * 2
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 0
    assert s.coeffs[2] == Fraction(-1, 32)
    assert s.coeffs[3] == Fraction(1, 32)


def test_exp_sum_series_single_exponential():
    for c in (-3, 0, 1, 5):
        assert exp_sum_series({c: 1}, 12) == RatSeries(
            [Fraction(c ** n, factorial(n)) for n in range(13)], 12)
    assert exp_sum_series({}, 5) == RatSeries([], 5)


def test_exp_sum_series_quotient_divides_out_the_zero():
    # sinh(3w)/sinh(w) = e^(2w) + 1 + e^(-2w)
    assert (exp_sum_series({3: 1, -3: -1}, 20, {1: 1, -1: -1})
            == exp_sum_series({2: 1, 0: 1, -2: 1}, 20))
    # (2 sinh(w))^3 / (2 sinh(w))^2, a zero of order 2 divided out
    cube = {3: 1, 1: -3, -1: 3, -3: -1}
    assert (exp_sum_series(cube, 15, {2: 1, 0: -2, -2: 1})
            == exp_sum_series({1: 1, -1: -1}, 15))
    with pytest.raises(NonUnitDivisor):
        exp_sum_series({0: 1}, 4, {1: 1, -1: -1})
    with pytest.raises(NonUnitDivisor):
        exp_sum_series({0: 1}, 4, {2: 0})


# B_0, B_2, ..., B_20: the even-index Bernoulli numbers
_BERNOULLI_EVEN = [Fraction(1), Fraction(1, 6), Fraction(-1, 30),
                   Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
                   Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
                   Fraction(43867, 798), Fraction(-174611, 330)]


def test_sinh_over_u_coefficients():
    assert sinh_over_u(1, 0) == RatSeries.const(1, 0)
    for a in (1, -3, Fraction(1, 4), Fraction(-2, 9)):
        assert sinh_over_u(a, 12) == RatSeries(
            [Fraction(a) ** n / factorial(2 * n + 1) for n in range(13)], 12)


def test_u_over_sinh_is_the_bernoulli_series():
    # u/sinh(u) = sum_n (2 - 2^(2n)) B_2n u^(2n) / (2n)!
    s = u_over_sinh(len(_BERNOULLI_EVEN) - 1)
    assert s.coeffs == tuple((2 - 2 ** (2 * n)) * b / factorial(2 * n)
                             for n, b in enumerate(_BERNOULLI_EVEN))
    for c in (0, 1, 40, 105):
        assert u_over_sinh(c) * sinh_over_u(1, c) == RatSeries.const(1, c)
    assert u_over_sinh(40) == s_div(RatSeries.const(1, 40),
                                    sinh_over_u(1, 40))


def test_u_over_sinh_terms_are_tangent_numbers():
    # g_n / d = (2 - 4^n) B_2n = (-1)^n 2n T_n (4^n - 2) / (4^n (4^n - 1)),
    # tan(u) = u + 2 u^3/3! + 16 u^5/5! + 272 u^7/7! + 7936 u^9/9! + ...
    assert u_over_sinh_terms(0) == ([1], 1)
    g, d = u_over_sinh_terms(len(_BERNOULLI_EVEN) - 1)
    assert [Fraction(c, d) for c in g] == [
        (2 - 4 ** n) * b for n, b in enumerate(_BERNOULLI_EVEN)]
    assert [Fraction(c * (-1) ** n * 4 ** n * (4 ** n - 1),
                     d * 2 * n * (4 ** n - 2))
            for n, c in enumerate(g[1:6], 1)] == [1, 2, 16, 272, 7936]


def test_u_over_sinh_terms_match_the_recurrence():
    for cap in (0, 1, 2, 40, 100):
        g, d = u_over_sinh_terms(cap)
        assert (tuple(Fraction(c, d * factorial(2 * n))
                      for n, c in enumerate(g)) == u_over_sinh(cap).coeffs)


def test_shadow_basics():
    p = shadow([1, 2, 3], 5)
    assert p == (1, 2, 3)
    # reduced mod K and cut at degree (K-1)/2 = 2
    assert shadow([6, 7, -2, 4], 5) == p
    assert shadow([4], 5) == (4, 0, 0)
    assert shadow([1], 5) != shadow([1], 7)


def test_vee_log_example():
    assert vee(_log1p(2), 5) == shadow([0, 1, 2], 5)


def test_vee_denominator_failure_names_degree():
    s = RatSeries([1, Fraction(1, 5), 0], cap=4)
    with pytest.raises(DenominatorDivisibleByK) as ei:
        vee(s, 5)
    assert "x^1" in str(ei.value)


def test_vee_insufficient_cap():
    with pytest.raises(InsufficientTerms):
        vee(RatSeries([1], cap=2), 11)


def _vee_outcome(reduce, s, K):
    try:
        return reduce(s, K)
    except So3InvError as e:
        return type(e), str(e)


def test_vee_matches_per_coefficient_route():
    # every lens space with 1 <= |p| <= 12 at the primes 5..61, as
    # vee_side reads it (cap (K-1)/2) and as the whole series to cap 30,
    # whose terms past (K-1)/2 vee must not read: equal shadows, or
    # the same error class and message
    grid = [(p, q) for a in range(1, 13) for p in (a, -a)
            for q in range(1, a) if gcd(a, q) == 1] + [(1, 1), (-1, 1)]
    raised = 0
    for p, q in grid:
        lam = closed_lambda_series(Lens(p, q), 30).coeffs
        for K in odd_primes(5, 61):
            d = (K - 1) // 2
            for s in (RatSeries(lam[:d + 1], d), RatSeries(lam, 30)):
                got = _vee_outcome(vee, s, K)
                assert got == _vee_outcome(vee_per_coefficient, s, K)
                raised += isinstance(got[0], type)
    assert len(grid) == 92 and raised


def _seeded_series(rng, cap):
    dens = (1, 2, 3, 7, 60, 2 ** 40, 3 ** 25 * 11)
    return RatSeries([Fraction(rng.randint(-10 ** 12, 10 ** 12),
                               rng.choice(dens)) * rng.randint(0, 1)
                      for _ in range(rng.randint(0, cap + 1))], cap)


def test_mul_matches_schoolbook_route():
    # seeded series with mixed denominators, zero terms and mixed caps
    rng = random.Random(53)
    for _ in range(60):
        a = _seeded_series(rng, rng.randint(0, 40))
        b = _seeded_series(rng, rng.randint(0, 40))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a * b).coeffs == schoolbook_mul(a, b).coeffs
        assert (a * b).cap == schoolbook_mul(a, b).cap
        assert (a * c).coeffs == (c * a).coeffs == schoolbook_mul(a, c).coeffs
        assert (a * 5).coeffs == (5 * a).coeffs == schoolbook_mul(a, 5).coeffs
    a, b = q_power(Fraction(-71, 60), 105), q_power(Fraction(13, 7), 105)
    assert (a * b).coeffs == schoolbook_mul(a, b).coeffs


def test_q_power_matches_recurrence_route():
    rng = random.Random(59)
    rs = [0, 1, -1, 5, Fraction(1, 2), Fraction(-71, 60), Fraction(13, 7)]
    rs += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
           for _ in range(20)]
    for r in rs:
        for cap in (0, 1, 7, 40):
            assert q_power(r, cap).coeffs == q_power_recurrence(r, cap).coeffs


def test_x_over_log_pow():
    assert x_over_log_pow(1, 5) == shadow([1, 3, 2], 5)
    assert x_over_log_pow(0, 5) == shadow([1], 5)
    assert x_over_log_pow(2, 5) == shadow([1, 1, 3], 5)


def test_gauss_moment_diamond_anchor():
    assert gauss_moment_diamond(2, 1, 1, 5) == shadow([4, 2, 3], 5)
    for K in (5, 7, 11):
        with pytest.raises(FactorialNotInvertible):
            gauss_moment_diamond(1, 1, K, K)


def test_lambda_series_container():
    ls = RatSeries((Fraction(1), Fraction(0), Fraction(-1, 32),
                    Fraction(1, 32)), 3)
    assert ls[2] == Fraction(-1, 32)
    with pytest.raises(InsufficientTerms,
                       match="series capped at degree 3, asked for 4"):
        ls[4]

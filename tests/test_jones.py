from fractions import Fraction
from math import factorial, isclose, pi, sin

import pytest

from so3inv.arith import odd_primes
from so3inv.cyclotomic import CycInt, eval_complex
from so3inv.errors import BoundViolation, EvenColor, So3InvError
from so3inv.jones import get_table, jones_unknot
from so3inv.series import RatSeries
from zq_reference import (expansion_check, qpow, s_div, seifert_beta_series,
                          sin_quotient_series)

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_unknot_basic_values():
    assert jones_unknot(1, 5) == CycInt.one(5)
    assert jones_unknot(-1, 5) == CycInt([-1], 5)
    assert jones_unknot(5, 5) == CycInt([], 5)
    assert jones_unknot(3, 5) == qpow(4, 5) + qpow(0, 5) + qpow(1, 5)


def test_unknot_rejects_even():
    with pytest.raises(EvenColor):
        jones_unknot(2, 5)


def test_unknot_symmetries():
    for K in (5, 7, 11):
        for a in range(-K + 2, K, 2):
            assert jones_unknot(-a, K) == jones_unknot(a, K) * -1
            assert jones_unknot(a + 2 * K, K) == jones_unknot(a, K)
            assert jones_unknot(a - 2 * K, K) == jones_unknot(a, K)


def test_unknot_numeric_embedding():
    for K in PRIMES_TO_31:
        for a in range(-K + 2, K, 2):
            z = eval_complex(jones_unknot(a, K), 40)
            want = sin(pi * a / K) / sin(pi / K)
            assert isclose(z.real, want, rel_tol=1e-12, abs_tol=1e-12)
            assert abs(z.imag) < 1e-12


def _sign_normalized_unknot(alpha, K):
    """[alpha] via alpha mod 2K: sign -1 past K, 0 at K, and the sum
    of q^(2*(1-r+2i)) over i < r at the representative r in (0, K)."""
    r = alpha % (2 * K)
    sgn = -1 if r > K else 1
    r = min(r, 2 * K - r)
    t2 = (K + 1) // 2
    return sum((qpow(t2 * (1 - r + 2 * i), K) for i in range(r % K)),
               CycInt([], K)) * sgn


def test_unknot_is_the_sign_normalized_quotient():
    # jones_unknot reads no sign or representative off alpha mod 2K; at
    # every odd alpha over four periods it must agree with that route
    for K in odd_primes(3, 61):
        for alpha in range(-4 * K - 1, 4 * K + 2, 2):
            assert jones_unknot(alpha, K) == _sign_normalized_unknot(alpha, K)


def test_unlink_multiplicativity_and_empty():
    t = get_table("unlink")
    assert t.exact((), 5) == CycInt.one(5)
    for K in (5, 7):
        for a in (1, 3, -3):
            for b in (1, -1, 5):
                lhs = t.exact((a, b), K)
                rhs = jones_unknot(a, K) * jones_unknot(b, K)
                assert lhs == rhs


def test_table_arity_enforced():
    with pytest.raises(So3InvError):
        get_table("unknot").exact((1, 3), 5)


def test_registry():
    assert get_table("unknot").id == "unknot"
    assert get_table("unlink").id == "unlink"
    with pytest.raises(So3InvError):
        get_table("figure-eight")


def test_sin_quotient_series_matches_values():
    s = sin_quotient_series(3, 8)
    # sin(3t)/sin(t) = 3 - 4 sin^2(t) = 2 cos(2t) + 1
    assert s.coeffs[0] == 3
    assert s.coeffs[1] == 0
    assert s.coeffs[2] == -4
    for c in range(1, 6):
        got = sin_quotient_series(c, 6)
        x = 0.1
        num = sum(float(v) * x ** n for n, v in enumerate(got.coeffs))
        assert isclose(num, sin(c * x) / sin(x), rel_tol=1e-5)


def _sin_quotient_by_division(c, cap):
    """sin(c*t)/sin(t) as the series quotient of sin(c*t)/t by sin(t)/t."""
    def sin_over_t(a):
        return RatSeries([Fraction((-1) ** (n // 2) * a ** (n + 1),
                                   factorial(n + 1))
                          if n % 2 == 0 else 0 for n in range(cap + 1)], cap)
    return s_div(sin_over_t(c), sin_over_t(1))


def test_sin_quotient_series_matches_division():
    for c in range(-8, 30):
        for cap in (0, 1, 7, 20):
            assert (sin_quotient_series(c, cap)
                    == _sin_quotient_by_division(c, cap)), (c, cap)


def test_expansion_check_unknot():
    coeffs = expansion_check(sin_quotient_series, 8, "unknot")
    assert coeffs[(0, 0)] == 1
    for (n, m), c in coeffs.items():
        assert n % 2 == 0  # even series in t


def _fibers(alphas):
    return lambda c, cap: seifert_beta_series(alphas, c, cap)


def test_expansion_check_seifert_three_fibers():
    coeffs = expansion_check(_fibers((2, 3, 5)), 6, "fibers 2,3,5")
    assert coeffs[(0, 0)] == 30  # product of the fiber colors
    expansion_check(_fibers((1, 1, 3)), 6, "fibers 1,1,3")


def test_expansion_check_flags_violation():
    # one term breaking each bound in turn: an odd power c^1 at t^0,
    # c^2 at t^0 (m = 1 > (3/4) * 0), c^6 at t^4 (m = 3 > 4 - 3)
    for n, power, msg in ((0, 1, "odd color power"),
                          (0, 2, r"exceeds \(3/4\)\*0"),
                          (4, 6, "exceeds 1 ")):
        def bad(c, cap):
            extra = RatSeries([0] * n + [c ** (power + 1)], cap)
            return sin_quotient_series(c, cap) + extra

        with pytest.raises(BoundViolation, match=msg):
            expansion_check(bad, 6, "bad")

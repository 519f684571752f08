from fractions import Fraction

import pytest

from so3inv.arith import (
    as_prime,
    inv_int,
    legendre,
    odd_primes,
    rat_residue,
    sign,
)
from so3inv.errors import DenominatorDivisibleByK, NotAnOddPrime, ZeroInverse
from zq_reference import even_inv

PRIMES_TO_101 = [p for p in range(3, 102)
                 if all(p % d for d in range(2, p)) and p > 2]


def test_primek_accepts_odd_primes():
    for p in PRIMES_TO_101:
        assert as_prime(p) == p
        assert type(as_prime(p)) is int
        assert as_prime(p) == p  # now from the cache


# the prime ranges the acceptance criteria iterate over, with their primes
ACCEPTANCE_RANGES = {
    (3, 101): (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
               61, 67, 71, 73, 79, 83, 89, 97, 101),
    (5, 23): (5, 7, 11, 13, 17, 19, 23),
    (7, 19): (7, 11, 13, 17, 19),
    (5, 31): (5, 7, 11, 13, 17, 19, 23, 29, 31),
    (7, 23): (7, 11, 13, 17, 19, 23),
}


def test_odd_primes_acceptance_ranges():
    for (lo, hi), want in ACCEPTANCE_RANGES.items():
        assert odd_primes(lo, hi) == want


def test_odd_primes_edges():
    assert odd_primes(-10, 2) == ()
    assert odd_primes(0, 3) == (3,)
    assert odd_primes(8, 10) == ()
    assert odd_primes(9, 11) == (11,)
    assert odd_primes(3, 102) == tuple(PRIMES_TO_101)


def test_sign():
    assert [sign(v) for v in (-7, 0, 3, Fraction(-1, 2))] == [-1, 0, 1, -1]


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -7, 21, 5.0, True])
def test_primek_rejects_non_odd_primes(bad):
    as_prime(5)  # 5.0 == 5 is cached and must still be rejected
    with pytest.raises(NotAnOddPrime):
        as_prime(bad)
    with pytest.raises(NotAnOddPrime):  # a failed check is not cached
        as_prime(bad)


def test_quarter_inverse_centered_identity():
    # with kappa = legendre(-1, K), (1 - kappa*K)/4 is an integer and is
    # the centered representative of the inverse of 4; this pins the
    # kappa sign convention.
    for K in PRIMES_TO_101:
        kap = legendre(-1, K)
        assert (1 - kap * K) % 4 == 0
        v = inv_int(4, K)
        centered = v - K if 2 * v > K else v
        assert centered == (1 - kap * K) // 4


def test_mod_inv_and_zero():
    for a in (3, -3, 14):
        assert inv_int(a, 11) * a % 11 == 1
        assert 0 <= inv_int(a, 11) < 11
    with pytest.raises(ZeroInverse):
        inv_int(0, 11)
    with pytest.raises(ZeroInverse):
        inv_int(22, 11)


def test_even_inv_examples():
    assert even_inv(3, 7) == -2
    assert even_inv(1, 5) == -4
    assert even_inv(2, 5) == -2


def test_even_inv_properties():
    for K in (3, 5, 7, 11, 13):
        for a in range(1, K):
            e = even_inv(a, K)
            assert e % 2 == 0
            assert -K < e < K
            assert (a * e) % K == 1


def test_legendre_euler_criterion():
    for K in (5, 7, 11, 13, 17):
        squares = {(x * x) % K for x in range(1, K)}
        for a in range(1, K):
            want = 1 if a in squares else -1
            assert legendre(a, K) == want
        assert legendre(0, K) == 0
        assert legendre(K, K) == 0


def test_legendre_multiplicative():
    for K in (7, 11, 13):
        for a in range(1, K):
            for b in range(1, K):
                assert legendre(a * b, K) == legendre(a, K) * legendre(b, K)


def test_rat_check_basic():
    assert rat_residue(Fraction(1, 2), 5) == 3
    assert rat_residue(Fraction(-3, 4), 7) == 1
    assert rat_residue(Fraction(0, 3), 5) == 0
    assert rat_residue(-9, 7) == 5
    assert type(rat_residue(Fraction(1, 2), 5)) is int
    # a K in the numerator may cancel one in the denominator
    assert rat_residue(Fraction(10, 15), 5) == rat_residue(Fraction(2, 3), 5)


def test_rat_check_denominator_divisible():
    with pytest.raises(DenominatorDivisibleByK):
        rat_residue(Fraction(1, 10), 5)
    with pytest.raises(DenominatorDivisibleByK):
        rat_residue(Fraction(3, 14), 7)


def test_rat_check_is_ring_hom():
    K = 13
    pairs = [(1, 2), (-3, 4), (5, 6), (7, 9), (-11, 8)]
    for n1, d1 in pairs:
        for n2, d2 in pairs:
            f1, f2 = Fraction(n1, d1), Fraction(n2, d2)
            s = f1 + f2
            p = f1 * f2
            r1, r2 = rat_residue(f1, K), rat_residue(f2, K)
            assert rat_residue(s, K) == (r1 + r2) % K
            assert rat_residue(p, K) == r1 * r2 % K
            assert 0 <= rat_residue(s, K) < K

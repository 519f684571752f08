from fractions import Fraction

import pytest

from so3inv.arith import (
    PrimeK,
    Residue,
    even_inv,
    inv_int,
    kappa_of,
    legendre,
    mod_inv,
    odd_primes,
    rat_check,
    rat_residue,
    sign,
)
from so3inv.errors import (
    DenominatorDivisibleByK,
    MixedModulus,
    NotAnOddPrime,
    ZeroInverse,
)

PRIMES_TO_101 = [p for p in range(3, 102)
                 if all(p % d for d in range(2, p)) and p > 2]


def test_primek_accepts_odd_primes():
    for p in PRIMES_TO_101:
        pk = PrimeK(p)
        assert pk.K == p
        assert pk.k == p - 2


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


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -7, 21])
def test_primek_rejects_non_odd_primes(bad):
    with pytest.raises(NotAnOddPrime):
        PrimeK(bad)


def test_kappa_values():
    assert kappa_of(7) == -1
    assert kappa_of(5) == 1
    assert kappa_of(13) == 1
    assert kappa_of(3) == -1


def test_kappa_is_legendre_of_minus_one():
    for K in PRIMES_TO_101:
        assert kappa_of(K) == legendre(-1, K)


def test_quarter_inverse_centered_identity():
    # (1 - kappa*K)/4 is an integer and is the centered representative
    # of the inverse of 4; this pins the kappa sign convention.
    for K in PRIMES_TO_101:
        kap = kappa_of(K)
        assert (1 - kap * K) % 4 == 0
        centered = Residue(inv_int(4, K), K).centered()
        assert centered == (1 - kap * K) // 4


def test_residue_canonical_range():
    r = Residue(-3, 7)
    assert r.value == 4
    assert int(Residue(7, 7)) == 0


def test_residue_ring_ops():
    a = Residue(3, 7)
    b = Residue(5, 7)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (a * b).value == 1
    assert (a + 4).value == 0
    assert (2 * a).value == 6
    assert (a ** 3).value == 27 % 7
    assert (a ** -1) == b


def test_residue_mixed_modulus_raises():
    with pytest.raises(MixedModulus):
        Residue(1, 5) + Residue(1, 7)


def test_mod_inv_and_zero():
    r = Residue(3, 11)
    assert (mod_inv(r) * r).value == 1
    with pytest.raises(ZeroInverse):
        mod_inv(Residue(0, 11))
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
    assert rat_check(1, 2, 5) == Residue(3, 5)
    assert rat_check(-3, 4, 7) == Residue(1, 7)
    assert rat_check(0, 3, 5) == Residue(0, 5)
    # a K in the numerator may cancel one in the denominator
    assert rat_check(10, 15, 5) == rat_check(2, 3, 5)


def test_rat_check_denominator_divisible():
    with pytest.raises(DenominatorDivisibleByK):
        rat_check(1, 10, 5)
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
            assert rat_residue(s, K) == rat_residue(f1, K) + rat_residue(f2, K)
            assert rat_residue(p, K) == rat_residue(f1, K) * rat_residue(f2, K)

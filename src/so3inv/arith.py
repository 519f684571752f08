"""Modular arithmetic at an odd prime level.

The whole package works at a fixed odd prime K (the shifted level).
This module provides the prime check and the one primality routine,
the modular inverse as a residue in [0, K), Legendre symbols, and
reduction of rationals with K-coprime denominator.  Primes and residues
are plain ints.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DenominatorDivisibleByK, NotAnOddPrime, ZeroInverse


def _is_prime(n: int) -> bool:
    """Trial-division primality check; fine for the sizes we use."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_primes(lo: int, hi: int) -> tuple:
    """The odd primes in [lo, hi], ascending."""
    return tuple(n for n in range(max(lo, 3) | 1, hi + 1, 2) if _is_prime(n))


def sign(v) -> int:
    """-1, 0 or +1, the sign of v."""
    return (v > 0) - (v < 0)


_VALIDATED: set = set()


def as_prime(K) -> int:
    """K itself, once checked to be an odd prime; each int is checked once.

    Only exact ints pass: 5.0 and True compare equal to ints but are
    rejected, as are 2, 9 and anything else that is not an odd prime.
    """
    if type(K) is int and K in _VALIDATED:
        return K
    if type(K) is not int or K == 2 or not _is_prime(K):
        raise NotAnOddPrime(f"K must be an odd prime, got {K!r}")
    _VALIDATED.add(K)
    return K


def inv_int(a: int, K: int) -> int:
    """Inverse of a mod K as a plain int in [0, K).

    >>> inv_int(3, 7)
    5
    >>> inv_int(-3, 7)
    2
    """
    a %= K
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {K}")
    return pow(a, -1, K)


def legendre(a: int, K: int) -> int:
    """Legendre symbol of a at the odd prime K, in {-1, 0, 1}."""
    a %= K
    if a == 0:
        return 0
    t = pow(a, (K - 1) // 2, K)
    return 1 if t == 1 else -1


def rat_residue(f: Fraction, K: int) -> int:
    """The image of the rational f in Z/K, as an int in [0, K).

    Raises DenominatorDivisibleByK when the reduced denominator
    vanishes mod K, since f then has no image in Z/K.
    """
    f = Fraction(f)
    if f.denominator % K == 0:
        raise DenominatorDivisibleByK(
            f"{f.numerator}/{f.denominator} has no reduction mod {K}")
    return f.numerator * inv_int(f.denominator, K) % K

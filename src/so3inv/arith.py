"""Modular arithmetic at an odd prime level.

The whole package works at a fixed odd prime K (the shifted level).
This module provides the prime wrapper and the one primality routine,
canonical residues, modular inverses in the normalizations the
invariant formulas need (plain, even-representative, centered),
Legendre symbols, and reduction of rationals with K-coprime
denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DenominatorDivisibleByK,
    MixedModulus,
    NotAnOddPrime,
    ZeroInverse,
)


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


class PrimeK:
    """An odd prime K = k + 2 where k is the coupling level.

    kappa is +1 when K = 1 (mod 4) and -1 when K = 3 (mod 4), i.e. the
    Legendre symbol of -1 at K.
    """

    __slots__ = ("K", "k", "kappa")

    def __init__(self, K: int):
        if not isinstance(K, int) or K == 2 or not _is_prime(K):
            raise NotAnOddPrime(f"K must be an odd prime, got {K!r}")
        self.K = K
        self.k = K - 2
        self.kappa = 1 if K % 4 == 1 else -1

    def __eq__(self, other):
        return isinstance(other, PrimeK) and other.K == self.K

    def __hash__(self):
        return hash(("PrimeK", self.K))

    def __repr__(self):
        return f"PrimeK({self.K})"


def as_prime(K) -> PrimeK:
    """Coerce an int or PrimeK to PrimeK."""
    return K if isinstance(K, PrimeK) else PrimeK(K)


class Residue:
    """An element of Z/K with canonical value in [0, K).

    Arithmetic between residues at different moduli raises MixedModulus.
    Plain ints mix in freely and are reduced first.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.modulus = modulus
        self.value = value % modulus

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise MixedModulus(
                    f"moduli differ: {self.modulus} vs {other.modulus}")
            return other
        if isinstance(other, int):
            return Residue(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return mod_inv(self) ** (-n)
        return Residue(pow(self.value, n, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, Residue):
            return (self.modulus == other.modulus
                    and self.value == other.value)
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Residue({self.value}, mod {self.modulus})"

    def centered(self) -> int:
        """The representative in (-K/2, K/2)."""
        v = self.value
        return v - self.modulus if 2 * v > self.modulus else v


def mod_inv(r: Residue) -> Residue:
    """Multiplicative inverse of a nonzero residue."""
    if r.value % r.modulus == 0:
        raise ZeroInverse(f"0 has no inverse mod {r.modulus}")
    return Residue(pow(r.value, -1, r.modulus), r.modulus)


def inv_int(a: int, K: int) -> int:
    """Inverse of a mod K as a plain int in [0, K)."""
    a %= K
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {K}")
    return pow(a, -1, K)


def even_inv(a: int, K: int) -> int:
    """The unique even e in (-K, K) with a*e = 1 (mod K).

    Of the two representatives e0 and e0 - K of the inverse, exactly one
    is even because K is odd.

    >>> even_inv(3, 7)
    -2
    >>> even_inv(1, 5)
    -4
    """
    e = inv_int(a, K)
    return e if e % 2 == 0 else e - K


def legendre(a: int, K: int) -> int:
    """Legendre symbol of a at the odd prime K, in {-1, 0, 1}."""
    a %= K
    if a == 0:
        return 0
    t = pow(a, (K - 1) // 2, K)
    return 1 if t == 1 else -1


def rat_check(num: int, den: int, K: int) -> Residue:
    """Reduce the rational num/den mod K.

    Raises DenominatorDivisibleByK when the reduced denominator
    vanishes mod K, since the rational then has no image in Z/K.
    """
    f = Fraction(num, den)
    if f.denominator % K == 0:
        raise DenominatorDivisibleByK(
            f"{num}/{den} has no reduction mod {K}")
    return Residue(f.numerator * inv_int(f.denominator, K), K)


def rat_residue(f: Fraction, K: int) -> Residue:
    """rat_check for an already-built Fraction."""
    return rat_check(f.numerator, f.denominator, K)


def kappa_of(K: int) -> int:
    """+1 when K = 1 (mod 4), else -1; equals legendre(-1, K)."""
    as_prime(K)
    return 1 if K % 4 == 1 else -1

"""Exact arithmetic in Z[q] for q a primitive K-th root of unity.

Elements are stored on the power basis {1, q, ..., q^(K-2)} with the
relation 1 + q + ... + q^(K-1) = 0 folding the top power down.  The
parallel XPoly view rewrites the same element as an integer polynomial
in x = q - 1; powers of x filtered mod K (the x-adic order and the
diamond truncation) are what connect exact invariants to their
rational series images.

Quadratic sums run over the K odd residue classes mod 2K, represented
by the odd integers in [2-K, K].  The class of K itself contributes
q^0-type terms; dropping it breaks the completed-square identity.
"""

from __future__ import annotations

from typing import Sequence

from .arith import as_prime
from .errors import (
    IntegralityFailure,
    MixedModulus,
    NotAUnit,
)
from .series import TruncPoly


def odd_window(K: int) -> range:
    """The odd representatives of the residue classes mod 2K."""
    return range(2 - K, K + 1, 2)


class CycInt:
    """An element of Z[q] on the basis {1, q, ..., q^(K-2)}."""

    __slots__ = ("K", "coeffs")

    def __init__(self, coeffs: Sequence[int], K: int):
        as_prime(K)
        cs = [int(c) for c in coeffs[:K - 1]]
        cs.extend([0] * (K - 1 - len(cs)))
        self.K = K
        self.coeffs = tuple(cs)

    @staticmethod
    def zero(K: int) -> "CycInt":
        return CycInt([], K)

    @staticmethod
    def one(K: int) -> "CycInt":
        return CycInt([1], K)

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.K != self.K:
                raise MixedModulus(f"primes differ: {self.K} vs {other.K}")
            return other
        if isinstance(other, int):
            return CycInt([other], self.K)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycInt([a + b for a, b in zip(self.coeffs, o.coeffs)], self.K)

    __radd__ = __add__

    def __neg__(self):
        return CycInt([-c for c in self.coeffs], self.K)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        K = self.K
        full = [0] * K
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        full[(i + j) % K] += a * b
        top = full[K - 1]
        return CycInt([full[i] - top for i in range(K - 1)], K)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycInt":
        if n < 0:
            return invert_unit(self) ** (-n)
        result = CycInt.one(self.K)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.K, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        return "CycInt(" + (" + ".join(terms) or "0") + f"; K={self.K})"

    def galois(self, j: int) -> "CycInt":
        """Apply the automorphism q -> q^j (j coprime to K)."""
        out = CycInt.zero(self.K)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + qpow(i * j, self.K) * c
        return out

    def conj(self) -> "CycInt":
        """Complex conjugation, q -> q^(-1)."""
        return self.galois(self.K - 1)


def qpow(n: int, K: int) -> CycInt:
    """q^n as a basis element (top power folded down)."""
    n %= K
    if n == K - 1:
        return CycInt([-1] * (K - 1), K)
    coeffs = [0] * (K - 1)
    coeffs[n] = 1
    return CycInt(coeffs, K)


class XPoly:
    """The same ring element written as an integer polynomial in x = q - 1."""

    __slots__ = ("K", "coeffs")

    def __init__(self, coeffs: Sequence[int], K: int):
        as_prime(K)
        cs = [int(c) for c in coeffs[:K - 1]]
        cs.extend([0] * (K - 1 - len(cs)))
        self.K = K
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return (isinstance(other, XPoly) and other.K == self.K
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash(("x", self.K, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*x^{n}" for n, c in enumerate(self.coeffs) if c]
        return "XPoly(" + (" + ".join(terms) or "0") + f"; K={self.K})"


def to_xpoly(a: CycInt) -> XPoly:
    """Rewrite on the x-basis via q^i = (1+x)^i."""
    K = a.K
    out = [0] * (K - 1)
    row = [1] + [0] * (K - 2)  # (1+x)^i, starting at i=0
    for i, c in enumerate(a.coeffs):
        if c:
            for d in range(K - 1):
                out[d] += c * row[d]
        # Pascal step: multiply by (1+x), truncation is exact because
        # (1+x)^i has degree i <= K-2 within this loop
        row = [row[d] + (row[d - 1] if d else 0) for d in range(K - 1)]
    return XPoly(out, K)


def from_xpoly(p: XPoly) -> CycInt:
    """Inverse bijection: substitute x = q - 1."""
    K = p.K
    out = CycInt.zero(K)
    base = CycInt.one(K)
    xq = qpow(1, K) - 1
    for c in p.coeffs:
        if c:
            out = out + base * c
        base = base * xq
    return out


def x_order(a: CycInt) -> int:
    """First power of x whose coefficient is nonzero mod K (capped at K-1)."""
    xp = to_xpoly(a)
    n = 0
    while n < a.K - 1 and xp.coeffs[n] % a.K == 0:
        n += 1
    return n


def diamond(a: CycInt) -> TruncPoly:
    """The mod-K series shadow: x-coefficients up to degree (K-1)/2."""
    xp = to_xpoly(a)
    d = (a.K - 1) // 2
    return TruncPoly([xp.coeffs[n] % a.K for n in range(d + 1)], a.K)


def gauss_sum(c: int, K: int) -> CycInt:
    """Sum of q^(c*a^2) over the K odd classes a mod 2K."""
    out = [0] * (K - 1)
    top = 0
    for a in odd_window(K):
        e = (c * a * a) % K
        if e == K - 1:
            top += 1
        else:
            out[e] += 1
    return CycInt([out[i] - top for i in range(K - 1)], K)


def odd_gauss_moment(p: int, m: int, K: int) -> CycInt:
    """Sum of a^(2m) * q^(p*a^2) over the odd class window."""
    acc = CycInt.zero(K)
    for a in odd_window(K):
        acc = acc + qpow(p * a * a, K) * (a ** (2 * m))
    return acc


def norm(a: CycInt) -> int:
    """Field norm: product of all Galois conjugates, a rational integer."""
    prod = CycInt.one(a.K)
    for j in range(1, a.K):
        prod = prod * a.galois(j)
    if any(c for c in prod.coeffs[1:]):
        raise IntegralityFailure(f"norm not rational: {prod!r}")
    return prod.coeffs[0]


def invert_unit(a: CycInt) -> CycInt:
    """Inverse of a unit of Z[q].

    The product of the proper conjugates divided by the norm; an
    element is a unit exactly when the norm is +-1, so anything else
    raises NotAUnit.
    """
    prod = CycInt.one(a.K)
    for j in range(2, a.K):
        prod = prod * a.galois(j)
    nrm = prod * a
    if any(c for c in nrm.coeffs[1:]) or nrm.coeffs[0] not in (1, -1):
        raise NotAUnit(f"norm is not a unit: {a!r}")
    return prod * nrm.coeffs[0]


def divide_exact(a: CycInt, n: int) -> CycInt:
    """a / n for an integer n that divides every coefficient of a."""
    if any(c % n for c in a.coeffs):
        raise IntegralityFailure(f"coefficients not divisible by {n}")
    return CycInt([c // n for c in a.coeffs], a.K)


def unit_u(K: int) -> CycInt:
    """The unit u with u * gauss_sum(1) = x^((K-1)/2).

    Since gauss_sum(1) * conj(gauss_sum(1)) = K, the quotient is
    x^((K-1)/2) * gauss_sum(-1) / K, and the division must be exact.
    """
    g1 = gauss_sum(1, K)
    xq = qpow(1, K) - 1
    u = divide_exact(xq ** ((K - 1) // 2) * gauss_sum(-1, K), K)
    if u * g1 != xq ** ((K - 1) // 2):
        raise IntegralityFailure("unit normalization check failed")
    return u


def sine_quotient(c: int, K: int) -> CycInt:
    """Exact ratio (q^(-2*c) - q^(2*c)) / (q^(-2*) - q^(2*)).

    Here 2* is the inverse of 2 mod K and c is reduced to [0, K).  The
    geometric form sum_{i<c} q^(2*(1-c+2i)) makes the division exact.
    """
    t2 = (K + 1) // 2
    c %= K
    acc = CycInt.zero(K)
    for i in range(c):
        acc = acc + qpow(t2 * (1 - c + 2 * i), K)
    return acc


def eval_complex(a: CycInt, precision: int = 50):
    """Embed into C with q = exp(2*pi*i/K), at `precision` digits."""
    import mpmath

    with mpmath.workdps(precision):
        q = mpmath.e ** (2j * mpmath.pi / a.K)
        return complex(sum(c * q ** i for i, c in enumerate(a.coeffs) if c))

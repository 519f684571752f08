"""Exact arithmetic in Z[q] for q a primitive K-th root of unity.

Elements are stored on the power basis {1, q, ..., q^(K-2)} with the
relation 1 + q + ... + q^(K-1) = 0 folding the top power down.  Sums
of many q-power terms are accumulated as K exponent counts (slot e for
q^e, so multiplying by q^f is an index shift) and folded once.  The
parallel XPoly view rewrites the same element as an integer polynomial
in x = q - 1; powers of x filtered mod K (the x-adic order and the
diamond truncation) are what connect exact invariants to their
rational series images.

The module also owns the one table of floating-point values in the
package, `unit_roots`: the roots of unity (mpmath, imported on first
use) behind `eval_complex` and the numeric surgery oracle.

Quadratic sums run over the K odd residue classes mod 2K, represented
by the odd integers in [2-K, K].  The class of K itself contributes
q^0-type terms; dropping it breaks the completed-square identity.
"""

from __future__ import annotations

from operator import add, neg, sub
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
            return _raw((int(other),) + (0,) * (self.K - 2), self.K)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _raw(tuple(map(add, self.coeffs, o.coeffs)), self.K)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(map(neg, self.coeffs)), self.K)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _raw(tuple(map(sub, self.coeffs, o.coeffs)), self.K)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _raw(tuple([c * other for c in self.coeffs]), self.K)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        K = self.K
        terms = [(j, b) for j, b in enumerate(o.coeffs) if b]
        full = [0] * (2 * K - 3)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    full[i + j] += a * b
        for e in range(K, 2 * K - 3):  # q^e = q^(e-K)
            full[e - K] += full[e]
        return _fold(full, K)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycInt":
        if n < 0:
            raise NotAUnit(f"CycInt ** {n}: inverses are not computed")
        result = self._coerce(1)
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
        K = self.K
        full = [0] * K
        for i, c in enumerate(self.coeffs):
            full[i * j % K] += c
        return _fold(full, K)


def _raw(coeffs: tuple, K: int) -> CycInt:
    """Trusted constructor for the ring operations.

    K was validated when the operands were built and coeffs is already
    a (K-1)-tuple of ints, so neither is checked or converted again.
    """
    a = object.__new__(CycInt)
    a.K = K
    a.coeffs = coeffs
    return a


def _fold(full, K: int) -> CycInt:
    """sum_e full[e] * q^e over e < K, with q^(K-1) folded down once."""
    top = full[K - 1]
    return _raw(tuple([c - top for c in full[:K - 1]]), K)


def from_counts(counts: Sequence[int], K: int) -> CycInt:
    """The element sum_e counts[e] * q^e, from K exponent counts.

    Closed-form sums accumulate into one such integer list by index
    arithmetic (q^e * q^f is slot (e + f) mod K) and build one CycInt.
    """
    as_prime(K)
    if len(counts) != K:
        raise MixedModulus(f"{len(counts)} exponent counts for K = {K}")
    return _fold(counts, K)


def qpow(n: int, K: int) -> CycInt:
    """q^n as a basis element (top power folded down)."""
    as_prime(K)
    n %= K
    if n == K - 1:
        return _raw((-1,) * (K - 1), K)
    coeffs = [0] * (K - 1)
    coeffs[n] = 1
    return _raw(tuple(coeffs), K)


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
    row = [1]  # the binomial row of (1+x)^i, degree i <= K-2
    for c in a.coeffs:
        if c:
            for d, r in enumerate(row):
                out[d] += c * r
        row = [1, *map(add, row, row[1:]), 1]  # Pascal step
    return XPoly(out, K)


def x_order(a: CycInt) -> int:
    """First power of x whose coefficient is nonzero mod K (capped at K-1)."""
    xp = to_xpoly(a)
    n = 0
    while n < a.K - 1 and xp.coeffs[n] % a.K == 0:
        n += 1
    return n


def diamond(a) -> TruncPoly:
    """The mod-K series shadow: x-coefficients up to degree (K-1)/2.

    `a` is a CycInt or its already computed XPoly expansion.
    """
    xp = a if isinstance(a, XPoly) else to_xpoly(a)
    d = (a.K - 1) // 2
    return TruncPoly([xp.coeffs[n] % a.K for n in range(d + 1)], a.K)


def gauss_sum(c: int, K: int) -> CycInt:
    """Sum of q^(c*a^2) over the K odd classes a mod 2K."""
    as_prime(K)
    full = [0] * K
    for a in odd_window(K):
        full[c * a * a % K] += 1
    return _fold(full, K)


def odd_gauss_moment(p: int, m: int, K: int) -> CycInt:
    """Sum of a^(2m) * q^(p*a^2) over the odd class window."""
    as_prime(K)
    full = [0] * K
    for a in odd_window(K):
        full[p * a * a % K] += a ** (2 * m)
    return _fold(full, K)


def divide_exact(a: CycInt, n: int) -> CycInt:
    """a / n for an integer n that divides every coefficient of a."""
    if any(c % n for c in a.coeffs):
        raise IntegralityFailure(f"coefficients not divisible by {n}")
    return _raw(tuple([c // n for c in a.coeffs]), a.K)


def divide_by_x(a: CycInt) -> CycInt:
    """a / (q - 1), exactly; IntegralityFailure unless q - 1 divides a.

    q - 1 divides a exactly when K divides a(1), the coefficient sum.
    Then a - t * Phi_K with t = a(1)/K is the same element and vanishes
    at q = 1, so synthetic division by q - 1 is exact over Z, in O(K).
    """
    K = a.K
    t, r = divmod(sum(a.coeffs), K)
    if r:
        raise IntegralityFailure(
            f"q - 1 does not divide: coefficient sum is {r} mod {K}")
    d = [0] * (K - 1)
    d[K - 2] = -t  # the q^(K-1) coefficient of a - t * Phi_K
    for i in range(K - 2, 0, -1):
        d[i - 1] = a.coeffs[i] - t + d[i]
    return _raw(tuple(d), K)


_UNITS: dict = {}


def unit_u(K: int) -> CycInt:
    """The unit u with u * gauss_sum(1) = x^((K-1)/2), built once per K.

    Since gauss_sum(1) * gauss_sum(1).galois(-1) = K, the quotient is
    x^((K-1)/2) * gauss_sum(-1) / K, and the division must be exact.
    """
    K = as_prime(K)
    if K not in _UNITS:
        g1 = gauss_sum(1, K)
        xq = qpow(1, K) - 1
        u = divide_exact(xq ** ((K - 1) // 2) * gauss_sum(-1, K), K)
        if u * g1 != xq ** ((K - 1) // 2):
            raise IntegralityFailure("unit normalization check failed")
        _UNITS[K] = u
    return _UNITS[K]


def sine_quotient(c: int, K: int) -> CycInt:
    """Exact ratio (q^(-2*c) - q^(2*c)) / (q^(-2*) - q^(2*)).

    Here 2* is the inverse of 2 mod K and c is reduced to [0, K).  The
    geometric form sum_{i<c} q^(2*(1-c+2i)) makes the division exact.
    """
    as_prime(K)
    t2 = (K + 1) // 2
    c %= K
    full = [0] * K
    for i in range(c):
        full[t2 * (1 - c + 2 * i) % K] += 1
    return _fold(full, K)


_ROOTS: dict = {}


def unit_roots(n: int) -> tuple:
    """(exp(2*pi*i*e/n) for e in range(n)) at mpmath's working precision.

    The one table of transcendental values: eval_complex and the
    surgery oracle read their roots of unity, sines (Im of roots of
    order 2K) and color factors (Im of roots of order K) from it.  It
    is built by expjpi once per (n, mpmath.mp.prec), so a table never
    serves another precision.
    """
    import mpmath

    key = (n, mpmath.mp.prec)
    roots = _ROOTS.get(key)
    if roots is None:
        roots = _ROOTS[key] = tuple(mpmath.expjpi(mpmath.mpf(2 * e) / n)
                                    for e in range(n))
    return roots


def eval_complex(a: CycInt, precision: int = 50) -> complex:
    """Embed into C with q = exp(2*pi*i/K), at `precision` digits.

    A component no larger than K * sum|c_i| * 10^(1 - precision), the
    rounding error the K - 1 products and sums can carry, is returned
    as 0.0: it is noise, not a digit of the value.
    """
    import mpmath

    with mpmath.workdps(precision):
        roots = unit_roots(a.K)
        z = sum(c * roots[i] for i, c in enumerate(a.coeffs) if c)
        noise = (a.K * sum(map(abs, a.coeffs))
                 * mpmath.mpf(10) ** (1 - precision))
        return complex(*(float(v) if abs(v) > noise else 0.0
                         for v in (z.real, z.imag)))

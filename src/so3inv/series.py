"""Truncated power series over Q and their reductions mod K.

RatSeries is a dense truncated series in x with Fraction coefficients;
s[n] reads the coefficient of x^n, InsufficientTerms past the cap.  The
lambda series of a manifold is one RatSeries, capped at n_max.
Its shadow mod an odd prime K (`shadow`, `vee`) is a plain tuple of
the (K+1)/2 residues through degree (K-1)/2: the largest window in
which cyclotomic integers leave a well-defined polynomial trace (see
cyclotomic.diamond).

The module also hosts the closed-form series of the invariant formulas,
one route each, in integers and with no product of two series: C(a/b, n)
(`binomial_terms`), u/sinh(u) from the tangent numbers
(`u_over_sinh_terms`), and the re-expansion at T = (1/2)log(1+x) times
e^(cT), shifted down one degree, as one triangle (`half_log_tail`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Sequence

from .arith import as_prime, inv_int
from .errors import (
    DenominatorDivisibleByK,
    InsufficientTerms,
    NonzeroConstantInExp,
)


def _over_lcm(coeffs) -> tuple:
    """The Fractions `coeffs` as (integer numerators, lcm denominator)."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class RatSeries:
    """A power series over Q truncated above degree `cap`.

    Mixing two series keeps the smaller cap, so precision never
    silently exceeds what both operands know.
    """

    __slots__ = ("coeffs", "cap", "_over")

    def __init__(self, coeffs: Sequence, cap: int):
        self.coeffs = (tuple(map(Fraction, coeffs[:cap + 1]))
                       + (Fraction(0),) * (cap + 1 - len(coeffs)))
        self.cap = cap
        self._over = None  # _over_lcm(coeffs), once vee has asked

    @staticmethod
    def const(v, cap: int) -> "RatSeries":
        return RatSeries([v], cap)

    def __getitem__(self, n: int) -> Fraction:
        if n > self.cap:
            raise InsufficientTerms(
                f"series capped at degree {self.cap}, asked for {n}")
        return self.coeffs[n]

    def _coerce(self, other):
        if isinstance(other, RatSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return RatSeries.const(other, self.cap)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = min(self.cap, o.cap)
        return RatSeries(
            [self.coeffs[n] + o.coeffs[n] for n in range(cap + 1)], cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar scales, in O(cap)
            return RatSeries([c * other for c in self.coeffs], self.cap)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = min(self.cap, o.cap)
        a, da = _over_lcm(self.coeffs[:cap + 1])
        b, db = _over_lcm(o.coeffs[:cap + 1])
        den = da * db
        return RatSeries([Fraction(sum(map(mul, a[:n + 1], b[n::-1])), den)
                          for n in range(cap + 1)], cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = min(self.cap, o.cap)
        return self.coeffs[:cap + 1] == o.coeffs[:cap + 1]

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = [f"{c}*x^{n}" for n, c in enumerate(self.coeffs) if c]
        return "RatSeries(" + (" + ".join(terms) or "0") + f"; cap={self.cap})"

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """Substitute `inner` (constant term 0) for x."""
        if inner.coeffs[0] != 0:
            raise NonzeroConstantInExp(
                "composition needs inner constant term 0")
        cap = min(self.cap, inner.cap)
        result = RatSeries.const(self.coeffs[cap], cap)
        for n in range(cap - 1, -1, -1):
            result = result * inner + self.coeffs[n]
        return result


def binomial_terms(a: int, b: int, cap: int) -> tuple:
    """prod_{i<n} (a - i*b) and b^n n!, n = 0..cap, as running products."""
    return (list(accumulate((a - i * b for i in range(cap)), mul, initial=1)),
            list(accumulate(range(b, b * cap + 1, b), mul, initial=1)))


def half_log_tail(F, c, cap: int) -> RatSeries:
    """[x^(n+1)] F(T) e^(cT), n = 0..cap, at T = (1/2)log(1+x).

    As e^((c+tau)T) = (1+x)^((c+tau)/2), [x^k] T^m e^(cT) = m! [tau^m]
    C((c+tau)/2, k), and for c = a/b that binomial is Q_k(tau) /
    ((2b)^k k!) with the integer polynomials Q_k = prod_{i<k} (a - 2ib
    + b tau), each from the last in one pass, cut at the degree of F.
    Coefficient n is then one dot product of Q_(n+1) with m! F_m over
    the common denominator of F.

    >>> half_log_tail([1], 1, 2).coeffs
    (Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))
    """
    a, b = c.numerator, c.denominator
    nums, den = _over_lcm(F)
    f = list(map(mul, nums, accumulate(range(1, len(nums)), mul, initial=1)))
    q, out = [1], []
    for k in range(cap + 1):
        s = a - 2 * k * b
        q = [s * u + b * v for u, v in zip(q + [0], [0] + q[:len(f) - 1])]
        den *= 2 * b * (k + 1)
        out.append(Fraction(sum(map(mul, f, q)), den))
    return RatSeries(out, cap)


def u_over_sinh_terms(cap: int) -> tuple:
    """u/sinh(u) = sum_n g_n t^n / (d (2n)!) at t = u^2, n <= cap, as the
    integers g_n and d: g_n / d = (2 - 4^n) B_2n = (-1)^n 2n T_n (4^n - 2)
    / (4^n (4^n - 1)) for n >= 1, over the tangent numbers T_n from the
    O(cap^2) small-integer recurrence of Brent and Harvey (arXiv:1108.0286).

    >>> u_over_sinh_terms(3)
    ([105, -35, 49, -155], 105)
    """
    T = [0] + list(accumulate(range(1, cap), mul, initial=1))  # (n-1)!
    for k in range(2, cap + 1):
        for j in range(k, cap + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return _over_lcm([Fraction(1)] + [Fraction(
        (-1) ** n * 2 * n * t * (4 ** n - 2), 4 ** n * (4 ** n - 1))
        for n, t in enumerate(T[1:cap + 1], 1)])


def shadow(coeffs: Sequence[int], K: int) -> tuple:
    """The mod-K window of a coefficient sequence: its (K+1)/2 entries
    through degree (K-1)/2, each a residue in [0, K), zero-padded."""
    as_prime(K)
    d = (K - 1) // 2
    cs = [int(c) % K for c in coeffs[:d + 1]]
    cs.extend([0] * (d + 1 - len(cs)))
    return tuple(cs)


def vee(s: RatSeries, K: int) -> tuple:
    """The `shadow` of a rational series: a (K+1)/2-tuple of residues
    in [0, K), lambda_n mod K for n <= (K-1)/2, computed over an lcm D
    of denominators: K divides D exactly when it divides one of them,
    so one test and one inverse of D do.  D is the whole series' lcm,
    kept with it across primes, unless K divides it; then the prefix
    read gets its own."""
    d = (as_prime(K) - 1) // 2
    if s.cap < d:
        raise InsufficientTerms(
            f"need lambda_n through n = {d}, have n_max = {s.cap}")
    if s._over is None:
        s._over = _over_lcm(s.coeffs)
    nums, den = s._over
    if den % K == 0:  # the whole series' guard: K divides a denominator
        nums, den = _over_lcm(s.coeffs[:d + 1])
    if den % K == 0:
        n, c = next((n, c) for n, c in enumerate(s.coeffs)
                    if c.denominator % K == 0)
        raise DenominatorDivisibleByK(
            f"coefficient of x^{n} = {c} has denominator divisible by {K}")
    inv = inv_int(den, K)
    return shadow([c * inv for c in nums[:d + 1]], K)

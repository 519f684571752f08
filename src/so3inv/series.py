"""Truncated power series over Q and their reductions mod K.

RatSeries is a dense truncated series in x with Fraction coefficients;
s[n] reads the coefficient of x^n, InsufficientTerms past the cap.  The
lambda series of a manifold is one RatSeries, capped at n_max.
Its shadow mod an odd prime K (`shadow`, `vee`) is a plain tuple of
the (K+1)/2 residues through degree (K-1)/2: the largest window in
which cyclotomic integers leave a well-defined polynomial trace (see
cyclotomic.diamond).

The module also hosts the closed-form series the invariant formulas
produce, one route each: the binomial coefficients C(a/b, n) in
integers (`binomial_terms`), sinh(u)/u and its reciprocal u/sinh(u) as
series in t = u^2, from which the Seifert fiber products are built, and
their re-expansion at T = (1/2)log(1+x) times e^(cT) = (1+x)^(c/2),
shifted down by one degree, as one triangle (`half_log_tail`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from operator import mul
from typing import Sequence

from .arith import as_prime, inv_int
from .errors import (
    DenominatorDivisibleByK,
    InsufficientTerms,
    NonzeroConstantInExp,
)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


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
        cs = [_frac(c) for c in coeffs[:cap + 1]]
        cs.extend([Fraction(0)] * (cap + 1 - len(cs)))
        self.coeffs = tuple(cs)
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


def sinh_over_u(a, cap: int) -> RatSeries:
    """sinh(u)/u at u^2 = a*t as a series in t: [t^n] = a^n / (2n+1)!."""
    a = _frac(a)
    facts = accumulate((2 * n * (2 * n + 1) for n in range(1, cap + 1)), mul,
                       initial=1)
    return RatSeries([a ** n / f for n, f in enumerate(facts)], cap)


@lru_cache(maxsize=32)
def u_over_sinh(cap: int) -> RatSeries:
    """u/sinh(u) as a series in t = u^2, [t^n] = g_n / (2n)!: as the
    reciprocal of sinh_over_u(1, cap), sum_{j<=n} C(2n+1, 2j) g_j = [n = 0]
    ((2n+1)! [t^n] of the product), so g_n = (2 - 2^(2n)) B_2n."""
    g = [Fraction(1)]
    for n in range(1, cap + 1):
        nums, den = _over_lcm(g)
        g.append(Fraction(-sum(comb(2 * n + 1, 2 * j) * c
                               for j, c in enumerate(nums)), den * (2 * n + 1)))
    return RatSeries([c / factorial(2 * n) for n, c in enumerate(g)], cap)


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

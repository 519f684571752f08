"""Truncated power series over Q and their reductions mod K.

RatSeries is a dense truncated series in x with Fraction coefficients.
TruncPoly is its shadow mod an odd prime K, truncated at degree
(K-1)/2: the largest window in which cyclotomic integers leave a
well-defined polynomial trace (see cyclotomic.diamond).

The module also hosts the closed-form series the invariant formulas
produce: (1+x)^r for rational r, finite exponential sums sum_k c_k e^(kw)
and their quotients (sinh quotients in u) for re-expansion at
T = (1/2)log(1+x), and Gaussian-moment images, one route each: e^(cT)
is (1+x)^(c/2) at T = (1/2)log(1+x), so `q_power` gives it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

from .arith import as_prime, inv_int, legendre, rat_residue
from .errors import (
    DenominatorDivisibleByK,
    FactorialNotInvertible,
    InsufficientTerms,
    NonUnitDivisor,
    NonzeroConstantInExp,
)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class RatSeries:
    """A power series over Q truncated above degree `cap`.

    Mixing two series keeps the smaller cap, so precision never
    silently exceeds what both operands know.
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Sequence, cap: int):
        cs = [_frac(c) for c in coeffs[:cap + 1]]
        cs.extend([Fraction(0)] * (cap + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.cap = cap

    @staticmethod
    def const(v, cap: int) -> "RatSeries":
        return RatSeries([v], cap)

    def coeff(self, n: int) -> Fraction:
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

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = min(self.cap, o.cap)
        out = [Fraction(0)] * (cap + 1)
        for i, a in enumerate(self.coeffs[:cap + 1]):
            if not a:
                continue
            for j in range(cap + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RatSeries(out, cap)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatSeries":
        if n < 0:
            return s_div(RatSeries.const(1, self.cap), self) ** (-n)
        result = RatSeries.const(1, self.cap)
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


def s_div(a: RatSeries, b: RatSeries) -> RatSeries:
    """Series quotient; divisor must have nonzero constant term."""
    if isinstance(b, (int, Fraction)):
        b = RatSeries.const(b, a.cap)
    if b.coeffs[0] == 0:
        raise NonUnitDivisor("division by a series with zero constant term")
    cap = min(a.cap, b.cap)
    inv0 = 1 / b.coeffs[0]
    out = [Fraction(0)] * (cap + 1)
    for n in range(cap + 1):
        acc = a.coeffs[n]
        for j in range(1, n + 1):
            acc -= b.coeffs[j] * out[n - j]
        out[n] = acc * inv0
    return RatSeries(out, cap)


def q_power(r, cap: int) -> RatSeries:
    """(1+x)^r for rational r, via the binomial series."""
    r = _frac(r)
    cs = [Fraction(1)]
    for n in range(1, cap + 1):
        cs.append(cs[-1] * (r - (n - 1)) / n)
    return RatSeries(cs, cap)


@lru_cache(maxsize=32)
def _half_log_powers(cap: int) -> tuple:
    """Rows n = 0..cap of the coefficients of T^k, T = (1/2)log(1+x).

    [x^n] T^k = k! s(n,k) / (n! 2^k) with s the signed Stirling numbers
    of the first kind, so row n is (w(n,0..n), n! 2^n) with the integers
    w(n,k) = k! s(n,k) 2^(n-k), built by w(n+1,k) = k w(n,k-1) - 2n w(n,k).
    """
    rows = [((1,), 1)]
    for n in range(cap):
        w, den = rows[-1]
        nxt = [0] + [k * c for k, c in enumerate(w, 1)]
        for k, c in enumerate(w):
            nxt[k] -= 2 * n * c
        rows.append((tuple(nxt), den * 2 * (n + 1)))
    return tuple(rows)


def at_half_log(s: RatSeries) -> RatSeries:
    """s(T) re-expanded in x, where T = (1/2)log(1+x); same cap as s.

    Equal to the Horner composition s.compose(T) with T written out as
    sum_{n>=1} (-1)^(n+1) x^n / (2n), but computed as one triangular
    matrix-vector product against the cached powers of T, over the
    common denominator of the coefficients of s.
    """
    den = lcm(*(c.denominator for c in s.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in s.coeffs]
    return RatSeries(
        [Fraction(sum(a * b for a, b in zip(nums, w)), den * d)
         for w, d in _half_log_powers(s.cap)], s.cap)


def exp_sum_series(num: dict, cap: int, den: dict = None) -> RatSeries:
    """sum_k c_k e^(kw), num = {k: c_k} with integer k, as a series in w:
    [w^n] = sum_k c_k k^n / n!.  Given den, the quotient num / den, the
    zero of den at w = 0 divided out of both before one s_div."""
    top = cap + 1 + len(den or ())  # a nonzero den has d < len(den)

    def expand(terms):
        return [Fraction(sum(c * k ** n for k, c in terms.items()),
                         factorial(n)) for n in range(top)]
    a, b = expand(num), expand(den or {0: 1})
    d = next((n for n, v in enumerate(b) if v), 0)
    if any(a[:d]):
        raise NonUnitDivisor(f"numerator does not vanish to order {d}")
    a, b = RatSeries(a[d:], cap), RatSeries(b[d:], cap)
    return a if den is None else s_div(a, b)


class TruncPoly:
    """A polynomial mod K truncated above degree (K-1)/2."""

    __slots__ = ("K", "coeffs")

    def __init__(self, coeffs: Sequence[int], K: int):
        as_prime(K)
        d = (K - 1) // 2
        cs = [int(c) % K for c in coeffs[:d + 1]]
        cs.extend([0] * (d + 1 - len(cs)))
        self.K = K
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.K == other.K and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.K, self.coeffs))

    def __repr__(self):
        return f"TruncPoly({list(self.coeffs)}, mod {self.K})"


@dataclass(frozen=True)
class LambdaSeries:
    """An Ohtsuki-type series: lambda_0 .. lambda_{n_max} for a manifold.

    Reconstruction also records the per-n CRT modulus, the primes used
    and the primes skipped, as (K, error class name) pairs; a closed
    form leaves them empty."""

    manifold: str
    n_max: int
    values: tuple
    provenance: str  # "closed-form" or "reconstruction"
    moduli: tuple = ()
    primes_used: tuple = ()
    skipped: tuple = ()

    def __post_init__(self):
        if len(self.values) != self.n_max + 1:
            raise InsufficientTerms(
                f"need {self.n_max + 1} values, got {len(self.values)}")

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def vee(s: RatSeries, K: int) -> TruncPoly:
    """Reduce a rational series mod K and truncate at degree (K-1)/2."""
    d = (K - 1) // 2
    if s.cap < d:
        raise InsufficientTerms(
            f"series capped at {s.cap}, need degree {d} for K={K}")
    out = []
    for n in range(d + 1):
        c = s.coeffs[n]
        if c.denominator % K == 0:
            raise DenominatorDivisibleByK(
                f"coefficient of x^{n} = {c} has denominator divisible by {K}")
        out.append(rat_residue(c, K))
    return TruncPoly(out, K)


def x_over_log_pow(m: int, K: int) -> TruncPoly:
    """[x / log(1+x)]^m reduced mod K."""
    d = (K - 1) // 2
    ratio = s_div(RatSeries.const(1, d),
                  RatSeries([Fraction((-1) ** n, n + 1)
                             for n in range(d + 1)], d))
    return vee(ratio ** m, K)


def gauss_moment_diamond(p: int, q: int, m: int, K: int) -> TruncPoly:
    """Series image of the m-th odd Gaussian moment at exponent p/q.

    Returns the mod-K truncated series whose low-degree coefficients
    (degrees below (K+1)/2 - m) match the reduction of the exact
    cyclotomic moment normalized by the inverse quadratic sum.
    """
    as_prime(K)
    if m >= K:
        raise FactorialNotInvertible(f"{m}! is divisible by {K}")
    qs = inv_int(q, K)
    ps = inv_int(p, K)
    leg = legendre(p * qs, K)
    scalar = (-1) ** m * leg
    scalar *= pow(ps * q % K, m, K)
    scalar *= pow(inv_int(2, K), 2 * m, K)
    scalar = scalar * (factorial(2 * m) % K) % K
    scalar = scalar * inv_int(factorial(m) % K, K) % K
    return TruncPoly([c * scalar for c in x_over_log_pow(m, K).coeffs], K)

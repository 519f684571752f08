"""Truncated power series over Q and their reductions mod K.

RatSeries is a dense truncated series in x with Fraction coefficients.
TruncPoly is its shadow mod an odd prime K, truncated at degree
(K-1)/2: the largest window in which cyclotomic integers leave a
well-defined polynomial trace (see cyclotomic.diamond).

The module also hosts the closed-form series the invariant formulas
produce: (1+x)^r for rational r, sinh-quotients in the variable
T = (1/2)log(1+x), Gaussian-moment images, and the conversion between
a lambda series and the exponential coefficients of its logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .arith import Residue, as_prime, inv_int, legendre, rat_residue
from .errors import (
    BadNormalization,
    DenominatorDivisibleByK,
    FactorialNotInvertible,
    InsufficientTerms,
    MixedModulus,
    NonUnitDivisor,
    NonzeroConstantInExp,
)

DEFAULT_CAP = 12


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class RatSeries:
    """A power series over Q truncated above degree `cap`.

    Mixing two series keeps the smaller cap, so precision never
    silently exceeds what both operands know.
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Sequence, cap: int = DEFAULT_CAP):
        cs = [_frac(c) for c in coeffs[:cap + 1]]
        cs.extend([Fraction(0)] * (cap + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.cap = cap

    @staticmethod
    def zero(cap: int = DEFAULT_CAP) -> "RatSeries":
        return RatSeries([], cap)

    @staticmethod
    def const(v, cap: int = DEFAULT_CAP) -> "RatSeries":
        return RatSeries([v], cap)

    @staticmethod
    def x(cap: int = DEFAULT_CAP) -> "RatSeries":
        return RatSeries([0, 1], cap)

    def coeff(self, n: int) -> Fraction:
        if n > self.cap:
            raise InsufficientTerms(
                f"series capped at degree {self.cap}, asked for {n}")
        return self.coeffs[n]

    def truncate(self, cap: int) -> "RatSeries":
        return RatSeries(self.coeffs, min(cap, self.cap))

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

    def __neg__(self):
        return RatSeries([-c for c in self.coeffs], self.cap)

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


def s_exp(a: RatSeries) -> RatSeries:
    """exp of a series with zero constant term."""
    if a.coeffs[0] != 0:
        raise NonzeroConstantInExp("exp needs zero constant term")
    cap = a.cap
    out = RatSeries.const(1, cap)
    term = RatSeries.const(1, cap)
    for n in range(1, cap + 1):
        term = term * a * Fraction(1, n)
        out = out + term
    return out


def s_log(a: RatSeries) -> RatSeries:
    """log of a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadNormalization("log needs constant term 1")
    h = a - 1
    cap = a.cap
    out = RatSeries.zero(cap)
    term = RatSeries.const(-1, cap)
    for n in range(1, cap + 1):
        term = term * (-h)
        out = out + term * Fraction(1, n)
    return out


def log1p(cap: int = DEFAULT_CAP) -> RatSeries:
    """log(1+x) as a truncated series."""
    return RatSeries(
        [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, cap + 1)], cap)


def q_power(r, cap: int = DEFAULT_CAP) -> RatSeries:
    """(1+x)^r for rational r, via the binomial series."""
    r = _frac(r)
    cs = [Fraction(1)]
    for n in range(1, cap + 1):
        cs.append(cs[-1] * (r - (n - 1)) / n)
    return RatSeries(cs, cap)


def half_log_t(cap: int = DEFAULT_CAP) -> RatSeries:
    """T(x) = (1/2) log(1+x), the substitution variable."""
    return log1p(cap) * Fraction(1, 2)


def sinh_over_t(cap: int = DEFAULT_CAP) -> RatSeries:
    """sinh(t)/t as a series in t."""
    return RatSeries([Fraction(1, factorial(n + 1)) if n % 2 == 0 else 0
                      for n in range(cap + 1)], cap)


def sinh_quotient_u(a, cap: int) -> RatSeries:
    """sinh(a*u)/sinh(u) as a series in u."""
    a = _frac(a)
    if a == 0:
        return RatSeries.zero(cap)
    den = sinh_over_t(cap)
    num = [a ** (n + 1) * c for n, c in enumerate(den.coeffs)]
    return s_div(RatSeries(num, cap), den)


def sinh_ratio(a, cap: int = DEFAULT_CAP) -> RatSeries:
    """sinh(a*T)/sinh(T) at T = (1/2)log(1+x), as a series in x.

    Constant term is a; identically 1 at a=1 and 0 at a=0.
    """
    return sinh_quotient_u(a, cap).compose(half_log_t(cap))


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

    def _coerce(self, other):
        if isinstance(other, TruncPoly):
            if other.K != self.K:
                raise MixedModulus(f"primes differ: {self.K} vs {other.K}")
            return other
        if isinstance(other, (int, Residue)):
            return TruncPoly([int(other)], self.K)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return TruncPoly(
            [a + b for a, b in zip(self.coeffs, o.coeffs)], self.K)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly([-c for c in self.coeffs], self.K)

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
        d = len(self.coeffs)
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(d - i):
                    out[i + j] += a * o.coeffs[j]
        return TruncPoly(out, self.K)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncPoly":
        result = TruncPoly([1], self.K)
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
        return f"TruncPoly({list(self.coeffs)}, mod {self.K})"


@dataclass(frozen=True)
class LambdaSeries:
    """An Ohtsuki-type series: lambda_0 .. lambda_{n_max} for a manifold."""

    manifold: str
    n_max: int
    values: tuple
    provenance: str  # "closed-form" or "reconstruction"

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
        out.append(rat_residue(c, K).value)
    return TruncPoly(out, K)


def log_vee(K: int) -> TruncPoly:
    """The x-adic logarithm series reduced mod K."""
    return vee(log1p((K - 1) // 2), K)


def binom_vee(m: int, K: int) -> Callable[[int], Residue]:
    """Evaluator mod K of the binomial polynomial y(y-1)...(y-m+1)/m!.

    Raises FactorialNotInvertible when m! is divisible by K.
    """
    as_prime(K)
    if m >= K:
        raise FactorialNotInvertible(f"{m}! is divisible by {K}")
    f_inv = inv_int(factorial(m) % K, K) if m else 1

    def evaluate(y) -> Residue:
        acc = 1
        yv = int(y)
        for i in range(m):
            acc = acc * (yv - i) % K
        return Residue(acc * f_inv, K)

    return evaluate


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
    return x_over_log_pow(m, K) * scalar


def lambda_from_S(S: Sequence, cap: int = DEFAULT_CAP) -> RatSeries:
    """Convert exponential coefficients S_1..S_N into a lambda series.

    S lists the coefficients of T^n (n starting at 1) in the exponent,
    where T = (1/2)log(1+x).  The result is
    [T/sinh(T)] * exp(sum S_n T^n) re-expanded in x.
    """
    t_over_sinh = s_div(RatSeries.const(1, cap), sinh_over_t(cap))
    expo = RatSeries([0] + [_frac(v) for v in S], cap)
    lam_t = t_over_sinh * s_exp(expo)
    return lam_t.compose(half_log_t(cap)).truncate(cap)


def S_from_lambda(lam: RatSeries, cap: int = DEFAULT_CAP) -> RatSeries:
    """Invert lambda_from_S: recover the exponent coefficients.

    Substitutes x = e^{2t} - 1, multiplies by sinh(t)/t and takes the
    series logarithm; coefficient of t^n is S_n.  The input must have
    constant term 1.
    """
    if lam.coeffs[0] != 1:
        raise BadNormalization(
            f"lambda_0 = {lam.coeffs[0]}, expected exactly 1")
    t_cap = min(cap, lam.cap)
    x_of_t = RatSeries(
        [0] + [Fraction(2 ** n, factorial(n)) for n in range(1, t_cap + 1)],
        t_cap)
    lam_t = RatSeries(lam.coeffs, t_cap).compose(x_of_t)
    return s_log(lam_t * sinh_over_t(t_cap))

"""Reference routes and the paper's lemma checks, for the tests only.

The older routes of the identity's two sides.  `to_xpoly_pascal`
expands q^i = (1+x)^i one Pascal row at a time; `vee_per_coefficient`
reduces each coefficient with its own inverse; `q_power_recurrence`
steps the binomial series with three Fraction operations per term;
`schoolbook_mul` is the Fraction double loop of a series product;
`identity_reference` is `ohtsuki.verify_identity` with nothing shared
across primes: `closed_zprime` afresh at every prime and each lambda_n
reduced on its own (`vee_per_coefficient`);
`seifert_cn_laurent` builds the Seifert multiplicity table in dict
Laurent algebra (`_laurent_mul`, and `_div_z_step`, which re-multiplies
to check each division).  The tests check the integer passes of
`so3inv` against them.  `h1_order` reads |H1| from a presentation's
fields alone, where the library keeps the `h1` its constructor derived.
`dedekind_sum` runs Euclid's algorithm over the reciprocity law in
`Fraction` steps; `nt.dedekind_sum` takes the same steps in integers.

The re-expansion at T = (1/2)log(1+x).  `at_half_log` substitutes T
in a series as one triangle of Stirling rows (`_half_log_powers`,
cached per cap), and `q_power` is (1+x)^r from the integer running
products of `binomial_terms`.  `seifert_lambda_half_log` is the older
tail of the Seifert lambda series built from them: the moments
re-expanded by `at_half_log`, divided by x and multiplied by
`q_power`.  The library takes that tail as one shifted triangle
(`series.half_log_tail`); the tests check it against these.

Single powers of q.  `qpow` builds q^n as one basis element; the
library sums q-powers as runs (`cyclotomic.from_runs`) instead.
`sine_quotient` is the quantized integer [c], the one run `sine_run`
gives.

Powers.  `cyc_pow` raises a `CycInt` element, and `ser_pow` a
`RatSeries`, its first argument, to a nonnegative power; the library
multiplies factor by factor, so only these two raise `NotAUnit`.

Division by x = q - 1 in Z[q].  `exact_p1` is the older exact route
to Z' of a P1 surgery, which the library now reads as the connected sum
of the lens spaces L(-p_j, 1): one factor per framing p (`_p1_factor`),
its color sum over the even inverse p* of p (`even_inv`) divided by the
Gauss sum with one exact division by K (`divide_exact`), which fails
with DivisibilityFailure unless the sum carries the guaranteed power
x^((K-1)/2).  `divide_by_x` and `unit_u` keep an older route still,
which strips that power one synthetic division at a time and
multiplies by the unit u = x^((K-1)/2) / gauss_sum(1), so the tests can
check the closed forms, the exact route and the moment identities
against independent methods.

The Gaussian-moment lemma.  `odd_gauss_moment` is the exact moment sum
in Z[q]; `gauss_moment_diamond` is its closed-form series image mod K,
built from the powers of x / log(1+x) (`x_over_log_pow`).

The full-level oracle.  `z_numeric` evaluates the normalized invariant
Z(M)/Z(S^3) at an odd prime K by direct summation over colors 1..K-1
per surgery component, through the same presentation and color sum
(`surgery._color_sum`) as `zprime_numeric`, with the full-level chain
weights (`_chain_weights`) and prefactor (`_z_prelude`), at `_dps`
digits: 50 + 2K unless given, the rule `zprime_numeric` kept before it
took its digits from an error bound.
`kirby_melvin_check` tests the Kirby-Melvin proportionality of the full
and odd-color invariants (Invent. Math. 105 (1991)).

The mpmath conversions.  `value_mpmath` and `eval_complex_mpmath` are
the older bodies of `surgery._value` and `cyclotomic.eval_complex`: the
prefactor as one `expjpi` over one mpmath square root times an `mpc`,
and the embedding converted through `mpf`.  The library computes both
in integers over `fixed_roots`; the tests check it against these.

The color-expansion lemma.  `expansion_check` verifies the structural
bounds on the color expansion around t = 0 of a one-color evaluation
given as a series, such as the unknot's `sin_quotient_series` or the
Seifert fiber evaluation `seifert_beta_series`.

Series division.  `s_div` is the quotient of two series by the
term-by-term Fraction recurrence.  `u_over_sinh` is the older u/sinh(u),
the reciprocal of `sinh_over_u` by a recurrence of its own, cached per
cap.  The library builds every series in integers with neither
(u/sinh(u) from the tangent numbers, `series.u_over_sinh_terms`), so
only the references here and the tests divide, and only they raise
`NonUnitDivisor`.

The Seifert G as a product.  `seifert_lambda_product` is the older
Seifert lambda series, its G = (u/sinh u)^(N-2) prod_j S(t/p_j^2)
(S(t) prod_j S(t/p_j^2) for N = 1), S = `sinh_over_u`, one product of
its series factors from the first of them; the library sums G in
integers (`closedform.seifert_lambda_series`), and the tests check it
against this.

Connected sums by products.  `lens_zprime` and `lens_lambda_series`
are the older closed forms of one lens space, and `connected_sum_zprime`
and `connected_sum_lambda` the older route for a lens space or a P1
surgery: the product of its summands' closed forms (`ohtsuki._summands`),
from the first factor, 1 for the empty surgery.  The library takes the
whole sum as one closed form per side (`closedform.lens_zprime` and
`closedform.lens_lambda_series`); the tests check it against these.

Finite exponential sums.  `exp_sum_series` expands sum_k c_k e^(kw) as a
series in w, or the quotient of two such sums, the divisor's zero at
w = 0 divided out, by one `s_div`; `sin_quotient_series` builds each [c]
from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Sequence

from so3inv import ohtsuki
from so3inv.ohtsuki import _summands
from so3inv.arith import as_prime, inv_int, legendre, rat_residue, sign
from so3inv.cyclotomic import (CycInt, _raw, diamond, fixed_roots, from_runs,
                               gauss_sum, odd_window, sine_run)
from so3inv.errors import (BadPrecision, BoundViolation,
                           DenominatorDivisibleByK, DivisibilityFailure,
                           InsufficientTerms, IntegralityFailure, NotCoprime,
                           NotRHS, So3InvError)
from so3inv.nt import Lens, ManifoldSpec, P1Surgery, SeifertData
from so3inv.series import (RatSeries, _over_lcm, binomial_terms,
                           half_log_tail, shadow, vee)
from so3inv.surgery import (_chain_data, _color_sum, _presentation, _value,
                            zprime_numeric)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def dedekind_sum(q: int, p: int) -> Fraction:
    """The classical sum s(q, p) of sawtooth products, with s(q,-p)=s(q,p).

    O(log p) exact steps: s(q, p) = s(q mod p, p), and the reciprocity
    law s(h,k) + s(k,h) = (h^2+k^2+1)/(12hk) - 1/4 for coprime h, k >= 1
    (Rademacher & Grosswald, Dedekind Sums, 1972) runs Euclid's algorithm.
    """
    p = abs(p)
    if p == 0 or gcd(q, p) != 1:
        raise NotCoprime(f"dedekind sum needs coprime q, p; got ({q}, {p})")
    total, sgn = Fraction(0), 1
    h, k = q % p, p
    while h:
        total += sgn * Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k)
        sgn = -sgn
        h, k = k % h, h
    return total


def to_xpoly_pascal(a: CycInt) -> tuple:
    """The K - 1 coefficients of `a` as an integer polynomial in
    x = q - 1, via q^i = (1+x)^i."""
    K = a.K
    out = [0] * (K - 1)
    row = [1]  # the binomial row of (1+x)^i, degree i <= K-2
    for c in a.coeffs:
        if c:
            for d, r in enumerate(row):
                out[d] += c * r
        row = [1, *map(add, row, row[1:]), 1]  # Pascal step
    return tuple(out)


def vee_per_coefficient(s: RatSeries, K: int) -> tuple:
    """Reduce a rational series mod K and truncate at degree (K-1)/2."""
    d = (K - 1) // 2
    if s.cap < d:
        raise InsufficientTerms(
            f"need lambda_n through n = {d}, have n_max = {s.cap}")
    out = []
    for n in range(d + 1):
        c = s.coeffs[n]
        if c.denominator % K == 0:
            raise DenominatorDivisibleByK(
                f"coefficient of x^{n} = {c} has denominator divisible by {K}")
        out.append(rat_residue(c, K))
    return shadow(out, K)


def h1_order(m: ManifoldSpec) -> int:
    """Order of the first homology of a manifold presentation: |p| for
    L(p, q), |P sum_j q_j/p_j| over the fibers, |prod_j p_j| for a P1
    surgery."""
    if isinstance(m, Lens):
        return abs(m.p)
    if isinstance(m, SeifertData):
        P = prod(p for p, _ in m.fractions)
        return abs(int(P * sum(Fraction(q, p) for p, q in m.fractions)))
    if isinstance(m, P1Surgery):
        return abs(prod(m.framings))
    raise NotRHS(f"unrecognized manifold spec {m!r}")


def identity_reference(m, primes) -> list:
    """(lhs, rhs, verdict, first_mismatch, error) of each prime, as
    `verify_identity` reports them.  The series is read from
    `ohtsuki.closed_lambda_series` at call time, so a monkeypatch of it
    reaches both routes."""
    n_max = max(((K - 1) // 2 for K in primes), default=0)
    try:
        lam, why = ohtsuki.closed_lambda_series(m, n_max), None
    except So3InvError as e:
        lam, why = None, e
    rows = []
    for K in primes:
        try:
            K = as_prime(K)
            h1 = h1_order(m)
            lhs = diamond(ohtsuki.closed_zprime(m, K) * (h1 * legendre(h1, K)))
            if why is not None:
                raise why
            rhs = vee_per_coefficient(lam, K)
        except So3InvError as e:
            rows.append((None, None, "skipped", None,
                         f"{type(e).__name__}: {e}"))
            continue
        first = next((n for n, (a, b) in
                      enumerate(zip(lhs, rhs)) if a != b), None)
        rows.append((lhs, rhs, "equal" if first is None else "unequal",
                     first, None))
    return rows


def q_power_recurrence(r, cap: int) -> RatSeries:
    """(1+x)^r for rational r, via the binomial series."""
    r = _frac(r)
    cs = [Fraction(1)]
    for n in range(1, cap + 1):
        cs.append(cs[-1] * (r - (n - 1)) / n)
    return RatSeries(cs, cap)


def q_power(r, cap: int) -> RatSeries:
    """(1+x)^r for rational r = a/b, the binomial series with C(r, n) =
    prod_{i<n} (a - i*b) / (b^n n!) over the integers of `binomial_terms`."""
    r = _frac(r)
    return RatSeries(list(map(Fraction, *binomial_terms(
        r.numerator, r.denominator, cap))), cap)


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
    nums, den = _over_lcm(s.coeffs)
    return RatSeries(
        [Fraction(sum(a * b for a, b in zip(nums, w)), den * d)
         for w, d in _half_log_powers(s.cap)], s.cap)


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


def seifert_lambda_product(S: SeifertData, n_max: int) -> RatSeries:
    """The Seifert lambda series with G built as one product of its
    factors: N - 2 copies of `u_over_sinh` (S(t) for N = 1), then one
    `sinh_over_u` at t/p_j^2 per fiber, from the first of them; the
    moments and `half_log_tail` as in `closedform.seifert_lambda_series`."""
    cap = n_max
    n = len(S.fractions)
    head = [sinh_over_u(1, cap)] if n == 1 else [u_over_sinh(cap)] * (n - 2)
    g = reduce(mul, head + [sinh_over_u(Fraction(1, p * p), cap)
                            for p, _ in S.fractions])
    mom, w = [0], Fraction(2 * S.H, S.P)
    ratio = Fraction(S.P, S.H)  # P/H per t = u^2
    for m, c in enumerate(g.coeffs, 1):
        w *= (2 * m - 1) * ratio  # (H/2) (4/P) (2m-1)!! (P/H)^m
        mom.append(c * w)
    return half_log_tail(mom, 2 * S.r + 1, cap)


def seifert_lambda_half_log(S: SeifertData, n_max: int) -> RatSeries:
    """The Seifert lambda series by the older tail: the same Gaussian
    moments as `closedform.seifert_lambda_series`, re-expanded by
    `at_half_log`, divided by x and multiplied by (1+x)^(r+1/2) and H/2."""
    cap = n_max
    n = len(S.fractions)
    head = [sinh_over_u(1, cap)] if n == 1 else [u_over_sinh(cap)] * (n - 2)
    g = reduce(mul, head + [sinh_over_u(Fraction(1, p * p), cap)
                            for p, _ in S.fractions])
    mom, w = [0], Fraction(4, S.P)
    ratio = Fraction(S.P, S.H)  # P/H per t = u^2
    for m, c in enumerate(g.coeffs, 1):
        w *= (2 * m - 1) * ratio  # (4/P) (2m-1)!! (P/H)^m
        mom.append(c * w)
    over_x = RatSeries(at_half_log(RatSeries(mom, cap + 1)).coeffs[1:], cap)
    return over_x * q_power(S.r + Fraction(1, 2), cap) * Fraction(S.H, 2)


def schoolbook_mul(self: RatSeries, other) -> RatSeries:
    """The product self * other, one Fraction product per term pair."""
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


def _laurent_mul(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _div_z_step(f: dict) -> dict:
    """g with g * (z^-1 - z) = f; IntegralityFailure if inexact."""
    if not f:
        return {}
    g = {}
    for m in range(min(f), max(f) + 1):
        g[m + 1] = f.get(m, 0) + g.get(m - 1, 0)
    g = {e: c for e, c in g.items() if c}
    if _laurent_mul(g, {-1: 1, 1: -1}) != f:
        raise IntegralityFailure("Laurent division left a remainder")
    return g


def seifert_cn_laurent(avals) -> dict:
    """Multiplicities {n: C_n} of an antisymmetrized fiber product.

    For positive exponents a_1..a_N the C_n are the integers, on a
    finite set of positive n, with the exact Laurent identity
        prod_j (z^-a_j - z^a_j)
            = (z^-1 - z)^(N-1) * sum_n C_n (z^-n - z^n),
    re-verified by multiplication after construction.
    """
    avals = tuple(int(a) for a in avals)
    if not avals or any(a < 1 for a in avals):
        raise So3InvError(f"exponents must be positive integers: {avals}")
    f = {-avals[0]: 1, avals[0]: -1}
    for a in avals[1:]:
        f = _laurent_mul(f, {-a: 1, a: -1})
    n = len(avals)
    g = f
    for _ in range(n - 1):
        g = _div_z_step(g)
    entries = {-e: c for e, c in g.items() if e < 0}
    # antisymmetry and the defining identity, re-verified from scratch
    if {e: -c for e, c in entries.items()} != {e: g.get(e, 0) for e in entries}:
        raise IntegralityFailure("multiplicity table is not antisymmetric")
    back = {e: c for e, c in g.items()}
    for _ in range(n - 1):
        back = _laurent_mul(back, {-1: 1, 1: -1})
    if back != f:
        raise IntegralityFailure("multiplicity table failed re-verification")
    return entries


class FactorialNotInvertible(So3InvError):
    """A factorial in a denominator is divisible by the prime."""


def qpow(n: int, K: int) -> CycInt:
    """q^n as a basis element (top power folded down)."""
    as_prime(K)
    n %= K
    if n == K - 1:
        return _raw((-1,) * (K - 1), K)
    coeffs = [0] * (K - 1)
    coeffs[n] = 1
    return _raw(tuple(coeffs), K)


def sine_quotient(c: int, K: int) -> CycInt:
    """Exact ratio [c] = (q^(-2*c) - q^(2*c)) / (q^(-2*) - q^(2*)).

    c is read mod K; the division is exact, as [c] is one run of powers
    of q (`sine_run`).
    """
    return from_runs([sine_run(0, c, 1, K)], K)


class NotAUnit(So3InvError):
    """Element has no multiplicative inverse in the ring."""


def cyc_pow(self: CycInt, n: int) -> CycInt:
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


def ser_pow(self: RatSeries, n: int) -> RatSeries:
    if n < 0:
        raise NotAUnit(f"RatSeries ** {n}: inverses are not computed")
    result = RatSeries.const(1, self.cap)
    base = self
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:  # no square past the top bit
            base = base * base
    return result


def divide_exact(a: CycInt, n: int) -> CycInt:
    """a / n for an integer n that divides every coefficient of a
    (DivisibilityFailure otherwise)."""
    if any(c % n for c in a.coeffs):
        raise DivisibilityFailure(f"coefficients not divisible by {n}")
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
        xd = cyc_pow(qpow(1, K) + -1, (K - 1) // 2)
        u = divide_exact(xd * gauss_sum(-1, K), K)
        if u * g1 != xd:
            raise IntegralityFailure("unit normalization check failed")
        _UNITS[K] = u
    return _UNITS[K]


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


def exact_p1(M: P1Surgery, K: int) -> CycInt:
    """Exact Z' of the P1Surgery M inside Z[q], at an odd prime K not
    dividing |H1|, as `ohtsuki.closed_zprime` has checked.

    Every link table is a split link of unknots, so the surgery is a
    connected sum and Z' is the product of one factor per component
    (`_p1_factor`), whichever table M names; the empty surgery gives 1.
    """
    if not M.framings:
        return CycInt.one(K)
    return reduce(mul, [_p1_factor(p, K) for p in M.framings])


def _p1_factor(p: int, K: int) -> CycInt:
    """One component of exact_p1: its odd-color sum S over the Gauss
    sum G(1), times sign(p), a +-1 phase and a power q^e2 of q.

    S is the sum over odd colors a of q^(4* p a^2) [a + p*], p* the even
    inverse of p, and each term is one run of powers of q
    (`cyclotomic.sine_run`); the prefactor +-q^e2 enters the same runs,
    as a shift of every start and a sign on every weight.  G(c) =
    gauss_sum(c, K), and G(-1) is the complex conjugate of G(1), so
    G(1) * G(-1) = |G(1)|^2 = K and S / G(1) = S * G(-1) / K: one exact
    division by K.  K divides every coordinate of +-q^e2 * S * G(-1)
    exactly when x^((K-1)/2), x = q - 1, divides S (DivisibilityFailure
    otherwise), as q^e2 is a unit.  For K = prod_(0<j<K) (1 - q^j) is
    x^(K-1) times a unit, each 1 - q^j being x times one, and G(-1) is
    x^((K-1)/2) times a unit, as G(-1)^2 = +-K and (x) is a prime
    ideal; so S * G(-1) / K is a unit times S / x^((K-1)/2).
    """
    t4 = inv_int(4, K)
    pst = even_inv(p, K)
    phase = -1 if K % 4 == 3 and p < 0 else 1
    e2 = t4 * (3 * sign(p) - p - pst)
    s = from_runs([sine_run(e2 + t4 * p * a * a, a + pst, phase * sign(p), K)
                   for a in odd_window(K)], K)
    return divide_exact(s * gauss_sum(-1, K), K)


def lens_zprime(L: Lens, K: int) -> CycInt:
    """Exact Z' of the lens space L at an odd prime K not dividing p:
    q^r * [p*], one run of powers of q."""
    return from_runs([sine_run(rat_residue(L.r, K), inv_int(L.h1, K),
                               legendre(L.h1, K), K)], K)


def lens_lambda_series(L: Lens, n_max: int) -> RatSeries:
    """Trivial-connection series of the lens space L, capped at n_max:
    p * [(1+x)^(r+) - (1+x)^(r-)] / x with r+- = 3 s(q,p) + (1 +- 1/p)/2
    for p > 0, so lambda_n = p * [C(r+, n+1) - C(r-, n+1)]."""
    r = L.r + Fraction(1, 2)
    p = L.h1
    b = lcm(r.denominator, 2 * p)  # r+- = (a +- h) / b
    a, h = r.numerator * (b // r.denominator), b // (2 * p)
    (hi, den), (lo, _) = (binomial_terms(a + h, b, n_max + 1),
                          binomial_terms(a - h, b, n_max + 1))
    return RatSeries([Fraction(p * (u - v), d)
                      for u, v, d in zip(hi[1:], lo[1:], den[1:])], n_max)


def connected_sum_zprime(m, K: int) -> CycInt:
    """Z' of a lens space or P1 surgery, at an odd prime K not dividing
    |H1|, as the product of its summands' `lens_zprime`."""
    return reduce(mul, [lens_zprime(L, K) for L in _summands(m)]
                  or [CycInt.one(K)])


def connected_sum_lambda(m, n_max: int) -> RatSeries:
    """The series of a lens space or P1 surgery, capped at n_max, as the
    product of its summands' `lens_lambda_series`."""
    return reduce(mul, [lens_lambda_series(L, n_max) for L in _summands(m)]
                  or [RatSeries.const(1, n_max)])


def odd_gauss_moment(p: int, m: int, K: int) -> CycInt:
    """Sum of a^(2m) * q^(p*a^2) over the odd class window."""
    return from_runs(((p * a * a, 1, a ** (2 * m)) for a in odd_window(K)),
                     K)


def x_over_log_pow(m: int, K: int) -> tuple:
    """[x / log(1+x)]^m reduced mod K."""
    d = (K - 1) // 2
    ratio = s_div(RatSeries.const(1, d),
                  RatSeries([Fraction((-1) ** n, n + 1)
                             for n in range(d + 1)], d))
    return vee(ser_pow(ratio, m), K)


def gauss_moment_diamond(p: int, q: int, m: int, K: int) -> tuple:
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
    return shadow([c * scalar for c in x_over_log_pow(m, K)], K)


def _chain_weights(p: int, q: int, s: int, K: int, B: int, digits: int):
    """The matrix elements of the slope p/q, q >= 1, at the color pairs
    (a, 1), a = 1..K-1, as (re, im) lists at scale 2^B, from the roots
    table of order 4Kq at `digits` digits.

    Element a is i / sqrt(2Kq) * e^(-i*pi*phi/4) times the sum over
    n < q and mu = +-1 of mu * e^(i*pi*m/(2Kq)), m = p a^2 - 2 a w
    + s w^2 with w = 2Kn + mu; the constant is left to the prefactor
    (_z_prelude), and e^(i*pi*m/(2Kq)) is root m of order 4Kq.
    """
    den = 2 * K * q
    Bq, cos, sin = fixed_roots(2 * den, digits)
    re, im = [], []
    for a in range(1, K):
        x = y = 0
        for n in range(q):
            for mu in (1, -1):
                w = 2 * K * n + mu
                e = (p * a * a - 2 * a * w + s * w * w) % (2 * den)
                x += mu * cos[e]
                y += mu * sin[e]
        re.append(x >> (Bq - B))
        im.append(y >> (Bq - B))
    return re, im


def _z_prelude(surg, sig, K):
    """Per-component (p, q, s) and the phase m of the full-level
    prefactor e^(i*pi*m/(4K)) / sqrt(prod 2Kq).

    m gathers e^(i*pi*(K-2)*(sum phi - 3 sig)/(4K)) and every
    component's constant i * e^(-i*pi*phi/4) (see _chain_weights).
    """
    data, phis = [], 0
    for (p, q) in surg:
        s, phi = _chain_data(p, q)
        data.append((p, q, s))
        phis += phi
    m = (K - 2) * (phis - 3 * sig) - K * phis + 2 * K * len(data)
    return data, m % (8 * K)


def value_mpmath(fixed, m: int, rad: int, K: int, digits: int) -> complex:
    """e^(i*pi*m/(4K)) / sqrt(rad) times a fixed-point (B, re, im), at
    `digits` digits."""
    import mpmath
    B, re, im = fixed
    with mpmath.workdps(digits):
        z = mpmath.mpc(mpmath.ldexp(re, -B), mpmath.ldexp(im, -B))
        return complex(mpmath.expjpi(mpmath.mpf(m) / (4 * K))
                       / mpmath.sqrt(rad) * z)


def eval_complex_mpmath(a: CycInt, precision: int = 50) -> complex:
    """Embed into C with q = exp(2*pi*i/K), at `precision` digits.

    The sum of c_i * q^i is taken exactly over the integers of
    `fixed_roots(K, precision)`, so its only rounding is that of the table
    entries (each within one unit of 2^-B of its root) and of the one
    conversion at the end.
    A component no larger than K * sum|c_i| * 10^(1 - precision) is
    returned as 0.0: it is noise, not a digit of the value.  A
    precision below one digit raises BadPrecision.
    """
    import mpmath

    if precision < 1:
        raise BadPrecision(f"precision {precision} is below one digit")
    with mpmath.workdps(precision):
        B, re, im = fixed_roots(a.K, precision)
        noise = (a.K * sum(map(abs, a.coeffs))
                 * mpmath.mpf(10) ** (1 - precision))
        parts = (mpmath.ldexp(sum(map(mul, a.coeffs, tab)), -B)
                 for tab in (re, im))
        return complex(*(float(v) if abs(v) > noise else 0.0
                         for v in parts))


def _dps(K: int, precision) -> int:
    if precision is None:
        return 50 + 2 * K
    if precision < 1:
        raise BadPrecision(f"precision {precision} is below one digit")
    return int(precision)


def z_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z(M)/Z(S^3) at level k = K - 2 by direct color summation."""
    K = as_prime(K)
    digits = _dps(K, precision)
    surg, sig, star = _presentation(M)
    data, m = _z_prelude(surg, sig, K)
    B = fixed_roots(2 * K, digits)[0]
    weights = [_chain_weights(*d, K, B, digits) for d in data]
    return _value(_color_sum(range(1, K), weights, star, K, digits), m,
                  prod(2 * K * q for (p, q) in surg), K, digits)


def kirby_melvin_check(M: ManifoldSpec, K, tol: float = 1e-9,
                       precision=None) -> bool:
    """Proportionality of the full and odd-color invariants at odd K.

    The right factor is the level-one invariant Z(M;1)/Z(S^3;1),
    computed numerically at K = 3 and conjugated iff K = 1 mod 4.
    """
    K = as_prime(K)
    z = z_numeric(M, K, precision)
    zp = zprime_numeric(M, K, precision)
    b = z_numeric(M, 3, precision)
    factor = b.conjugate() if K % 4 == 1 else b
    return abs(z - zp * factor) <= tol


class NonUnitDivisor(So3InvError):
    """Series division requires an invertible constant term."""


def s_div(a: RatSeries, b: RatSeries) -> RatSeries:
    """Series quotient; divisor must have nonzero constant term."""
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


def sin_quotient_series(c: int, cap: int) -> RatSeries:
    """sin(c*t)/sin(t) for an integer c, as an exact series in t: the sum
    sign(c) sum_{j<|c|} e^((|c|-1-2j)w), an even function, at w = it."""
    base = exp_sum_series({k: sign(c) for k in range(1 - abs(c), abs(c), 2)},
                          cap)
    return RatSeries([v * (-1) ** (n // 2) for n, v in enumerate(base.coeffs)],
                     cap)


def seifert_beta_series(alphas: Sequence[int], beta: int,
                        cap: int) -> RatSeries:
    """The fiber evaluation prod_j [beta*a_j] / [beta]^(N-1) as a series
    in t, each [c] read as sin(c*t)/sin(t)."""
    acc = prod((sin_quotient_series(beta * a, cap) for a in alphas),
               start=RatSeries.const(1, cap))
    if len(alphas) >= 2:
        return s_div(acc, ser_pow(sin_quotient_series(beta, cap),
                                  len(alphas) - 1))
    return acc


def _interp_coeffs(values, nodes):
    """Solve a Vandermonde system over Q: values[i] = sum_j c_j nodes[i]^j."""
    n = len(nodes)
    mat = [[Fraction(nodes[i]) ** j for j in range(n)] for i in range(n)]
    vec = list(values)
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        vec[col] = vec[col] * inv
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                vec[r] = vec[r] - f * vec[col]
    return vec


def expansion_check(series: Callable[[int, int], RatSeries], n_max: int,
                    name: str) -> dict:
    """Verify the structural bounds of a one-color expansion.

    Writing series(c, n_max) / c as the sum over n of t^n times a
    polynomial in the color c, the polynomial must be even in c and
    each of its terms c^(2m) must satisfy m <= (3/4) n and m <= n - m.
    Returns the nonzero coefficients as {(n, m): Fraction}; raises
    BoundViolation naming `name`.
    """
    nodes = list(range(1, n_max + 3))
    rows = [[x / c for x in series(c, n_max).coeffs] for c in nodes]
    coeffs = {}
    for n in range(n_max + 1):
        for power, x in enumerate(_interp_coeffs([r[n] for r in rows],
                                                 nodes)):
            if x == 0:
                continue
            if power % 2:
                raise BoundViolation(
                    f"odd color power {power} at order {n} in {name}")
            m = power // 2
            if 4 * m > 3 * n:
                raise BoundViolation(
                    f"color degree {m} exceeds (3/4)*{n} in {name}")
            if m > n - m:
                raise BoundViolation(
                    f"color degree {m} exceeds {n - m} in {name}")
            coeffs[(n, m)] = x
    return coeffs

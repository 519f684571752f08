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
`so3inv` against them.

Single powers of q.  `qpow` builds q^n as one basis element; the
library sums q-powers as runs (`cyclotomic.from_runs`) instead.
`sine_quotient` is the quantized integer [c], the one run `sine_run`
gives.

Powers in Z[q].  `cyc_pow` raises a `CycInt` element, its first
argument, to a power; the library adds and multiplies only.

Division by x = q - 1 in Z[q].  `exact_p1` divides a color sum by the
Gauss sum with one exact division by K.  `divide_by_x` and `unit_u`
keep the older route, which strips the guaranteed power x^((K-1)/2) one
synthetic division at a time and multiplies by the unit
u = x^((K-1)/2) / gauss_sum(1), so the tests can check the exact route
and the moment identities against an independent method.

The Gaussian-moment lemma.  `odd_gauss_moment` is the exact moment sum
in Z[q]; `gauss_moment_diamond` is its closed-form series image mod K,
built from the powers of x / log(1+x) (`x_over_log_pow`).

The full-level oracle.  `z_numeric` evaluates the normalized invariant
Z(M)/Z(S^3) at an odd prime K by direct summation over colors 1..K-1
per surgery component, through the same presentation and color sum
(`surgery._color_sum`) as `zprime_numeric`, with the full-level chain
weights (`_chain_weights`) and prefactor (`_z_prelude`).
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
term-by-term Fraction recurrence; the library builds every series
without one (u/sinh(u) has a recurrence of its own, `u_over_sinh`),
so only the references here and the tests divide, and only they raise
`NonUnitDivisor`.

Finite exponential sums.  `exp_sum_series` expands sum_k c_k e^(kw) as a
series in w, or the quotient of two such sums, the divisor's zero at
w = 0 divided out, by one `s_div`; `sin_quotient_series` builds each [c]
from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add, mul
from typing import Callable, Sequence

from so3inv import ohtsuki
from so3inv.arith import as_prime, inv_int, legendre, rat_residue, sign
from so3inv.cyclotomic import (CycInt, _raw, diamond, divide_exact,
                               fixed_roots, from_runs, gauss_sum, odd_window,
                               sine_run)
from so3inv.errors import (BadPrecision, BoundViolation,
                           DenominatorDivisibleByK, InsufficientTerms,
                           IntegralityFailure, NotAUnit, So3InvError)
from so3inv.nt import ManifoldSpec, h1_order
from so3inv.series import RatSeries, TruncPoly, _frac, vee
from so3inv.surgery import (_chain_data, _color_sum, _dps, _presentation,
                            _value, zprime_numeric)


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


def vee_per_coefficient(s: RatSeries, K: int) -> TruncPoly:
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
            d = (K - 1) // 2
            if lam.n_max < d:
                raise InsufficientTerms(f"need lambda_n through n = {d}, "
                                        f"have n_max = {lam.n_max}")
            rhs = vee_per_coefficient(lam.series(), K)
        except So3InvError as e:
            rows.append((None, None, "skipped", None,
                         f"{type(e).__name__}: {e}"))
            continue
        first = next((n for n, (a, b) in
                      enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b), None)
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


def odd_gauss_moment(p: int, m: int, K: int) -> CycInt:
    """Sum of a^(2m) * q^(p*a^2) over the odd class window."""
    return from_runs(((p * a * a, 1, a ** (2 * m)) for a in odd_window(K)),
                     K)


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


def _chain_weights(p: int, q: int, s: int, K: int, B: int):
    """The matrix elements of the slope p/q, q >= 1, at the color pairs
    (a, 1), a = 1..K-1, as (re, im) lists at scale 2^B.

    Element a is i / sqrt(2Kq) * e^(-i*pi*phi/4) times the sum over
    n < q and mu = +-1 of mu * e^(i*pi*m/(2Kq)), m = p a^2 - 2 a w
    + s w^2 with w = 2Kn + mu; the constant is left to the prefactor
    (_z_prelude), and e^(i*pi*m/(2Kq)) is root m of order 4Kq.
    """
    den = 2 * K * q
    Bq, cos, sin = fixed_roots(2 * den)
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


def value_mpmath(fixed, m: int, rad: int, K: int) -> complex:
    """e^(i*pi*m/(4K)) / sqrt(rad) times a fixed-point (B, re, im)."""
    import mpmath
    B, re, im = fixed
    z = mpmath.mpc(mpmath.ldexp(re, -B), mpmath.ldexp(im, -B))
    return complex(mpmath.expjpi(mpmath.mpf(m) / (4 * K))
                   / mpmath.sqrt(rad) * z)


def eval_complex_mpmath(a: CycInt, precision: int = 50) -> complex:
    """Embed into C with q = exp(2*pi*i/K), at `precision` digits.

    The sum of c_i * q^i is taken exactly over the integers of
    `fixed_roots(K)`, so its only rounding is that of the table entries
    (each within one unit of 2^-B of its root) and of the one
    conversion at the end.
    A component no larger than K * sum|c_i| * 10^(1 - precision) is
    returned as 0.0: it is noise, not a digit of the value.  A
    precision below one digit raises BadPrecision.
    """
    import mpmath

    if precision < 1:
        raise BadPrecision(f"precision {precision} is below one digit")
    with mpmath.workdps(precision):
        B, re, im = fixed_roots(a.K)
        noise = (a.K * sum(map(abs, a.coeffs))
                 * mpmath.mpf(10) ** (1 - precision))
        parts = (mpmath.ldexp(sum(map(mul, a.coeffs, tab)), -B)
                 for tab in (re, im))
        return complex(*(float(v) if abs(v) > noise else 0.0
                         for v in parts))


def z_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z(M)/Z(S^3) at level k = K - 2 by direct color summation."""
    import mpmath
    K = as_prime(K)
    with mpmath.workdps(_dps(K, precision)):
        surg, sig, star = _presentation(M)
        data, m = _z_prelude(surg, sig, K)
        B = fixed_roots(2 * K)[0]
        weights = [_chain_weights(*d, K, B) for d in data]
        return _value(_color_sum(range(1, K), weights, star, K), m,
                      prod(2 * K * q for (p, q) in surg), K)


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
        return s_div(acc, sin_quotient_series(beta, cap) ** (len(alphas) - 1))
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

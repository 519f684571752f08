"""Closed-form exact invariants and trivial-connection series.

A connected sum of lens spaces is one run per summand in Z[q] and one
signed sum of binomial series.  A star-shaped (Seifert) rational
homology sphere is a short sum over the multiplicity table of its fiber
product times a prefactor +-q^n, added up from the factors of the
derivation as three integers, with no collapsed prefactor hard-coded,
and checked twice (`seifert_zprime`).  Everything here is
cross-checked against the numeric oracle in `surgery` by the test
suite; the prime, |H1| and lambda_0 are checked in `ohtsuki`, not here.

Orientation convention, one rule for every slope p/q, a lens space
L(p, q) or a Seifert fiber p_j/q_j: the slope is read as -p/-q when
p < 0, so its Dedekind sum is s(sign(p) q, |p|) (`nt._slope_dedekind`,
read once, when the presentation is built), and every other factor
reads |p|.  L(p, q) with p < 0 is thus the mirror of L(-p, -q); the
literal s(q, |p|) would collapse mirror pairs, which is wrong.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from .arith import inv_int, legendre, rat_residue, sign
from .cyclotomic import CycInt, _fold, from_runs, sine_run
from .errors import (
    DiamondMismatch,
    DivisibilityFailure,
    IntegralityFailure,
    PDivisibleByK,
    PhaseNotReducible,
    So3InvError,
)
from .nt import SeifertData
from .series import (RatSeries, binomial_terms, half_log_tail,
                     u_over_sinh_terms)


# ---------------------------------------------------------------------------
# lens spaces


def lens_zprime(summands, K: int) -> CycInt:
    """Exact Z' of the connected sum of the lens spaces `summands` at an
    odd prime K dividing none of their p: L(p, q) is q^r [p*], one run
    w q^s (1 + ... + q^(m-1)) (`sine_run`), so the sum is one point times
    one cyclic window sum of width m per summand, O(K) each, and a `_fold`."""
    runs = [sine_run(rat_residue(L.r, K), inv_int(L.h1, K),
                     legendre(L.h1, K), K) for L in summands]
    f = [0] * K
    f[sum(s for s, _, _ in runs) % K] = prod(w for _, _, w in runs)
    for _, m, _ in runs:
        c = list(accumulate(f + f, initial=0))
        f = list(map(sub, c[K + 1:], c[K + 1 - m:2 * K + 1 - m]))
    return _fold(f, K)


def lens_lambda_series(summands, n_max: int) -> RatSeries:
    """Trivial-connection series of the connected sum of the lens spaces
    `summands`, capped at n_max.

    L(p, q), p > 0 by the orientation rule of the module docstring, has
    p * q^(3 s(q,p)) sinh(T/p)/sinh(T) = p * [(1+x)^(r+) - (1+x)^(r-)]/x
    at T = (1/2)log(1+x), r+- = 3 s(q,p) + (1 +- 1/p)/2 = (a +- h)/b over
    one b.  N summands give (prod p) sum_E w_E (1+x)^(E/b) / x^N, the
    weights of the D <= 2^N exponent numerators E in one dict, equal E
    merged (D <= N + 1 for equal summands, up to 2^N for pairwise
    distinct framings); each E is one `binomial_terms` to cap n_max + N
    over one denominator b^k k!, and the N lowest coefficients must
    cancel (DivisibilityFailure otherwise): O(N D + D cap).
    """
    rs = [(L.r + Fraction(1, 2), L.h1) for L in summands]
    b = lcm(*(lcm(r.denominator, 2 * p) for r, p in rs))
    weights = {0: prod(p for _, p in rs)}
    for r, p in rs:
        a, h = int(r * b), b // (2 * p)
        weights, old = Counter(), weights
        for e, w in old.items():
            weights[e + a + h] += w
            weights[e + a - h] -= w
    N, total = len(rs), [0] * (n_max + len(rs) + 1)
    for e, w in weights.items():
        if w:  # not all: they are the coefficients of N nonzero factors
            num, den = binomial_terms(e, b, n_max + N)
            total = [t + w * u for t, u in zip(total, num)]
    if any(total[:N]):
        raise DivisibilityFailure("the terms below x^N did not cancel")
    return RatSeries(list(map(Fraction, total[N:], den[N:])), n_max)


# ---------------------------------------------------------------------------
# the fiber product and its multiplicity table


def _sinh_product(ms) -> list:
    """prod_j (z^m_j - z^-m_j), m_j >= 0, dense: entry i of 2M + 1 is the
    coefficient of z^(i - M), M = sum_j m_j; one shifted subtraction each."""
    f = [1]
    for m in ms:
        pad = [0] * (2 * m)
        f = list(map(sub, pad + f, f + pad))
    return f


def seifert_cn(avals) -> dict:
    """Multiplicities {n: C_n} of an antisymmetrized fiber product.

    For positive exponents a_1..a_N the C_n are the integers, on a
    finite set of positive n, with the exact Laurent identity
      prod_j (z^-a_j - z^a_j) = (z^-1 - z)^(N-1) sum_n C_n (z^-n - z^n).
    The left side is `_sinh_product` reversed, and f = g (z^-1 - z) is
    f_i = g_i - g_(i-2): each of the N - 1 divisions is the running sums
    of each parity class, and a zero remainder (its last two sums;
    DivisibilityFailure otherwise) proves the identity exactly.
    """
    avals = tuple(int(a) for a in avals)
    if not avals or any(a < 1 for a in avals):
        raise So3InvError(f"exponents must be positive integers: {avals}")
    g = _sinh_product(avals)[::-1]
    for _ in range(len(avals) - 1):
        g[0::2], g[1::2] = accumulate(g[0::2]), accumulate(g[1::2])
        if any(g[-2:]):
            raise DivisibilityFailure("Laurent division left a remainder")
        del g[-2:]
    if g != [-c for c in reversed(g)]:
        raise IntegralityFailure("multiplicity table is not antisymmetric")
    return {n: c for n, c in zip(range(len(g) // 2, 0, -1), g) if c}


# ---------------------------------------------------------------------------
# Seifert rational homology spheres


def _phase_to_q(a: int, b: int, sgn: int, K: int) -> tuple:
    """sgn * e^(i pi a/4) * e^(i pi b/(2K)) as +-q^n in Z[q]: (n, s),
    0 <= n < K and s = +-1.

    a counts eighth roots of unity (mod 8) and b quarter-steps of q
    (mod 4K), so half-integer q-powers stay exact; a phase that is not
    +-q^n raises PhaseNotReducible.
    """
    n = (a * K + 2 * b) % (8 * K)
    if n % 8 == 0:
        return n // 8, sgn
    if n % 4 == 0:  # n/4 is odd: absorb e^(i pi) into q
        return (n // 4 + K) // 2 % K, -sgn
    raise PhaseNotReducible(
        f"a genuine eighth root remains (a={a % 8}, b={b % (4 * K)})")


def _seifert_phase(S: SeifertData, K: int) -> tuple:
    """The scalar prefactor +-q^n as (n, s), added up factor by factor.

    Every factor is one produced by resolving the star surgery, and it
    enters as the eighth-root exponent a, the quarter-step-of-q
    exponent b or the sign; _phase_to_q reduces the three.  The
    Gaussian's magnitude (1/2) K^(-1/2) and the completed square's
    2 K^(1/2) cancel for every input, so no magnitude is carried.
    """
    kap, s = legendre(-1, K), sign(S.H * S.P)
    pstar = inv_int(S.P, K)
    # the central-vertex Gaussian: i, its eighth-root framing phases
    # e^(i pi (kap + 3) s/4) and q^(-3s/4) q^(s/2) q^(-2* s)
    a = 2 + (kap + 3) * s
    b = (-3 + 2 - 4 * inv_int(2, K)) * s
    # the fiber chains: the Dedekind/Rademacher q^(-3 sum_j s(q_j, p_j))
    b -= 4 * rat_residue(3 * S.dd, K)
    # completing the square against the central color: q^(4* P* H),
    # e^(i pi (kap - 1)/4) and the Legendre symbols
    a += kap - 1
    b += 4 * inv_int(4, K) * pstar * S.H
    sgn = legendre(abs(S.P), K) * sign(S.P) * legendre(pstar * S.H, K)
    # the final -1 reorients the geometric numerator
    return _phase_to_q(a, b, -sgn, K)


def seifert_zprime(S: SeifertData, K: int) -> CycInt:
    """Exact Z' of the star S at an odd prime K not dividing |H1|, as
    `ohtsuki.closed_zprime` has checked (PDivisibleByK if K | p_j).

    The prefactor phase must collapse to +-q^e (PhaseNotReducible
    otherwise), and bare = +-q^e * legendre(|H|, K) * sign(H) must be
    q^(r mod K), r = S.r (DiamondMismatch otherwise); both
    failures would falsify the assembly, not the input.  The second is
    the diamond check: diamond is injective on +-q^n, 0 <= n < K
    (constant term +-1, x coefficient n mod K), and vee((1+x)^r) =
    diamond(q^(r mod K)), as C(r, j) mod K depends only on r mod K for
    j < K.  It compares (e, sign) pairs, as the 2K elements +-q^n,
    0 <= n < K, are pairwise distinct in Z[q]: q^n for n < K - 1 is a
    basis element, and q^(K-1) = -(1 + q + ... + q^(K-2)) has K - 1 > 1
    nonzero coordinates.  e then shifts every run start and the sign
    multiplies every weight, so Z' is one `from_runs`.
    """
    r = S.r
    for p, _ in S.fractions:
        if p % K == 0:
            raise PDivisibleByK(f"fiber order {p} is divisible by K = {K}")
    e, s = _seifert_phase(S, K)
    if (e, s * legendre(abs(S.H), K) * sign(S.H)) != (rat_residue(r, K), 1):
        raise DiamondMismatch(
            f"assembled prefactor disagrees with q^({r}) mod K = {K}")
    t4 = inv_int(4, K)
    phs = S.P * inv_int(S.H, K)
    cn = seifert_cn([inv_int(p, K) for (p, q) in S.fractions])
    # sum_n s * c * q^(e + 4* phs (n^2 + 1)) * [phs n], one run per C_n
    return from_runs([sine_run(e + t4 * phs * (n * n + 1), phs * n, s * c, K)
                      for n, c in cn.items()], K)


def seifert_lambda_series(S: SeifertData, n_max: int) -> RatSeries:
    """Trivial-connection series of the star S, capped at n_max, for
    `ohtsuki.closed_lambda_series`, which checks S's type and lambda_0.

    With t = u^2 and S(t) = sinh(u)/u, the fiber prefactor 4 prod_j
    sinh(u/p_j) / sinh(u)^(N-2) is (4u^2/P) G(t), G = (u/sinh u)^(f-2)
    prod_j S(t/p_j^2) over the f fibers |p_j|, a unit fiber first when
    N = 1, and [t^n] G = x_n / (2^(f-1) Q^(2n+f-1) (2n+f)! d^(f-2)) in
    integers, Q = prod_j |p_j|: x_n starts as one exponential sum,
    sum_e (prod_j e_j) s_e^(2n+f), s_e = sum_j e_j Q/|p_j| over the signs
    e with e_1 = 1, and each u/sinh(u) = sum g_j t^j / (d (2j)!)
    (`u_over_sinh_terms`) takes it to sum_i C(2n+f, 2i+f) x_i g_(n-i)
    Q^(2(n-i)).  The Gaussian takes u^(2m) to (2m-1)!! (P/H)^m t^m, and
    as 1/sinh(T) = 2 e^T/x at T = (1/2) log(1+x), lambda_n is (H/2)
    [x^(n+1)] F(T) e^(cT) over the moments F, c = 2r + 1 (S.r, the
    Dedekind/framing exponent): one `half_log_tail`, H/2 in F.
    """
    ps = [1] * (2 - len(S.fractions)) + [abs(p) for p, _ in S.fractions]
    f, Q = len(ps), prod(ps)
    x = [0] * (n_max + 1)
    for signs in product((1, -1), repeat=f - 1):
        s = sum(e * (Q // p) for e, p in zip((1,) + signs, ps))
        x = list(map(add, x, accumulate([s * s] * n_max, mul,
                                        initial=prod(signs) * s ** f)))
    g, d = u_over_sinh_terms(n_max if f > 2 else 0)
    h = list(map(mul, g, accumulate([Q * Q] * n_max, mul, initial=1)))
    for _ in range(f - 2):
        x = [sum(map(mul, map(mul, x, h[n::-1]), map(
            comb, repeat(2 * n + f), range(f, 2 * n + f + 1, 2))))
            for n in range(n_max + 1)]
    dens = accumulate((Q * Q * (2 * n + f - 1) * (2 * n + f)
                       for n in range(1, n_max + 1)), mul,
                      initial=(2 * Q) ** (f - 1) * factorial(f) * d ** (f - 2))
    mom, w = [0], Fraction(2 * S.H, S.P)
    ratio = Fraction(S.P, S.H)  # P/H per t = u^2
    for m, c in enumerate(map(Fraction, x, dens), 1):
        w *= (2 * m - 1) * ratio  # (H/2) (4/P) (2m-1)!! (P/H)^m
        mom.append(c * w)
    return half_log_tail(mom, 2 * S.r + 1, n_max)

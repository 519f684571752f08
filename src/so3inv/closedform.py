"""Closed-form exact invariants and trivial-connection series.

Lens spaces get a one-line formula in Z[q] and a one-line series; for
star-shaped (Seifert) rational homology spheres the invariant is a
short sum over the multiplicity table of the fiber product times a
scalar prefactor +-q^n.  No collapsed prefactor is hard-coded: the
factors the derivation produces are added up as three integers, the
eighth-root exponent a, the quarter-step-of-q exponent b (mod 4K) and
a sign, and two independent guards check the assembly.  The phase
must reduce to +-q^n (PhaseNotReducible otherwise), and its diamond
image must match the vee of an explicit q-power, one integer comparison
of (n, sign) pairs (DiamondMismatch otherwise).  Everything here is
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

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm
from operator import mul, sub

from .arith import inv_int, legendre, rat_residue, sign
from .cyclotomic import CycInt, from_runs, sine_run
from .errors import (
    DiamondMismatch,
    DivisibilityFailure,
    IntegralityFailure,
    PDivisibleByK,
    PhaseNotReducible,
    So3InvError,
)
from .nt import Lens, SeifertData
from .series import (RatSeries, binomial_terms, half_log_tail, sinh_over_u,
                     u_over_sinh)


# ---------------------------------------------------------------------------
# lens spaces


def lens_zprime(L: Lens, K: int) -> CycInt:
    """Exact Z' of L(p, q) at an odd prime K not dividing p, checked by
    `ohtsuki.closed_zprime`: q^r * [p*], one run of powers of q."""
    return from_runs([sine_run(rat_residue(L.r, K), inv_int(L.h1, K),
                               legendre(L.h1, K), K)], K)


def lens_lambda_series(L: Lens, n_max: int) -> RatSeries:
    """Trivial-connection series of the lens space L, capped at n_max,
    for `ohtsuki.closed_lambda_series`, which has checked L's type.

    For p > 0 (the orientation rule of the module docstring), the
    series is p * q^(3 s(q,p)) * sinh(T/p)/sinh(T), T = (1/2)log(1+x).
    As e^T = (1+x)^(1/2), that is p * [(1+x)^(r+) - (1+x)^(r-)] / x with
    r+- = 3 s(q,p) + (1 +- 1/p)/2, so lambda_n = p * [C(r+, n+1) -
    C(r-, n+1)]; the leading coefficient is checked there, not forced.
    """
    r = L.r + Fraction(1, 2)
    p = L.h1
    b = lcm(r.denominator, 2 * p)  # r+- = (a +- h) / b
    a, h = r.numerator * (b // r.denominator), b // (2 * p)
    (hi, den), (lo, _) = (binomial_terms(a + h, b, n_max + 1),
                          binomial_terms(a - h, b, n_max + 1))
    return RatSeries([Fraction(p * (u - v), d)
                      for u, v, d in zip(hi[1:], lo[1:], den[1:])], n_max)


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

    With t = u^2 and sinh(u/p) = (u/p) S(t/p^2), S = `sinh_over_u`, the
    fiber prefactor 4 prod_j sinh(u/p_j) / sinh(u)^(N-2) is (4u^2/P) G(t),
    G = (u/sinh u)^(N-2) prod_j S(t/p_j^2), or S(t) prod_j S(t/p_j^2) for
    N = 1: one product of its factors, N - 2 copies of u/sinh(u)
    (`u_over_sinh`, cached per cap) or S(t), then one S(t/p_j^2) per
    fiber, with no division and no product by the constant series 1.
    Each u^(2m) is integrated against the Gaussian by the (2m-1)!! moment
    rule, contributing (P/H)^m t^m; the result over sinh(t) at t = T =
    (1/2) log(1+x) is multiplied by exp(theta*T), theta = 2r the
    Dedekind/framing exponent (S.r).  As e^T = (1+x)^(1/2),
    1/sinh(T) = 2 e^T/x, so lambda_n = (H/2) [x^(n+1)] F(T) e^(cT) for the
    moments F and c = 2r + 1: one `half_log_tail`, with H/2 in F.
    """
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

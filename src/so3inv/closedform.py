"""Closed-form exact invariants and trivial-connection series.

Lens spaces get a one-line formula in Z[q] and a one-line series; for
star-shaped (Seifert) rational homology spheres the invariant is a
short sum over the multiplicity table of the fiber product, with a
scalar prefactor assembled symbolically in ExtendedPhase from the
factors the derivation actually produces — no collapsed prefactor is
hard-coded, and two independent assertions (the phase must reduce into
Z[q]; its diamond image must match the vee of an explicit q-power)
guard the assembly.  Everything here is cross-checked against the
brute-force oracles in `surgery` by the test suite.

Orientation convention: L(p, q) with p < 0 denotes the mirror of
L(-p, -q); closed forms are stated for p > 0, so inputs are normalized
first (the literal absolute-denominator Dedekind sums would otherwise
collapse mirror pairs, which is wrong).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import as_prime, inv_int, kappa_of, legendre, rat_residue, sign
from .cyclotomic import CycInt, diamond, qpow, sine_quotient
from .errors import (
    BadNormalization,
    DiamondMismatch,
    H1DivisibleByK,
    IntegralityFailure,
    NotCoprime,
    NotRHS,
    PDivisibleByK,
    So3InvError,
)
from .nt import SeifertData, dedekind_sum
from .series import (LambdaSeries, RatSeries, half_log_t, q_power, s_div,
                     s_exp, sinh_over_t, sinh_quotient_u, sinh_ratio, vee)
from .surgery import ExtendedPhase, _chain_data


# ---------------------------------------------------------------------------
# lens spaces


def _lens_normal(p: int, q: int):
    """Orientation-normalized lens parameters: p > 0, and (1,0) -> (1,1)."""
    if p < 0:
        p, q = -p, -q
    if q == 0:
        q = p  # L(1,0) only; same manifold as L(1,1)
    return p, q


def lens_zprime(p: int, q: int, K) -> CycInt:
    """Exact Z' of L(p, q) at an odd prime K with gcd(p, K) = 1."""
    Kp = as_prime(K)
    K = Kp.K
    if p == 0:
        raise NotRHS("L(0, q) is not a rational homology sphere")
    if gcd(p, q) != 1:
        raise NotCoprime(f"L({p},{q}) needs coprime p, q")
    p, q = _lens_normal(p, q)
    if p % K == 0:
        raise PDivisibleByK(f"|H1| = {p} is divisible by K = {K}")
    pstar = inv_int(p, K)
    sv = rat_residue(3 * dedekind_sum(q, p), K).value
    return sine_quotient(pstar, K) * qpow(sv, K) * legendre(p, K)


def lens_lambda_series(p: int, q: int, n_max: int) -> LambdaSeries:
    """Trivial-connection series of L(p, q), normalized so lambda_0 = 1.

    The series is sign(p) * |p| * q^(3 s(q,p)) * sinh_ratio(1/p) in the
    variable x; the leading coefficient is checked, not forced.
    """
    if p == 0:
        raise NotRHS("L(0, q) is not a rational homology sphere")
    if gcd(p, q) != 1:
        raise NotCoprime(f"L({p},{q}) needs coprime p, q")
    label = f"L({p},{q})"
    p, q = _lens_normal(p, q)
    cap = n_max
    ser = q_power(3 * dedekind_sum(q, p), cap) * sinh_ratio(Fraction(1, p), cap)
    ser = ser * p
    if ser.coeff(0) != 1:
        raise BadNormalization(f"lambda_0 = {ser.coeff(0)} for {label}")
    return LambdaSeries(label, n_max,
                        tuple(ser.coeff(n) for n in range(n_max + 1)),
                        "closed-form")


# ---------------------------------------------------------------------------
# the multiplicity table


class CnTable:
    """Integer multiplicities C_n of an antisymmetrized fiber product.

    Satisfies, as an exact Laurent identity,
        prod_j (z^-a_j - z^a_j)
            = (z^-1 - z)^(N-1) * sum_n C_n (z^-n - z^n),
    re-verified by multiplication after construction.  The support is
    a finite set of positive integers.
    """

    __slots__ = ("exponents", "entries")

    def __init__(self, exponents, entries):
        self.exponents = tuple(exponents)
        self.entries = dict(entries)

    @property
    def support(self):
        return sorted(self.entries)

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        return (isinstance(other, CnTable)
                and self.exponents == other.exponents
                and self.entries == other.entries)

    def __repr__(self):
        return f"CnTable({self.exponents}, {self.entries})"


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


def seifert_cn(avals) -> CnTable:
    """Multiplicity table for positive exponents a_1..a_N."""
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
    return CnTable(avals, entries)


# ---------------------------------------------------------------------------
# Seifert rational homology spheres


def _seifert_preconditions(S: SeifertData, K: int):
    if S.H % K == 0:
        raise H1DivisibleByK(f"|H1| = {abs(S.H)} is divisible by K = {K}")
    if S.P % K == 0:
        raise PDivisibleByK(f"fiber product {S.P} is divisible by K = {K}")
    for (p, q) in S.fractions:
        if p % K == 0:
            raise PDivisibleByK(f"fiber order {p} is divisible by K = {K}")
        pp, qq = (p, q) if q > 0 else (-p, -q)
        _chain_data(pp, qq, K)  # ChainDegenerate on bad intermediates


def _seifert_phase(S: SeifertData, K: int) -> ExtendedPhase:
    """The scalar prefactor, assembled factor by factor.

    Every factor below is one produced by resolving the star surgery:
    the central-vertex Gaussian contributes i, 1/2 and K^(-1/2) with
    its eighth-root framing phases; the fiber chains contribute the
    Dedekind/Rademacher q-power; completing the square against the
    central color contributes the Legendre symbols, the magnitude
    2 K^(1/2) that cancels the Gaussian one, and the final -1 that
    reorients the geometric numerator.
    """
    kap = kappa_of(K)
    s = sign(S.H * S.P)
    t2, t4 = inv_int(2, K), inv_int(4, K)
    pstar = inv_int(S.P, K)
    sv = sum(rat_residue(3 * dedekind_sum(q, p), K).value
             for (p, q) in S.fractions)
    ph = ExtendedPhase(K)
    ph.times_i()
    ph.times_magnitude(Fraction(1, 2), -1)
    ph.times_eighth(kap * s)
    ph.times_eighth(3 * s)
    ph.times_quarter_q(-3 * s)
    ph.times_sqrt_q(s)
    ph.times_q(-t2 * s)
    ph.times_sign(legendre(abs(S.P), K))
    ph.times_sign(sign(S.P))
    ph.times_q(t4 * pstar * S.H - sv)
    ph.times_magnitude(2, 1)
    ph.times_sign(legendre(pstar * S.H, K))
    ph.times_eighth(kap - 1)
    ph.times_sign(-1)
    return ph


def seifert_zprime(S: SeifertData, K) -> CycInt:
    """Exact Z' of a star-shaped rational homology sphere.

    The prefactor phase must collapse into Z[q] (PhaseNotReducible
    otherwise) and its diamond image must match the vee image of
    q^((1/4)(H/P) - (3/4)sign(H/P) - 3 sum_j s(q_j, p_j))
    (DiamondMismatch otherwise); both failures would falsify the
    assembly rather than the input.
    """
    Kp = as_prime(K)
    K = Kp.K
    _seifert_preconditions(S, K)
    pref = _seifert_phase(S, K).reduce()
    # the reducibility and diamond assertions pin the assembly down
    r = (Fraction(S.H, 4 * S.P) - Fraction(3, 4) * sign(S.H * S.P)
         - 3 * sum(dedekind_sum(q, p) for (p, q) in S.fractions))
    bare = pref * (legendre(abs(S.H), K) * sign(S.H))
    if diamond(bare) != vee(q_power(r, (K - 1) // 2), K):
        raise DiamondMismatch(
            f"assembled prefactor disagrees with q^({r}) mod K = {K}")
    t4 = inv_int(4, K)
    hstar = inv_int(S.H, K)
    phs = S.P * hstar
    tot = CycInt.zero(K)
    for n, c in seifert_cn([inv_int(p, K) for (p, q) in S.fractions]).items():
        tot = tot + (qpow(t4 * phs * (n * n + 1), K)
                     * sine_quotient((phs * n) % K, K)) * c
    return pref * tot


def seifert_lambda_series(S: SeifertData, n_max: int) -> LambdaSeries:
    """Trivial-connection series of a star-shaped RHS, lambda_0 = 1.

    The fiber prefactor prod_j sinh(u/p_j) / sinh(u)^(N-2) is expanded
    exactly in u; each u^(2m) is integrated against the Gaussian by the
    (2m-1)!! moment rule, contributing (P/H)^m t^m; the result rides on
    exp(theta*t)/sinh(t) with the Dedekind/framing exponent theta and
    is re-expanded at t = (1/2) log(1+x).
    """
    cap = n_max
    ucap = 2 * cap + 2
    fib = RatSeries.const(1, ucap)
    for (p, q) in S.fractions:
        fib = fib * sinh_quotient_u(Fraction(1, p), ucap)
    # net sinh power N - (N-2) = 2
    fib = fib * (RatSeries.x(ucap) * sinh_over_t(ucap)) ** 2
    dbl = 1
    mom = [Fraction(0)] * (cap + 2)
    ratio = Fraction(S.P, S.H)
    for m in range(1, cap + 2):
        dbl *= 2 * m - 1  # (2m-1)!!
        mom[m] = fib.coeff(2 * m) * dbl * ratio ** m
    mom_over_t = RatSeries(mom[1:cap + 2], cap)
    theta = (Fraction(S.H, 2 * S.P) - Fraction(3, 2) * sign(S.H * S.P)
             - 6 * sum(dedekind_sum(q, p) for (p, q) in S.fractions))
    tser = (s_div(mom_over_t, sinh_over_t(cap))
            * s_exp(RatSeries.x(cap) * theta))
    ser = tser.compose(half_log_t(cap)) * S.H
    if ser.coeff(0) != 1:
        raise BadNormalization(
            f"lambda_0 = {ser.coeff(0)} for X{tuple(S.fractions)}")
    label = "X(" + ",".join(f"{p}/{q}" for (p, q) in S.fractions) + ")"
    return LambdaSeries(label, n_max,
                        tuple(ser.coeff(i) for i in range(n_max + 1)),
                        "closed-form")


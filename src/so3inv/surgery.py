"""Brute-force numeric oracles for surgery presentations, plus the
all-exact route for integer framings.

z_numeric evaluates the normalized invariant Z(M)/Z(S^3) by direct
summation over colors 1..K-1 per surgery component, with the chain
matrix elements in closed form; it accepts any odd K >= 3 so that the
level-one right factor of kirby_melvin_check can be computed.
zprime_numeric evaluates the odd-color invariant Z'(M) the same way,
summing over the odd color window; exact_p1 re-derives Z' for
integer-framed presentations entirely inside Z[q], dividing out the
guaranteed power of x = q - 1 step by step and failing loudly if the
divisibility is violated.

The numeric paths run through mpmath at a working precision that grows
with K (50 + 2K digits unless overridden); at that precision plain
summation is already far more accurate than any compensated
double-precision scheme, so the 1e-9 cross-check tolerances hold with
a large margin even near K = 100.  Evaluations are pure functions of
(manifold, K); callers that want parallelism batch independent
(manifold, K) tasks across processes (see the command-line driver).

ExtendedPhase is the symbolic bookkeeping device used by the closed
forms: products of eighth roots of unity, half-integer powers of q,
powers of sqrt(K) and rational magnitudes accumulate exactly and must
collapse into +-q^n at the end (PhaseNotReducible otherwise).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import mpmath

from .arith import as_prime, even_inv, inv_int, kappa_of, legendre, sign
from .cyclotomic import (CycInt, divide_exact, odd_window, qpow, unit_u,
                         x_order)
from .errors import (
    ChainDegenerate,
    DivisibilityFailure,
    IntegralityFailure,
    NonIntegralAssembly,
    NotAnOddPrime,
    NotCoprime,
    NotRHS,
    PhaseNotReducible,
)
from .jones import get_table
from .nt import Chain, SeifertData, cf_expand, rademacher_phi


@dataclass(frozen=True)
class Lens:
    """The lens space L(p, q) with gcd(p, q) = 1 and p != 0."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0:
            raise NotRHS("L(0, q) is not a rational homology sphere")
        if gcd(self.p, self.q) != 1:
            raise NotCoprime(f"L({self.p},{self.q}) needs coprime p, q")


@dataclass(frozen=True)
class P1Surgery:
    """Integer (p_j, 1)-framed surgery on a link with a registered table."""

    jones: str
    framings: tuple

    def __post_init__(self):
        object.__setattr__(self, "framings",
                           tuple(int(p) for p in self.framings))
        if any(p == 0 for p in self.framings):
            raise NotRHS("zero framing breaks the rational homology sphere "
                         "condition for split links")
        table = get_table(self.jones)
        if table.arity is not None and table.arity != len(self.framings):
            raise NotRHS(
                f"table {self.jones!r} expects {table.arity} components, "
                f"got {len(self.framings)} framings")


# A manifold spec is one of the three presentation types; SeifertData
# comes from the number-theory layer.
ManifoldSpec = Lens | SeifertData | P1Surgery


def _dps(K: int, precision) -> int:
    return int(precision) if precision else 50 + 2 * K


def _odd_k(K) -> int:
    K = int(getattr(K, "K", K))
    if K < 3 or K % 2 == 0:
        raise NotAnOddPrime(f"need odd K >= 3, got {K}")
    return K


def _lens_presentation(p: int, q: int):
    """Surgery coefficient and linking-matrix signature for L(p, q)."""
    pp, qq = -p, q
    if qq == 0:
        # only L(+-1, 0); re-present with the homeomorphic slope q + p
        qq = abs(pp)
    if qq < 0:
        pp, qq = -pp, -qq
    return (pp, qq), sign(pp)


def _chain_data(p: int, q: int, K=None):
    """Chain for (p, q) with its phase and lower-right entry.

    With K given, every tail partial product must keep its lower-left
    entry away from 0 mod K; the closed matrix-element form degenerates
    otherwise.
    """
    ch = Chain(cf_expand(p, q))
    if K is not None:
        for t in range(1, len(ch.ms) + 1):
            if ch.tails[t].q % K == 0:
                raise ChainDegenerate(
                    f"chain for ({p},{q}) has an intermediate denominator "
                    f"divisible by {K}")
    return ch.matrix, rademacher_phi(ch.matrix)


def _qc(K: int, e: int):
    """q^e at the root of unity, e an integer."""
    return mpmath.expjpi(mpmath.mpf(2 * (e % K)) / K)


def _chain_element(p: int, q: int, s: int, phi: int, K: int,
                   alpha: int, beta: int):
    """Closed form of the chain matrix element, q >= 1, color pair (alpha, beta)."""
    pref = (mpmath.mpc(0, 1) / mpmath.sqrt(2 * K * q)
            * mpmath.expjpi(mpmath.mpf(-phi) / 4))
    den = 2 * K * q
    tot = mpmath.mpc(0)
    for n in range(q):
        for mu in (1, -1):
            w = 2 * K * n + mu * beta
            num = p * alpha * alpha - 2 * alpha * w + s * w * w
            tot += mu * mpmath.expjpi(mpmath.mpf(num % (2 * den)) / den)
    return pref * tot


def _full_level_prefactor(phis, sig, K):
    e = Fraction(K - 2, K) * (sum(phis) - 3 * sig)
    return mpmath.expjpi(mpmath.mpf(e.numerator) / (4 * e.denominator))


def z_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z(M)/Z(S^3) at level k = K - 2 by direct color summation, K odd."""
    K = _odd_k(K)
    with mpmath.workdps(_dps(K, precision)):
        if isinstance(M, SeifertData):
            val = _z_star(M, K)
        else:
            surg, jones, sig = _numeric_presentation(M, K)
            val = _z_generic(surg, jones, sig, K)
        return complex(val)


def _z_generic(surg, jones, sig, K):
    if not surg:
        return mpmath.mpc(1)
    data = []
    phis = []
    for (p, q) in surg:
        mat, phi = _chain_data(p, q)
        data.append((p, q, mat.s, phi))
        phis.append(phi)
    pref = _full_level_prefactor(phis, sig, K)
    tot = mpmath.mpc(0)
    for al in itertools.product(range(1, K), repeat=len(surg)):
        term = jones(al)
        if term == 0:
            continue
        for (p, q, s, phi), a in zip(data, al):
            term *= _chain_element(p, q, s, phi, K, a, 1)
        tot += term
    return pref * tot


def _z_star(S: SeifertData, K: int):
    """Star presentation of z_numeric, factorized per fiber at fixed
    central color: O(N * K^2) instead of O(K^(N+1))."""
    fibers = [(p, q) if q > 0 else (-p, -q) for (p, q) in S.fractions]
    n = len(fibers)
    sig = -sign(S.H * S.P) + sum(sign(p * q) for (p, q) in fibers)
    central_mat, central_phi = _chain_data(0, 1)
    data = []
    phis = [central_phi]
    for (p, q) in fibers:
        mat, phi = _chain_data(p, q)
        data.append((p, q, mat.s, phi))
        phis.append(phi)
    pref = _full_level_prefactor(phis, sig, K)
    sin1 = mpmath.sinpi(mpmath.mpf(1) / K)
    tot = mpmath.mpc(0)
    for beta in range(1, K):
        inner = mpmath.mpc(1)
        for (p, q, s, phi) in data:
            acc = mpmath.mpc(0)
            for a in range(1, K):
                acc += (mpmath.sinpi(mpmath.mpf(beta * a % (2 * K)) / K)
                        * _chain_element(p, q, s, phi, K, a, 1))
            inner *= acc
        central = _chain_element(0, 1, central_mat.s, central_phi, K, beta, 1)
        denom = mpmath.sinpi(mpmath.mpf(beta) / K) ** (n - 1) * sin1
        tot += central * inner / denom
    return pref * tot


def _numeric_presentation(M, K):
    """(surgery coefficients, numeric link evaluation, signature)."""
    if isinstance(M, Lens):
        (pp, qq), sig = _lens_presentation(M.p, M.q)

        def jones(al):
            return (mpmath.sinpi(mpmath.mpf(al[0] % (2 * K)) / K)
                    / mpmath.sinpi(mpmath.mpf(1) / K))

        return [(pp, qq)], jones, sig
    if isinstance(M, P1Surgery):
        table = get_table(M.jones)
        surg = [(p, 1) for p in M.framings]
        sig = sum(sign(p) for p in M.framings)
        dps = mpmath.mp.dps

        def jones(al):
            return table.numeric(al, K, precision=dps)

        return surg, jones, sig
    raise NotRHS(f"unsupported manifold spec {M!r}")


def zprime_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z'(M) at odd prime K by direct summation over odd colors."""
    Kp = as_prime(K)
    K = Kp.K
    with mpmath.workdps(_dps(K, precision)):
        if isinstance(M, SeifertData):
            # the closed matrix-element identity i*sign(q) =
            # e^(i*pi*sign(p/q)/2)*sign(p) degenerates at the p = 0
            # central vertex, leaving a universal stray -1
            val = -_zprime_star(M, K)
        else:
            surg, jones, sig = _numeric_presentation(M, K)
            val = _zprime_generic(surg, jones, sig, K)
        return complex(val)


def _zprime_data(surg, K):
    t4 = inv_int(4, K)
    data = []
    phis = []
    for (p, q) in surg:
        mat, phi = _chain_data(p, q, K)
        data.append((p, q, inv_int(q, K), mat.s))
        phis.append(phi)
    pref = mpmath.mpc(legendre(abs(prod(q for (p, q) in surg)), K))
    for (p, q) in surg:
        pref *= sign(q)
    pref *= mpmath.mpf(K) ** (mpmath.mpf(-len(surg)) / 2)
    kap = kappa_of(K)
    sig_weight = sum(sign(p * q) for (p, q) in surg)
    return data, pref, t4, kap, sig_weight, phis


def _zprime_prefactor(pref, phis, sig, t4, kap, sig_weight, K):
    pref *= mpmath.expjpi(mpmath.mpf(-kap * sig) / 4)
    pref *= mpmath.expjpi(mpmath.mpf(-3 * (K - 2) * sig) / (4 * K))
    pref *= _qc(K, -t4 * sum(phis))
    pref *= (-1) ** (sig_weight % 2)
    return pref


def _color_factor(qstar, a, t2, K):
    return 0.5j * (_qc(K, -t2 * qstar * a) - _qc(K, t2 * qstar * a))


def _zprime_generic(surg, jones, sig, K):
    if not surg:
        return mpmath.mpc(1)
    data, pref, t4, kap, sig_weight, phis = _zprime_data(surg, K)
    pref = _zprime_prefactor(pref, phis, sig, t4, kap, sig_weight, K)
    t2 = inv_int(2, K)
    tot = mpmath.mpc(0)
    for al in itertools.product(odd_window(K), repeat=len(surg)):
        term = jones(al)
        if term == 0:
            continue
        e = sum(qs * (p * a * a + s) for (p, q, qs, s), a in zip(data, al))
        term *= _qc(K, t4 * e)
        for (p, q, qs, s), a in zip(data, al):
            term *= _color_factor(qs, a, t2, K)
        tot += term
    return pref * tot


def _zprime_star(S: SeifertData, K: int):
    """Odd-color star sum factorized per fiber at fixed central color."""
    fibers = [(p, q) if q > 0 else (-p, -q) for (p, q) in S.fractions]
    n = len(fibers)
    sig = -sign(S.H * S.P) + sum(sign(p * q) for (p, q) in fibers)
    surg = [(0, 1)] + fibers
    data, pref, t4, kap, sig_weight, phis = _zprime_data(surg, K)
    pref = _zprime_prefactor(pref, phis, sig, t4, kap, sig_weight, K)
    t2 = inv_int(2, K)
    sin1 = mpmath.sinpi(mpmath.mpf(1) / K)
    window = [a for a in odd_window(K) if a != K]
    inner_cache = []
    for (p, q, qs, s) in data[1:]:
        col = {}
        for beta in window:
            acc = mpmath.mpc(0)
            for a in odd_window(K):
                sv = mpmath.sinpi(mpmath.mpf(beta * a % (2 * K)) / K)
                if sv == 0:
                    continue
                acc += (sv * _qc(K, t4 * qs * (p * a * a + s))
                        * _color_factor(qs, a, t2, K))
            col[beta] = acc
        inner_cache.append(col)
    tot = mpmath.mpc(0)
    for beta in window:
        term = _color_factor(1, beta, t2, K)  # central (0,1): q* = 1, s = 0
        term /= mpmath.sinpi(mpmath.mpf(beta % (2 * K)) / K) ** (n - 1) * sin1
        for col in inner_cache:
            term *= col[beta]
        tot += term
    return pref * tot


def kirby_melvin_check(M: ManifoldSpec, K, tol: float = 1e-9,
                       precision=None) -> bool:
    """Proportionality of the full and odd-color invariants at odd K.

    The right factor is the level-one invariant Z(M;1)/Z(S^3;1),
    computed numerically at K = 3 and conjugated iff K = 1 mod 4.
    """
    K = _odd_k(K)
    z = z_numeric(M, K, precision)
    zp = zprime_numeric(M, K, precision)
    b = z_numeric(M, 3, precision)
    factor = b.conjugate() if K % 4 == 1 else b
    return abs(z - zp * factor) <= tol


# ---------------------------------------------------------------------------
# the exact integer-framing route


def _x_inverse_parts(K: int):
    """(z, n) with (q - 1) * z = n, n the rational norm (= K)."""
    x = qpow(1, K) - CycInt.one(K)
    z = CycInt.one(K)
    for j in range(2, K):
        z = z * x.galois(j)
    n = x * z
    if any(n.coeffs[1:]):
        raise IntegralityFailure("conjugate product of x not rational")
    return z, n.coeffs[0]


def exact_p1(M: P1Surgery, K) -> CycInt:
    """Exact Z' for an integer-framed presentation, inside Z[q].

    The color sum S carries a guaranteed factor x^(N(K-1)/2); it is
    divided out by exact division (DivisibilityFailure if violated),
    and the result is assembled with the unit u and a +-1 phase.
    """
    Kp = as_prime(K)
    K = Kp.K
    ps = M.framings
    n = len(ps)
    if n == 0:
        return CycInt.one(K)
    if any(p % K == 0 for p in ps):
        raise NotCoprime(f"framing divisible by {K}")
    table = get_table(M.jones)
    t4 = inv_int(4, K)
    pstars = [even_inv(p, K) for p in ps]
    S = CycInt.zero(K)
    for al in itertools.product(odd_window(K), repeat=n):
        shifted = tuple(a + pst for a, pst in zip(al, pstars))
        jv = table.exact(shifted, K)
        if not any(jv.coeffs):
            continue
        e = t4 * sum(p * a * a for p, a in zip(ps, al))
        S = S + jv * qpow(e, K)
    need = n * (K - 1) // 2
    if x_order(S) < min(K - 1, need):
        raise DivisibilityFailure(
            f"x-adic order of the color sum is {x_order(S)}, "
            f"needs at least {min(K - 1, need)}")
    z, nrm = _x_inverse_parts(K)
    w = S
    for _ in range(need):
        try:
            w = divide_exact(w * z, nrm)
        except IntegralityFailure as exc:
            raise DivisibilityFailure(str(exc)) from exc
    kap = kappa_of(K)
    tot = sum(sign(p) - 1 for p in ps)
    num = (kap - 1) * tot
    if num % 4:
        raise NonIntegralAssembly("phase exponent is not an integer")
    phase = -1 if (num // 4) % 2 else 1
    sgn = prod(sign(p) for p in ps)
    e2 = t4 * sum(3 * sign(p) - p - pst for p, pst in zip(ps, pstars))
    return (w * unit_u(K) ** n) * qpow(e2, K) * (phase * sgn)


# ---------------------------------------------------------------------------
# symbolic prefactor bookkeeping


class ExtendedPhase:
    """sign * mag * K^(khalf/2) * e^(i pi a/4) * e^(i pi b2/(2K)).

    a lives mod 8 and b2 mod 4K (b2 counts quarter-steps of q, so both
    half-integer q-powers and single e^(i pi/(2K)) steps stay exact).
    reduce() collapses the product into +-q^n once the magnitude parts
    have cancelled; anything that is not a root of unity of the right
    kind raises PhaseNotReducible.
    """

    __slots__ = ("K", "a", "b2", "sign", "mag", "khalf")

    def __init__(self, K: int):
        self.K = as_prime(K).K
        self.a = 0
        self.b2 = 0
        self.sign = 1
        self.mag = Fraction(1)
        self.khalf = 0

    def times_eighth(self, j: int) -> "ExtendedPhase":
        """Multiply by e^(i pi j/4)."""
        self.a = (self.a + j) % 8
        return self

    def times_i(self) -> "ExtendedPhase":
        return self.times_eighth(2)

    def times_quarter_q(self, c: int) -> "ExtendedPhase":
        """Multiply by e^(i pi c/(2K))."""
        self.b2 = (self.b2 + c) % (4 * self.K)
        return self

    def times_sqrt_q(self, c: int) -> "ExtendedPhase":
        """Multiply by q^(c/2)."""
        return self.times_quarter_q(2 * c)

    def times_q(self, c: int) -> "ExtendedPhase":
        """Multiply by q^c."""
        return self.times_quarter_q(4 * c)

    def times_sign(self, s: int) -> "ExtendedPhase":
        if s not in (1, -1):
            raise PhaseNotReducible(f"sign factor must be +-1, got {s}")
        self.sign *= s
        return self

    def times_magnitude(self, frac, khalf: int = 0) -> "ExtendedPhase":
        """Multiply by frac * K^(khalf/2), both tracked exactly."""
        frac = Fraction(frac)
        if frac <= 0:
            raise PhaseNotReducible("magnitudes must stay positive; route "
                                    "signs through times_sign")
        self.mag *= frac
        self.khalf += khalf
        return self

    @property
    def b(self):
        """The e^(i pi/K) exponent when it is well defined."""
        if self.b2 % 2:
            raise PhaseNotReducible("phase sits at a quarter step of q")
        return (self.b2 // 2) % (2 * self.K)

    def reduce(self) -> CycInt:
        """Collapse into +-q^n in Z[q]; PhaseNotReducible otherwise."""
        if self.mag != 1 or self.khalf != 0:
            raise PhaseNotReducible(
                f"magnitude {self.mag} * K^({self.khalf}/2) left over")
        K = self.K
        n = (self.a * K + 2 * self.b2) % (8 * K)
        if n % 8 == 0:
            return qpow(n // 8, K) * self.sign
        if n % 4 == 0:
            bp = (n // 4) % (2 * K)  # odd here: absorb e^(i pi) into q
            return qpow(((bp + K) // 2) % K, K) * (-self.sign)
        raise PhaseNotReducible(
            f"a genuine eighth root remains (a={self.a}, b2={self.b2})")

    def eval_complex(self, precision: int = 50):
        with mpmath.workdps(precision):
            val = mpmath.mpc(self.sign) * self.mag.numerator / self.mag.denominator
            val *= mpmath.mpf(self.K) ** (mpmath.mpf(self.khalf) / 2)
            val *= mpmath.expjpi(mpmath.mpf(self.a) / 4)
            val *= mpmath.expjpi(mpmath.mpf(self.b2) / (2 * self.K))
            return complex(val)

    def __repr__(self):
        return (f"ExtendedPhase(K={self.K}, sign={self.sign}, mag={self.mag},"
                f" khalf={self.khalf}, a={self.a}, b2={self.b2})")

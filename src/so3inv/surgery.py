"""Brute-force numeric oracles for surgery presentations, plus the
all-exact route for integer framings.

z_numeric evaluates the normalized invariant Z(M)/Z(S^3) at an odd
prime K by direct summation over colors 1..K-1 per surgery component.
Each slope p/q is completed to one SL2 matrix [[p, r], [q, s]] with
s = p^-1 mod q, and its matrix element is read in closed form (Jeffrey,
Comm. Math. Phys. 147 (1992)); any completion gives the same value,
since the Rademacher phase absorbs the choice.  zprime_numeric
evaluates the odd-color invariant Z'(M) the same way, summing over the
odd color window; its weights need q^-1 mod K, so it first re-presents
the manifold with no surgery denominator divisible by K.  Both build
one list of color weights per component and share one color sum
(_color_sum): a split link (the unknot for a lens space, an unlink
table for a P1 surgery) is one sum per component, its link value a
product of sines from the same table, not from the Z[q] code; a
Seifert star is summed fiber by fiber at each color of the central
vertex.  exact_p1 re-derives Z' for a P1 surgery entirely inside Z[q],
one component at a time (every link table is a split link, so the
surgery is a connected sum), dividing out the guaranteed power of
x = q - 1 step by step and failing loudly if the divisibility is
violated.

The numeric paths import mpmath when they run (exact_p1 never loads it)
and work at a precision that grows with K (50 + 2K digits unless
overridden); at that precision plain summation is already far more
accurate than any compensated double-precision scheme, so the 1e-9
cross-check tolerances hold with a large margin even near K = 100.  The
sums read every transcendental value from the one roots-of-unity table,
cyclotomic.unit_roots: the phases as roots of order K, the matrix
elements as roots of order 2 * den, sin(pi*y/K) as the imaginary part
of a root of order 2K, and the color factor (q^-e - q^e) * i/2 as
Im q^e.  Evaluations are pure functions of (manifold, K); callers that
want parallelism batch independent (manifold, K) tasks across processes
(see the command-line front end).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .arith import as_prime, even_inv, inv_int, kappa_of, legendre, sign
from .cyclotomic import (CycInt, divide_by_x, from_runs, odd_window, qpow,
                         unit_roots, unit_u)
from .errors import (
    ChainDegenerate,
    DivisibilityFailure,
    IntegralityFailure,
    NonIntegralAssembly,
    NotCoprime,
    NotRHS,
)
from .nt import Lens, ManifoldSpec, P1Surgery, SeifertData, rademacher_phi


def _dps(K: int, precision) -> int:
    return int(precision) if precision else 50 + 2 * K


def _lens_presentation(p: int, q: int):
    """Surgery coefficients and linking-matrix signature for L(p, q)."""
    pp, qq = -p, q
    if qq == 0:
        # only L(+-1, 0); re-present with the homeomorphic slope q + p
        qq = abs(pp)
    if qq < 0:
        pp, qq = -pp, -qq
    return [(pp, qq)], sign(pp)


def _chain_data(p: int, q: int):
    """Lower-right entry s = p^-1 mod q of an SL2 completion of the
    slope p/q, q >= 1, and its phase (s = 0 and T^p S for q = 1)."""
    s = pow(p, -1, q) if q else 0  # rademacher_phi rejects q = 0
    return s, rademacher_phi(p, q, s)


def _chain_element(p: int, q: int, s: int, phi: int, K: int,
                   alpha: int, beta: int):
    """Closed form of the matrix element, q >= 1, color pair (alpha, beta)."""
    import mpmath
    pref = (mpmath.mpc(0, 1) / mpmath.sqrt(2 * K * q)
            * mpmath.expjpi(mpmath.mpf(-phi) / 4))
    den = 2 * K * q
    # exp(i*pi*m/den) is root m of order 2*den: mpf(2m)/(2den) rounds
    # to the same mpf as mpf(m)/den
    roots = unit_roots(2 * den)
    tot = mpmath.mpc(0)
    for n in range(q):
        for mu in (1, -1):
            w = 2 * K * n + mu * beta
            num = p * alpha * alpha - 2 * alpha * w + s * w * w
            tot += mu * roots[num % (2 * den)]
    return pref * tot


def _z_prelude(surg, sig, K):
    """Per-component (p, q, s, phi) and the full-level prefactor."""
    import mpmath
    data = [(p, q, *_chain_data(p, q)) for (p, q) in surg]
    e = Fraction(K - 2, K) * (sum(d[3] for d in data) - 3 * sig)
    return data, mpmath.expjpi(mpmath.mpf(e.numerator) / (4 * e.denominator))


def _coprime_denominators(M, K: int):
    """The same manifold with, where one exists, no surgery denominator
    divisible by K: L(p, q) = L(p, q + |p|), and a Seifert fiber pair
    takes q_i + k p_i and q_j - k p_j, which keeps every fiber reduced
    and sum q/p fixed."""
    if isinstance(M, Lens) and M.q % K == 0:
        return Lens(M.p, M.q + abs(M.p))
    if not isinstance(M, SeifertData) or len(M.fractions) < 2:
        return M
    fr = list(M.fractions)
    for i, (p, q) in enumerate(fr):
        if q % K:
            continue
        # p is a unit mod K, so only k = 0 fails fiber i, and at most
        # one more k mod K fails its partner j
        j = (i + 1) % len(fr)
        pj, qj = fr[j]
        k = next(k for k in range(1, K) if (qj - k * pj) % K)
        fr[i], fr[j] = (p, q + k * p), (pj, qj - k * pj)
    return SeifertData(fr)


def _presentation(M):
    """(surgery coefficients, signature, is_star) of a manifold.

    A lens space or a P1 surgery is surgery on a split link: the unknot
    or a split unlink.  A Seifert space is the star: the
    central (0, 1) vertex, then the fibers with q made positive.
    """
    if isinstance(M, Lens):
        return (*_lens_presentation(M.p, M.q), False)
    if isinstance(M, P1Surgery):
        return ([(p, 1) for p in M.framings],
                sum(sign(p) for p in M.framings), False)
    if isinstance(M, SeifertData):
        fibers = [(p, q) if q > 0 else (-p, -q) for (p, q) in M.fractions]
        sig = -sign(M.H * M.P) + sum(sign(p * q) for (p, q) in fibers)
        return [(0, 1)] + fibers, sig, True
    raise NotRHS(f"unsupported manifold spec {M!r}")


def _color_sum(weights, star: bool, K: int):
    """The surgery sum over colors, one component at a time.

    weights holds one list of (color a, weight) pairs per component.
    With S_j(b) = sum_a sin(pi*b*a/K) * w_j[a], a split link, whose
    link value is prod sin(pi*a_j/K) / sin(pi/K)^N, sums to
    prod_j (S_j(1) / sin(pi/K)).  A star is summed one fiber at a time
    at each color b of the central vertex 0: sum_b w_0[b] *
    prod_j S_j(b) / (sin(pi*b/K)^(N-1) * sin(pi/K)) over the N fibers,
    skipping the b with sin(pi*b/K) = 0.
    """
    import mpmath
    sines = [r.imag for r in unit_roots(2 * K)]  # sin(pi*y/K)

    def fold(w, b):
        return sum((sines[b * a % (2 * K)] * x for a, x in w), mpmath.mpc(0))

    if not star:
        return prod((fold(w, 1) / sines[1] for w in weights),
                    start=mpmath.mpc(1))
    central, fibers = weights[0], weights[1:]
    tot = mpmath.mpc(0)
    for b, x in central:
        if b % K:
            denom = sines[b % (2 * K)] ** (len(fibers) - 1) * sines[1]
            tot += x * prod(fold(w, b) for w in fibers) / denom
    return tot


def z_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z(M)/Z(S^3) at level k = K - 2 by direct color summation."""
    import mpmath
    K = as_prime(K)
    with mpmath.workdps(_dps(K, precision)):
        surg, sig, star = _presentation(M)
        data, pref = _z_prelude(surg, sig, K)
        weights = [[(a, _chain_element(p, q, s, phi, K, a, 1))
                    for a in range(1, K)] for (p, q, s, phi) in data]
        return complex(pref * _color_sum(weights, star, K))


def zprime_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z'(M) at odd prime K by direct summation over odd colors."""
    import mpmath
    K = as_prime(K)
    with mpmath.workdps(_dps(K, precision)):
        surg, sig, star = _presentation(_coprime_denominators(M, K))
        data, pref, t4 = _zprime_prelude(surg, sig, K)
        t2 = inv_int(2, K)
        roots = unit_roots(K)
        # roots[e].imag is the color factor (q^-e - q^e) * i/2
        weights = [[(a, roots[t4 * qs * (p * a * a + s) % K]
                     * roots[t2 * qs * a % K].imag) for a in odd_window(K)]
                   for (p, q, qs, s) in data]
        val = pref * _color_sum(weights, star, K)
        if star:
            # the closed matrix-element identity i*sign(q) =
            # e^(i*pi*sign(p/q)/2)*sign(p) degenerates at the p = 0
            # central vertex, leaving a universal stray -1
            val = -val
        return complex(val)


def _zprime_prelude(surg, sig, K):
    """Per-component (p, q, q*, s), the odd-color prefactor, and 4*.

    Only q* = q^-1 mod K can fail: ChainDegenerate when K divides q.
    """
    import mpmath
    t4 = inv_int(4, K)
    data = []
    phis = []
    for (p, q) in surg:
        if q % K == 0:
            raise ChainDegenerate(
                f"surgery denominator {q} is divisible by K = {K}")
        s, phi = _chain_data(p, q)
        data.append((p, q, inv_int(q, K), s))
        phis.append(phi)
    pref = mpmath.mpc(legendre(abs(prod(q for (p, q) in surg)), K))
    for (p, q) in surg:
        pref *= sign(q)
    pref *= mpmath.mpf(K) ** (mpmath.mpf(-len(surg)) / 2)
    pref *= mpmath.expjpi(mpmath.mpf(-kappa_of(K) * sig) / 4)
    pref *= mpmath.expjpi(mpmath.mpf(-3 * (K - 2) * sig) / (4 * K))
    pref *= unit_roots(K)[-t4 * sum(phis) % K]
    pref *= (-1) ** (sum(sign(p * q) for (p, q) in surg) % 2)
    return data, pref, t4


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


# ---------------------------------------------------------------------------
# the exact integer-framing route


def exact_p1(M: P1Surgery, K) -> CycInt:
    """Exact Z' for an integer-framed presentation, inside Z[q].

    Every link table is a split link of unknots, so the surgery is a
    connected sum and Z' is the product of one factor per component
    (`_p1_factor`), whichever table M names; the empty surgery gives 1.
    """
    K = as_prime(K)
    if any(p % K == 0 for p in M.framings):
        raise NotCoprime(f"framing divisible by {K}")
    return prod((_p1_factor(p, K) for p in M.framings), start=CycInt.one(K))


def _p1_factor(p: int, K: int) -> CycInt:
    """One component of exact_p1: its odd-color sum S.

    S is the sum over odd colors a of q^(4* p a^2) [a + p*], p* the even
    inverse of p, and each term is one run of powers of q (the link
    value [c] at an odd color c is `cyclotomic.sine_quotient(c)`).  S
    carries a guaranteed factor x^((K-1)/2); it is divided out by exact
    division (DivisibilityFailure if violated), and the result is
    assembled with the unit u, a +-1 phase, sign(p) and a power of q.
    """
    t2, t4 = inv_int(2, K), inv_int(4, K)
    pst = even_inv(p, K)
    w = from_runs([(t4 * p * a * a + t2 * (1 - a - pst), (a + pst) % K, 1)
                   for a in odd_window(K)], K)
    try:
        for _ in range((K - 1) // 2):
            w = divide_by_x(w)
    except IntegralityFailure as exc:
        raise DivisibilityFailure(str(exc)) from exc
    num = (kappa_of(K) - 1) * (sign(p) - 1)
    if num % 4:
        raise NonIntegralAssembly("phase exponent is not an integer")
    phase = -1 if (num // 4) % 2 else 1
    e2 = t4 * (3 * sign(p) - p - pst)
    return w * unit_u(K) * qpow(e2, K) * (phase * sign(p))

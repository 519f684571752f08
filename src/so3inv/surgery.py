"""Brute-force numeric oracles for surgery presentations, plus the
all-exact route for integer framings.

z_numeric evaluates the normalized invariant Z(M)/Z(S^3) by direct
summation over colors 1..K-1 per surgery component, with the chain
matrix elements in closed form; it accepts any odd K >= 3 so that the
level-one right factor of kirby_melvin_check can be computed.
zprime_numeric evaluates the odd-color invariant Z'(M) the same way,
summing over the odd color window, jointly over all components; the
Jones values of integer-framed (P1) surgeries come from the same sines
as the lens ones, not from the Z[q] code.  exact_p1 re-derives Z' for a
P1 surgery entirely inside Z[q], one component at a time (every
registered table is a split link, so the surgery is a connected sum),
dividing out the guaranteed power of x = q - 1 step by step and failing
loudly if the divisibility is violated.

The numeric paths import mpmath when they run (exact_p1 never loads it)
and work at a precision that grows with K (50 + 2K digits unless
overridden); at that precision plain summation is already far more
accurate than any compensated double-precision scheme, so the 1e-9
cross-check tolerances hold with a large margin even near K = 100.  The
sums read every transcendental value from the one roots-of-unity table,
cyclotomic.unit_roots: the phases as roots of order K, the chain
elements as roots of order 2 * den, sin(pi*y/K) as the imaginary part
of a root of order 2K, and the color factor (q^-e - q^e) * i/2 as
Im q^e.  Evaluations are pure functions of (manifold, K); callers that
want parallelism batch independent (manifold, K) tasks across processes
(see the command-line front end).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .arith import as_prime, even_inv, inv_int, kappa_of, legendre, sign
from .cyclotomic import (CycInt, divide_by_x, from_counts, odd_window, qpow,
                         unit_roots, unit_u, x_order)
from .errors import (
    DivisibilityFailure,
    IntegralityFailure,
    NonIntegralAssembly,
    NotAnOddPrime,
    NotCoprime,
    NotRHS,
)
from .jones import get_table
from .nt import (Chain, Lens, ManifoldSpec, P1Surgery, SeifertData, cf_expand,
                 rademacher_phi)


def _dps(K: int, precision) -> int:
    return int(precision) if precision else 50 + 2 * K


def _odd_k(K) -> int:
    K = int(K)
    if K < 3 or K % 2 == 0:
        raise NotAnOddPrime(f"need odd K >= 3, got {K}")
    return K


def _lens_presentation(p: int, q: int):
    """Surgery coefficients and linking-matrix signature for L(p, q)."""
    pp, qq = -p, q
    if qq == 0:
        # only L(+-1, 0); re-present with the homeomorphic slope q + p
        qq = abs(pp)
    if qq < 0:
        pp, qq = -pp, -qq
    return [(pp, qq)], sign(pp)


def _chain_data(p: int, q: int, K=None):
    """Chain matrix for (p, q) with its phase; with K given, a chain
    that degenerates at level K raises ChainDegenerate."""
    ch = Chain(cf_expand(p, q))
    if K is not None:
        ch.check_level(K)
    return ch.matrix, rademacher_phi(ch.matrix)


def _chain_element(p: int, q: int, s: int, phi: int, K: int,
                   alpha: int, beta: int):
    """Closed form of the chain matrix element, q >= 1, color pair (alpha, beta)."""
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
    data = []
    for (p, q) in surg:
        mat, phi = _chain_data(p, q)
        data.append((p, q, mat.s, phi))
    e = Fraction(K - 2, K) * (sum(d[3] for d in data) - 3 * sig)
    return data, mpmath.expjpi(mpmath.mpf(e.numerator) / (4 * e.denominator))


def z_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z(M)/Z(S^3) at level k = K - 2 by direct color summation, K odd."""
    import mpmath
    K = _odd_k(K)
    with mpmath.workdps(_dps(K, precision)):
        if isinstance(M, SeifertData):
            val = _z_star(M, K)
        else:
            surg, jones, sig = _numeric_presentation(M, K)
            val = _z_generic(surg, jones, sig, K)
        return complex(val)


def _z_generic(surg, jones, sig, K):
    import mpmath
    if not surg:
        return mpmath.mpc(1)
    data, pref = _z_prelude(surg, sig, K)
    tot = mpmath.mpc(0)
    for al in itertools.product(range(1, K), repeat=len(surg)):
        term = jones(al)
        if term == 0:
            continue
        for (p, q, s, phi), a in zip(data, al):
            term *= _chain_element(p, q, s, phi, K, a, 1)
        tot += term
    return pref * tot


def _star_prelude(S: SeifertData):
    """The central (0, 1) vertex then the fibers with q made positive,
    and the star's signature."""
    fibers = [(p, q) if q > 0 else (-p, -q) for (p, q) in S.fractions]
    sig = -sign(S.H * S.P) + sum(sign(p * q) for (p, q) in fibers)
    return [(0, 1)] + fibers, sig


def _z_star(S: SeifertData, K: int):
    """Star presentation of z_numeric, factorized per fiber at fixed
    central color: O(N * K^2) instead of O(K^(N+1))."""
    import mpmath
    data, pref = _z_prelude(*_star_prelude(S), K)
    central, data = data[0], data[1:]
    n = len(data)
    sines = [r.imag for r in unit_roots(2 * K)]  # sin(pi*y/K)
    tot = mpmath.mpc(0)
    for beta in range(1, K):
        inner = mpmath.mpc(1)
        for (p, q, s, phi) in data:
            acc = mpmath.mpc(0)
            for a in range(1, K):
                acc += (sines[beta * a % (2 * K)]
                        * _chain_element(p, q, s, phi, K, a, 1))
            inner *= acc
        denom = sines[beta] ** (n - 1) * sines[1]
        tot += _chain_element(*central, K, beta, 1) * inner / denom
    return pref * tot


def _numeric_presentation(M, K):
    """(surgery coefficients, numeric link evaluation, signature).

    The links, the unknot and the registered split unlinks, evaluate to
    [a_1]...[a_N] = prod sin(pi*a_j/K) / sin(pi/K), from the roots table.
    """
    if isinstance(M, Lens):
        surg, sig = _lens_presentation(M.p, M.q)
    elif isinstance(M, P1Surgery):
        surg = [(p, 1) for p in M.framings]
        sig = sum(sign(p) for p in M.framings)
    else:
        raise NotRHS(f"unsupported manifold spec {M!r}")
    sines = [r.imag for r in unit_roots(2 * K)]  # sin(pi*y/K)

    def jones(al):
        return prod(sines[a % (2 * K)] for a in al) / sines[1] ** len(al)

    return surg, jones, sig


def zprime_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z'(M) at odd prime K by direct summation over odd colors."""
    import mpmath
    K = as_prime(K)
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


def _zprime_prelude(surg, sig, K):
    """Per-component (p, q, q*, s), the odd-color prefactor, and 4*."""
    import mpmath
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
    pref *= mpmath.expjpi(mpmath.mpf(-kappa_of(K) * sig) / 4)
    pref *= mpmath.expjpi(mpmath.mpf(-3 * (K - 2) * sig) / (4 * K))
    pref *= unit_roots(K)[-t4 * sum(phis) % K]
    pref *= (-1) ** (sum(sign(p * q) for (p, q) in surg) % 2)
    return data, pref, t4


def _zprime_generic(surg, jones, sig, K):
    import mpmath
    if not surg:
        return mpmath.mpc(1)
    data, pref, t4 = _zprime_prelude(surg, sig, K)
    t2 = inv_int(2, K)
    roots = unit_roots(K)
    colors = [r.imag for r in roots]  # (q^-e - q^e) * i/2
    tot = mpmath.mpc(0)
    for al in itertools.product(odd_window(K), repeat=len(surg)):
        term = jones(al)
        if term == 0:
            continue
        e = sum(qs * (p * a * a + s) for (p, q, qs, s), a in zip(data, al))
        term *= roots[t4 * e % K]
        for (p, q, qs, s), a in zip(data, al):
            term *= colors[t2 * qs * a % K]
        tot += term
    return pref * tot


def _zprime_star(S: SeifertData, K: int):
    """Odd-color star sum factorized per fiber at fixed central color."""
    import mpmath
    surg, sig = _star_prelude(S)
    n = len(surg) - 1
    data, pref, t4 = _zprime_prelude(surg, sig, K)
    t2 = inv_int(2, K)
    roots = unit_roots(K)
    sines = [r.imag for r in unit_roots(2 * K)]  # sin(pi*y/K)
    colors = [r.imag for r in roots]  # (q^-e - q^e) * i/2
    window = [a for a in odd_window(K) if a != K]
    inner_cache = []
    for (p, q, qs, s) in data[1:]:
        col = {}
        for beta in window:
            acc = mpmath.mpc(0)
            for a in odd_window(K):
                sv = sines[beta * a % (2 * K)]
                if sv == 0:
                    continue
                acc += (sv * roots[t4 * qs * (p * a * a + s) % K]
                        * colors[t2 * qs * a % K])
            col[beta] = acc
        inner_cache.append(col)
    tot = mpmath.mpc(0)
    for beta in window:
        term = colors[t2 * beta % K]  # central (0,1): q* = 1, s = 0
        term /= sines[beta % (2 * K)] ** (n - 1) * sines[1]
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


def exact_p1(M: P1Surgery, K) -> CycInt:
    """Exact Z' for an integer-framed presentation, inside Z[q].

    Every registered table is a split link, so the surgery is a
    connected sum and Z' is the product of one factor per component
    (`_p1_factor`); the empty surgery gives 1.
    """
    K = as_prime(K)
    if any(p % K == 0 for p in M.framings):
        raise NotCoprime(f"framing divisible by {K}")
    table = get_table(M.jones)
    return prod((_p1_factor(table, p, K) for p in M.framings),
                start=CycInt.one(K))


def _p1_factor(table, p: int, K: int) -> CycInt:
    """One component of exact_p1: its odd-color sum S.

    S carries a guaranteed factor x^((K-1)/2); it is divided out by
    exact division (DivisibilityFailure if violated), and the result is
    assembled with the unit u, a +-1 phase, sign(p) and a power of q.
    """
    t4 = inv_int(4, K)
    pst = even_inv(p, K)
    # sum of jv * q^e, as exponent counts: q^e rotates jv by e slots
    full = [0] * K
    for a in odd_window(K):
        e = t4 * p * a * a
        for i, c in enumerate(table.exact((a + pst,), K).coeffs):
            full[(i + e) % K] += c
    S = from_counts(full, K)
    need = (K - 1) // 2
    if x_order(S) < need:
        raise DivisibilityFailure(
            f"x-adic order of the color sum is {x_order(S)}, "
            f"needs at least {need}")
    w = S
    try:
        for _ in range(need):
            w = divide_by_x(w)
    except IntegralityFailure as exc:
        raise DivisibilityFailure(str(exc)) from exc
    num = (kappa_of(K) - 1) * (sign(p) - 1)
    if num % 4:
        raise NonIntegralAssembly("phase exponent is not an integer")
    phase = -1 if (num // 4) % 2 else 1
    e2 = t4 * (3 * sign(p) - p - pst)
    return w * unit_u(K) * qpow(e2, K) * (phase * sign(p))

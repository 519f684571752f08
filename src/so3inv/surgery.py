"""The numeric oracle for surgery presentations, plus the all-exact
route for integer framings.

zprime_numeric evaluates the odd-color invariant Z'(M) at an odd prime
K by direct summation over the odd color window, per surgery
component.  Every slope is read with q > 0, as -p/-q if need be: one
rule for the lens slope -p/q of L(p, q), the framings and the Seifert
fibers.  Each slope p/q is completed to one SL2 matrix
[[p, r], [q, s]] with s = p^-1 mod q, and its matrix element is read in
closed form (Jeffrey, Comm. Math. Phys. 147 (1992)); any completion
gives the same value, since the Rademacher phase absorbs the choice.
The weights need q^-1 mod K, so the manifold is first re-presented with
no surgery denominator divisible by K.  The color sum (_color_sum)
takes one list of color weights per component: a Seifert star is
summed fiber by fiber at each color of the central vertex, and a split
link (the unknot for a lens space, an unlink table for a P1 surgery),
whose link value is a product of sines from the same table, not from
the Z[q] code, is the same sum at one central color.  exact_p1
re-derives Z' for a P1 surgery entirely inside Z[q], one component at
a time (every link table is a split link, so the surgery is a connected
sum), dividing each component's color sum by the Gauss sum with one
exact division by K, which fails loudly unless the sum carries the
guaranteed power x^((K-1)/2) of x = q - 1.

The numeric path imports mpmath when it runs (exact_p1 never loads it)
and works at a precision that grows with K (50 + 2K digits unless
overridden; BadPrecision below one digit).  mpmath gives only the one
root from which each roots-of-unity table, cyclotomic.fixed_roots, is
powered in integers, once per (order, precision); every evaluation is
integer fixed-point arithmetic over the tables' integers: sums of
products, each product shifted back to the table's scale 2^B once and
each division by the sines one floor division.  Rounding enters only
through the table entries (each within one unit of 2^-B of its root,
and the nearest integer but for roots within 2^-63 units of a
half-integer), one unit of 2^-B per shift and one per floor division,
and one int / int per component, so the 1e-9 cross-check tolerances
hold with a large margin even near K = 100.  The sums read the phases
as roots of order K (the even entries of the table of order 2K),
sin(pi*y/K) as Im of a root of order 2K and the color factor
(q^-e - q^e) * i/2 as Im q^e; the constant phase and modulus are root m
of order 8K, e^(i*pi*m/(4K)), over sqrt(K)^N, one isqrt.  Evaluations
are pure functions of (manifold, K); callers that want parallelism
batch them across processes (see the command-line front end).
"""

from __future__ import annotations

from math import isqrt, prod
from operator import mul

from .arith import as_prime, even_inv, inv_int, legendre, sign
from .cyclotomic import (CycInt, divide_exact, fixed_roots, from_runs,
                         gauss_sum, odd_window, sine_run)
from .errors import BadPrecision, ChainDegenerate, NotRHS
from .nt import (Lens, ManifoldSpec, P1Surgery, SeifertData, check_h1,
                 h1_order, rademacher_phi)


def _dps(K: int, precision) -> int:
    if precision is None:
        return 50 + 2 * K
    if precision < 1:
        raise BadPrecision(f"precision {precision} is below one digit")
    return int(precision)


def _chain_data(p: int, q: int):
    """Lower-right entry s = p^-1 mod q of an SL2 completion of the
    slope p/q, q >= 1, and its phase (s = 0 and T^p S for q = 1)."""
    s = pow(p, -1, q) if q else 0  # rademacher_phi rejects q = 0
    return s, rademacher_phi(p, q, s)


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

    A lens space L(p, q) or a P1 surgery is surgery on a split link:
    the unknot with slope -p/q or a split unlink with slopes p/1.  A
    Seifert space is the star: the central (0, 1) vertex, then one
    slope per fiber.  Every slope gets q > 0 and adds sign(p q) to the
    signature, in one pass; a star adds -sign(H P) for its vertex.
    """
    if isinstance(M, Lens):
        slopes, star = [(-M.p, M.q)], False
    elif isinstance(M, P1Surgery):
        slopes, star = [(p, 1) for p in M.framings], False
    elif isinstance(M, SeifertData):
        slopes, star = M.fractions, True
    else:
        raise NotRHS(f"unsupported manifold spec {M!r}")
    surg = [(p, q) if q > 0 else (-p, -q) for (p, q) in slopes]
    sig = sum(sign(p * q) for (p, q) in slopes)
    if star:
        return [(0, 1)] + surg, sig - sign(M.H * M.P), True
    return surg, sig, False


def _color_sum(colors, weights, star: bool, K: int):
    """The surgery sum over colors, one component at a time, in fixed
    point: (B, re, im), the sum times 2^B, B the scale of the sines.

    weights holds one pair of lists (re, im) per component: the
    weights of `colors` at scale 2^B.  With S_j(b) = sum_a
    sin(pi*b*a/K) * w_j[a], a star sums at each color b of the
    central vertex 0 the term w_0[b] * prod_j S_j(b) /
    (sin(pi*b/K)^(N-1) * sin(pi/K)) over the N fibers, skipping the b
    with sin(pi*b/K) = 0.  A split link, whose link value is
    prod sin(pi*a_j/K) / sin(pi/K)^N, is the same sum at the one
    central color b = 1 of weight 1; the empty one sums to 1.  Each
    product is shifted back to scale 2^B once, and each term's division
    by the sines is one floor division.
    """
    B, _, sines = fixed_roots(2 * K)
    if star:
        central, fibers = zip(colors, *weights[0]), weights[1:]
    else:
        central, fibers = [(1, 1 << B, 0)], weights
    n = len(fibers)
    tot_re = tot_im = 0
    for b, x, y in central:
        if b % K == 0:
            continue
        ss = [sines[b * a % (2 * K)] for a in colors]
        for re, im in fibers:
            u = sum(map(mul, ss, re)) >> B
            v = sum(map(mul, ss, im)) >> B
            x, y = (x * u - y * v) >> B, (x * v + y * u) >> B
        d = sines[b % (2 * K)] ** (n - 1) * sines[1] if n else 1
        tot_re += (x << n * B) // d
        tot_im += (y << n * B) // d
    return B, tot_re, tot_im


def _value(fixed, m: int, rad: int, K: int) -> complex:
    """e^(i*pi*m/(4K)) / sqrt(rad) times a fixed-point (B, re, im),
    0 <= m < 8K: root m of the table of order 8K, scale 2^C, times
    (re, im) exactly, over sqrt(rad) as one isqrt at scale 2^(B+C);
    each component is one correctly rounded int / int."""
    B, re, im = fixed
    C, cos, sin = fixed_roots(8 * K)
    r = isqrt(rad << 2 * (B + C))
    return complex((cos[m] * re - sin[m] * im) / r,
                   (cos[m] * im + sin[m] * re) / r)


def zprime_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z'(M) at odd prime K by direct summation over odd colors."""
    import mpmath
    K = as_prime(K)
    with mpmath.workdps(_dps(K, precision)):
        surg, sig, star = _presentation(_coprime_denominators(M, K))
        data, m = _zprime_prelude(surg, sig, K)
        B, cos, sin = fixed_roots(2 * K)
        t2, t4 = inv_int(2, K), inv_int(4, K)
        colors = odd_window(K)
        weights = []
        for (p, qs, s) in data:
            # root e of order K is entry 2e of the table of order 2K;
            # the imaginary part of root t2*qs*a is the color factor
            # (q^-e - q^e) * i/2
            rows = [(2 * (t4 * qs * (p * a * a + s) % K),
                     sin[2 * (t2 * qs * a % K)]) for a in colors]
            weights.append(([cos[e] * f >> B for e, f in rows],
                            [sin[e] * f >> B for e, f in rows]))
        return _value(_color_sum(colors, weights, star, K), m,
                      K ** len(surg), K)


def _zprime_prelude(surg, sig, K: int):
    """Per-component (p, q*, s) and the phase m of the odd-color
    prefactor e^(i*pi*m/(4K)) / sqrt(K)^N.

    m gathers e^(-i*pi*kappa*sig/4), kappa = legendre(-1, K),
    e^(-3i*pi*(K-2)*sig/(4K)), the root of order K of the summed chain
    phases and every sign, a -1 being m + 4K, so only the parity of the
    count of -1s enters.  Every q is at least 1 (`_presentation` makes
    q >= 0, and q = 0 is divisible by K), so the signs are the Legendre
    symbol of prod q and one -1 per component.  Read through the
    matrix-element identity
    i = e^(i*pi*sign(p)/2)*sign(p), that -1 is (-1)^sign(p), which is
    -1 at every p != 0.  At the central (0, 1) vertex of a star the
    identity's right side vanishes, but the element does not: the
    vertex is T^0 S = S, whose element
    i/sqrt(2K) * sum_mu mu*e^(-i*pi*a*b*mu/K) = sqrt(2/K)*sin(pi*a*b/K)
    (Jeffrey, Comm. Math. Phys. 147 (1992)) is the closed formula at
    (p, q, s) = (0, 1, 0), with the same -1.  So every component gives
    one: len(surg) of them.  Only q* = q^-1 mod K can fail:
    ChainDegenerate when K divides q.
    """
    t4 = inv_int(4, K)
    data, phis = [], 0
    for (p, q) in surg:
        if q % K == 0:
            raise ChainDegenerate(
                f"surgery denominator {q} is divisible by K = {K}")
        s, phi = _chain_data(p, q)
        data.append((p, inv_int(q, K), s))
        phis += phi
    negative = (legendre(prod(q for (p, q) in surg), K) < 0) + len(surg)
    m = (-legendre(-1, K) * sig * K - 3 * (K - 2) * sig
         + 8 * (-t4 * phis % K) + 4 * K * negative)
    return data, m % (8 * K)


# ---------------------------------------------------------------------------
# the exact integer-framing route


def exact_p1(M: P1Surgery, K) -> CycInt:
    """Exact Z' for an integer-framed presentation, inside Z[q].

    Every link table is a split link of unknots, so the surgery is a
    connected sum and Z' is the product of one factor per component
    (`_p1_factor`), whichever table M names; the empty surgery gives 1.
    """
    K = as_prime(K)
    check_h1(h1_order(M), K)
    return prod((_p1_factor(p, K) for p in M.framings), start=CycInt.one(K))


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

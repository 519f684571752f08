"""The numeric oracle for surgery presentations.

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
the Z[q] code, is the same sum at one central color.  The exact Z'
of every presentation is `ohtsuki.closed_zprime`'s, from the closed
forms; the command-line front end never loads this module.

The oracle is integer fixed-point arithmetic over the roots-of-unity
tables of cyclotomic.fixed_roots, each the integer powers of one root
computed in integers (Machin's pi and the series of e^(it)), once per
(order, digits): sums of products, each product shifted back to the
table's scale 2^B once and each division by the sines one floor
division.  Rounding enters only through the table entries (each
within one unit of 2^-B of its root, and the nearest integer but for
roots within 2^-63 units of a half-integer), one unit of 2^-B per
shift and one per floor division, and one int / int per component.
The sums read the phases as roots of order K (the even entries of the
table of order 2K), sin(pi*y/K) as Im of a root of order 2K and the
color factor (q^-e - q^e) * i/2 as Im q^e; the constant phase and
modulus are root m of order 8K, e^(i*pi*m/(4K)), over sqrt(K)^N, one
isqrt.  Evaluations are pure functions of (manifold, K); callers that
want parallelism batch them across processes (see the command-line
front end).

The fold.  A component's weight at the odd color a is a phase even in
a times a color factor odd in a, and the sine sin(pi*b*a/K) that pairs
it with the central color b is odd in a, so every fiber sum is even
under a -> -a, and its a = K term has sin(pi*b) = 0.  So zprime_numeric
sums the colors 1, 3, ..., K - 2 with every weight doubled (shifted
back by B - 1, not B).  A star's central term, w_0(b) times its n
fiber sums over sin(pi*b/K)^(n - 1) sin(pi/K), is even in b as well
(n + 1 odd factors over n - 1), and its (0, 1) vertex weighs b like
any other component, so the doubled weights fold the central color
too, and `_color_sum` needs no change: a split link does half the
products and a star a quarter.

The digits.  An explicit `precision` d is used as given when the
bound below, K^(3N/2) * 10^-d for N surgery components, is at most
1e-9, the tolerance of every comparison with the oracle (BadPrecision,
naming the digits needed, otherwise); without one, d = 30 +
ceil(1.5 n log10 K) digits, with n = max(N, 6), keep the error below
1e-30.  In units of 2^-B, with B = prec + (2K).bit_length() + 1
bits and prec the bits of d digits (cyclotomic._prec, mpmath's rule
round((d + 1) log2 10)): the table entries are within one unit; one
shift per product puts each doubled weight (modulus at most 2) within
5 and each fiber sum, of (K - 1)/2 products, within 3.5K per part; a
fiber sum has modulus below K, so each grows the product at most
K-fold, and a product of n of them is within 10(n + 1)K^n.  One floor
per sine division: the n sines are each at least 2/K and within one
unit, so the division amplifies by at most (K/2)^n and adds the sines'
own error, and a central term is within 3(n + 1)K^(n + 1)(K/2)^n.  A
star sums (K - 1)/2 central terms over n = N - 1 fibers, a split link
one term over n = N, and the prefactor divides by sqrt(K^N): either
way the value is within 3(N + 1)K^(3N/2 + 1)/2^N units, which is below
K^(3N/2) * 10^-d as 2^-B < 10^-d/(28K).  The bound grows with N, so
n = max(N, 6) serves every N <= 6 at one d per K: every presentation
of up to six components reads one pair of tables (orders 2K and 8K)
per K.
"""

from __future__ import annotations

from math import ceil, isqrt, log10, prod
from operator import mul

from .arith import as_prime, inv_int, legendre, sign
from .cyclotomic import fixed_roots
from .errors import BadPrecision, ChainDegenerate, NotRHS
from .nt import Lens, ManifoldSpec, P1Surgery, SeifertData, rademacher_phi


def _digits(K: int, N: int, precision) -> int:
    """Working digits of zprime_numeric for N surgery components: an
    explicit `precision` d at which the module docstring's error bound
    K^(3N/2) * 10^-d is at most 1e-9 (BadPrecision otherwise), else the
    d at which K^(3n/2) * 10^-d, n = max(N, 6), is below 1e-30, one d
    per K for every presentation of up to six components."""
    if precision is None:
        return 30 + ceil(1.5 * max(N, 6) * log10(K))
    need = 9 + ceil(1.5 * N * log10(K))
    if precision < need:
        raise BadPrecision(f"precision {precision} is below the {need} "
                           f"digits that {N} components need at K = {K}")
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


def _color_sum(colors, weights, star: bool, K: int, digits: int):
    """The surgery sum over colors, one component at a time, in fixed
    point: (B, re, im), the sum times 2^B, B the scale of the sines,
    the table of order 2K at `digits` digits.

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
    B, _, sines = fixed_roots(2 * K, digits)
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


def _value(fixed, m: int, rad: int, K: int, digits: int) -> complex:
    """e^(i*pi*m/(4K)) / sqrt(rad) times a fixed-point (B, re, im),
    0 <= m < 8K: root m of the table of order 8K at `digits` digits,
    scale 2^C, times (re, im) exactly, over sqrt(rad) as one isqrt at
    scale 2^(B+C); each component is one correctly rounded int / int."""
    B, re, im = fixed
    C, cos, sin = fixed_roots(8 * K, digits)
    r = isqrt(rad << 2 * (B + C))
    return complex((cos[m] * re - sin[m] * im) / r,
                   (cos[m] * im + sin[m] * re) / r)


def zprime_numeric(M: ManifoldSpec, K, precision=None) -> complex:
    """Z'(M) at odd prime K by direct summation over odd colors."""
    K = as_prime(K)
    surg, sig, star = _presentation(_coprime_denominators(M, K))
    digits = _digits(K, len(surg), precision)
    data, m = _zprime_prelude(surg, sig, K)
    B, cos, sin = fixed_roots(2 * K, digits)
    t2, t4 = inv_int(2, K), inv_int(4, K)
    # the sums are even in each color (see the module docstring):
    # the positive half of the odd window, every weight doubled
    colors = range(1, K, 2)
    weights = []
    for (p, qs, s) in data:
        # root e of order K is entry 2e of the table of order 2K;
        # the imaginary part of root t2*qs*a is the color factor
        # (q^-e - q^e) * i/2
        rows = [(2 * (t4 * qs * (p * a * a + s) % K),
                 sin[2 * (t2 * qs * a % K)]) for a in colors]
        weights.append(([cos[e] * f >> B - 1 for e, f in rows],
                        [sin[e] * f >> B - 1 for e, f in rows]))
    return _value(_color_sum(colors, weights, star, K, digits), m,
                  K ** len(surg), K, digits)


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

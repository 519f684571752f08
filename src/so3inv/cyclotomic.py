"""Exact arithmetic in Z[q] for q a primitive K-th root of unity.

Elements are stored on the power basis {1, q, ..., q^(K-2)} with the
relation 1 + q + ... + q^(K-1) = 0 folding the top power down.  Sums
of q-power terms are given as runs w * (q^s + ... + q^(s+m-1)) and
accumulated once by `from_runs`; a quantized integer [c] is one run
(`sine_run`), since its terms step the exponent by 2* and 2 * 2* = 1
mod K.  `to_xpoly` rewrites an element as the coefficient tuple of an
integer polynomial in x = q - 1; powers of x filtered mod K (the
x-adic order and the diamond truncation) are what connect exact
invariants to their rational series images.

The module also owns the one table of transcendental values in the
package, `fixed_roots`: the roots of unity as integers at a scale 2^B,
the powers of one root from mpmath (imported on first use), each the
integer nearest 2^B times its root up to one unit.  mpmath only builds
tables: `eval_complex` and the numeric surgery oracle work in integers
over them, so their rounding enters only through the table entries,
the oracle's shifts and floor divisions, and one int / int per
component.

Quadratic sums run over the K odd residue classes mod 2K, represented
by the odd integers in [2-K, K].  The class of K itself contributes
q^0-type terms; dropping it breaks the completed-square identity.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add, mul
from typing import Sequence

from .arith import as_prime
from .errors import BadPrecision, DivisibilityFailure, MixedModulus
from .series import TruncPoly


def odd_window(K: int) -> range:
    """The odd representatives of the residue classes mod 2K."""
    return range(2 - K, K + 1, 2)


class CycInt:
    """An element of Z[q] on the basis {1, q, ..., q^(K-2)}: sums,
    products (by an int or an element) and the Galois action."""

    __slots__ = ("K", "coeffs")

    def __init__(self, coeffs: Sequence[int], K: int):
        as_prime(K)
        cs = [int(c) for c in coeffs[:K - 1]]
        cs.extend([0] * (K - 1 - len(cs)))
        self.K = K
        self.coeffs = tuple(cs)

    @staticmethod
    def one(K: int) -> "CycInt":
        return CycInt([1], K)

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.K != self.K:
                raise MixedModulus(f"primes differ: {self.K} vs {other.K}")
            return other
        if isinstance(other, int):
            return _raw((int(other),) + (0,) * (self.K - 2), self.K)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _raw(tuple(map(add, self.coeffs, o.coeffs)), self.K)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return _raw(tuple([c * other for c in self.coeffs]), self.K)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        K = self.K
        terms = [(j, b) for j, b in enumerate(o.coeffs) if b]
        full = [0] * (2 * K - 3)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    full[i + j] += a * b
        for e in range(K, 2 * K - 3):  # q^e = q^(e-K)
            full[e - K] += full[e]
        return _fold(full, K)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.K, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        return "CycInt(" + (" + ".join(terms) or "0") + f"; K={self.K})"

    def galois(self, j: int) -> "CycInt":
        """Apply the automorphism q -> q^j (j coprime to K)."""
        return from_runs(((i * j, 1, c) for i, c in enumerate(self.coeffs)),
                         self.K)


def _raw(coeffs: tuple, K: int) -> CycInt:
    """Trusted constructor for the ring operations.

    K was validated when the operands were built and coeffs is already
    a (K-1)-tuple of ints, so neither is checked or converted again.
    """
    a = object.__new__(CycInt)
    a.K = K
    a.coeffs = coeffs
    return a


def _fold(full, K: int) -> CycInt:
    """sum_e full[e] * q^e over e < K, with q^(K-1) folded down once."""
    top = full[K - 1]
    return _raw(tuple([c - top for c in full[:K - 1]]), K)


def from_runs(runs, K: int) -> CycInt:
    """sum of w * (q^s + q^(s+1) + ... + q^(s+m-1)) over (s, m, w).

    Each run has 0 <= m <= K (MixedModulus otherwise); a single term
    w * q^s is the run (s, 1, w).  One difference array of 2K slots
    takes every run unsplit, as s mod K + m < 2K; one prefix sum, the
    upper K slots folded onto the lower (q^K = 1), and one _fold give
    the element in O(#runs + K).  A run of K terms is
    1 + q + ... + q^(K-1) = 0 and needs no special case.
    """
    as_prime(K)
    diff = [0] * (2 * K)
    for s, m, w in runs:
        if not 0 <= m <= K:
            raise MixedModulus(f"a run of {m} powers of q for K = {K}")
        s %= K
        diff[s] += w
        diff[s + m] -= w
    full = list(accumulate(diff))
    return _fold(list(map(add, full[:K], full[K:])), K)


def _xpoly_passes(a: CycInt):
    """The x-coefficients of `a`, x = q - 1, one prefix-sum pass each:
    via q^i = (1+x)^i, [x^d] = sum_i c_i C(i, d), and as C(i, d) =
    sum_{m=d..i} C(m-1, d-1), pass d + 1 of prefix sums over the
    reversed c_i ends in it; each pass pops that end."""
    r = a.coeffs[::-1]
    while r:
        r = list(accumulate(r))
        yield r.pop()


def to_xpoly(a: CycInt) -> tuple:
    """The K - 1 coefficients of `a` as an integer polynomial in
    x = q - 1 (all K - 1 passes of `_xpoly_passes`)."""
    return tuple(_xpoly_passes(a))


def x_order(a: CycInt) -> int:
    """First power of x whose coefficient is nonzero mod K (capped at K-1);
    the passes stop there."""
    return next((n for n, c in enumerate(_xpoly_passes(a)) if c % a.K),
                a.K - 1)


def diamond(a: CycInt) -> TruncPoly:
    """The mod-K series shadow: x-coefficients up to degree (K-1)/2,
    from the first (K+1)/2 passes of `_xpoly_passes` only."""
    return TruncPoly(tuple(islice(_xpoly_passes(a), (a.K + 1) // 2)), a.K)


def gauss_sum(c: int, K: int) -> CycInt:
    """Sum of q^(c*a^2) over the K odd classes a mod 2K."""
    return from_runs(((c * a * a, 1, 1) for a in odd_window(K)), K)


def divide_exact(a: CycInt, n: int) -> CycInt:
    """a / n for an integer n that divides every coefficient of a
    (DivisibilityFailure otherwise)."""
    if any(c % n for c in a.coeffs):
        raise DivisibilityFailure(f"coefficients not divisible by {n}")
    return _raw(tuple([c // n for c in a.coeffs]), a.K)


def sine_run(e: int, c: int, w: int, K: int) -> tuple:
    """The run (s, m, w) of w * q^e * [c], for `from_runs`.

    [c] = (q^(-2*c) - q^(2*c)) / (q^(-2*) - q^(2*)), 2* the inverse of
    2 mod K, is the geometric sum over i < c of q^(2*(1-c+2i)); as
    2 * 2* = 1 mod K it is the run of c mod K powers from q^(2*(1-c)).
    """
    return e + (K + 1) // 2 * (1 - c), c % K, w


_ROOTS: dict = {}


def fixed_roots(n: int) -> tuple:
    """(B, re, im): the roots exp(2*pi*i*e/n), e in range(n), at mpmath's
    working precision, as integers at scale 2^B.

    The one table of transcendental values: eval_complex and the
    surgery oracle read their roots of unity and sines from it.  It is
    built once per (n, mpmath.mp.prec), so a table never serves another
    precision, with B = prec + n.bit_length() + 1.  One expjpi gives
    zeta = exp(2*pi*i/n) at G + 16 bits, G = B + 64 + n.bit_length(),
    rounded to nearest at scale 2^G; the table is its powers zeta^e, by
    n - 1 integer complex products at scale 2^G, each rounded to
    nearest, and each power rounded to nearest at scale 2^B.

    Error bound: the rounded zeta is within 2^-G of the root, so each
    product moves the power at most 2^-G from the root's own power and
    rounds it by at most 2^-G more; power e lies within 2e * 2^-G <
    2^-63 * 2^-B of exp(2*pi*i*e/n).  So re[e] and im[e] are the
    integers nearest 2^B cos(2*pi*e/n) and 2^B sin(2*pi*e/n) unless
    one of those lies within 2^-63 of a half-integer, and within one
    unit of it always; entries on the axes are exact.  Integer sums of
    products over these entries are exact, and each shift back to
    scale 2^B or floor division rounds by at most one unit of 2^-B.
    """
    import mpmath

    key = (n, mpmath.mp.prec)
    entry = _ROOTS.get(key)
    if entry is None:
        B = mpmath.mp.prec + n.bit_length() + 1
        G = B + 64 + n.bit_length()
        with mpmath.workprec(G + 16):
            zeta = mpmath.expjpi(mpmath.mpf(2) / n)
            zr, zi = (int(mpmath.nint(mpmath.ldexp(c, G)))
                      for c in (zeta.real, zeta.imag))
        half, down = 1 << (G - 1), 1 << (G - B - 1)
        x, y = 1 << G, 0
        re, im = [1 << B], [0]
        for _ in range(n - 1):
            x, y = (x * zr - y * zi + half) >> G, (x * zi + y * zr + half) >> G
            re.append((x + down) >> (G - B))
            im.append((y + down) >> (G - B))
        entry = _ROOTS[key] = (B, tuple(re), tuple(im))
    return entry


def eval_complex(a: CycInt, precision: int = 50) -> complex:
    """Embed into C with q = exp(2*pi*i/K), at `precision` digits.

    The sum S of c_i * q^i is taken exactly over the integers of
    `fixed_roots(K)`, so its only rounding is that of the table entries
    (each within one unit of 2^-B of its root) and of the one int / int
    S / 2^B per component.  A component with |S| * 10^(precision - 1)
    <= K * sum|c_i| * 2^B is returned as 0.0: it is noise, not a digit
    of the value.  A precision below one digit raises BadPrecision.
    """
    import mpmath

    if precision < 1:
        raise BadPrecision(f"precision {precision} is below one digit")
    with mpmath.workdps(precision):
        B, re, im = fixed_roots(a.K)
    noise = a.K * sum(map(abs, a.coeffs)) << B
    sums = (sum(map(mul, a.coeffs, tab)) for tab in (re, im))
    return complex(*(s / (1 << B) if abs(s) * 10 ** (precision - 1) > noise
                     else 0.0 for s in sums))

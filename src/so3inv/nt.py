"""Dedekind sums, the Rademacher phase, and the manifold presentations.

A surgery slope p/q is completed to any SL2 matrix with first column
(p, q); Dedekind sums and the Rademacher matrix phase carry its framing
anomaly.  The three manifold presentations live here too: Lens,
SeifertData (star-shaped) and P1Surgery (integer framings on a known
link table), each validated on construction; like `arith.as_prime`
they take exact ints only, and never convert 5.5, True or "5".  Each
keeps, computed once, what every exact route reads of it: h1 = |H1|
and, for lens and Seifert spaces, the Dedekind data of the slopes.
Only P1Surgery reads a link table, and it imports `jones` when one is
built, so lens and Seifert runs never load that layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Sequence, Tuple

from . import _Record
from .arith import sign
from .errors import (
    H1DivisibleByK,
    HZero,
    IntegralityFailure,
    NonIntegerPhi,
    NotCoprime,
    NotRHS,
    ZeroLowerLeft,
)


def _twelve_k_s(h: int, k: int) -> int:
    """T(h, k) = 12 k s(h, k), an integer, for coprime h and k >= 1.

    Reciprocity s(h,k) + s(k,h) = (h^2+k^2+1)/(12hk) - 1/4 for coprime
    h, k >= 1 (Rademacher & Grosswald, Dedekind Sums, 1972), times 12hk,
    is h T(h, k) + k T(k mod h, h) = h^2 + k^2 + 1 - 3hk.  Euclid's
    algorithm runs down to T(0, 1) = 0, and each step back up is one
    exact division by h.
    """
    steps = []
    h %= k
    while h:
        steps.append((h, k))
        h, k = k % h, h
    t = 0
    for h, k in reversed(steps):
        t = (h * h + k * k + 1 - 3 * h * k - k * t) // h
    return t


def dedekind_sum(q: int, p: int) -> Fraction:
    """The classical sum s(q, p) of sawtooth products, with s(q,-p)=s(q,p).

    O(log p) integer steps: s(q, p) = T(q, |p|) / (12 |p|), with T the
    integer of `_twelve_k_s`.
    """
    p = abs(p)
    if p == 0 or gcd(q, p) != 1:
        raise NotCoprime(f"dedekind sum needs coprime q, p; got ({q}, {p})")
    return Fraction(_twelve_k_s(q, p), 12 * p)


def _slope_dedekind(p: int, q: int) -> Fraction:
    """s(sign(p) q, |p|): the Dedekind sum of the slope p/q read with
    p > 0, the one orientation rule of the closed forms (`closedform`)."""
    return dedekind_sum(sign(p) * q, abs(p))


def rademacher_phi(p: int, q: int, s: int) -> int:
    """Integer phase of an SL2 matrix [[p, r], [q, s]] with q != 0.

    Phi = (p + s)/q - 12 sign(q) s(p, q) reads only these three
    entries; r exists (the determinant is one) iff p*s = 1 (mod q).
    As 12 sign(q) s(p, q) = T(p, |q|) / q, Phi is the one exact
    division (p + s - T) / q.
    """
    if q == 0:
        raise ZeroLowerLeft(f"phase undefined for lower-left entry 0, p = {p}")
    if (p * s - 1) % q:
        raise IntegralityFailure(
            f"no SL2 matrix has first column ({p}, {q}) and "
            f"lower-right entry {s}")
    num = p + s - _twelve_k_s(p, abs(q))
    if num % q:
        raise NonIntegerPhi(
            f"phase of ({p}, {q}, {s}) is {Fraction(num, q)}")
    return num // q


def _ints(values, what: str, n: int = None) -> tuple:
    """`values` as a tuple of exact ints, n of them if n is given."""
    try:
        vals = tuple(values)
    except TypeError:
        vals = (None,)
    if n not in (None, len(vals)) or any(type(v) is not int for v in vals):
        raise IntegralityFailure(
            f"{what} must be {n or 'a sequence of'} ints, got {values!r}")
    return vals


class SeifertData(_Record):
    """A star-shaped presentation: exceptional fibers p_j / q_j.

    P is the product of the p_j; H = P * sum(q_j/p_j) is the order of
    the first homology up to sign and must not vanish, and h1 = |H|.
    dd = sum_j s(q_j, p_j) over the fibers oriented to p_j > 0, and r =
    (1/4)(H/P) - (3/4)sign(H/P) - 3 dd is the exponent of the q-power
    both sides carry (Z' is guarded by q^r, and lambda carries
    (1+x)^(r + 1/2)).  All follow from the fibers, which alone are
    compared, hashed and pickled.
    """

    __slots__ = ("fractions", "P", "H", "h1", "dd", "r")
    _derived = 5

    def __init__(self, fractions: Sequence[Tuple[int, int]]):
        try:
            fr = tuple(_ints(f, "a fiber", 2) for f in fractions)
        except TypeError:
            raise IntegralityFailure(f"fibers must be a sequence of (p, q) "
                                     f"pairs, got {fractions!r}") from None
        if not fr:
            raise NotRHS("need at least one exceptional fiber")
        for p, q in fr:
            if p == 0:
                raise NotRHS(f"fiber {p}/{q} has zero order")
            if gcd(p, q) != 1:
                raise NotCoprime(f"fiber {p}/{q} not reduced")
        P = prod(p for p, _ in fr)
        H = sum(q * (P // p) for p, q in fr)  # p divides P
        if H == 0:
            raise HZero("first homology is infinite")
        dd = sum(_slope_dedekind(p, q) for p, q in fr)
        r = Fraction(H, 4 * P) - Fraction(3, 4) * sign(H * P) - 3 * dd
        super().__init__(fr, P, H, abs(H), dd, r)

    def __repr__(self):
        inner = ",".join(f"{p}/{q}" for p, q in self.fractions)
        return f"SeifertData({inner})"

    def __hash__(self):
        return hash(self.fractions)


class Lens(_Record):
    """The lens space L(p, q) with gcd(p, q) = 1 and p != 0; h1 = |p|,
    and r = 3 s(q, p) (the slope read with p > 0) as in SeifertData."""

    __slots__ = ("p", "q", "h1", "r")
    _derived = 2

    def __init__(self, p: int, q: int):
        _ints((p, q), "L(p, q)", 2)
        if p == 0:
            raise NotRHS("L(0, q) is not a rational homology sphere")
        if gcd(p, q) != 1:
            raise NotCoprime(f"L({p},{q}) needs coprime p, q")
        super().__init__(p, q, abs(p), 3 * _slope_dedekind(p, q))


class P1Surgery(_Record):
    """Integer (p_j, 1)-framed surgery on a link with a known table;
    h1 = |prod_j p_j|."""

    __slots__ = ("jones", "framings", "h1")
    _derived = 1

    def __init__(self, jones: str, framings: tuple):
        from .jones import get_table

        framings = _ints(framings, "framings")
        if any(p == 0 for p in framings):
            raise NotRHS("zero framing breaks the rational homology sphere "
                         "condition for split links")
        table = get_table(jones)
        if table.arity is not None and table.arity != len(framings):
            raise NotRHS(
                f"table {jones!r} expects {table.arity} components, "
                f"got {len(framings)} framings")
        super().__init__(jones, framings, abs(prod(framings)))


# the three manifold presentations
ManifoldSpec = Lens | SeifertData | P1Surgery


def manifold_label(m: ManifoldSpec) -> str:
    """Row key of a presentation: L(p,q), X(p/q,...) or S[table;f,...]."""
    if isinstance(m, Lens):
        return f"L({m.p},{m.q})"
    if isinstance(m, SeifertData):
        return "X(" + ",".join(f"{p}/{q}" for (p, q) in m.fractions) + ")"
    if isinstance(m, P1Surgery):
        return f"S[{m.jones};" + ",".join(str(f) for f in m.framings) + "]"
    return repr(m)


def check_h1(h1: int, K: int) -> None:
    """The one gate of the exact routes: H1DivisibleByK when the prime K
    divides h1 = |H1|, where the identity is not defined."""
    if h1 % K == 0:
        raise H1DivisibleByK(f"|H1| = {h1} is divisible by K = {K}")

"""Continued fractions, Dedekind sums, and framing bookkeeping.

Surgery presentations are resolved into chains of elementary SL2
matrices T^m S.  The ceiling continued-fraction expansion drives the
resolution; Dedekind sums and the Rademacher matrix phase carry the
framing anomalies; SeifertData validates star-shaped presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Sequence, Tuple

from .arith import sign
from .errors import (
    HZero,
    IntegralityFailure,
    NonIntegerPhi,
    NotCoprime,
    NotRHS,
    ZeroLowerLeft,
)


@dataclass(frozen=True)
class SL2:
    """An integer matrix [[p, r], [q, s]] of determinant one."""

    p: int
    r: int
    q: int
    s: int

    def __post_init__(self):
        if self.p * self.s - self.q * self.r != 1:
            raise IntegralityFailure(
                f"determinant of {self} is not 1")

    def __matmul__(self, other: "SL2") -> "SL2":
        return SL2(self.p * other.p + self.r * other.q,
                   self.p * other.r + self.r * other.s,
                   self.q * other.p + self.s * other.q,
                   self.q * other.r + self.s * other.s)


def t_power_s(m: int) -> SL2:
    """The elementary factor T^m S = [[m, -1], [1, 0]]."""
    return SL2(m, -1, 1, 0)


class Chain:
    """A product of elementary factors with its tail partial products.

    tails[t] = T^(m_t) S * ... * T^(m_last) S, 1-indexed, so tails[1]
    is the full matrix; the final product is re-verified against a
    direct multiplication.
    """

    __slots__ = ("ms", "tails", "matrix")

    def __init__(self, ms: Sequence[int]):
        self.ms = tuple(int(m) for m in ms)
        tails = {}
        acc = None
        for t in range(len(self.ms), 0, -1):
            f = t_power_s(self.ms[t - 1])
            acc = f if acc is None else f @ acc
            tails[t] = acc
        self.tails = tails
        self.matrix = acc
        check = t_power_s(self.ms[0])
        for m in self.ms[1:]:
            check = check @ t_power_s(m)
        if check != self.matrix:
            raise IntegralityFailure("chain product re-verification failed")


def cf_expand(p: int, q: int) -> list:
    """Ceiling continued fraction of p/q: p/q = m1 - 1/(m2 - ...).

    The chain matrix built from the result has first column (p, q).
    """
    if q < 0:
        p, q = -p, -q
    if q == 0 or gcd(p, q) != 1:
        raise NotCoprime(f"need coprime p, q with q != 0, got ({p}, {q})")
    ms = []
    while q != 1:
        m = -((-p) // q)  # ceiling division
        ms.append(m)
        p, q = q, m * q - p
    ms.append(p)
    return ms


def _sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(q: int, p: int) -> Fraction:
    """The classical sum s(q, p) of sawtooth products, with s(q,-p)=s(q,p)."""
    p = abs(p)
    if p == 0 or gcd(q, p) != 1:
        raise NotCoprime(f"dedekind sum needs coprime q, p; got ({q}, {p})")
    total = Fraction(0)
    for i in range(1, p):
        total += _sawtooth(Fraction(i, p)) * _sawtooth(Fraction(q * i, p))
    return total


def rademacher_phi(u: SL2) -> int:
    """Integer phase of an SL2 matrix with nonzero lower-left entry."""
    if u.q == 0:
        raise ZeroLowerLeft(f"phase undefined for {u}")
    sgn = 1 if u.q > 0 else -1
    val = Fraction(u.p + u.s, u.q) - 12 * sgn * dedekind_sum(u.p, abs(u.q))
    if val.denominator != 1:
        raise NonIntegerPhi(f"phase of {u} is {val}")
    return int(val)


def phi_chain_check(p: int, q: int) -> bool:
    """Phase of a resolved chain vs the sum of its elementary phases.

    Each elementary factor contributes its exponent; every junction
    contributes -3 times the sign of the tail's framing ratio.
    """
    ch = Chain(cf_expand(p, q))
    lhs = rademacher_phi(ch.matrix)
    rhs = sum(ch.ms)
    for t in range(2, len(ch.ms) + 1):
        tail = ch.tails[t]
        rhs -= 3 * sign(tail.p * tail.q)
    return lhs == rhs


class SeifertData:
    """A star-shaped presentation: exceptional fibers p_j / q_j.

    P is the product of the p_j; H = P * sum(q_j/p_j) is the order of
    the first homology up to sign and must not vanish.
    """

    __slots__ = ("fractions", "P", "H")

    def __init__(self, fractions: Sequence[Tuple[int, int]]):
        fr = tuple((int(p), int(q)) for p, q in fractions)
        if not fr:
            raise NotRHS("need at least one exceptional fiber")
        for p, q in fr:
            if p == 0:
                raise NotRHS(f"fiber {p}/{q} has zero order")
            if gcd(p, q) != 1:
                raise NotCoprime(f"fiber {p}/{q} not reduced")
        self.fractions = fr
        self.P = prod(p for p, _ in fr)
        h = sum(Fraction(q, p) for p, q in fr) * self.P
        if h.denominator != 1:
            raise IntegralityFailure("homology order is not an integer")
        if h == 0:
            raise HZero("first homology is infinite")
        self.H = int(h)

    def __repr__(self):
        inner = ",".join(f"{p}/{q}" for p, q in self.fractions)
        return f"SeifertData({inner})"

    def __eq__(self, other):
        return (isinstance(other, SeifertData)
                and other.fractions == self.fractions)

    def __hash__(self):
        return hash(self.fractions)


def h1_order(m) -> int:
    """Order of the first homology of a surgery presentation.

    Accepts anything lens-like (fields p, q), star-like (SeifertData
    or a wrapper with .fractions), or a framed-link spec with integer
    framings (field framings).
    """
    if hasattr(m, "fractions"):
        data = m if isinstance(m, SeifertData) else SeifertData(m.fractions)
        return abs(data.H)
    if hasattr(m, "framings"):
        order = prod(m.framings)
        if order == 0:
            raise NotRHS(f"zero framing in {m!r}")
        return abs(order)
    if hasattr(m, "p") and hasattr(m, "q"):
        if m.p == 0:
            raise NotRHS("lens space with p = 0 is not a RHS")
        return abs(m.p)
    raise NotRHS(f"unrecognized manifold spec {m!r}")

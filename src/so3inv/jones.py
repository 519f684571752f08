"""Colored link evaluations at odd primes, exact and as series.

Colors are odd integers.  The link tables, the unknot and split
unlinks, are split links of unknots: the value at colors (a_1..a_N) is
the product of the quantized integers [a_j], so it is odd under
negating a color, 2K-periodic, multiplicative over components and 1 on
the empty link.  At an odd color [a] is `cyclotomic.sine_quotient(a)`,
one run of powers of q.  Integer surgery on such a link is a connected
sum, which `surgery.exact_p1` computes one component at a time, adding
one such run per color; the numeric oracle evaluates the same values
from the sines of the one roots table, as the integers of
`cyclotomic.fixed_roots`.
expansion_check verifies the structural bounds on the color expansion
around t = 0 of a one-color evaluation given as a series, such as the
unknot's sin_quotient_series or the Seifert fiber evaluation
seifert_beta_series.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Optional, Sequence

from .arith import sign
from .cyclotomic import CycInt, sine_quotient
from .errors import BoundViolation, EvenColor, So3InvError
from .series import RatSeries, exp_sum_series, s_div


def jones_unknot(alpha: int, K: int) -> CycInt:
    """Exact unknot evaluation: the quantized integer [alpha].

    Odd under negation, 2K-periodic, [1] = 1, [K] = 0; embeds to
    sin(pi*alpha/K)/sin(pi/K) under the root-of-unity evaluation.  The
    sine quotient's base q^(2*) is -e^(i*pi/K); at an odd color that
    sign flips its numerator and denominator alike, so the K-periodic
    sine quotient is already the 2K-periodic [alpha].
    """
    if alpha % 2 == 0:
        raise EvenColor(f"color {alpha} is even")
    return sine_quotient(alpha, K)


def sin_quotient_series(c: int, cap: int) -> RatSeries:
    """sin(c*t)/sin(t) for an integer c, as an exact series in t: the sum
    sign(c) sum_{j<|c|} e^((|c|-1-2j)w), an even function, at w = it."""
    base = exp_sum_series({k: sign(c) for k in range(1 - abs(c), abs(c), 2)},
                          cap)
    return RatSeries([v * (-1) ** (n // 2) for n, v in enumerate(base.coeffs)],
                     cap)


class JonesTable:
    """A split link of unknots: its value at colors (a_j) is prod [a_j].

    arity None means any number of components.
    """

    def __init__(self, table_id: str, arity: Optional[int]):
        self.id = table_id
        self.arity = arity

    def exact(self, colors: Sequence[int], K: int) -> CycInt:
        if self.arity is not None and len(colors) != self.arity:
            raise So3InvError(
                f"table {self.id} expects {self.arity} colors, "
                f"got {len(colors)}")
        if len(colors) == 1:
            return jones_unknot(colors[0], K)
        return prod((jones_unknot(a, K) for a in colors), start=CycInt.one(K))


_TABLES = {t.id: t for t in (JonesTable("unknot", 1),
                             JonesTable("unlink", None))}


def get_table(table_id: str) -> JonesTable:
    if table_id not in _TABLES:
        raise So3InvError(f"unknown link table {table_id!r}")
    return _TABLES[table_id]


def seifert_beta_series(alphas: Sequence[int], beta: int,
                        cap: int) -> RatSeries:
    """The fiber evaluation prod_j [beta*a_j] / [beta]^(N-1) as a series
    in t, each [c] read as sin(c*t)/sin(t)."""
    acc = prod((sin_quotient_series(beta * a, cap) for a in alphas),
               start=RatSeries.const(1, cap))
    if len(alphas) >= 2:
        return s_div(acc, sin_quotient_series(beta, cap) ** (len(alphas) - 1))
    return acc


def _interp_coeffs(values, nodes):
    """Solve a Vandermonde system over Q: values[i] = sum_j c_j nodes[i]^j."""
    n = len(nodes)
    mat = [[Fraction(nodes[i]) ** j for j in range(n)] for i in range(n)]
    vec = list(values)
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        vec[col] = vec[col] * inv
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                vec[r] = vec[r] - f * vec[col]
    return vec


def expansion_check(series: Callable[[int, int], RatSeries], n_max: int,
                    name: str) -> dict:
    """Verify the structural bounds of a one-color expansion.

    Writing series(c, n_max) / c as the sum over n of t^n times a
    polynomial in the color c, the polynomial must be even in c and
    each of its terms c^(2m) must satisfy m <= (3/4) n and m <= n - m.
    Returns the nonzero coefficients as {(n, m): Fraction}; raises
    BoundViolation naming `name`.
    """
    nodes = list(range(1, n_max + 3))
    rows = [[x / c for x in series(c, n_max).coeffs] for c in nodes]
    coeffs = {}
    for n in range(n_max + 1):
        for power, x in enumerate(_interp_coeffs([r[n] for r in rows],
                                                 nodes)):
            if x == 0:
                continue
            if power % 2:
                raise BoundViolation(
                    f"odd color power {power} at order {n} in {name}")
            m = power // 2
            if 4 * m > 3 * n:
                raise BoundViolation(
                    f"color degree {m} exceeds (3/4)*{n} in {name}")
            if m > n - m:
                raise BoundViolation(
                    f"color degree {m} exceeds {n - m} in {name}")
            coeffs[(n, m)] = x
    return coeffs

"""Colored link evaluations at odd primes, exact and as series.

Colors are odd integers.  All tables satisfy the symmetries needed by
the surgery sums: oddness under negation, periodicity with period 2K,
multiplicativity over split components, and value 1 on the empty
link.  The registered tables, the unknot and split unlinks, are split
links of unknots: integer surgery on one is a connected sum, which the
exact route of `surgery.exact_p1` computes one component at a time,
and the numeric oracle evaluates them from its own sine table.
expansion_check verifies the structural bounds on the color expansion
of a table around t = 0; the Seifert star-link table is known only
through that expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Optional, Sequence

from .arith import sign
from .cyclotomic import CycInt, sine_quotient
from .errors import BoundViolation, EvenColor, So3InvError
from .series import RatSeries, exp_sum_series, s_div


def _norm_color(alpha: int, K: int):
    """Reduce an odd color to (sign, representative in (0, K])."""
    if alpha % 2 == 0:
        raise EvenColor(f"color {alpha} is even")
    r = alpha % (2 * K)
    if r > K:
        return -1, 2 * K - r
    return 1, r


def jones_unknot(alpha: int, K: int) -> CycInt:
    """Exact unknot evaluation: the quantized integer [alpha].

    Odd under negation, 2K-periodic, [1] = 1, [K] = 0; embeds to
    sin(pi*alpha/K)/sin(pi/K) under the root-of-unity evaluation.
    """
    sgn, r = _norm_color(alpha, K)
    if r == K:
        return CycInt.zero(K)
    return sine_quotient(r, K) * sgn


def sin_quotient_series(c: int, cap: int) -> RatSeries:
    """sin(c*t)/sin(t) for an integer c, as an exact series in t: the sum
    sign(c) sum_{j<|c|} e^((|c|-1-2j)w), an even function, at w = it."""
    base = exp_sum_series({k: sign(c) for k in range(1 - abs(c), abs(c), 2)},
                          cap)
    return RatSeries([v * (-1) ** (n // 2) for n, v in enumerate(base.coeffs)],
                     cap)


class JonesTable:
    """A colored evaluation with the split-link symmetries.

    exact_fn(colors, K) -> CycInt (optional) gives the evaluation in
    Z[q]; t_series_fn (optional) gives its exact expansion around t = 0
    as a RatSeries for structural checks.  arity None means any number
    of components.
    """

    def __init__(self, table_id: str, arity: Optional[int],
                 exact_fn: Callable = None, t_series_fn: Callable = None):
        self.id = table_id
        self.arity = arity
        self._exact = exact_fn
        self._t_series = t_series_fn

    def _check_arity(self, colors):
        if self.arity is not None and len(colors) != self.arity:
            raise So3InvError(
                f"table {self.id} expects {self.arity} colors, "
                f"got {len(colors)}")

    def exact(self, colors: Sequence[int], K: int) -> CycInt:
        self._check_arity(colors)
        if self._exact is None:
            raise So3InvError(f"table {self.id} has no exact evaluation")
        if not colors:
            return CycInt.one(K)
        return self._exact(tuple(colors), K)

    def t_series(self, colors: Sequence[int], cap: int) -> RatSeries:
        self._check_arity(colors)
        if self._t_series is None:
            raise So3InvError(f"table {self.id} has no series expansion")
        if not colors:
            return RatSeries.const(1, cap)
        return self._t_series(tuple(colors), cap)


def unknot_table() -> JonesTable:
    return JonesTable(
        "unknot", 1,
        lambda colors, K: jones_unknot(colors[0], K),
        lambda colors, cap: sin_quotient_series(colors[0], cap))


def unlink_table() -> JonesTable:
    def exact(colors, K):
        acc = CycInt.one(K)
        for a in colors:
            acc = acc * jones_unknot(a, K)
        return acc

    def t_series(colors, cap):
        acc = RatSeries.const(1, cap)
        for a in colors:
            acc = acc * sin_quotient_series(a, cap)
        return acc

    return JonesTable("unlink", None, exact, t_series)


_REGISTRY = {}


def register_table(table: JonesTable) -> JonesTable:
    _REGISTRY[table.id] = table
    return table


def get_table(table_id: str) -> JonesTable:
    if table_id not in _REGISTRY:
        raise So3InvError(f"unknown link table {table_id!r}")
    return _REGISTRY[table_id]


register_table(unknot_table())
register_table(unlink_table())


def seifert_beta_table(alphas: Sequence[int]) -> JonesTable:
    """The one-variable fiber evaluation prod [b*a_j] / [b]^(N-1), as a
    series only."""
    alphas = tuple(alphas)
    n = len(alphas)

    def t_series(colors, cap):
        (beta,) = colors
        acc = RatSeries.const(1, cap)
        for a in alphas:
            acc = acc * sin_quotient_series(beta * a, cap)
        if n >= 2:
            return s_div(acc, sin_quotient_series(beta, cap) ** (n - 1))
        return acc

    inner = ",".join(str(a) for a in alphas)
    return JonesTable(f"seifert-fiber({inner})", 1, t_series_fn=t_series)


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


def expansion_check(table: JonesTable, n_max: int) -> dict:
    """Verify the structural bounds of the color expansion.

    Writing the evaluation divided by the product of its colors as
    sum over n of t^n times a polynomial in the colors, the
    polynomial must be even in each color; its total degree 2m must
    satisfy m <= (3/4) n; and each per-color degree (as a power of
    the squared color) must not exceed n - m.  Returns the nonzero
    coefficients as {(n, m_vec): Fraction}; raises BoundViolation.
    """
    nvars = table.arity or 0
    if nvars == 0:
        series = table.t_series((), n_max)
        if series != RatSeries.const(1, n_max):
            raise BoundViolation("empty link must evaluate to 1")
        return {(0, ()): Fraction(1)}

    deg = n_max + 2  # points per variable
    nodes = list(range(1, deg + 1))
    grid = {}
    for combo in iproduct(nodes, repeat=nvars):
        s = table.t_series(combo, n_max)
        denom = 1
        for v in combo:
            denom *= v
        grid[combo] = [c / denom for c in s.coeffs]

    # interpolate one variable at a time
    coeff_tables = {}
    for n in range(n_max + 1):
        layer = {combo: grid[combo][n] for combo in grid}
        for var in range(nvars):
            new_layer = {}
            done_keys = {k[:var] + k[var + 1:] for k in layer}
            for rest in done_keys:
                vals = []
                for node in nodes:
                    key = rest[:var] + (node,) + rest[var:]
                    vals.append(layer[key])
                cs = _interp_coeffs(vals, nodes)
                for power, c in enumerate(cs):
                    new_layer[rest[:var] + (("deg", power),) + rest[var:]] \
                        = c
            layer = new_layer
        for key, c in layer.items():
            if c == 0:
                continue
            powers = tuple(k[1] for k in key)
            if any(p % 2 for p in powers):
                raise BoundViolation(
                    f"odd color power {powers} at order {n} in {table.id}")
            mvec = tuple(p // 2 for p in powers)
            m = sum(mvec)
            if 4 * m > 3 * n:
                raise BoundViolation(
                    f"total degree {m} exceeds (3/4)*{n} in {table.id}")
            if any(mj > n - m for mj in mvec):
                raise BoundViolation(
                    f"per-color degree {mvec} exceeds {n - m} in {table.id}")
            coeff_tables[(n, mvec)] = c
    return coeff_tables

"""Colored link evaluations at odd primes, exact in Z[q].

Colors are odd integers.  The link tables, the unknot and split
unlinks, are split links of unknots: the value at colors (a_1..a_N) is
the product of the quantized integers [a_j], so it is odd under
negating a color, 2K-periodic, multiplicative over components and 1 on
the empty link.  At an odd color [a] is one run of powers of q,
`cyclotomic.sine_run`.  Integer surgery on such a link is a connected
sum of lens spaces, whose exact Z' `ohtsuki.closed_zprime` takes from
the lens closed form; the numeric oracle evaluates the link values
from the sines of the one roots table, `cyclotomic.fixed_roots`: the
integers nearest 2^B sin(pi*a/K), up to one unit.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

from .cyclotomic import CycInt, from_runs, sine_run
from .errors import EvenColor, So3InvError


def jones_unknot(alpha: int, K: int) -> CycInt:
    """Exact unknot evaluation: the quantized integer [alpha].

    Odd under negation, 2K-periodic, [1] = 1, [K] = 0; embeds to
    sin(pi*alpha/K)/sin(pi/K) under the root-of-unity evaluation.  The
    base q^(2*) of the sine quotient that `sine_run` writes as one run
    is -e^(i*pi/K); at an odd color that sign flips its numerator and
    denominator alike, so the K-periodic run is already the 2K-periodic
    [alpha].
    """
    if alpha % 2 == 0:
        raise EvenColor(f"color {alpha} is even")
    return from_runs([sine_run(0, alpha, 1, K)], K)


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
    if type(table_id) is not str or table_id not in _TABLES:
        raise So3InvError(f"unknown link table {table_id!r}")
    return _TABLES[table_id]

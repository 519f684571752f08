from math import isclose, pi, sin

import pytest

from so3inv.cyclotomic import CycInt, eval_complex, qpow
from so3inv.errors import BoundViolation, EvenColor, So3InvError
from so3inv.jones import (
    JonesTable,
    expansion_check,
    get_table,
    jones_seifert,
    jones_unknot,
    seifert_beta_table,
    sin_quotient_series,
    unknot_table,
    unlink_table,
)

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_unknot_basic_values():
    assert jones_unknot(1, 5) == CycInt.one(5)
    assert jones_unknot(-1, 5) == -CycInt.one(5)
    assert jones_unknot(5, 5) == CycInt.zero(5)
    assert jones_unknot(3, 5) == qpow(4, 5) + qpow(0, 5) + qpow(1, 5)


def test_unknot_rejects_even():
    with pytest.raises(EvenColor):
        jones_unknot(2, 5)


def test_unknot_symmetries():
    for K in (5, 7, 11):
        for a in range(-K + 2, K, 2):
            assert jones_unknot(-a, K) == -jones_unknot(a, K)
            assert jones_unknot(a + 2 * K, K) == jones_unknot(a, K)
            assert jones_unknot(a - 2 * K, K) == jones_unknot(a, K)


def test_unknot_numeric_embedding():
    for K in PRIMES_TO_31:
        for a in range(-K + 2, K, 2):
            z = eval_complex(jones_unknot(a, K), 40)
            want = sin(pi * a / K) / sin(pi / K)
            assert isclose(z.real, want, rel_tol=1e-12, abs_tol=1e-12)
            assert abs(z.imag) < 1e-12


def test_unlink_multiplicativity_and_empty():
    t = unlink_table()
    assert t.exact((), 5) == CycInt.one(5)
    for K in (5, 7):
        for a in (1, 3, -3):
            for b in (1, -1, 5):
                lhs = t.exact((a, b), K)
                rhs = jones_unknot(a, K) * jones_unknot(b, K)
                assert lhs == rhs


def test_table_arity_enforced():
    with pytest.raises(So3InvError):
        unknot_table().exact((1, 3), 5)


def test_registry():
    assert get_table("unknot").id == "unknot"
    assert get_table("unlink").id == "unlink"
    with pytest.raises(So3InvError):
        get_table("figure-eight")


def test_jones_seifert_degenerations():
    for K in (5, 7, 11):
        odd = [a for a in range(1, K, 2)]
        for b in odd:
            if b % K == 0:
                continue
            # one fiber: unknot at the product color
            for a in odd:
                assert jones_seifert(b, (a,), K) == jones_unknot(a * b, K)
            # all colors 1: unknot at beta
            assert jones_seifert(b, (1, 1, 1), K) == jones_unknot(b, K)
        # beta = 1: product of unknots
        for a1 in odd:
            for a2 in odd:
                assert (jones_seifert(1, (a1, a2), K)
                        == jones_unknot(a1, K) * jones_unknot(a2, K))


def test_jones_seifert_numeric_form():
    K = 7
    for b in (1, 3, 5):
        for alphas in ((1, 3), (3, 5, 3), (1, 1, 5)):
            z = eval_complex(jones_seifert(b, alphas, K), 40)
            want = 1.0
            for a in alphas:
                want *= sin(pi * b * a / K)
            want /= sin(pi * b / K) ** (len(alphas) - 1) * sin(pi / K)
            assert isclose(z.real, want, rel_tol=1e-10, abs_tol=1e-10)
            assert abs(z.imag) < 1e-10


def test_sin_quotient_series_matches_values():
    s = sin_quotient_series(3, 8)
    # sin(3t)/sin(t) = 3 - 4 sin^2(t) = 2 cos(2t) + 1
    assert s.coeffs[0] == 3
    assert s.coeffs[1] == 0
    assert s.coeffs[2] == -4
    for c in range(1, 6):
        got = sin_quotient_series(c, 6)
        x = 0.1
        num = sum(float(v) * x ** n for n, v in enumerate(got.coeffs))
        assert isclose(num, sin(c * x) / sin(x), rel_tol=1e-5)


def test_expansion_check_unknot():
    coeffs = expansion_check(unknot_table(), 8)
    assert coeffs[(0, (0,))] == 1
    for (n, mvec), c in coeffs.items():
        assert n % 2 == 0  # even series in t


def test_expansion_check_seifert_three_fibers():
    table = seifert_beta_table((2, 3, 5))
    coeffs = expansion_check(table, 6)
    assert coeffs[(0, (0,))] == 30  # product of the fiber colors
    table2 = seifert_beta_table((1, 1, 3))
    expansion_check(table2, 6)


def test_expansion_check_flags_violation():
    bad = JonesTable(
        "bad", 1,
        lambda colors, K: CycInt.one(K),
        lambda colors, cap: sin_quotient_series(colors[0], cap)
        * colors[0])  # extra odd power of the color
    with pytest.raises(BoundViolation):
        expansion_check(bad, 4)

from fractions import Fraction
from math import gcd

import pytest

from so3inv.arith import rat_residue
from so3inv.errors import (
    DenominatorDivisibleByK,
    HZero,
    IntegralityFailure,
    NotCoprime,
    NotRHS,
    ZeroLowerLeft,
)
from so3inv.nt import (
    SL2,
    Chain,
    SeifertData,
    cf_expand,
    dedekind_sum,
    h1_order,
    phi_chain_check,
    rademacher_phi,
    t_power_s,
)


def test_sl2_validation():
    SL2(1, 0, 0, 1)
    SL2(3, -2, 2, -1)
    with pytest.raises(IntegralityFailure):
        SL2(2, 0, 0, 1)


def test_cf_expand_examples():
    assert cf_expand(7, 1) == [7]
    assert cf_expand(-4, 1) == [-4]
    assert cf_expand(3, 2) == [2, 2]
    assert cf_expand(1, 1) == [1]
    assert cf_expand(7, 2) == [4, 2]
    with pytest.raises(NotCoprime):
        cf_expand(4, 2)
    with pytest.raises(NotCoprime):
        cf_expand(3, 0)


def test_cf_expand_negative_q_normalizes():
    assert cf_expand(3, -2) == cf_expand(-3, 2)


def test_chain_matrix_examples():
    assert Chain([2, 2]).matrix == SL2(3, -2, 2, -1)
    assert Chain([5]).matrix == t_power_s(5)


def test_chain_first_column_is_fraction():
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            u = Chain(cf_expand(p, q)).matrix
            assert (u.p, u.q) == (p, q)
            # and the negative numerator variant
            un = Chain(cf_expand(-p, q)).matrix
            assert (un.p, un.q) == (-p, q)


def test_chain_partials():
    ch = Chain([4, 2])
    assert ch.tails[1] == ch.matrix
    assert ch.tails[2] == t_power_s(2)


def test_dedekind_values():
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)
    assert dedekind_sum(1, -3) == Fraction(1, 18)
    with pytest.raises(NotCoprime):
        dedekind_sum(2, 4)
    with pytest.raises(NotCoprime):
        dedekind_sum(1, 0)


def test_dedekind_periodicity_and_oddness():
    for p in range(2, 20):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            assert dedekind_sum(q + p, p) == dedekind_sum(q, p)
            assert dedekind_sum(-q, p) == -dedekind_sum(q, p)


def test_dedekind_reciprocity():
    for p in range(2, 41):
        for q in range(2, p):
            if gcd(q, p) != 1:
                continue
            lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
            rhs = (Fraction(-1, 4)
                   + (Fraction(p, q) + Fraction(q, p)
                      + Fraction(1, p * q)) / 12)
            assert lhs == rhs


def test_dedekind_vee():
    assert rat_residue(dedekind_sum(1, 3), 5).value == 2  # 1/18 -> 2 mod 5
    with pytest.raises(DenominatorDivisibleByK):
        rat_residue(dedekind_sum(1, 3), 3)


def test_rademacher_phi_elementary():
    for m in range(-6, 7):
        assert rademacher_phi(t_power_s(m)) == m
    assert rademacher_phi(SL2(0, -1, 1, 0)) == 0
    with pytest.raises(ZeroLowerLeft):
        rademacher_phi(SL2(1, 0, 0, 1))


def test_rademacher_phi_s_composition():
    # composing with the inversion shifts the phase by -3 sign(p/q)
    import random
    rng = random.Random(42)
    s_mat = SL2(0, -1, 1, 0)
    count = 0
    while count < 50:
        p = rng.randint(-20, 20)
        q = rng.randint(1, 20)
        if p == 0 or gcd(p, q) != 1:
            continue
        u = Chain(cf_expand(p, q)).matrix
        su = s_mat @ u
        if su.q == 0:
            continue
        sgn = 1 if (u.p > 0) == (u.q > 0) else -1
        assert rademacher_phi(su) == rademacher_phi(u) - 3 * sgn
        count += 1


def test_phi_chain_check_sweep():
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert phi_chain_check(p, q)
                assert phi_chain_check(-p, q)


def test_seifert_data():
    sd = SeifertData([(2, 1), (3, 1), (5, -4)])
    assert sd.P == 30
    assert sd.H == 1
    assert SeifertData([(2, 1), (3, 1), (5, 1)]).H == 31
    assert SeifertData([(3, 1), (4, 1), (5, 1)]).H == 47
    with pytest.raises(NotCoprime):
        SeifertData([(4, 2)])
    with pytest.raises(NotRHS):
        SeifertData([(0, 1)])
    with pytest.raises(NotRHS):
        SeifertData([])
    with pytest.raises(HZero):
        SeifertData([(2, 1), (2, -1)])


def test_h1_order():
    class LensLike:
        def __init__(self, p, q):
            self.p, self.q = p, q

    class FramedLike:
        def __init__(self, framings):
            self.framings = framings

    assert h1_order(LensLike(7, 2)) == 7
    assert h1_order(LensLike(-7, 2)) == 7
    assert h1_order(SeifertData([(2, 1), (3, 1), (5, -4)])) == 1
    assert h1_order(SeifertData([(2, 1), (3, 1), (5, 1)])) == 31
    assert h1_order(FramedLike((2, 3))) == 6
    with pytest.raises(NotRHS):
        h1_order(LensLike(0, 1))
    with pytest.raises(NotRHS):
        h1_order(FramedLike((2, 0)))
    with pytest.raises(NotRHS):
        h1_order(object())

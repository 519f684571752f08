from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3inv import surgery
from so3inv.arith import rat_residue, sign
from so3inv.errors import (
    DenominatorDivisibleByK,
    HZero,
    IntegralityFailure,
    NotCoprime,
    NotRHS,
    So3InvError,
    ZeroLowerLeft,
)
from so3inv.nt import (
    Lens,
    P1Surgery,
    SeifertData,
    dedekind_sum,
    rademacher_phi,
)
from zq_reference import dedekind_sum as dedekind_sum_fractions
from zq_reference import h1_order


def test_sl2_validation():
    # the phase reads [[p, r], [q, s]] and checks that an integer r
    # makes the determinant one: p*s = 1 (mod q)
    assert rademacher_phi(3, 2, -1) == rademacher_phi(3, 2, 1) - 1
    assert rademacher_phi(-7, -3, 2) == rademacher_phi(7, 3, -2)
    for bad in ((2, 3, 1), (3, 2, 0), (4, 6, 1)):
        with pytest.raises(IntegralityFailure):
            rademacher_phi(*bad)


def test_chain_matrix_examples():
    # the oracle completes p/q with s = p^-1 mod q; at q = 1 that is
    # T^p S = [[p, -1], [1, 0]], the matrix of the one-step chain
    assert surgery._chain_data(5, 1) == (0, 5)
    assert surgery._chain_data(-4, 1) == (0, -4)
    assert surgery._chain_data(0, 1) == (0, 0)
    # 3/2: [[3, 1], [2, 1]], where the chain [2, 2] gives [[3, -2], [2, -1]]
    assert surgery._chain_data(3, 2) == (1, rademacher_phi(3, 2, -1) + 1)


def test_chain_first_column_is_fraction():
    # the completion is an SL2 matrix with first column (p, q)
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for pp in (p, -p):
                s, phi = surgery._chain_data(pp, q)
                assert 0 <= s < q and (pp * s - 1) % q == 0
                assert phi == rademacher_phi(pp, q, s)


def _ceiling_chain(p, q):
    """The chain of p/q, q >= 1: the ceiling continued fraction
    p/q = m1 - 1/(m2 - ...) and the tails T^(m_t) S ... T^(m_last) S
    of its product, tails[0] the full matrix, each as (p, r, q, s)."""
    ms = []
    while q != 1:
        m = -((-p) // q)  # ceiling division
        ms.append(m)
        p, q = q, m * q - p
    ms.append(p)
    tails, acc = [], (1, 0, 0, 1)
    for m in reversed(ms):
        a, b, c, d = acc  # T^m S @ acc, with T^m S = [[m, -1], [1, 0]]
        acc = (m * a - c, m * b - d, a, b)
        tails.append(acc)
    return ms, tails[::-1]


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


def _sawtooth_2p(j, p):
    """2p ((j/p)): the sawtooth of j/p over the denominator 2p."""
    return 2 * (j % p) - p if j % p else 0


def test_dedekind_matches_sawtooth_definition():
    # s(q, p) = sum_{i=1}^{p-1} ((i/p)) ((q i/p)), written out over 4p^2
    for p in range(1, 81):
        for q in range(-p, 2 * p + 1):
            if gcd(q, p) != 1:
                continue
            direct = Fraction(sum(_sawtooth_2p(i, p) * _sawtooth_2p(q * i, p)
                                  for i in range(1, p)), 4 * p * p)
            assert dedekind_sum(q, p) == direct, (q, p)
            assert dedekind_sum(q, -p) == direct, (q, -p)


def test_dedekind_equals_fraction_steps_on_small_pairs():
    # the integer steps against the Fraction steps they replace, on
    # every coprime pair |q|, |p| <= 200 (the reference reads |p| first)
    for p in range(1, 201):
        for q in range(-200, 201):
            if gcd(q, p) == 1:
                want = dedekind_sum_fractions(q, p)
                assert dedekind_sum(q, p) == want == dedekind_sum(q, -p)
    # and both raise NotCoprime on the other pairs
    for p in range(-50, 51):
        for q in range(-50, 51):
            if gcd(q, p) != 1:
                for f in (dedekind_sum, dedekind_sum_fractions):
                    with pytest.raises(NotCoprime):
                        f(q, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_dedekind_equals_fraction_steps_on_large_pairs(q, p):
    if p and gcd(q, p) == 1:
        assert dedekind_sum(q, p) == dedekind_sum_fractions(q, p)


def test_dedekind_vee():
    assert rat_residue(dedekind_sum(1, 3), 5) == 2  # 1/18 -> 2 mod 5
    with pytest.raises(DenominatorDivisibleByK):
        rat_residue(dedekind_sum(1, 3), 3)


def test_rademacher_phi_elementary():
    # T^m S = [[m, -1], [1, 0]]; S itself is m = 0
    for m in range(-6, 7):
        assert rademacher_phi(m, 1, 0) == m
    with pytest.raises(ZeroLowerLeft):
        rademacher_phi(1, 0, 1)


def test_rademacher_phi_s_composition():
    # composing with the inversion shifts the phase by -3 sign(p/q)
    import random
    rng = random.Random(42)
    count = 0
    while count < 50:
        p = rng.randint(-20, 20)
        q = rng.randint(1, 20)
        if p == 0 or gcd(p, q) != 1:
            continue
        s = pow(p, -1, q)
        r = (p * s - 1) // q
        # S [[p, r], [q, s]] = [[-q, -s], [p, r]]
        assert rademacher_phi(-q, p, r) == (rademacher_phi(p, q, s)
                                            - 3 * sign(p))
        count += 1


def test_phi_chain_check_sweep():
    # the phase of a resolved chain is the sum of its exponents, minus
    # 3 times the sign of each tail's framing ratio at every junction
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for pp in (p, -p):
                ms, tails = _ceiling_chain(pp, q)
                want = sum(ms) - 3 * sum(sign(t[0] * t[2]) for t in tails[1:])
                u = tails[0]
                assert (u[0], u[2]) == (pp, q)
                assert rademacher_phi(u[0], u[2], u[3]) == want


def test_phi_of_any_completion():
    # two SL2 matrices with first column (p, q) differ by T^k on the
    # right: s moves by k*q and the phase by exactly k
    for p in range(-30, 31):
        for q in range(1, 31):
            if gcd(p, q) != 1:
                continue
            s_c = _ceiling_chain(p, q)[1][0][3]
            s = pow(p, -1, q)
            assert (s_c - s) % q == 0
            assert (rademacher_phi(p, q, s_c) - rademacher_phi(p, q, s)
                    == (s_c - s) // q)


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
    # only exact ints, in pairs: nothing is converted
    for bad in ([(2, 1.9), (3, 1)], [(2, True), (3, 1)], [("2", 1), (3, 1)],
                [(2, 1, 1), (3, 1)], [(2,), (3, 1)], [2, 3]):
        with pytest.raises(IntegralityFailure):
            SeifertData(bad)


def test_h1_order():
    # each presentation's h1, derived at construction, against the
    # reference read from its fields
    for m, h1 in ((Lens(7, 2), 7), (Lens(-7, 2), 7), (Lens(1, 0), 1),
                  (SeifertData([(2, 1), (3, 1), (5, -4)]), 1),
                  (SeifertData([(2, 1), (3, 1), (5, 1)]), 31),
                  (SeifertData([(-2, 1), (3, 1), (5, 1)]), 1),
                  (SeifertData([(2, -1), (3, 2), (5, 1)]), 11),
                  (P1Surgery("unlink", (2, 3)), 6),
                  (P1Surgery("unlink", (-2, 5)), 10),
                  (P1Surgery("unlink", ()), 1)):
        assert m.h1 == h1_order(m) == h1, m
    with pytest.raises(NotRHS):
        Lens(0, 1)
    with pytest.raises(NotRHS):
        P1Surgery("unlink", (2, 0))
    for p, q in ((5.5, 2), (5, 2.0), (True, 2), ("5", 2)):
        with pytest.raises(IntegralityFailure):
            Lens(p, q)
    for framings in ("23", (2.7, -3), (True,), 5):
        with pytest.raises(IntegralityFailure):
            P1Surgery("unlink", framings)


def test_non_iterable_or_unhashable_fields_raise_named_errors():
    # a named error naming the field, never a bare TypeError
    for bad in (7, None, 2.5):
        with pytest.raises(IntegralityFailure, match="fibers"):
            SeifertData(bad)
    for bad in (["unlink"], None, 3, {"unlink": 1}):
        with pytest.raises(So3InvError, match="link table"):
            P1Surgery(bad, (2, 3))

"""Oracle behavior: numeric surgery sums, exact integer-framing path."""

import itertools
from fractions import Fraction
from math import prod

import mpmath
import pytest

import so3inv.nt
from so3inv import cyclotomic, surgery
from so3inv.arith import even_inv, inv_int, kappa_of, odd_primes, sign
from so3inv.closedform import ExtendedPhase, lens_zprime, seifert_zprime
from so3inv.cyclotomic import (CycInt, divide_by_x, eval_complex,
                               from_counts, odd_window, qpow, unit_u)
from so3inv.errors import (ChainDegenerate, DivisibilityFailure, NotCoprime,
                           NotRHS, PhaseNotReducible)
from so3inv.jones import JonesTable, get_table
from so3inv.nt import SeifertData
from so3inv.surgery import (Lens, P1Surgery, exact_p1, kirby_melvin_check,
                            z_numeric, zprime_numeric)

POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])


def test_s3_presentations_give_one():
    for K in (5, 7, 11):
        for m in (Lens(1, 0), Lens(1, 1), Lens(-1, 1)):
            assert abs(zprime_numeric(m, K) - 1) < 1e-12


def test_lens_regression_value():
    # L(2,1) at K=5 is minus the golden ratio
    z = zprime_numeric(Lens(2, 1), 5)
    assert abs(z - (-1.6180339887498949)) < 1e-12


def test_homeomorphism_invariance():
    # q -> inverse of q mod p, and q -> q + p, fix the manifold
    pairs = [((5, 2), (5, 3)), ((7, 2), (7, 4)), ((11, 3), (11, 4))]
    for K in (7, 13):
        for a, b in pairs:
            za = zprime_numeric(Lens(*a), K)
            zb = zprime_numeric(Lens(*b), K)
            assert abs(za - zb) < 1e-12
    for a, b in [((5, 2), (5, 7)), ((7, 2), (7, 9))]:
        assert abs(zprime_numeric(Lens(*a), 11)
                   - zprime_numeric(Lens(*b), 11)) < 1e-12


def test_full_invariant_homeomorphism_invariance():
    assert abs(z_numeric(Lens(5, 2), 7) - z_numeric(Lens(5, 3), 7)) < 1e-12


def test_chain_degenerate_raises():
    with pytest.raises(ChainDegenerate):
        zprime_numeric(Lens(5, 7), 7)


def test_seifert_star_matches_chain_presentation():
    # the factorized star sum against independent chain surgeries on
    # the same manifold: X(5/2) is L(2,5) ~ L(2,1)
    star = zprime_numeric(SeifertData([(5, 2)]), 7)
    chain = zprime_numeric(Lens(2, 5), 7)
    assert abs(star - chain) < 1e-12


def test_seifert_star_full_invariant_matches_chain_presentation():
    # the same check for z_numeric's star sum, X(p/q) against L(q, p);
    # kirby_melvin_check alone would also pass if z_numeric were 0 at
    # both levels (and it is 0 for L(2, q): tau_3 vanishes there)
    for p, q in ((5, 3), (7, 3), (4, 3)):
        for K in (5, 7, 9):
            star = z_numeric(SeifertData([(p, q)]), K)
            chain = z_numeric(Lens(q, p), K)
            assert abs(star - chain) < 1e-12 and abs(chain) > 1


def test_seifert_oracle_at_k101():
    got = eval_complex(seifert_zprime(POINCARE, 101))
    assert abs(got - zprime_numeric(POINCARE, 101)) < 1e-9


@pytest.mark.parametrize("order", [(20, 60), (60, 20)])
def test_tables_equal_direct_mpmath_calls(monkeypatch, order):
    # every table entry is the very mpmath call it replaces, at the
    # precision in force: a table shared across precisions fails here
    monkeypatch.setattr(cyclotomic, "_ROOTS", {})
    for dps in order:
        with mpmath.workdps(dps):
            for K in (5, 7, 13, 101):
                assert cyclotomic.unit_roots(K) == tuple(
                    mpmath.expjpi(mpmath.mpf(2 * e) / K) for e in range(K))
                # the oracle's sines are Im of the roots of order 2K
                assert [r.imag for r in cyclotomic.unit_roots(2 * K)] == [
                    mpmath.sinpi(mpmath.mpf(y) / K) for y in range(2 * K)]
                # the chain elements read roots of order 2 * den
                den = 2 * K * 3
                assert cyclotomic.unit_roots(2 * den) == tuple(
                    mpmath.expjpi(mpmath.mpf(m) / den)
                    for m in range(2 * den))
        for a in (lens_zprime(-5, 2, 7), lens_zprime(3, 1, 7),
                  seifert_zprime(POINCARE, 13),
                  seifert_zprime(POINCARE, 101)):
            K = a.K
            got = eval_complex(a, dps)
            with mpmath.workdps(dps):
                q = mpmath.e ** (2j * mpmath.pi / K)
                want = sum(c * q ** i for i, c in enumerate(a.coeffs))
                bound = (K * sum(map(abs, a.coeffs))
                         * mpmath.mpf(10) ** (1 - dps))
                for g, w in ((got.real, want.real), (got.imag, want.imag)):
                    # the bound, plus the rounding to a double
                    assert abs(g - w) <= bound + abs(w) * 2 ** -52
    # L(-5,2) is real: its imaginary part is rounding noise, printed as 0
    assert eval_complex(lens_zprime(-5, 2, 7)).imag == 0.0


def test_kirby_melvin_factorization():
    assert kirby_melvin_check(Lens(3, 1), 7)
    assert kirby_melvin_check(Lens(5, 2), 11)
    assert kirby_melvin_check(Lens(1, 1), 5)
    assert kirby_melvin_check(POINCARE, 7)


def test_presentations_are_the_nt_types():
    assert Lens is so3inv.nt.Lens and P1Surgery is so3inv.nt.P1Surgery


def test_not_rhs_rejected():
    with pytest.raises(NotRHS):
        Lens(0, 1)
    with pytest.raises(NotRHS):
        P1Surgery("unknot", (0,))
    with pytest.raises(NotRHS):
        P1Surgery("unknot", (2, 3))  # arity mismatch


# ---------------------------------------------------------------------------
# exact integer-framing surgery


def test_exact_p1_smallest_case():
    assert exact_p1(P1Surgery("unknot", (2,)), 3) == CycInt.one(3)


def test_exact_p1_matches_numeric_oracle():
    for K in (5, 7):
        for p in (2, 3, -3, 5, -7):
            if p % K == 0:
                continue
            m = P1Surgery("unknot", (p,))
            exact = eval_complex(exact_p1(m, K))
            assert abs(exact - zprime_numeric(m, K)) < 1e-12


def test_exact_p1_is_mirror_lens():
    # framing p on the unknot builds the mirror of L(p,1)
    from so3inv.closedform import lens_zprime

    for K in (5, 11):
        for p in (2, -3, 4, 7):
            got = exact_p1(P1Surgery("unknot", (p,)), K)
            assert got == lens_zprime(-p, 1, K)


def test_exact_p1_two_components():
    m = P1Surgery("unlink", (-2, 5))
    got = exact_p1(m, 7)
    assert got.coeffs == (-1, -2, -2, -1, 0, 1)
    assert abs(eval_complex(got) - zprime_numeric(m, 7)) < 1e-12


def test_exact_p1_rejects_framing_divisible_by_k():
    with pytest.raises(NotCoprime):
        exact_p1(P1Surgery("unknot", (7,)), 7)
    with pytest.raises(NotCoprime):
        exact_p1(P1Surgery("unlink", (-2, 5)), 5)


def test_exact_p1_rejects_indivisible_color_sum(monkeypatch):
    # a link value at one color only leaves a lone q^e as the color
    # sum, which x = q - 1 does not divide
    def one_color(colors, K):
        return CycInt.one(K) if colors[0] % (2 * K) == 1 else CycInt.zero(K)

    fake = JonesTable("one-color", None, one_color)
    monkeypatch.setattr(surgery, "get_table", lambda table_id: fake)
    with pytest.raises(DivisibilityFailure):
        exact_p1(P1Surgery("unknot", (3,)), 7)


def _joint_color_sum(M, K):
    """Z' of a P1 surgery from its joint K^N odd-color sum, in Z[q].

    A color tuple's link value is the product of its one-color values
    (the tables are split links).  The sum runs in Z[q]/(q^K - 1) by
    Kronecker substitution: c_e >= 0 stand for the integer sum c_e * X^e
    with X = 2^64, and q^K = 1 makes a product the integer product mod
    X^K - 1, exact while every c_e stays below X (here below 2^30).  A
    value is lifted to c_e >= 0 by adding a multiple of
    1 + q + ... + q^(K-1), which is 0 in Z[q].
    """
    ps, X = M.framings, 1 << 64
    t4 = inv_int(4, K)
    pstars = [even_inv(p, K) for p in ps]

    def packed(color):
        cs = get_table(M.jones).exact((color,), K).coeffs + (0,)
        return sum((c - min(cs)) * X ** e for e, c in enumerate(cs))

    links = [{a: packed(a + pst) for a in odd_window(K)} for pst in pstars]
    q_to = [X ** e for e in range(K)]
    acc = 0
    for al in itertools.product(odd_window(K), repeat=len(ps)):
        e = t4 * sum(p * a * a for p, a in zip(ps, al)) % K
        acc += prod(link[a] for link, a in zip(links, al)) * q_to[e]
    acc %= X ** K - 1
    w = from_counts([acc >> (64 * e) & (X - 1) for e in range(K)], K)
    for _ in range(len(ps) * (K - 1) // 2):
        w = divide_by_x(w)
    negatives = sum(p < 0 for p in ps)
    phase = (-1) ** ((1 - kappa_of(K)) * negatives // 2)
    e2 = t4 * sum(3 * sign(p) - p - pst for p, pst in zip(ps, pstars))
    return (w * unit_u(K) ** len(ps) * qpow(e2, K)
            * (phase * (-1) ** negatives))


def test_exact_p1_matches_joint_color_sum():
    # exact_p1 sums the colors of one component at a time; the joint
    # sum over all K^N color tuples must give the same element
    for framings, top in (((-2, 5), 61), ((2, -3, 4), 29)):
        m = P1Surgery("unlink", framings)
        for K in odd_primes(3, top):
            if all(p % K for p in framings):
                assert exact_p1(m, K) == _joint_color_sum(m, K), K


def test_kirby_melvin_covers_p1_surgeries():
    # the oracle's P1 link values are defined at even colors too, so
    # z_numeric (colors 1..K-1) evaluates P1 surgeries
    cases = [P1Surgery("unknot", (p,)) for p in (2, 3, -3)]
    cases += [P1Surgery("unlink", fr) for fr in ((-2, 5), (2, 3))]
    for m in cases:
        for K in (5, 7, 11, 13):
            if all(p % K for p in m.framings):
                assert kirby_melvin_check(m, K), (m, K)


# ---------------------------------------------------------------------------
# symbolic phase bookkeeping


def test_phase_sqrt_q_times_inverse_half_is_minus_one():
    # q^(1/2) * q^(-inv(2,K)) collapses to -1 for every odd prime
    for K in (5, 7, 11, 13):
        ph = ExtendedPhase(K)
        ph.times_sqrt_q(1)
        ph.times_q(-inv_int(2, K))
        assert ph.reduce() == CycInt.one(K) * (-1)


def test_phase_i_squared():
    ph = ExtendedPhase(7)
    ph.times_i()
    ph.times_i()
    assert ph.reduce() == CycInt.one(7) * (-1)


def test_phase_eighth_roots_cancel():
    ph = ExtendedPhase(5)
    ph.times_eighth(8)
    ph.times_q(3)
    assert ph.reduce() == qpow(3, 5)


def test_phase_irreducible_leftovers():
    ph = ExtendedPhase(5)
    ph.times_eighth(1)
    with pytest.raises(PhaseNotReducible):
        ph.reduce()
    ph2 = ExtendedPhase(5)
    ph2.times_magnitude(Fraction(1, 2), 0)
    with pytest.raises(PhaseNotReducible):
        ph2.reduce()

"""Oracle behavior: numeric surgery sums, exact integer-framing path."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import mpmath
import pytest

import so3inv.nt
from so3inv import cyclotomic, surgery
from so3inv.arith import inv_int, legendre, odd_primes, sign
from so3inv.closedform import _phase_to_q
from so3inv.cyclotomic import CycInt, eval_complex, odd_window
from so3inv.errors import (BadPrecision, ChainDegenerate, DivisibilityFailure,
                           H1DivisibleByK, NotAnOddPrime, NotRHS,
                           PDivisibleByK, PhaseNotReducible, ZeroLowerLeft)
from so3inv.jones import get_table
from so3inv.nt import SeifertData, rademacher_phi
from so3inv.ohtsuki import closed_zprime
from so3inv.surgery import Lens, P1Surgery, zprime_numeric
import zq_reference
from zq_reference import (_dps, cyc_pow, divide_by_x, eval_complex_mpmath,
                          even_inv, exact_p1, kirby_melvin_check, qpow,
                          unit_u, value_mpmath, z_numeric)

POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])


def test_s3_presentations_give_one():
    for K in (5, 7, 11):
        for m in (Lens(1, 0), Lens(1, 1), Lens(-1, 1)):
            assert abs(zprime_numeric(m, K) - 1) < 1e-12
        # the empty surgery is S^3 for both invariants
        empty = P1Surgery("unlink", ())
        assert zprime_numeric(empty, K) == z_numeric(empty, K) == 1


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
    # the odd-color weight needs q^-1 mod K; a single fiber with K | q
    # has no partner to shift against
    with pytest.raises(ChainDegenerate, match="denominator 7"):
        zprime_numeric(SeifertData([(5, 7)]), 7)


def test_denominator_divisible_by_k_is_re_presented():
    # 7/5 and -11/7 have denominator 7 = K; L(5, 7) = L(5, 12) and the
    # fiber shift q_i + k p_i, q_j - k p_j present the same manifolds
    # without one
    for m in (Lens(5, 7), SeifertData([(-11, 7), (2, 1), (3, 1)])):
        want = eval_complex(closed_zprime(m, 7))
        assert abs(zprime_numeric(m, 7) - want) < 1e-9, m
    # a 1/0 fiber is shifted too; the full invariant, which is never
    # re-presented, names its zero lower-left entry
    fiber_1_0 = SeifertData([(1, 0), (2, 1), (3, 1)])
    want = eval_complex(closed_zprime(fiber_1_0, 7))
    assert abs(zprime_numeric(fiber_1_0, 7) - want) < 1e-9
    with pytest.raises(ZeroLowerLeft):
        z_numeric(fiber_1_0, 7)


# two-fiber stars and the lens spaces they are: X(p1/q1, p2/q2) is
# L(p1*q2 + p2*q1, .), so the -1 of the star's central vertex meets
# an independent lens presentation with more than one fiber
TWO_FIBER_LENS = [([(2, 1), (3, 1)], (5, 4)), ([(3, 1), (5, 2)], (11, 5)),
                  ([(3, 2), (7, 3)], (23, 7)), ([(4, 1), (5, 3)], (17, 11))]


def _two_fiber_cells(invariant):
    """(star, lens) values on TWO_FIBER_LENS at K in {7, 11, 13, 19}."""
    return [(invariant(SeifertData(fractions), K), invariant(Lens(*lens), K))
            for fractions, lens in TWO_FIBER_LENS for K in (7, 11, 13, 19)]


def test_seifert_star_matches_chain_presentation():
    # the factorized star sum against independent chain surgeries on
    # the same manifold: X(5/2) is L(2,5) ~ L(2,1)
    star = zprime_numeric(SeifertData([(5, 2)]), 7)
    chain = zprime_numeric(Lens(2, 5), 7)
    assert abs(star - chain) < 1e-12
    cells = _two_fiber_cells(zprime_numeric)
    assert len(cells) == 16
    for star, chain in cells:
        assert abs(star - chain) < 1e-9


def test_seifert_star_full_invariant_matches_chain_presentation():
    # the same check for z_numeric's star sum, X(p/q) against L(q, p);
    # kirby_melvin_check alone would also pass if z_numeric were 0 at
    # both levels (and it is 0 for L(2, q): tau_3 vanishes there)
    for p, q in ((5, 3), (7, 3), (4, 3)):
        for K in (5, 7, 11):
            star = z_numeric(SeifertData([(p, q)]), K)
            chain = z_numeric(Lens(q, p), K)
            assert abs(star - chain) < 1e-12 and abs(chain) > 1
    cells = _two_fiber_cells(z_numeric)
    assert len(cells) == 16
    for star, chain in cells:
        assert abs(star - chain) < 1e-9


def test_seifert_oracle_at_k101():
    got = eval_complex(closed_zprime(POINCARE, 101))
    assert abs(got - zprime_numeric(POINCARE, 101)) < 1e-9


def _nearest(x, B):
    """The integer nearest 2^B * x."""
    return int(mpmath.nint(mpmath.ldexp(x, B)))


def _mpmath_root(n, G):
    """The integers nearest 2^G times the parts of exp(2*pi*i/n), from
    one expjpi at G + 16 bits."""
    with mpmath.workprec(G + 16):
        zeta = mpmath.expjpi(mpmath.mpf(2) / n)
        return _nearest(zeta.real, G), _nearest(zeta.imag, G)


def test_root_equals_mpmath_rounded_root():
    # at the G of fixed_roots, over the orders and digits the callers
    # use: eval_complex reads order K at --precision digits (15, 50 by
    # default, 120), the oracle orders 2K and 8K at its own digits for
    # 1 to 7 components, and z_numeric order 4Kq at 50 + 2K digits
    def G(n, d):
        return cyclotomic._prec(d) + 2 * n.bit_length() + 65

    pairs = set()
    for K in odd_primes(3, 2003)[::2] + (2003,):
        digits = {15, 50, 120, surgery._digits(K, 1, None),
                  surgery._digits(K, 7, None)}
        pairs.update((n, G(n, d)) for n in (K, 2 * K, 8 * K) for d in digits)
        if K < 60:
            pairs.update((n, G(n, _dps(K, None))) for n in (4 * K, 12 * K))
    # and every small order at a spread of digits
    pairs.update((n, G(n, d)) for n in range(2, 400)
                 for d in (1, 7, 15, 50, 120, 300)[n % 2::2])
    assert len(pairs) > 3000
    for n, g in sorted(pairs):
        assert cyclotomic._root(n, g) == _mpmath_root(n, g), (n, g)


def test_digits_to_bits_is_mpmaths_rule():
    for d in range(1, 1001):
        assert cyclotomic._prec(d) == mpmath.libmp.dps_to_prec(d), d


@pytest.mark.parametrize("order", [(20, 60), (60, 20)])
def test_tables_equal_direct_mpmath_calls(monkeypatch, order):
    # every table entry is the integer nearest 2^B times the exact root,
    # at the precision in force: a table shared across precisions fails
    # here, and so do entries taken from one rounded expjpi(2e/n) each,
    # which carry the rounding of their argument
    monkeypatch.setattr(cyclotomic, "_ROOTS", {})

    for dps in order:
        with mpmath.workdps(dps):
            for K in (5, 7, 13, 101):
                # roots of order K, of order 2K, of order 8K, which the
                # prefactor's phase reads, and of order 2 * den, which
                # the chain elements read
                den = 2 * K * 3
                for n in (K, 2 * K, 8 * K, 2 * den):
                    B, re, im = cyclotomic.fixed_roots(n, dps)
                    assert B == mpmath.mp.prec + n.bit_length() + 1
                    with mpmath.workprec(2 * B + 64):
                        roots = [mpmath.expjpi(mpmath.mpf(2 * e) / n)
                                 for e in range(n)]
                        assert re == tuple(_nearest(r.real, B)
                                           for r in roots)
                        assert im == tuple(_nearest(r.imag, B)
                                           for r in roots)
                # the oracle's sines are Im of the roots of order 2K
                B, _, sines = cyclotomic.fixed_roots(2 * K, dps)
                with mpmath.workprec(2 * B + 64):
                    assert sines == tuple(
                        _nearest(mpmath.sinpi(mpmath.mpf(y) / K), B)
                        for y in range(2 * K))
        for a in (closed_zprime(Lens(-5, 2), 7), closed_zprime(Lens(3, 1), 7),
                  closed_zprime(POINCARE, 13),
                  closed_zprime(POINCARE, 101),
                  closed_zprime(POINCARE, 211)):
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
    assert eval_complex(closed_zprime(Lens(-5, 2), 7)).imag == 0.0


@pytest.fixture
def root_calls(monkeypatch):
    """The arguments of every cyclotomic._root call, from empty tables."""
    monkeypatch.setattr(cyclotomic, "_ROOTS", {})
    calls = []
    root = cyclotomic._root
    monkeypatch.setattr(cyclotomic, "_root",
                        lambda n, G: calls.append((n, G)) or root(n, G))
    return calls


def test_one_root_per_table(root_calls):
    # a table is the powers of one root, built once per (order,
    # precision)
    calls = root_calls
    for dps in (15, 50):
        for n in (7, 14, 1212):
            for _ in range(2):
                cyclotomic.fixed_roots(n, dps)
            assert len(calls) == len(cyclotomic._ROOTS)
    assert len(calls) == 6


def test_oracle_computes_roots_only_to_build_tables(root_calls):
    # the color sums and the prefactor read the tables of order 2K and
    # 8K, so a batch at one K builds each once and a repeat builds none
    calls = root_calls
    K = 13
    batch = [Lens(5, 2), Lens(-7, 3), POINCARE, P1Surgery("unlink", (-2, 5))]
    first = [zprime_numeric(m, K) for m in batch]
    assert len(calls) == len(cyclotomic._ROOTS) == 2
    assert {n for n, _ in cyclotomic._ROOTS} == {2 * K, 8 * K}
    assert [zprime_numeric(m, K) for m in batch] == first
    assert len(calls) == 2


def test_eval_complex_equals_mpmath_body():
    # the integer noise rule and the one int / int conversion give the
    # doubles of the mpf route, noise zeros included; the lens spaces
    # are those of `verify --family lens --pmax 12`
    manifolds = [Lens(p, q) for p in range(-12, 13) if p
                 for q in [q for q in range(1, abs(p)) if gcd(p, q) == 1]
                 or [1]]
    manifolds += map(SeifertData, STARS)
    manifolds += (P1Surgery("unlink", fr)
                  for fr in ((-2, 5), (2, -3, 4), (3, 3), (-1, 2, 7)))
    n = 0
    for K in (5, 7, 11, 29, 53, 101, 157, 211):
        for m in manifolds:
            try:
                a = closed_zprime(m, K)
            except (H1DivisibleByK, PDivisibleByK):
                continue
            for precision in (15, 30, 50, 120):
                got = eval_complex(a, precision)
                assert got == eval_complex_mpmath(a, precision), (m, K)
                n += 1
    assert n == 2992


def test_value_equals_mpmath_body():
    # the prefactor in integers against one expjpi over one mpmath
    # square root: equal as doubles, but a component of a value on an
    # axis may differ while it is below 2^(-prec/2) on both sides
    rng = random.Random(5)
    for K in (5, 7, 13, 31):
        dps = _dps(K, None)
        with mpmath.workdps(dps):
            B, cos, sin = cyclotomic.fixed_roots(2 * K, dps)
            tiny = mpmath.ldexp(1, -mpmath.mp.prec // 2)
            fixed = [(B, 1 << B, 0), (B, 3 * cos[1], -5 * sin[3]),
                     (B, rng.getrandbits(B + 40) - (1 << B + 39),
                      rng.getrandbits(B + 40) - (1 << B + 39))]
            rads = [K ** N for N in range(1, 6)]
            rads.append(prod(2 * K * q for q in (1, 3, 4)))
            for m in range(8 * K):
                for rad in rads:
                    for z in fixed:
                        got = surgery._value(z, m, rad, K, dps)
                        want = value_mpmath(z, m, rad, K, dps)
                        for g, w in ((got.real, want.real),
                                     (got.imag, want.imag)):
                            assert g == w or (abs(g) < tiny
                                              and abs(w) < tiny), (K, m)


@pytest.mark.parametrize("precision", [0, -3])
def test_eval_complex_rejects_precision_below_one_digit(precision):
    # 0 digits used to give 0j for L(5,2) at K = 7, whose value is -2.2470
    with pytest.raises(BadPrecision):
        eval_complex(closed_zprime(Lens(5, 2), 7), precision)


@pytest.mark.parametrize("precision", [0, -3])
def test_zprime_numeric_rejects_precision_below_one_digit(precision):
    # -3 digits used to give -0.125-0.125j, and 0 the default precision
    with pytest.raises(BadPrecision):
        zprime_numeric(Lens(5, 2), 7, precision=precision)


@pytest.mark.parametrize("precision", [1, 5, 10, 15, 22])
def test_zprime_numeric_rejects_precision_below_its_error_bound(precision):
    # K^(3N/2) * 10^-d <= 1e-9 needs 23 digits for the four components
    # of X(2/1,3/1,5/-4) at K = 211; at 1 digit the sum reads
    # -237.880-93.883i, against -237.771-93.857i
    with pytest.raises(BadPrecision, match="below the 23 digits"):
        zprime_numeric(POINCARE, 211, precision=precision)


def test_zprime_numeric_at_its_bound_is_within_1e_9():
    got = zprime_numeric(POINCARE, 211, precision=23)
    assert abs(got - eval_complex(closed_zprime(POINCARE, 211))) < 1e-9


@pytest.mark.parametrize("precision", [0, -3])
def test_z_numeric_rejects_precision_below_one_digit(precision):
    with pytest.raises(BadPrecision):
        z_numeric(Lens(5, 2), 7, precision=precision)


def test_kirby_melvin_factorization():
    assert kirby_melvin_check(Lens(3, 1), 7)
    assert kirby_melvin_check(Lens(5, 2), 11)
    assert kirby_melvin_check(Lens(1, 1), 5)
    assert kirby_melvin_check(POINCARE, 7)
    # the oracle runs at odd primes only, like the exact side
    for K in (9, 15):
        with pytest.raises(NotAnOddPrime):
            z_numeric(Lens(3, 1), K)
        with pytest.raises(NotAnOddPrime):
            kirby_melvin_check(Lens(3, 1), K)


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
    for framings in ((-2, 5), (2, -3, 4)):
        m = P1Surgery("unlink", framings)
        for K in odd_primes(3, 31):
            if all(p % K for p in framings):
                exact = eval_complex(exact_p1(m, K))
                assert abs(exact - zprime_numeric(m, K)) < 1e-9, (m, K)


def test_exact_p1_is_mirror_lens():
    # framing p on the unknot builds the mirror of L(p,1)
    for K in (5, 11):
        for p in (2, -3, 4, 7):
            got = exact_p1(P1Surgery("unknot", (p,)), K)
            assert got == closed_zprime(Lens(-p, 1), K)


def test_exact_p1_two_components():
    m = P1Surgery("unlink", (-2, 5))
    got = exact_p1(m, 7)
    assert got.coeffs == (-1, -2, -2, -1, 0, 1)
    assert abs(eval_complex(got) - zprime_numeric(m, 7)) < 1e-12


def test_exact_p1_rejects_framing_divisible_by_k():
    # the gate is closed_zprime's, for a P1 surgery as for every
    # presentation
    with pytest.raises(H1DivisibleByK,
                       match=r"^\|H1\| = 7 is divisible by K = 7$"):
        closed_zprime(P1Surgery("unknot", (7,)), 7)
    with pytest.raises(H1DivisibleByK,
                       match=r"^\|H1\| = 10 is divisible by K = 5$"):
        closed_zprime(P1Surgery("unlink", (-2, 5)), 5)


def test_exact_p1_rejects_indivisible_color_sum(monkeypatch):
    # a lone q^0 as the color sum, which x = q - 1 does not divide
    monkeypatch.setattr(zq_reference, "from_runs",
                        lambda runs, K: CycInt.one(K))
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
    counts = [acc >> (64 * e) & (X - 1) for e in range(K)]
    w = CycInt([c - counts[K - 1] for c in counts[:K - 1]], K)
    for _ in range(len(ps) * (K - 1) // 2):
        w = divide_by_x(w)
    negatives = sum(p < 0 for p in ps)
    phase = (-1) ** ((1 - legendre(-1, K)) * negatives // 2)
    e2 = t4 * sum(3 * sign(p) - p - pst for p, pst in zip(ps, pstars))
    return (w * cyc_pow(unit_u(K), len(ps)) * qpow(e2, K)
            * (phase * (-1) ** negatives))


def test_exact_p1_matches_joint_color_sum():
    # exact_p1 sums the colors of one component at a time and divides
    # by the Gauss sum once; the joint sum over all K^N color tuples,
    # divided by x one step at a time, must give the same element
    for framings, top in (((3,), 101), ((-2,), 101), ((-7,), 101),
                          ((-2, 5), 61), ((2, -3, 4), 29)):
        m = P1Surgery("unknot" if len(framings) == 1 else "unlink", framings)
        for K in odd_primes(3, top):
            if all(p % K for p in framings):
                joint = _joint_color_sum(m, K)
                assert exact_p1(m, K) == joint, K
                assert closed_zprime(m, K) == joint, K


def test_closed_zprime_matches_exact_p1_reference():
    # closed_zprime reads a P1 surgery as the connected sum of the
    # L(-p, 1); the reference route, one color sum per framing divided
    # by the Gauss sum, must give the same element
    cases = [(P1Surgery("unknot", (p,)), odd_primes(3, 101))
             for p in range(-40, 41) if p]
    cases += [(P1Surgery("unlink", fr), odd_primes(3, 61))
              for fr in ((-2, 5), (2, -3, 4), (3, 3, -7, 11), (1, -1))]
    cases.append((P1Surgery("unlink", (-2, 5)), (1009, 1999)))
    checked = 0
    for m, primes in cases:
        for K in primes:
            if all(p % K for p in m.framings):
                assert closed_zprime(m, K) == exact_p1(m, K), (m, K)
                checked += 1
    assert checked == 1985


def _mpc_zprime_prefactor(surg, sig, K):
    """The odd-color prefactor factor by factor, with direct mpmath
    calls: signs, K^(-N/2), the two phases of the signature and the
    root of order K of the summed chain phases."""
    t4 = inv_int(4, K)
    phis = [rademacher_phi(p, q, pow(p, -1, q)) for (p, q) in surg]
    pref = mpmath.mpc(legendre(abs(prod(q for (p, q) in surg)), K))
    pref *= prod(sign(q) for (p, q) in surg)
    pref *= mpmath.mpf(K) ** (mpmath.mpf(-len(surg)) / 2)
    pref *= mpmath.expjpi(mpmath.mpf(-legendre(-1, K) * sig) / 4)
    pref *= mpmath.expjpi(mpmath.mpf(-3 * (K - 2) * sig) / (4 * K))
    pref *= mpmath.expjpi(mpmath.mpf(2 * (-t4 * sum(phis) % K)) / K)
    return pref * (-1) ** (sum(sign(p * q) for (p, q) in surg) % 2)


def _mpc_zprime_weights(p, q, K):
    """The odd-color weights of one component, {a: q^(4* q*(p a^2 + s))
    * sin(2 pi 2* q* a / K)}, q* = q^-1 mod K, s = p^-1 mod q."""
    t2, t4, qs = inv_int(2, K), inv_int(4, K), inv_int(q, K)
    s = pow(p, -1, q)
    return {a: mpmath.expjpi(mpmath.mpf(2 * (t4 * qs * (p * a * a + s) % K))
                             / K)
            * mpmath.sinpi(mpmath.mpf(2 * t2 * qs * a % (2 * K)) / K)
            for a in odd_window(K)}


def _joint_numeric(M, K, full):
    """z_numeric (full) or zprime_numeric of a P1 surgery from the joint
    sum over all color tuples, colors 1..K-1 or the odd window.

    The link value of a tuple is prod sin(pi*a_j/K) / sin(pi/K)^N.  The
    per-component factors and the prefactor are written out here, and
    every transcendental value is a direct mpmath call.
    """
    surg = [(p, 1) for p in M.framings]
    sig = sum(sign(p) for p in M.framings)
    n = len(surg)
    with mpmath.workdps(50 + 2 * K):
        def sine(y):
            return mpmath.sinpi(mpmath.mpf(y) / K)

        if full:
            # q = 1: the SL2 completion [[p, -1], [1, 0]], s = 0, and
            # the matrix element at colors (a, 1) is i / sqrt(2K)
            # * e^(-i pi phi / 4) * sum_mu mu * e^(i pi (p a^2 - 2 a mu)
            # / (2K))
            phis = [rademacher_phi(p, 1, 0) for (p, q) in surg]
            e = Fraction(K - 2, K) * (sum(phis) - 3 * sig)
            pref = mpmath.expjpi(mpmath.mpf(e.numerator)
                                 / (4 * e.denominator))
            factors = [{a: mpmath.mpc(0, 1) / mpmath.sqrt(2 * K)
                        * mpmath.expjpi(mpmath.mpf(-phi) / 4)
                        * sum(mu * mpmath.expjpi(
                            mpmath.mpf(p * a * a - 2 * a * mu) / (2 * K))
                            for mu in (1, -1))
                        for a in range(1, K)}
                       for (p, q), phi in zip(surg, phis)]
            colors = range(1, K)
        else:
            pref = _mpc_zprime_prefactor(surg, sig, K)
            factors = [_mpc_zprime_weights(p, q, K) for (p, q) in surg]
            colors = odd_window(K)
        tot = mpmath.mpc(0)
        for al in itertools.product(colors, repeat=n):
            term = prod(sine(a) for a in al) / sine(1) ** n
            tot += term * prod(f[a] for f, a in zip(factors, al))
        return complex(pref * tot)


@pytest.mark.parametrize("full", [False, True], ids=["zprime", "z"])
def test_numeric_oracle_matches_joint_color_sum(full):
    # the oracle sums one component at a time; the joint sum over all
    # K^N color tuples, written out here, must give the same value
    oracle = z_numeric if full else zprime_numeric
    for m in (P1Surgery("unknot", (3,)), P1Surgery("unlink", (-2, 5)),
              P1Surgery("unlink", (2, -3, 4))):
        for K in (5, 7, 11, 13):
            want = _joint_numeric(m, K, full)
            assert abs(oracle(m, K) - want) < 1e-12, (m, K)


# stars with 1 to 5 fibers and negative p and q
STARS = [[(-5, 3)], [(3, -2), (5, 1)], [(2, 1), (3, 1), (5, -4)],
         [(2, -1), (3, 1), (5, 1), (-7, 2)],
         [(2, 1), (-3, 2), (5, 1), (7, -2), (11, 3)]]


def _mpc_star(M, K):
    """zprime_numeric of a Seifert space as a per-fiber mpc sum: at
    each central color b, the product over the fibers of
    sum_a sin(pi*b*a/K) * w(a), over sin(pi*b/K)^(N-1) * sin(pi/K),
    with every transcendental value a direct mpmath call.  Only the
    presentation is the oracle's own.
    """
    surg, sig, star = surgery._presentation(
        surgery._coprime_denominators(M, K))
    assert star
    with mpmath.workdps(50 + 2 * K):
        def sine(y):
            return mpmath.sinpi(mpmath.mpf(y % (2 * K)) / K)

        central, *fibers = [_mpc_zprime_weights(p, q, K) for (p, q) in surg]
        tot = mpmath.mpc(0)
        for b, x in central.items():
            if b % K:
                folds = prod(sum(sine(b * a) * w for a, w in f.items())
                             for f in fibers)
                tot += x * folds / (sine(b) ** (len(fibers) - 1) * sine(1))
        # the -1 of the p = 0 central vertex, which the prefactor's
        # (-1)^sign(p*q) does not count
        return complex(-_mpc_zprime_prefactor(surg, sig, K) * tot)


@pytest.mark.parametrize("fractions", STARS, ids=lambda fr: f"{len(fr)}")
def test_star_sum_matches_mpc_sum(fractions):
    m = SeifertData(fractions)
    for K in (5, 7, 11, 13, 31):
        if len(fractions) == 1 and fractions[0][1] % K == 0:
            continue
        want = _mpc_star(m, K)
        assert abs(zprime_numeric(m, K) - want) < 1e-30, (m, K)


def test_default_precision_matches_fifty_plus_2k():
    # the digits of the error bound against the old default of 50 + 2K
    # digits, which the full-level oracle keeps
    cases = [SeifertData(fr) for fr in STARS] + [
        Lens(7, 3), Lens(-12, 5), P1Surgery("unlink", (-2, 5)),
        P1Surgery("unlink", (2, -3, 4))]
    for K in (5, 7, 13, 31, 101, 211):
        for m in cases:
            want = zprime_numeric(m, K, precision=50 + 2 * K)
            assert abs(zprime_numeric(m, K) - want) < 1e-30, (m, K)


def test_mirror_pairs_are_real_to_1e_30():
    # framings p and -p give L(-p, 1) and its mirror, whose Z' are
    # complex conjugates, so Z' of the unlink below is a product of
    # |Z'|^2: its imaginary part is the oracle's error alone, which the
    # default digits keep below 1e-30
    m = P1Surgery("unlink", (2, -2, 3, -3, 4, -4))
    for K in (5, 7, 13, 31, 101, 211):
        z = zprime_numeric(m, K)
        assert abs(z.imag) < 1e-30 < z.real, K


def test_one_pair_of_tables_up_to_six_components(root_calls):
    # the default digits read K and max(N, 6) alone: a batch of 1 to 6
    # surgery components at one K builds one table of order 2K and one
    # of order 8K, and a 7-component unlink builds its own pair
    K = 11
    framings = (2, -3, 4, 5, -6, 7, 8)
    batch = [P1Surgery("unlink", framings[:n]) for n in range(1, 7)]
    batch += [Lens(7, 3)] + [SeifertData(fr) for fr in STARS]
    for m in batch:
        zprime_numeric(m, K)
    assert len(root_calls) == len(cyclotomic._ROOTS) == 2
    zprime_numeric(P1Surgery("unlink", framings), K)
    assert len(root_calls) == len(cyclotomic._ROOTS) == 4
    assert {n for n, _ in cyclotomic._ROOTS} == {2 * K, 8 * K}
    assert len({prec for _, prec in cyclotomic._ROOTS}) == 2


def test_kirby_melvin_covers_p1_surgeries():
    # the oracle's P1 link values are defined at even colors too, so
    # z_numeric (colors 1..K-1) evaluates P1 surgeries
    cases = [P1Surgery("unknot", (p,)) for p in (2, 3, -3)]
    cases += [P1Surgery("unlink", fr) for fr in ((-2, 5), (2, 3), (2, -3, 4))]
    for m in cases:
        for K in (5, 7, 11, 13):
            if all(p % K for p in m.framings):
                assert kirby_melvin_check(m, K), (m, K)


# ---------------------------------------------------------------------------
# symbolic phase bookkeeping


def test_phase_sqrt_q_times_inverse_half_is_minus_one():
    # q^(1/2) * q^(-inv(2,K)) collapses to -1 for every odd prime
    for K in (5, 7, 11, 13):
        assert _phase_to_q(0, 2 - 4 * inv_int(2, K), 1, K) == (0, -1)


def test_phase_i_squared():
    assert _phase_to_q(2 + 2, 0, 1, 7) == (0, -1)


def test_phase_eighth_roots_cancel():
    # e^(2 pi i) * q^3
    assert _phase_to_q(8, 4 * 3, 1, 5) == (3, 1)


def test_phase_irreducible_leftovers():
    with pytest.raises(PhaseNotReducible):
        _phase_to_q(1, 0, 1, 5)

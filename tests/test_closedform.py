"""Closed forms against the numeric oracle and their series anchors."""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3inv import cli, closedform
from so3inv.arith import inv_int, odd_primes
from so3inv.closedform import _seifert_phase, seifert_cn
from so3inv.cyclotomic import CycInt, eval_complex
from so3inv.errors import (BadNormalization, DiamondMismatch,
                           DivisibilityFailure, H1DivisibleByK,
                           IntegralityFailure, NotCoprime, NotRHS,
                           PDivisibleByK, So3InvError)
from so3inv.nt import P1Surgery, SeifertData, dedekind_sum
from so3inv.ohtsuki import closed_lambda_series, closed_zprime
from so3inv.series import RatSeries, binomial_terms, half_log_tail
from so3inv.surgery import Lens, zprime_numeric
import zq_reference
from zq_reference import (at_half_log, connected_sum_lambda,
                          connected_sum_zprime, q_power, s_div,
                          seifert_cn_laurent, seifert_lambda_half_log,
                          seifert_lambda_product, ser_pow, sine_quotient)

POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])
SEIFERT_SAMPLE = [
    POINCARE,
    SeifertData([(3, 1), (4, 1), (5, 1)]),
    SeifertData([(-2, 1), (3, 1), (5, 1)]),
    SeifertData([(2, 1), (3, -1), (7, 2)]),
    SeifertData([(3, 2), (4, 3), (5, 4)]),
    SeifertData([(2, 1), (3, 1), (-5, 4)]),
    SeifertData([(-3, 2), (4, 1), (5, -2)]),
]


# ---------------------------------------------------------------------------
# multiplicity tables


def test_cn_single_fiber_is_delta():
    assert seifert_cn([3]) == {3: 1}
    assert seifert_cn([1, 1]) == {1: 1}


def test_cn_three_fibers():
    assert seifert_cn([2, 1, 1]) == {2: 1}
    assert seifert_cn([2, 3, 5]) == {8: 1, 6: 2, 4: 2, 2: 1}


def test_cn_support_is_positive_and_bounded():
    t = seifert_cn([4, 5, 7])
    assert type(t) is dict and t
    assert all(1 <= n <= 4 + 5 + 7 - 2 for n in t)
    assert all(type(c) is int and c for c in t.values())


def test_cn_rejects_bad_exponents():
    with pytest.raises(Exception):
        seifert_cn([0, 2])


def test_cn_matches_laurent_route():
    rng = random.Random(71)
    for _ in range(200):
        avals = [rng.randint(1, 250) for _ in range(rng.randint(1, 5))]
        got, want = seifert_cn(avals), seifert_cn_laurent(avals)
        assert list(got.items()) == list(want.items()), avals


@pytest.mark.parametrize("dense, avals, match", [
    ([1, 0, 0, 1, 0], [1, 1], "remainder"),
    ([1, 0, 0], [1], "antisymmetric")])
def test_cn_guards_raise_integrality_failure(monkeypatch, dense, avals,
                                             match):
    # a product that (z^-1 - z) does not divide, and one that is not
    # antisymmetric, each put in place of the fiber product
    monkeypatch.setattr(closedform, "_sinh_product", lambda ms: dense)
    with pytest.raises(IntegralityFailure, match=match):
        seifert_cn(avals)


# ---------------------------------------------------------------------------
# lens closed form


def test_lens_s3_is_one():
    assert closed_zprime(Lens(1, 0), 7) == CycInt.one(7)
    assert closed_zprime(Lens(1, 1), 11) == CycInt.one(11)
    assert closed_zprime(Lens(-1, 1), 5) == CycInt.one(5)


def test_lens_regression_coefficients():
    assert closed_zprime(Lens(2, 1), 5).coeffs == (0, 0, 1, 1)
    assert closed_zprime(Lens(3, 1), 7).coeffs == (0, 0, 1, 1, 0, 0)
    # the mirror conjugates the exponents
    assert closed_zprime(Lens(-3, 1), 7).coeffs == (0, 0, 0, 0, 1, 1)


def test_lens_matches_oracle_small_grid():
    checked = 0
    for K in (5, 7):
        for p in range(-7, 8):
            if p == 0 or p % K == 0:
                continue
            for q in range(1, max(abs(p), 2)):
                if gcd(p, q) != 1:
                    continue
                oracle = zprime_numeric(Lens(p, q), K)
                got = eval_complex(closed_zprime(Lens(p, q), K))
                assert abs(got - oracle) < 1e-9
                checked += 1
    assert checked > 40


# slopes the grid above never gives: q < 0 at either sign of p, and
# q = 0; L(+-1, 0) is S^3, and q -> q + |p| keeps the manifold
LENS_ORIENTATIONS = [(5, -2), (-7, -3), (-5, -2), (1, 0), (-1, 0)]


@pytest.mark.parametrize("p, q", LENS_ORIENTATIONS)
def test_lens_orientation_matches_oracle(p, q):
    for K in (5, 7, 11, 13):
        if p % K:
            got = eval_complex(closed_zprime(Lens(p, q), K))
            assert abs(got - zprime_numeric(Lens(p, q), K)) < 1e-9, K


@pytest.mark.parametrize("p, q", LENS_ORIENTATIONS)
def test_lens_closed_forms_are_periodic_in_q(p, q):
    shifted = q + abs(p)
    for K in (5, 7, 11, 13):
        if p % K:
            assert (closed_zprime(Lens(p, q), K)
                    == closed_zprime(Lens(p, shifted), K)), K
    assert (closed_lambda_series(Lens(p, q), 8).coeffs
            == closed_lambda_series(Lens(p, shifted), 8).coeffs)


def test_lens_preconditions():
    with pytest.raises(NotRHS):
        closed_zprime(Lens(0, 1), 5)
    with pytest.raises(NotCoprime):
        closed_zprime(Lens(4, 2), 5)
    with pytest.raises(H1DivisibleByK,
                       match=r"^\|H1\| = 10 is divisible by K = 5$"):
        closed_zprime(Lens(10, 3), 5)


def test_sine_quotient_representative_independence():
    for K in (5, 11):
        for c in range(1, K):
            assert sine_quotient(c + K, K) == sine_quotient(c, K)


# ---------------------------------------------------------------------------
# star-shaped closed form


def test_seifert_regression_coefficients():
    assert closed_zprime(POINCARE, 7).coeffs == (-1, -1, 1, 1, 1, 0)
    assert closed_zprime(SEIFERT_SAMPLE[1], 7).coeffs == (1, 1, 1, 0, 0, 1)


def test_seifert_matches_oracle():
    for s in SEIFERT_SAMPLE:
        for K in (7, 11, 13):
            try:
                got = eval_complex(closed_zprime(s, K))
            except (PDivisibleByK, H1DivisibleByK):
                continue
            assert abs(got - zprime_numeric(s, K)) < 1e-9


def test_seifert_preconditions():
    with pytest.raises(PDivisibleByK):
        closed_zprime(SeifertData([(3, 1), (4, 1), (5, 1)]), 5)
    with pytest.raises(H1DivisibleByK):
        closed_zprime(SeifertData([(2, 1), (3, 1)]), 5)  # |H1| = 5


def _ref_qsum(terms, K):
    """sum of c * q^e over (e, c), one public CycInt per term."""
    acc = CycInt([], K)
    for e, c in terms:
        e %= K
        term = CycInt([-1] * (K - 1) if e == K - 1 else [0] * e + [1], K)
        acc = acc + term * c
    return acc


def _ref_seifert_zprime(S, K):
    """The C_n sum as q^e * sine_quotient(m) * c, term by term."""
    t2, t4 = inv_int(2, K), inv_int(4, K)
    phs = S.P * inv_int(S.H, K)
    tot = CycInt([], K)
    for n, c in seifert_cn([inv_int(p, K) for (p, q) in S.fractions]).items():
        m = (phs * n) % K
        sq = _ref_qsum([(t2 * (1 - m + 2 * i), 1) for i in range(m)], K)
        tot = tot + _ref_qsum([(t4 * phs * (n * n + 1), 1)], K) * sq * c
    e, s = _seifert_phase(S, K)
    return _ref_qsum([(e, s)], K) * tot


def test_seifert_accumulation_matches_term_by_term_sum():
    checked = 0
    # 1-, 2-, 3-, 4- and 5-fiber data, with negative p and q
    for s in SEIFERT_SAMPLE + [SeifertData([(2, 1), (3, 1), (7, 1)]),
                               SeifertData([(2, 1), (4, 1), (5, 2)]),
                               SeifertData([(5, 2)]),
                               SeifertData([(-3, 2), (7, -3)]),
                               SeifertData([(2, -1), (3, 1), (5, 1), (-7, 2)]),
                               SeifertData([(2, 1), (-3, 2), (5, 1), (7, -2),
                                            (11, 3)])]:
        for K in odd_primes(3, 61):
            try:
                got = closed_zprime(s, K)
            except (PDivisibleByK, H1DivisibleByK):
                continue
            assert got == _ref_seifert_zprime(s, K)
            checked += 1
    assert checked > 180


@pytest.mark.parametrize("wrong", [lambda n, s, K: ((n + 1) % K, s),
                                   lambda n, s, K: (n, -s)],
                         ids=["q", "sign"])
def test_wrong_prefactor_raises_diamond_mismatch(monkeypatch, wrong):
    # a prefactor off by q or by -1 still reduces into Z[q], so only the
    # diamond guard can catch it
    phase = closedform._seifert_phase
    monkeypatch.setattr(closedform, "_seifert_phase",
                        lambda S, K: wrong(*phase(S, K), K))
    for K in (7, 11, 101):
        with pytest.raises(DiamondMismatch):
            closed_zprime(POINCARE, K)


def test_seifert_zprime_ignores_chain_degeneracy():
    # the fiber -11/7 has denominator 7 = K, which only the oracle's
    # odd-color weights care about; q_j -> q_j + k_j p_j with sum k_j = 0
    # re-presents the same manifold without it
    shifted = SeifertData([(-11, 29), (2, 3), (3, 4)])
    want = closed_zprime(shifted, 7)
    for fiber in ((-11, 7), (11, -7)):
        assert closed_zprime(SeifertData([fiber, (2, 1), (3, 1)]), 7) == want
    assert abs(eval_complex(want) - zprime_numeric(shifted, 7)) < 1e-9


def test_single_fiber_degenerates_to_lens():
    for (p, q), K in [((5, 2), 7), ((7, 3), 11), ((5, -4), 7)]:
        star = closed_zprime(SeifertData([(p, q)]), K)
        assert star == closed_zprime(Lens(q, p), K)


# ---------------------------------------------------------------------------
# series


def test_lens_series_anchor():
    lam = closed_lambda_series(Lens(2, 1), 4)
    assert [lam[n] for n in range(4)] == [
        Fraction(1), Fraction(0), Fraction(-1, 32), Fraction(1, 32)]


def test_lambda_0_is_checked_not_forced(monkeypatch):
    # an assembly that doubles the series raises; it is not rescaled
    def doubled(a, b, cap):
        num, den = binomial_terms(a, b, cap)
        return [2 * u for u in num], den
    monkeypatch.setattr(closedform, "binomial_terms", doubled)
    with pytest.raises(BadNormalization,
                       match=r"^lambda_0 = 2 for L\(5,2\)$"):
        closed_lambda_series(Lens(5, 2), 3)
    monkeypatch.setattr(closedform, "half_log_tail",
                        lambda F, c, cap: half_log_tail(F, c, cap) * 2)
    with pytest.raises(BadNormalization,
                       match=r"^lambda_0 = 2 for X\(2/1,3/1,5/-4\)$"):
        closed_lambda_series(POINCARE, 3)


def test_terms_below_x_n_must_cancel(monkeypatch):
    # an assembly whose terms below x^N do not cancel raises; it is not
    # shifted past them (each exponent's series times its numerator)
    def skewed(a, b, cap):
        num, den = binomial_terms(a, b, cap)
        return [a * u for u in num], den
    monkeypatch.setattr(closedform, "binomial_terms", skewed)
    for m in (Lens(5, 2), P1Surgery("unlink", (-2, 5))):
        with pytest.raises(DivisibilityFailure,
                           match=r"^the terms below x\^N did not cancel$"):
            closed_lambda_series(m, 3)


# ---------------------------------------------------------------------------
# connected sums of lens spaces: one closed form against the product of
# the summands' (zq_reference)


def _unlink_cases(primes):
    """(K, framings, n): an unlink of 0 to 6 components, framings
    0 < |p| <= 40 prime to K, and a cap n <= 30."""
    return st.sampled_from(primes).flatmap(lambda K: st.tuples(
        st.just(K),
        st.lists(st.integers(-40, 40).filter(lambda p: p % K), max_size=6),
        st.integers(0, 30)))


def _matches_product_route(case):
    K, framings, n = case
    m = P1Surgery("unlink", tuple(framings))
    assert closed_zprime(m, K) == connected_sum_zprime(m, K)
    assert (closed_lambda_series(m, n).coeffs
            == connected_sum_lambda(m, n).coeffs)


@settings(max_examples=80, deadline=None)
@given(_unlink_cases(odd_primes(3, 101)))
def test_connected_sum_matches_product_route(case):
    _matches_product_route(case)


@settings(max_examples=10, deadline=None)
@given(_unlink_cases((1999, 2003)))
def test_connected_sum_matches_product_route_near_2000(case):
    _matches_product_route(case)


def test_lens_closed_forms_match_reference():
    # every L(p, q) with |p|, |q| <= 13: lambda to n = 12, Z' at K <= 13
    family = [Lens(p, q) for p in range(-13, 14) for q in range(-13, 14)
              if p and gcd(p, q) == 1]
    assert len(family) == 462
    for L in family:
        assert (closed_lambda_series(L, 12).coeffs
                == zq_reference.lens_lambda_series(L, 12).coeffs), L
        for K in odd_primes(3, 13):
            if L.p % K:
                assert (closed_zprime(L, K)
                        == zq_reference.lens_zprime(L, K)), (L, K)


def test_equal_framings_merge_exponents(monkeypatch):
    # 24 equal summands give 25 distinct exponents, not 2^24 series
    calls = []

    def counted(a, b, cap):
        calls.append(a)
        return binomial_terms(a, b, cap)
    monkeypatch.setattr(closedform, "binomial_terms", counted)
    m = P1Surgery("unlink", (2,) * 24)
    lam = closed_lambda_series(m, 4)
    assert len(calls) <= 25
    assert lam.coeffs == connected_sum_lambda(m, 4).coeffs


def test_connected_sums_multiply_no_ring_elements(monkeypatch):
    # both closed forms of a connected sum scale, but never multiply two
    # elements of Z[q] or two series
    cases = [Lens(5, 2), Lens(-7, 3), P1Surgery("unlink", ()),
             P1Surgery("unknot", (3,)), P1Surgery("unlink", (-2, 5)),
             P1Surgery("unlink", (2, -3, 4))]
    want = [(connected_sum_lambda(m, 6), [connected_sum_zprime(m, K)
                                          for K in (11, 13, 101)])
            for m in cases]

    def scalar_only(real):
        def mul(self, other):
            if isinstance(other, type(self)):
                raise AssertionError("a product of two ring elements")
            return real(self, other)
        return mul
    for cls in (CycInt, RatSeries):
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, scalar_only(getattr(cls, name)))
    with pytest.raises(AssertionError, match="two ring elements"):
        CycInt.one(5) * CycInt.one(5)
    for m, (lam, zs) in zip(cases, want):
        assert closed_lambda_series(m, 6).coeffs == lam.coeffs, m
        assert [closed_zprime(m, K) for K in (11, 13, 101)] == zs, m


def test_lens_lambda1_is_casson_walker():
    # lambda_1 of L(p, q) is 3 s(q, p), a multiple of the Casson-Walker
    # invariant, for every coprime q in -p..2p (811 lens spaces)
    cases = [(p, q) for p in range(1, 30) for q in range(-p, 2 * p + 1)
             if gcd(p, q) == 1]
    assert len(cases) == 811
    for p, q in cases:
        assert (closed_lambda_series(Lens(p, q), 1)[1]
                == 3 * dedekind_sum(q, p)), (p, q)


def test_brieskorn_lambda1_is_six_casson():
    # Sigma(2,3,6k-1) and Sigma(2,3,6k+1) as X(2/1,3/1,r/q), |H| = 1:
    # H = 5r + 6q, so q = 1 - 5k gives H = 1 and q = -5k - 1 gives H = -1.
    # Orientation: H = 1 is that of the link of the singularity
    # x^2 + y^3 + z^r = 0, whose Casson invariant is -k (Fintushel & Stern
    # 1990; -1 for the Poincare sphere X(2/1,3/1,5/-4)), and H = -1 is the
    # reverse, with Casson invariant +k.  As lambda_1 is 6 times Casson's
    # invariant (Murakami 1995), lambda_1 = -6k * H.
    for k in range(1, 6):
        for r, q in ((6 * k - 1, 1 - 5 * k), (6 * k + 1, -5 * k - 1)):
            S = SeifertData([(2, 1), (3, 1), (r, q)])
            assert abs(S.H) == 1
            assert closed_lambda_series(S, 1)[1] == -6 * k * S.H, (r, q)


def test_s3_series_is_trivial():
    lam = closed_lambda_series(Lens(1, 0), 6)
    assert lam[0] == 1
    assert all(lam[n] == 0 for n in range(1, 7))


def test_poincare_series_is_integral():
    lam = closed_lambda_series(POINCARE, 4)
    assert [lam[n] for n in range(5)] == [1, -6, 45, -464, 6224]


def test_single_fiber_series_degenerates_to_lens():
    for (p, q) in [(3, 1), (5, 2), (5, -4)]:
        a = closed_lambda_series(SeifertData([(p, q)]), 6)
        b = closed_lambda_series(Lens(q, p), 6)
        assert all(a[n] == b[n] for n in range(7))


def test_series_leading_term_always_one():
    for (p, q) in [(2, 1), (-3, 1), (5, 2), (12, 7), (-9, 4)]:
        assert closed_lambda_series(Lens(p, q), 2)[0] == 1
    for s in SEIFERT_SAMPLE:
        assert closed_lambda_series(s, 2)[0] == 1


def _sinh_over_t(a, cap):
    """sinh(a*t)/t as a series in t."""
    return RatSeries([Fraction(a) ** (n + 1) / factorial(n + 1)
                      if n % 2 == 0 else 0 for n in range(cap + 1)], cap)


def _sinh_quotient_u(a, cap):
    """sinh(a*u)/sinh(u) as a series in u, by one series division."""
    return s_div(_sinh_over_t(a, cap), _sinh_over_t(1, cap))


def _lens_series_through_half_log(p, q, cap):
    """The lens series by the sinh-quotient route: p * (1+x)^(3 s(q,p))
    * sinh(u/p)/sinh(u) re-expanded at u = (1/2)log(1+x), for the
    orientation with p > 0."""
    if p < 0:
        p, q = -p, -q
    ratio = at_half_log(_sinh_quotient_u(Fraction(1, p), cap))
    return (q_power(3 * dedekind_sum(q, p), cap) * ratio * p).coeffs


def test_lens_series_matches_half_log_route():
    family = [(sp * ap, q) for ap in range(1, 13)
              for q in range(1, max(ap, 2)) if gcd(ap, q) == 1
              for sp in (1, -1)]
    assert len(family) == 92
    for p, q in family:
        assert (closed_lambda_series(Lens(p, q), 30).coeffs
                == _lens_series_through_half_log(p, q, 30)), (p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500).flatmap(
    lambda ap: st.tuples(st.sampled_from((ap, -ap)),
                         st.integers(min_value=-2 * ap, max_value=2 * ap)
                         .filter(lambda q: gcd(ap, q) == 1),
                         st.integers(min_value=0, max_value=25))))
def test_lens_series_matches_half_log_route_random(pqc):
    p, q, cap = pqc
    assert (closed_lambda_series(Lens(p, q), cap).coeffs
            == _lens_series_through_half_log(p, q, cap))


def _seifert_moments_over_t(S, cap):
    """sum_m t^(m-1) * [u^(2m)] prod_j sinh(u/p_j) / sinh(u)^(N-2)
    * (2m-1)!! (P/H)^m, through one sinh quotient per fiber."""
    ucap = 2 * cap + 2
    fib = RatSeries.const(1, ucap)
    for (p, q) in S.fractions:
        fib = fib * _sinh_quotient_u(Fraction(1, p), ucap)
    fib = fib * ser_pow(RatSeries([0, 1], ucap) * _sinh_over_t(1, ucap), 2)
    ratio = Fraction(S.P, S.H)
    return RatSeries([fib.coeffs[2 * m] * ratio ** m
                      * (factorial(2 * m) // (2 ** m * factorial(m)))
                      for m in range(1, cap + 2)], cap)


def _seifert_theta(S):
    """The Dedekind/framing exponent, fibers oriented to p_j > 0."""
    sgn = 1 if S.H * S.P > 0 else -1
    return (Fraction(S.H, 2 * S.P) - Fraction(3, 2) * sgn
            - 6 * sum(dedekind_sum(q if p > 0 else -q, abs(p))
                      for (p, q) in S.fractions))


def _seifert_series_through_exp(S, n_max):
    """The Seifert series by the route that expands exp(theta*t).

    The same fiber prefactor and Gaussian moments as the closed form,
    but the t-series is multiplied by sum theta^n t^n / n! before the
    whole product is re-expanded at t = (1/2)log(1+x).
    """
    cap = n_max
    theta = _seifert_theta(S)
    exp_theta = RatSeries([theta ** n / factorial(n)
                           for n in range(cap + 1)], cap)
    tser = s_div(_seifert_moments_over_t(S, cap),
                 _sinh_over_t(1, cap)) * exp_theta
    return (at_half_log(tser) * S.H).coeffs


def _seifert_series_through_sinh_division(S, n_max):
    """The Seifert series with the moments divided by sinh(t)/t as a
    series, re-expanded at t = (1/2)log(1+x), times (1+x)^(theta/2)."""
    cap = n_max
    tser = s_div(_seifert_moments_over_t(S, cap), _sinh_over_t(1, cap))
    return (at_half_log(tser) * q_power(_seifert_theta(S) / 2, cap)
            * S.H).coeffs


@pytest.mark.parametrize("fractions", [
    [(7, 3)], [(2, 1), (3, 1)], [(2, 1), (3, 1), (5, -4)],
    [(3, 1), (4, 1), (5, 1)], [(-2, 1), (3, 2), (5, 1)],
    [(2, 1), (4, 1), (5, 2), (3, 1)],
    [(2, 1), (3, 1), (5, 1), (7, -2), (-11, 3)],
    [(2, 1), (3, -1), (5, 2), (7, 1), (9, -4), (-4, 3)],
    # large coprime fibers, P about 1e8 and 1e9: the cost must not
    # grow with the fiber orders
    [(97, 1), (101, 1), (103, 1), (107, 1)],
    [(-97, 1), (101, 2), (103, -1), (107, 3)],
    [(1009, 1), (1013, 1), (1019, 1)]])
def test_seifert_series_matches_exp_route(fractions):
    S = SeifertData(fractions)
    for n_max in (0, 1, 6, 30):
        assert (closed_lambda_series(S, n_max).coeffs
                == _seifert_series_through_exp(S, n_max))


_FIBER = st.tuples(st.integers(min_value=1, max_value=9),
                   st.integers(min_value=-9, max_value=9),
                   st.sampled_from((1, -1))).filter(
    lambda f: gcd(f[0], f[1]) == 1).map(lambda f: (f[2] * f[0], f[1]))


def _seifert_or_none(fractions):
    try:
        return SeifertData(fractions)
    except So3InvError:  # H = 0
        return None


@settings(max_examples=30, deadline=None)
@given(st.lists(_FIBER, min_size=1, max_size=4).map(_seifert_or_none)
       .filter(lambda S: S is not None),
       st.integers(min_value=0, max_value=30))
def test_seifert_series_matches_sinh_division_route(S, n_max):
    assert (closed_lambda_series(S, n_max).coeffs
            == _seifert_series_through_sinh_division(S, n_max))


@pytest.mark.parametrize("fractions", [
    [(7, 3)], [(2, 1), (-3, 2)], [(2, 1), (3, 1), (5, -4)],
    [(3, 2), (4, 3), (5, 4), (-7, 2)],
    [(2, 1), (3, 1), (5, 1), (7, -2), (-11, 3)],
    [(2, 1), (3, -1), (5, 2), (7, 1), (9, -4), (-4, 3)]])
def test_seifert_series_matches_half_log_route(fractions):
    # one shifted triangle against at_half_log, / x and the q_power product
    S = SeifertData(fractions)
    for n_max in (0, 1, 6, 30, 105):
        assert (closed_lambda_series(S, n_max).coeffs
                == seifert_lambda_half_log(S, n_max).coeffs)


def test_seifert_series_matches_half_log_route_at_300():
    S = SeifertData([(2, 1), (-3, 2)])
    assert (closed_lambda_series(S, 300).coeffs
            == seifert_lambda_half_log(S, 300).coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FIBER, min_size=1, max_size=6).map(_seifert_or_none)
       .filter(lambda S: S is not None),
       st.integers(min_value=0, max_value=14))
def test_seifert_series_matches_product_route(S, n_max):
    # G from integer sums against the product of its series factors
    assert (closed_lambda_series(S, n_max).coeffs
            == seifert_lambda_product(S, n_max).coeffs)


@pytest.mark.parametrize("fractions", [
    [(7, 3)], [(-1, 2)], [(1, 1), (-2, 1)], [(2, 1), (3, 1), (5, -4)],
    [(2, 1), (-1, 1), (3, 2), (-5, 1)],
    [(2, 1), (-3, 2), (5, 1), (7, -2), (11, 3)],
    [(2, 1), (3, -1), (5, 2), (1, 1), (9, -4), (-4, 3)]])
def test_seifert_series_matches_product_route_on_fixed_stars(fractions):
    S = SeifertData(fractions)
    for n_max in (0, 1, 6, 30, 105):
        assert (closed_lambda_series(S, n_max).coeffs
                == seifert_lambda_product(S, n_max).coeffs)


def test_seifert_series_matches_product_route_at_300():
    S = SeifertData([(2, 1), (-1, 1), (5, -4)])
    assert (closed_lambda_series(S, 300).coeffs
            == seifert_lambda_product(S, 300).coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FIBER, min_size=3, max_size=3).map(_seifert_or_none)
       .filter(lambda S: S is not None),
       st.sampled_from(odd_primes(3, 23)),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
def test_seifert_zprime_is_a_manifold_invariant(S, K, k1, k2):
    if S.H % K == 0 or any(p % K == 0 for p, _ in S.fractions):
        return
    shifted = SeifertData([(p, q + k * p) for (p, q), k
                           in zip(S.fractions, (k1, k2, -k1 - k2))])
    assert closed_zprime(shifted, K) == closed_zprime(S, K)


def test_poincare_series_matches_sinh_division_route_at_105():
    assert (closed_lambda_series(POINCARE, 105).coeffs
            == _seifert_series_through_sinh_division(POINCARE, 105))


def _flipped(S, j):
    fr = list(S.fractions)
    p, q = fr[j]
    fr[j] = (-p, -q)
    return SeifertData(fr)


@pytest.mark.parametrize("S", SEIFERT_SAMPLE + [
    SeifertData([(2, 1), (3, 1), (7, 2), (-5, 3)])])
def test_flipping_a_fiber_keeps_lambda_and_zprime(S):
    lam = closed_lambda_series(S, 10).coeffs
    checked = 0
    for j in range(len(S.fractions)):
        T = _flipped(S, j)
        assert closed_lambda_series(T, 10).coeffs == lam
        for K in odd_primes(3, 31):
            try:
                want, got = closed_zprime(S, K), closed_zprime(T, K)
            except So3InvError:
                continue
            assert got == want, (T, K)
            checked += 1
    assert checked


def _seeded_seifert(rng, lo, hi):
    """lo..hi fibers with 1 <= |p| <= 9, |q| <= 9, or None when H = 0."""
    fibers = []
    for _ in range(rng.randint(lo, hi)):
        p, q = 0, 0
        while gcd(p, q) != 1:
            p, q = rng.randint(1, 9), rng.randint(-9, 9)
        fibers.append((rng.choice((1, -1)) * p, q))
    return _seifert_or_none(fibers)


def test_orientation_reversal_conjugates_seifert_zprime():
    # -M negates every q_j, and Z'(-M) is Z'(M) under q -> q^-1; this
    # checks the prefactor guard's phase against an independent route
    rng = random.Random(61)
    cells = 0
    while cells < 150:
        S = _seeded_seifert(rng, 1, 4)
        if S is None:
            continue
        mirror = SeifertData([(p, -q) for p, q in S.fractions])
        for K in odd_primes(3, 23):
            try:
                want = closed_zprime(S, K).galois(-1)
            except (PDivisibleByK, H1DivisibleByK) as e:
                with pytest.raises(type(e)):
                    closed_zprime(mirror, K)
                continue
            assert closed_zprime(mirror, K) == want, (S, K)
            cells += 1


def test_orientation_reversal_conjugates_seifert_lambda():
    # -M negates every q_j; q -> q^-1 is 1+x -> 1/(1+x), so
    # lambda(-M)(x) = lambda(M)(-x/(1+x)), through the Horner compose
    n_max = 8
    inner = RatSeries([0] + [(-1) ** n for n in range(1, n_max + 1)], n_max)
    rng = random.Random(67)
    cells = 0
    while cells < 120:
        S = _seeded_seifert(rng, 1, 5)
        if S is None:
            continue
        mirror = SeifertData([(p, -q) for p, q in S.fractions])
        lam = RatSeries(closed_lambda_series(S, n_max).coeffs, n_max)
        assert (closed_lambda_series(mirror, n_max).coeffs
                == lam.compose(inner).coeffs), S
        cells += 1


def _same_zprime_or_error(S, T, K):
    try:
        want = closed_zprime(S, K)
    except So3InvError as e:
        with pytest.raises(type(e)):
            closed_zprime(T, K)
        return
    assert closed_zprime(T, K) == want, (S, T, K)


def test_seifert_moves_keep_lambda_and_zprime():
    # (p, q) -> (p, q + kp) with a new fiber (1, -k), and q_i + k p_i
    # traded for q_j - k p_j, re-present the same manifold
    rng = random.Random(67)
    data = 0
    while data < 150:
        S = _seeded_seifert(rng, 1, 4)
        if S is None:
            continue
        data += 1
        fr, k = list(S.fractions), rng.choice((1, -1, 2, -2))
        j = rng.randrange(len(fr))
        (p, q), moves = fr[j], []
        moves.append(fr[:j] + [(p, q + k * p)] + fr[j + 1:] + [(1, -k)])
        if len(fr) > 1:
            i, j = rng.sample(range(len(fr)), 2)
            traded = list(fr)
            traded[i] = (fr[i][0], fr[i][1] + k * fr[i][0])
            traded[j] = (fr[j][0], fr[j][1] - k * fr[j][0])
            moves.append(traded)
        lam = closed_lambda_series(S, 6).coeffs
        for T in map(SeifertData, moves):
            assert closed_lambda_series(T, 6).coeffs == lam, (S, T)
            for K in odd_primes(3, 31):
                _same_zprime_or_error(S, T, K)


def test_seifert_lambda1_is_three_casson_walker():
    # Lescop, Ann. of Math. Studies 140, Prop. 6.1.1, in Walker's
    # normalization with the fibers oriented to p_j > 0 and e = H/P:
    # lambda_W = sign(e)/(12|e|) (2 - N + sum 1/p_j^2) + e/12 - sign(e)/4
    #            - sum_j s(q_j, p_j), and lambda_1 = 3 lambda_W
    rng = random.Random(79)
    data = 0
    while data < 150:
        S = _seeded_seifert(rng, 1, 4)
        if S is None:
            continue
        data += 1
        fr = [(abs(p), q if p > 0 else -q) for p, q in S.fractions]
        e = Fraction(S.H, S.P)
        sgn = 1 if e > 0 else -1
        walker = (sgn / (12 * abs(e))
                  * (2 - len(fr) + sum(Fraction(1, p * p) for p, _ in fr))
                  + e / 12 - Fraction(sgn, 4)
                  - sum(dedekind_sum(q, p) for p, q in fr))
        assert closed_lambda_series(S, 1)[1] == 3 * walker, S


def test_seifert_lambda_multiplies_no_unit_series(monkeypatch, capsys):
    # no program path multiplies a series, by the constant series 1 or
    # any other: verify and lambda --reconstruct run on a lens space, a
    # P1 surgery and stars of 1 to 6 fibers, p = 1 and -1 among them,
    # with every RatSeries product raising
    def refuse(a, b):
        raise AssertionError(f"RatSeries product of {a!r} and {b!r}")

    monkeypatch.setattr(RatSeries, "__mul__", refuse)
    monkeypatch.setattr(RatSeries, "__rmul__", refuse)
    fibers = ["7/2", "-3/2", "5/1", "1/1", "11/3", "-1/1"]
    specs = ["--lens=5,2", "--p1=unlink:-2,5"] + [
        "--seifert=" + ",".join(fibers[:n]) for n in range(1, 7)]
    for argv in (["verify", *specs, "--primes", "5..23"],
                 ["lambda", *specs, "--nmax", "2", "--reconstruct",
                  "--primes", "7..23"]):
        assert cli.main(argv) == 0, argv
        rows = capsys.readouterr().out.splitlines()[1:]
        column = 0 if argv[0] == "lambda" else 1  # the manifold's label
        assert len({r.split("\t")[column] for r in rows}) == len(specs)


# two-fiber Seifert spaces that are lens spaces
_TWO_FIBER_LENS = [
    ([(2, 1), (3, 1)], (5, 4)), ([(3, 1), (5, 2)], (11, 5)),
    ([(3, 2), (7, 3)], (23, 7)), ([(4, 1), (5, 3)], (17, 11))]


@pytest.mark.parametrize("fractions, lens", _TWO_FIBER_LENS)
def test_two_fiber_seifert_is_lens(fractions, lens):
    S = SeifertData(fractions)
    assert (closed_lambda_series(S, 20).coeffs
            == closed_lambda_series(Lens(*lens), 20).coeffs)
    checked = 0
    for K in odd_primes(3, 61):
        try:
            want, got = closed_zprime(Lens(*lens), K), closed_zprime(S, K)
        except So3InvError:
            continue
        assert got == want, K
        checked += 1
    assert checked >= 14


def _two_fiber_partner(p1, q1, p2, q2):
    """X(p1/q1, p2/q2) = L(p1 q2 + p2 q1, p1 s2 + q1 r2), p2 s2 - q2 r2 = 1."""
    s2 = pow(p2, -1, q2)
    r2 = (p2 * s2 - 1) // q2
    return p1 * q2 + p2 * q1, p1 * s2 + q1 * r2


def test_two_fiber_seifert_is_lens_by_formula():
    # every reduced pair with 2 <= |p1| <= 7, 1 <= |q1| <= 7,
    # 2 <= p2 <= 7, 1 <= q2 <= 7 and H != 0
    cases = [((p1, q1), (p2, q2))
             for p1 in [*range(-7, -1), *range(2, 8)]
             for q1 in [*range(-7, 0), *range(1, 8)]
             for p2 in range(2, 8) for q2 in range(1, 8)
             if gcd(p1, q1) == gcd(p2, q2) == 1 and p1 * q2 + p2 * q1]
    assert len(cases) == 3080
    for f1, f2 in cases:
        lens = _two_fiber_partner(*f1, *f2)
        assert (closed_lambda_series(SeifertData([f1, f2]), 8).coeffs
                == closed_lambda_series(Lens(*lens), 8).coeffs), (f1, f2, lens)
    checked = 0
    for f1, f2 in random.Random(6).sample(cases, 150):
        S, lens = SeifertData([f1, f2]), _two_fiber_partner(*f1, *f2)
        for K in odd_primes(3, 31):
            try:
                want, got = closed_zprime(Lens(*lens), K), closed_zprime(S, K)
            except So3InvError:
                continue
            assert got == want, (f1, f2, K)
            checked += 1
    assert checked >= 1000

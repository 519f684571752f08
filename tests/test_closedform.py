"""Closed forms against the numeric oracle and their series anchors."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3inv.arith import inv_int, odd_primes
from so3inv.closedform import (_seifert_phase, lens_lambda_series,
                               lens_zprime, seifert_cn, seifert_lambda_series,
                               seifert_zprime)
from so3inv.cyclotomic import CycInt, eval_complex, sine_quotient
from so3inv.errors import (ChainDegenerate, H1DivisibleByK, NotCoprime,
                           NotRHS, PDivisibleByK, So3InvError)
from so3inv.nt import Chain, SeifertData, cf_expand, dedekind_sum
from so3inv.series import RatSeries, at_half_log, q_power, s_div
from so3inv.surgery import Lens, zprime_numeric

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


# ---------------------------------------------------------------------------
# lens closed form


def test_lens_s3_is_one():
    assert lens_zprime(1, 0, 7) == CycInt.one(7)
    assert lens_zprime(1, 1, 11) == CycInt.one(11)
    assert lens_zprime(-1, 1, 5) == CycInt.one(5)


def test_lens_regression_coefficients():
    assert lens_zprime(2, 1, 5).coeffs == (0, 0, 1, 1)
    assert lens_zprime(3, 1, 7).coeffs == (0, 0, 1, 1, 0, 0)
    # the mirror conjugates the exponents
    assert lens_zprime(-3, 1, 7).coeffs == (0, 0, 0, 0, 1, 1)


def test_lens_matches_oracle_small_grid():
    checked = 0
    for K in (5, 7):
        for p in range(-7, 8):
            if p == 0 or p % K == 0:
                continue
            for q in range(1, max(abs(p), 2)):
                if gcd(p, q) != 1:
                    continue
                try:
                    oracle = zprime_numeric(Lens(p, q), K)
                except ChainDegenerate:
                    continue  # the presentation, not the manifold, is bad
                got = eval_complex(lens_zprime(p, q, K))
                assert abs(got - oracle) < 1e-9
                checked += 1
    assert checked > 40


def test_lens_preconditions():
    with pytest.raises(NotRHS):
        lens_zprime(0, 1, 5)
    with pytest.raises(NotCoprime):
        lens_zprime(4, 2, 5)
    with pytest.raises(PDivisibleByK):
        lens_zprime(10, 3, 5)


def test_sine_quotient_representative_independence():
    for K in (5, 11):
        for c in range(1, K):
            assert sine_quotient(c + K, K) == sine_quotient(c, K)


# ---------------------------------------------------------------------------
# star-shaped closed form


def test_seifert_regression_coefficients():
    assert seifert_zprime(POINCARE, 7).coeffs == (-1, -1, 1, 1, 1, 0)
    assert seifert_zprime(SEIFERT_SAMPLE[1], 7).coeffs == (1, 1, 1, 0, 0, 1)


def test_seifert_matches_oracle():
    for s in SEIFERT_SAMPLE:
        for K in (7, 11, 13):
            try:
                got = eval_complex(seifert_zprime(s, K))
            except (PDivisibleByK, H1DivisibleByK):
                continue
            assert abs(got - zprime_numeric(s, K)) < 1e-9


def test_seifert_preconditions():
    with pytest.raises(PDivisibleByK):
        seifert_zprime(SeifertData([(3, 1), (4, 1), (5, 1)]), 5)
    with pytest.raises(H1DivisibleByK):
        seifert_zprime(SeifertData([(2, 1), (3, 1)]), 5)  # |H1| = 5


def _ref_qsum(terms, K):
    """sum of c * q^e over (e, c), one public CycInt per term."""
    acc = CycInt.zero(K)
    for e, c in terms:
        e %= K
        term = CycInt([-1] * (K - 1) if e == K - 1 else [0] * e + [1], K)
        acc = acc + term * c
    return acc


def _ref_seifert_zprime(S, K):
    """The C_n sum as q^e * sine_quotient(m) * c, term by term."""
    t2, t4 = inv_int(2, K), inv_int(4, K)
    phs = S.P * inv_int(S.H, K)
    tot = CycInt.zero(K)
    for n, c in seifert_cn([inv_int(p, K) for (p, q) in S.fractions]).items():
        m = (phs * n) % K
        sq = _ref_qsum([(t2 * (1 - m + 2 * i), 1) for i in range(m)], K)
        tot = tot + _ref_qsum([(t4 * phs * (n * n + 1), 1)], K) * sq * c
    return _seifert_phase(S, K).reduce() * tot


def test_seifert_accumulation_matches_term_by_term_sum():
    checked = 0
    for s in SEIFERT_SAMPLE + [SeifertData([(2, 1), (3, 1), (7, 1)]),
                               SeifertData([(2, 1), (4, 1), (5, 2)])]:
        for K in odd_primes(3, 61):
            try:
                got = seifert_zprime(s, K)
            except (PDivisibleByK, H1DivisibleByK, ChainDegenerate):
                continue
            assert got == _ref_seifert_zprime(s, K)
            checked += 1
    assert checked > 90


def test_seifert_chain_degeneracy_is_checked():
    # the chain [-1, 2, 4] of -11/7 has a tail denominator 7; the
    # fiber is normalized to q > 0 before its chain is built
    for fiber in ((-11, 7), (11, -7)):
        with pytest.raises(ChainDegenerate) as got:
            seifert_zprime(SeifertData([fiber, (2, 1), (3, 1)]), 7)
        assert str(got.value) == ("chain for (-11,7) has an intermediate "
                                  "denominator divisible by 7")
    assert seifert_zprime(SeifertData([(-11, 7), (2, 1), (3, 1)]), 17)


def test_single_fiber_degenerates_to_lens():
    for (p, q), K in [((5, 2), 7), ((7, 3), 11), ((5, -4), 7)]:
        star = seifert_zprime(SeifertData([(p, q)]), K)
        assert star == lens_zprime(q, p, K)


# ---------------------------------------------------------------------------
# series


def test_lens_series_anchor():
    lam = lens_lambda_series(2, 1, 4)
    assert [lam[n] for n in range(4)] == [
        Fraction(1), Fraction(0), Fraction(-1, 32), Fraction(1, 32)]
    assert lam.provenance == "closed-form"


def test_lens_lambda1_is_casson_walker():
    # lambda_1 of L(p, q) is 3 s(q, p), a multiple of the Casson-Walker
    # invariant, for every coprime q in -p..2p (811 lens spaces)
    cases = [(p, q) for p in range(1, 30) for q in range(-p, 2 * p + 1)
             if gcd(p, q) == 1]
    assert len(cases) == 811
    for p, q in cases:
        assert lens_lambda_series(p, q, 1)[1] == 3 * dedekind_sum(q, p), (p, q)


def test_s3_series_is_trivial():
    lam = lens_lambda_series(1, 0, 6)
    assert lam[0] == 1
    assert all(lam[n] == 0 for n in range(1, 7))


def test_poincare_series_is_integral():
    lam = seifert_lambda_series(POINCARE, 4)
    assert [lam[n] for n in range(5)] == [1, -6, 45, -464, 6224]


def test_single_fiber_series_degenerates_to_lens():
    for (p, q) in [(3, 1), (5, 2), (5, -4)]:
        a = seifert_lambda_series(SeifertData([(p, q)]), 6)
        b = lens_lambda_series(q, p, 6)
        assert all(a[n] == b[n] for n in range(7))


def test_series_leading_term_always_one():
    for (p, q) in [(2, 1), (-3, 1), (5, 2), (12, 7), (-9, 4)]:
        assert lens_lambda_series(p, q, 2)[0] == 1
    for s in SEIFERT_SAMPLE:
        assert seifert_lambda_series(s, 2)[0] == 1


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
        assert (lens_lambda_series(p, q, 30).values
                == _lens_series_through_half_log(p, q, 30)), (p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500).flatmap(
    lambda ap: st.tuples(st.sampled_from((ap, -ap)),
                         st.integers(min_value=-2 * ap, max_value=2 * ap)
                         .filter(lambda q: gcd(ap, q) == 1),
                         st.integers(min_value=0, max_value=25))))
def test_lens_series_matches_half_log_route_random(pqc):
    p, q, cap = pqc
    assert (lens_lambda_series(p, q, cap).values
            == _lens_series_through_half_log(p, q, cap))


def _seifert_moments_over_t(S, cap):
    """sum_m t^(m-1) * [u^(2m)] prod_j sinh(u/p_j) / sinh(u)^(N-2)
    * (2m-1)!! (P/H)^m, through one sinh quotient per fiber."""
    ucap = 2 * cap + 2
    fib = RatSeries.const(1, ucap)
    for (p, q) in S.fractions:
        fib = fib * _sinh_quotient_u(Fraction(1, p), ucap)
    fib = fib * (RatSeries([0, 1], ucap) * _sinh_over_t(1, ucap)) ** 2
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
    [(2, 1), (4, 1), (5, 2), (3, 1)]])
def test_seifert_series_matches_exp_route(fractions):
    S = SeifertData(fractions)
    for n_max in (0, 1, 6, 30):
        assert (seifert_lambda_series(S, n_max).values
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
    assert (seifert_lambda_series(S, n_max).values
            == _seifert_series_through_sinh_division(S, n_max))


def test_poincare_series_matches_sinh_division_route_at_105():
    assert (seifert_lambda_series(POINCARE, 105).values
            == _seifert_series_through_sinh_division(POINCARE, 105))


def _flipped(S, j):
    fr = list(S.fractions)
    p, q = fr[j]
    fr[j] = (-p, -q)
    return SeifertData(fr)


@pytest.mark.parametrize("S", SEIFERT_SAMPLE + [
    SeifertData([(2, 1), (3, 1), (7, 2), (-5, 3)])])
def test_flipping_a_fiber_keeps_lambda_and_zprime(S):
    lam = seifert_lambda_series(S, 10).values
    checked = 0
    for j in range(len(S.fractions)):
        T = _flipped(S, j)
        assert seifert_lambda_series(T, 10).values == lam
        for K in odd_primes(3, 31):
            try:
                want, got = seifert_zprime(S, K), seifert_zprime(T, K)
            except So3InvError:
                continue
            assert got == want, (T, K)
            checked += 1
    assert checked


# two-fiber Seifert spaces that are lens spaces
_TWO_FIBER_LENS = [
    ([(2, 1), (3, 1)], (5, 4)), ([(3, 1), (5, 2)], (11, 5)),
    ([(3, 2), (7, 3)], (23, 7)), ([(4, 1), (5, 3)], (17, 11))]


@pytest.mark.parametrize("fractions, lens", _TWO_FIBER_LENS)
def test_two_fiber_seifert_is_lens(fractions, lens):
    S = SeifertData(fractions)
    assert (seifert_lambda_series(S, 20).values
            == lens_lambda_series(*lens, 20).values)
    checked = 0
    for K in odd_primes(3, 61):
        try:
            want, got = lens_zprime(*lens, K), seifert_zprime(S, K)
        except So3InvError:
            continue
        assert got == want, K
        checked += 1
    assert checked >= 14

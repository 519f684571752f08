import random
from fractions import Fraction
from math import comb, factorial, isclose, pi, sin, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3inv.arith import as_prime, inv_int, legendre, odd_primes, rat_residue
from so3inv.cyclotomic import (
    CycInt,
    diamond,
    divide_exact,
    eval_complex,
    from_runs,
    gauss_sum,
    odd_window,
    to_xpoly,
    x_order,
)
from so3inv.errors import (IntegralityFailure, MixedModulus, NotAnOddPrime,
                           NotAUnit)
from so3inv.series import TruncPoly, q_power, vee
from zq_reference import (cyc_pow, divide_by_x, gauss_moment_diamond,
                          odd_gauss_moment, qpow, sine_quotient,
                          to_xpoly_pascal, unit_u)

SMALL_PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_qpow_wraps():
    assert qpow(5, 5) == CycInt.one(5)
    assert qpow(2, 5) * qpow(4, 5) == qpow(1, 5)
    assert qpow(-1, 5) == qpow(4, 5)


def test_root_of_unity_relation():
    total = CycInt([], 5)
    for i in range(5):
        total = total + qpow(i, 5)
    assert total == CycInt([], 5)


def test_mixed_modulus():
    with pytest.raises(MixedModulus):
        qpow(1, 5) + qpow(1, 7)


def test_pascal_bijection_examples():
    assert to_xpoly(qpow(1, 5)) == (1, 1, 0, 0)
    assert to_xpoly(qpow(2, 5)) == (1, 2, 1, 0)
    assert to_xpoly(CycInt.one(5)) == (1, 0, 0, 0)


def test_pascal_bijection_roundtrip():
    # substitute x = q - 1 back into the x-expansion, in Z[q]
    rng = random.Random(11)
    for K in SMALL_PRIMES:
        xq = qpow(1, K) + -1
        for _ in range(10):
            a = CycInt([rng.randint(-9, 9) for _ in range(K - 1)], K)
            back = CycInt([], K)
            for n, c in enumerate(to_xpoly(a)):
                back = back + cyc_pow(xq, n) * c
            assert back == a


def test_x_order_examples():
    assert x_order(CycInt([], 5)) == 4
    assert x_order(CycInt([5], 5)) == 4
    assert x_order(CycInt.one(5)) == 0
    assert x_order(gauss_sum(1, 5)) == 2
    assert x_order(qpow(1, 5) + -1) == 1


def test_gauss_sum_values():
    assert gauss_sum(0, 5) == CycInt([5], 5)
    assert gauss_sum(2, 5) == gauss_sum(1, 5) * -1
    assert gauss_sum(1, 3) == CycInt([1, 2], 3)


def test_gauss_sum_legendre_scaling():
    for K in PRIMES_TO_31:
        g1 = gauss_sum(1, K)
        for c in range(1, K):
            assert gauss_sum(c, K) == g1 * legendre(c, K)


def test_gauss_sum_square():
    for K in PRIMES_TO_31:
        g1 = gauss_sum(1, K)
        sign = (-1) ** ((K - 1) // 2)
        assert g1 * g1 == CycInt([sign * K], K)
        assert x_order(g1) == (K - 1) // 2


def test_odd_gauss_moment_examples():
    # m = 0 recovers the quadratic sum, written out here since
    # gauss_sum is odd_gauss_moment at m = 0
    for K in (5, 7):
        for p in range(K):
            counts = [0] * K
            for a in odd_window(K):
                counts[p * a * a % K] += 1
            assert odd_gauss_moment(p, 0, K) == _ref_sum(enumerate(counts), K)
            assert gauss_sum(p, K) == _ref_sum(enumerate(counts), K)
    # boundary class contributes 3^2 * q^0 at K=3
    assert odd_gauss_moment(1, 1, 3) == CycInt([9, 2], 3)


def test_diamond_is_ring_hom():
    rng = random.Random(7)
    for K in PRIMES_TO_31:
        for _ in range(4):
            a = CycInt([rng.randint(-20, 20) for _ in range(K - 1)], K)
            b = CycInt([rng.randint(-20, 20) for _ in range(K - 1)], K)
            da, db = diamond(a).coeffs, diamond(b).coeffs
            d = len(da)
            add = [x + y for x, y in zip(da, db)]
            conv = [sum(da[i] * db[n - i] for i in range(n + 1))
                    for n in range(d)]  # truncated at degree (K-1)/2
            assert diamond(a + b) == TruncPoly(add, K)
            assert diamond(a * b) == TruncPoly(conv, K)


def test_diamond_of_constant():
    assert diamond(CycInt([7], 5)) == TruncPoly([2], 5)


def test_negative_power_is_not_a_unit():
    # inverses are not computed, and n < 0 must not loop forever
    for n in (-1, -2, -7):
        with pytest.raises(NotAUnit):
            cyc_pow(qpow(1, 5), n)


def _norm_cofactor_divide(a):
    """a / (q - 1) by the norm cofactor: (q - 1) * z = K with z the
    product of the conjugates q^j - 1, j = 2..K-1."""
    K = a.K
    z = CycInt.one(K)
    for j in range(2, K):
        z = z * (qpow(j, K) + -1)
    assert (qpow(1, K) + -1) * z == CycInt([K], K)
    return divide_exact(a * z, K)


def test_divide_by_x_matches_norm_cofactor_path():
    rng = random.Random(61)
    for K in odd_primes(3, 61):
        xq = qpow(1, K) + -1
        for _ in range(3):
            b = CycInt([rng.randint(-50, 50) for _ in range(K - 1)], K)
            a = b * xq
            assert divide_by_x(a) == b == _norm_cofactor_divide(a)
            # a non-multiple of q - 1 raises on both paths
            for bad in (a + 1, a + qpow(rng.randrange(K), K) * (K + 2)):
                with pytest.raises(IntegralityFailure):
                    divide_by_x(bad)
                with pytest.raises(IntegralityFailure):
                    _norm_cofactor_divide(bad)
        assert divide_by_x(CycInt([], K)) == CycInt([], K)
        assert divide_by_x(CycInt([K], K)) * xq == CycInt([K], K)


def test_unit_u_examples():
    assert unit_u(3) == CycInt([1, 1], 3)  # -q^2 at K=3
    for K in (5, 7, 11, 13):
        u = unit_u(K)
        xq = qpow(1, K) + -1
        assert u * gauss_sum(1, K) == cyc_pow(xq, (K - 1) // 2)
        # a genuine unit: its norm, the product of all K - 1
        # conjugates, is +-1
        norm = CycInt.one(K)
        for j in range(1, K):
            norm = norm * u.galois(j)
        assert norm in (CycInt.one(K), CycInt([-1], K))


def test_unit_u_magnitude():
    for K in (5, 7, 11):
        u = eval_complex(unit_u(K), 30)
        x = eval_complex(qpow(1, K) + -1, 30)
        assert isclose(abs(u) / abs(x) ** ((K - 1) // 2),
                       1 / sqrt(K), rel_tol=1e-12)


def test_eval_complex_gauss_magnitude():
    for K in (5, 7, 13):
        assert isclose(abs(eval_complex(gauss_sum(1, K), 30)),
                       sqrt(K), rel_tol=1e-12)


def test_eval_complex_returns_noise_as_zero():
    # G(1) = i*sqrt(K) for K = 3 mod 4; the rounded roots leave a few
    # units of 2^-B in its real part (at K = 7, 23, 31 and 43 with 50
    # digits), which is noise, not a digit, and comes back as 0.0
    for K in (3, 7, 11, 19, 23, 31, 43):
        z = eval_complex(gauss_sum(1, K))
        assert z.real == 0.0 and isclose(z.imag, sqrt(K), rel_tol=1e-15)


def test_sine_quotient_exact_and_numeric():
    for K in (5, 7, 11):
        t2 = (K + 1) // 2
        base = qpow(-t2, K) + qpow(t2, K) * -1
        for c in range(K):
            lhs = sine_quotient(c, K) * base
            assert lhs == qpow(-t2 * c, K) + qpow(t2 * c, K) * -1
        for c in range(1, K):
            got = eval_complex(sine_quotient(c, K), 30)
            want = (-1) ** (c + 1) * sin(pi * c / K) / sin(pi / K)
            assert isclose(got.real, want, rel_tol=1e-10, abs_tol=1e-10)
            assert abs(got.imag) < 1e-10


def _completed_square_holds(c: int, n: int, K: int) -> bool:
    lhs = CycInt([], K)
    for a in odd_window(K):
        lhs = lhs + qpow(c * a * a + 2 * n * a, K)
    cs = inv_int(c, K)
    rhs = gauss_sum(1, K) * legendre(c, K) * qpow(-cs * n * n, K)
    return lhs == rhs


def test_completed_square_exhaustive_small():
    for K in (5, 7):
        for c in range(1, K):
            for n in range(K):
                assert _completed_square_holds(c, n, K)


def test_completed_square_sampled():
    rng = random.Random(23)
    for K in (11, 13, 17, 19, 23, 29, 31):
        for _ in range(8):
            c = rng.randrange(1, K)
            n = rng.randrange(K)
            assert _completed_square_holds(c, n, K)


def test_dual_square_form():
    # sum over the window of q^(-4* c b^2 - 2* n b) equals
    # legendre(c) * conj-gauss * q^(4* c^-1 n^2)
    for K in (5, 7, 11):
        t2 = inv_int(2, K)
        t4 = inv_int(4, K)
        gm = gauss_sum(-1, K)
        for c in range(1, K):
            for n in range(K):
                lhs = CycInt([], K)
                for b in odd_window(K):
                    lhs = lhs + qpow(-t4 * c * b * b - t2 * n * b, K)
                rhs = gm * legendre(c, K) * qpow(t4 * inv_int(c, K) * n * n, K)
                assert lhs == rhs


def test_power_sum_vanishing():
    for K in odd_primes(3, 101):
        for m in range(1, (K - 1) // 2):
            assert sum(a ** (2 * m) for a in range(K)) % K == 0


def _binom_poly_coeffs(m: int) -> list:
    """Coefficients of y(y-1)...(y-m+1)/m! as polynomial in y."""
    poly = [Fraction(1)]
    for i in range(m):
        poly = ([Fraction(0)] + poly[:]) if False else poly
        new = [Fraction(0)] * (len(poly) + 1)
        for d, cf in enumerate(poly):
            new[d + 1] += cf
            new[d] -= cf * i
        poly = new
    return [c / factorial(m) for c in poly]


def test_moment_order_bound():
    # binomial-weighted quadratic sums sink to controlled x-order
    rng = random.Random(5)
    for K in (5, 7, 11, 13):
        for _ in range(6):
            p = rng.randrange(1, K)
            pp = 2 * rng.randrange(0, K)  # even shift
            m = rng.randrange(0, K)
            coeffs = _binom_poly_coeffs(m)
            acc = CycInt([], K)
            for a in odd_window(K):
                y = (a + pp - 1) // 2
                w = sum(c * y ** d for d, c in enumerate(coeffs))
                assert w.denominator == 1
                acc = acc + qpow(p * a * a, K) * int(w)
            assert x_order(acc) >= max(0, (K - 1) // 2 - m // 2)


def test_diamond_qpow_matches_binomial_series():
    rng = random.Random(3)
    for K in PRIMES_TO_31:
        t4 = inv_int(4, K)
        exps = list(range(-6, 7)) + [rng.randint(-50, 50) for _ in range(4)]
        for a in exps:
            lhs = diamond(qpow(t4 * a, K))
            rhs = vee(q_power(Fraction(a, 4), (K - 1) // 2), K)
            assert lhs == rhs


def _solve_mod(matrix, rhs, K):
    """Gaussian elimination mod a prime; rhs entries are vectors."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    v = [r[:] for r in rhs]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] % K)
        m[col], m[piv] = m[piv], m[col]
        v[col], v[piv] = v[piv], v[col]
        inv = inv_int(m[col][col], K)
        m[col] = [x * inv % K for x in m[col]]
        v[col] = [x * inv % K for x in v[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % K for a, b in zip(m[r], m[col])]
                v[r] = [(a - f * b) % K for a, b in zip(v[r], v[col])]
    return v


def test_moment_extraction_by_interpolation():
    # Shifted quadratic sums, sampled over the shift and resolved by a
    # Vandermonde system, reproduce the even moment images; the odd
    # slots vanish and the even ones match both the exact moments and
    # the closed-form series in its guaranteed degree range.
    for K, pairs in ((5, [(1, 1), (2, 1), (3, 2)]),
                     (7, [(1, 1), (2, 1), (3, 2), (5, 3)])):
        d = (K - 1) // 2
        u = unit_u(K)
        binom_rows = [_binom_poly_coeffs(m) for m in range(d + 1)]
        for p, q in pairs:
            c = p * inv_int(q, K) % K
            samples = []
            for n in range(d + 1):
                acc = CycInt([], K)
                for a in odd_window(K):
                    acc = acc + qpow(c * a * a + 2 * n * a, K)
                samples.append(list(diamond(acc * u).coeffs))
            vand = [[pow(2 * n, j, K) for j in range(d + 1)]
                    for n in range(d + 1)]
            g = _solve_mod(vand, samples, K)
            # g[j] = F_j * D_j with F_j = sum_m binom_rows[m][j] x^m
            for j in range(d + 1):
                fj = [0] * (d + 1)
                for m in range(j, d + 1):
                    fj[m] = rat_residue(binom_rows[m][j], K)
                # deconvolve: D_j determined up to degree d - j
                dj = [0] * (d + 1)
                for deg in range(d - j + 1):
                    acc = g[j][deg + j]
                    for t in range(deg):
                        acc -= fj[j + deg - t] * dj[t]
                    dj[deg] = acc * inv_int(fj[j], K) % K
                if j % 2 == 1:
                    assert all(v == 0 for v in dj[:d - j + 1])
                    continue
                m = j // 2
                exact = diamond(odd_gauss_moment(c, m, K) * u)
                assert dj[:d - j + 1] == list(exact.coeffs)[:d - j + 1]
                # the closed form sits above a zero block of width d-m;
                # agreement is guaranteed through absolute degree 2(d-m)
                closed = gauss_moment_diamond(p, q, m, K)
                shifted = [0] * (d - m) + list(closed.coeffs)
                for a in range(min(d - 2 * m, 2 * (d - m)) + 1):
                    assert dj[a] == shifted[a]


def test_divide_by_int_guard():
    assert divide_exact(CycInt([10, 5], 5), 5) == CycInt([2, 1], 5)
    with pytest.raises(IntegralityFailure):
        divide_exact(CycInt([3, 5], 5), 5)


# ---------------------------------------------------------------------------
# the exponent-count kernel against one-CycInt-per-term references

PRIMES_TO_61 = odd_primes(3, 61)


def _ref_qpow(n: int, K: int) -> CycInt:
    """q^n built through the public constructor."""
    n %= K
    if n == K - 1:
        return CycInt([-1] * (K - 1), K)
    return CycInt([0] * n + [1], K)


def _ref_sum(terms, K: int) -> CycInt:
    """sum of c * q^e over (e, c): one CycInt per term, added one by one."""
    acc = CycInt([], K)
    for e, c in terms:
        acc = acc + _ref_qpow(e, K) * c
    return acc


def _ref_mul(a: CycInt, b: CycInt) -> list:
    """Schoolbook product with the reduction mod K inside the loop."""
    K = a.K
    full = [0] * K
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            full[(i + j) % K] += x * y
    return [full[i] - full[K - 1] for i in range(K - 1)]


_elements = st.sampled_from(PRIMES_TO_61).flatmap(
    lambda K: st.lists(st.integers(-10 ** 20, 10 ** 20),
                       min_size=K - 1, max_size=K - 1).map(
        lambda cs: CycInt(cs, K)))


@settings(max_examples=60, deadline=None)
@given(_elements, st.data())
def test_ring_ops_match_coefficient_reference(a, data):
    K = a.K
    cs = data.draw(st.lists(st.integers(-99, 99), min_size=K - 1,
                            max_size=K - 1))
    b = CycInt(cs, K)
    n = data.draw(st.integers(-10 ** 30, 10 ** 30))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, cs))
    assert (a * b).coeffs == tuple(_ref_mul(a, b))
    assert (a * n).coeffs == (n * a).coeffs == tuple(x * n for x in a.coeffs)
    assert (a * n).coeffs == tuple(_ref_mul(a, CycInt([n], K)))
    assert a + n == a + CycInt([n], K)


def test_qpow_matches_public_constructor():
    for K in PRIMES_TO_61:
        for n in range(-K - 2, 2 * K + 2):
            assert qpow(n, K) == _ref_qpow(n, K)


def test_sine_quotient_matches_qpow_sum():
    for K in PRIMES_TO_61:
        t2 = (K + 1) // 2
        for c in range(-3, K + 3):
            cr = c % K
            want = _ref_sum([(t2 * (1 - cr + 2 * i), 1) for i in range(cr)], K)
            assert sine_quotient(c, K) == want


def test_galois_matches_qpow_sum():
    rng = random.Random(29)
    for K in PRIMES_TO_61:
        a = CycInt([rng.randint(-10 ** 12, 10 ** 12) for _ in range(K - 1)], K)
        for j in range(K + 2):
            want = _ref_sum([(i * j, c) for i, c in enumerate(a.coeffs)], K)
            assert a.galois(j) == want


def test_odd_gauss_moment_matches_qpow_sum():
    for K in PRIMES_TO_61:
        for p in (0, 1, 2, K - 1, K + 3, -5):
            for m in range(4):
                want = _ref_sum([(p * a * a, a ** (2 * m))
                                 for a in odd_window(K)], K)
                assert odd_gauss_moment(p, m, K) == want


def test_from_runs_is_the_qpow_sum():
    rng = random.Random(31)
    for K in PRIMES_TO_61:
        runs = [(rng.randint(-10 * K, 10 * K), rng.randint(0, K),
                 rng.randint(-99, 99)) for _ in range(20)]
        # wrap-around, empty and full runs, a negative and a large start
        runs += [(K - 1, 2, 3), (-K - 1, 3, -4), (5, 0, 7), (2, K, 11),
                 (10 ** 30 + 1, K - 1, -2)]
        want = _ref_sum([(s + i, w) for s, m, w in runs for i in range(m)], K)
        assert from_runs(runs, K) == want
        assert from_runs([(3, K, 5)], K) == CycInt([], K)
    for m in (6, -1):
        with pytest.raises(MixedModulus):
            from_runs([(0, m, 1)], 5)


def test_to_xpoly_matches_binomial_expansion():
    rng = random.Random(41)
    for K in PRIMES_TO_61:
        a = CycInt([rng.randint(-10 ** 9, 10 ** 9) for _ in range(K - 1)], K)
        want = [sum(c * comb(i, d) for i, c in enumerate(a.coeffs))
                for d in range(K - 1)]
        assert to_xpoly(a) == tuple(want)


def test_to_xpoly_matches_pascal_route():
    # the prefix-sum passes against the Pascal-row loop: dense 200-bit
    # elements, sparse +-q^n and the all-(-1) element q^(K-1)
    rng = random.Random(43)
    for K in (101, 211):
        dense = [CycInt([rng.getrandbits(200) - 2 ** 199
                         for _ in range(K - 1)], K) for _ in range(3)]
        sparse = [qpow(n, K) * s for n in (0, 1, 2, K // 2, K - 2)
                  for s in (1, -1)]
        for a in dense + sparse + [qpow(K - 1, K)]:
            assert to_xpoly(a) == to_xpoly_pascal(a)


def test_diamond_reads_a_ready_expansion():
    # diamond reads only the first (K+1)/2 prefix-sum passes and x_order
    # stops at the first coefficient nonzero mod K; both must agree with
    # the full expansion, also at high x-order
    rng = random.Random(37)
    for K in (3, 5, 13, 37, 61, 211):
        xq = qpow(1, K) + -1
        for m in {0, 1, (K - 1) // 2, K - 2}:
            a = cyc_pow(xq, m) * CycInt([rng.randint(-99, 99)
                                  for _ in range(K - 1)], K)
            full = to_xpoly(a)
            assert TruncPoly(full, K) == diamond(a)
            assert x_order(a) == next(
                (n for n, c in enumerate(full) if c % K), K - 1)


def test_cached_prime_check_still_rejects_non_primes():
    as_prime(5)
    CycInt([1], 7)
    for bad in (9, 1, 2, 15, -7, 5.0, True):
        with pytest.raises(NotAnOddPrime):
            CycInt([1], bad)
    with pytest.raises(NotAnOddPrime):
        CycInt([1], 9)  # again, after the first rejection
    for make in (lambda: qpow(1, 9), lambda: sine_quotient(2, 9),
                 lambda: gauss_sum(1, 9), lambda: odd_gauss_moment(1, 1, 9),
                 lambda: from_runs([], 9)):
        with pytest.raises(NotAnOddPrime):
            make()

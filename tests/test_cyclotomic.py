import random
from fractions import Fraction
from math import factorial, isclose, pi, sin, sqrt

import pytest

from so3inv.arith import inv_int, legendre, odd_primes, rat_residue
from so3inv.cyclotomic import (
    CycInt,
    XPoly,
    diamond,
    eval_complex,
    from_xpoly,
    gauss_sum,
    invert_unit,
    norm,
    odd_gauss_moment,
    odd_window,
    qpow,
    sine_quotient,
    to_xpoly,
    unit_u,
    x_order,
)
from so3inv.errors import IntegralityFailure, MixedModulus, NotAUnit
from so3inv.series import TruncPoly, q_power, vee

SMALL_PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_qpow_wraps():
    assert qpow(5, 5) == CycInt.one(5)
    assert qpow(2, 5) * qpow(4, 5) == qpow(1, 5)
    assert qpow(-1, 5) == qpow(4, 5)


def test_root_of_unity_relation():
    total = CycInt.zero(5)
    for i in range(5):
        total = total + qpow(i, 5)
    assert total == CycInt.zero(5)


def test_mixed_modulus():
    with pytest.raises(MixedModulus):
        qpow(1, 5) + qpow(1, 7)


def test_pascal_bijection_examples():
    assert to_xpoly(qpow(1, 5)) == XPoly([1, 1], 5)
    assert to_xpoly(qpow(2, 5)) == XPoly([1, 2, 1], 5)
    assert to_xpoly(CycInt.one(5)) == XPoly([1], 5)


def test_pascal_bijection_roundtrip():
    rng = random.Random(11)
    for K in SMALL_PRIMES:
        for _ in range(10):
            a = CycInt([rng.randint(-9, 9) for _ in range(K - 1)], K)
            assert from_xpoly(to_xpoly(a)) == a


def test_x_order_examples():
    assert x_order(CycInt.zero(5)) == 4
    assert x_order(CycInt([5], 5)) == 4
    assert x_order(CycInt.one(5)) == 0
    assert x_order(gauss_sum(1, 5)) == 2
    assert x_order(qpow(1, 5) - 1) == 1


def test_gauss_sum_values():
    assert gauss_sum(0, 5) == CycInt([5], 5)
    assert gauss_sum(2, 5) == -gauss_sum(1, 5)
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
    # m = 0 recovers the quadratic sum
    for K in (5, 7):
        for p in range(K):
            assert odd_gauss_moment(p, 0, K) == gauss_sum(p, K)
    # boundary class contributes 3^2 * q^0 at K=3
    assert odd_gauss_moment(1, 1, 3) == CycInt([9, 2], 3)


def test_diamond_is_ring_hom():
    rng = random.Random(7)
    for K in PRIMES_TO_31:
        for _ in range(4):
            a = CycInt([rng.randint(-20, 20) for _ in range(K - 1)], K)
            b = CycInt([rng.randint(-20, 20) for _ in range(K - 1)], K)
            assert diamond(a + b) == diamond(a) + diamond(b)
            assert diamond(a * b) == diamond(a) * diamond(b)


def test_diamond_of_constant():
    assert diamond(CycInt([7], 5)) == TruncPoly([2], 5)


def test_invert_unit_examples():
    q = qpow(1, 5)
    assert invert_unit(q) == CycInt([-1, -1, -1, -1], 5)
    assert invert_unit(q) * q == CycInt.one(5)
    with pytest.raises(NotAUnit):
        invert_unit(CycInt([2], 5))
    with pytest.raises(NotAUnit):
        invert_unit(gauss_sum(1, 5))


def test_invert_unit_random_cyclotomic_units():
    # (q^a - 1)/(q - 1) is a unit for a coprime to K
    for K in (5, 7, 11):
        for a in range(2, K):
            u = sine_quotient(a, K) * qpow(0, K)
            w = invert_unit(u)
            assert w * u == CycInt.one(K)


def test_norm_of_x():
    # the norm of q - 1 is the prime itself (up to sign convention)
    for K in (5, 7, 11):
        assert abs(norm(qpow(1, K) - 1)) == K


def test_unit_u_examples():
    assert unit_u(3) == CycInt([1, 1], 3)  # -q^2 at K=3
    for K in (5, 7, 11, 13):
        u = unit_u(K)
        xq = qpow(1, K) - 1
        assert u * gauss_sum(1, K) == xq ** ((K - 1) // 2)
        # a genuine unit
        assert invert_unit(u) * u == CycInt.one(K)


def test_unit_u_magnitude():
    for K in (5, 7, 11):
        u = eval_complex(unit_u(K), 30)
        x = eval_complex(qpow(1, K) - 1, 30)
        assert isclose(abs(u) / abs(x) ** ((K - 1) // 2),
                       1 / sqrt(K), rel_tol=1e-12)


def test_eval_complex_gauss_magnitude():
    for K in (5, 7, 13):
        assert isclose(abs(eval_complex(gauss_sum(1, K), 30)),
                       sqrt(K), rel_tol=1e-12)


def test_sine_quotient_exact_and_numeric():
    for K in (5, 7, 11):
        t2 = (K + 1) // 2
        base = qpow(-t2, K) - qpow(t2, K)
        for c in range(K):
            lhs = sine_quotient(c, K) * base
            assert lhs == qpow(-t2 * c, K) - qpow(t2 * c, K)
        for c in range(1, K):
            got = eval_complex(sine_quotient(c, K), 30)
            want = (-1) ** (c + 1) * sin(pi * c / K) / sin(pi / K)
            assert isclose(got.real, want, rel_tol=1e-10, abs_tol=1e-10)
            assert abs(got.imag) < 1e-10


def _completed_square_holds(c: int, n: int, K: int) -> bool:
    lhs = CycInt.zero(K)
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
                lhs = CycInt.zero(K)
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
            acc = CycInt.zero(K)
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
    from so3inv.series import gauss_moment_diamond

    for K, pairs in ((5, [(1, 1), (2, 1), (3, 2)]),
                     (7, [(1, 1), (2, 1), (3, 2), (5, 3)])):
        d = (K - 1) // 2
        u = unit_u(K)
        binom_rows = [_binom_poly_coeffs(m) for m in range(d + 1)]
        for p, q in pairs:
            c = p * inv_int(q, K) % K
            samples = []
            for n in range(d + 1):
                acc = CycInt.zero(K)
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
                    fj[m] = rat_residue(binom_rows[m][j], K).value
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
    from so3inv.cyclotomic import divide_exact
    assert divide_exact(CycInt([10, 5], 5), 5) == CycInt([2, 1], 5)
    with pytest.raises(IntegralityFailure):
        divide_exact(CycInt([3, 5], 5), 5)

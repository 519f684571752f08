"""Acceptance gate: nine headline properties, one budgeted check each.

Every criterion prints a single ``[criterion n] PASS/FAIL`` line (visible
under ``pytest -s`` or in the captured output of a failing run) and
enforces its wall-clock budget.  Exact identities are checked exactly;
only comparisons against the floating-point surgery oracle use a
tolerance.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from so3inv.arith import inv_int, legendre, odd_primes
from so3inv.cyclotomic import (CycInt, diamond, eval_complex, gauss_sum,
                               odd_gauss_moment, odd_window, qpow, unit_u,
                               x_order)
from so3inv.errors import (ChainDegenerate, H1DivisibleByK, PDivisibleByK,
                           So3InvError)
from so3inv.closedform import lens_lambda_series, lens_zprime, seifert_zprime
from so3inv.jones import expansion_check, get_table, seifert_beta_table
from so3inv.nt import SeifertData
from so3inv.ohtsuki import (closed_lambda_series, diamond_side,
                            reconstruct_lambda, vee_side)
from so3inv.series import gauss_moment_diamond
from so3inv.surgery import (Lens, P1Surgery, exact_p1, kirby_melvin_check,
                            zprime_numeric)


SEIFERT_SAMPLE = (
    SeifertData([(2, 1), (3, 1), (5, -4)]),
    SeifertData([(3, 1), (4, 1), (5, 1)]),
    SeifertData([(-2, 1), (3, 1), (5, 1)]),
    SeifertData([(2, 1), (3, -1), (7, 2)]),
    SeifertData([(3, 2), (4, 3), (5, 4)]),
)


def _lens_family(pmax: int):
    for ap in range(2, pmax + 1):
        for q in range(1, ap):
            if gcd(ap, q) == 1:
                yield ap, q
                yield -ap, q


@contextmanager
def criterion(num: int, name: str, budget: float):
    box = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield box
    except BaseException:
        print(f"[criterion {num}] FAIL {name}")
        raise
    dt = time.perf_counter() - t0
    print(f"[criterion {num}] PASS {name}: {box['detail']}"
          f" ({dt:.1f}s, budget {budget:.0f}s)")
    assert dt < budget, f"criterion {num} overran its budget: {dt:.1f}s"


def test_criterion_1_quadratic_sum_exactness():
    with criterion(1, "quadratic sum squares to +-K at x-order (K-1)/2",
                   10) as box:
        for K in odd_primes(3, 101):
            g = gauss_sum(1, K)
            sq = g * g
            assert sq.coeffs[0] == (-1) ** ((K - 1) // 2) * K
            assert not any(sq.coeffs[1:])
            assert x_order(g) == (K - 1) // 2
        box["detail"] = f"{len(odd_primes(3, 101))} primes"


def _square_completes(c: int, n: int, K: int) -> bool:
    lhs = CycInt.zero(K)
    for a in odd_window(K):
        lhs = lhs + qpow(c * a * a + 2 * n * a, K)
    rhs = gauss_sum(1, K) * legendre(c, K) * qpow(-inv_int(c, K) * n * n, K)
    return lhs == rhs


def test_criterion_2_completed_square():
    with criterion(2, "completing the square in the shifted sum", 60) as box:
        checked = 0
        for K in (5, 7, 11, 13):
            for p in range(1, K):
                for q in range(1, K):
                    c = p * inv_int(q, K) % K
                    for n in range(1, K):
                        assert _square_completes(c, n, K)
                        checked += 1
        rng = random.Random(7)
        sampled = 0
        while sampled < 210:
            K = rng.choice((17, 19, 23, 29, 31))
            c = (rng.randrange(1, K) * inv_int(rng.randrange(1, K), K)) % K
            assert _square_completes(c, rng.randrange(1, K), K)
            sampled += 1
        box["detail"] = f"{checked} exhaustive + {sampled} sampled triples"


def _moment_window_agrees(p: int, q: int, m: int, K: int) -> bool:
    d = (K - 1) // 2
    c = p * inv_int(q, K) % K
    exact = diamond(odd_gauss_moment(c, m, K) * unit_u(K))
    closed = gauss_moment_diamond(p, q, m, K)
    if any(exact.coeffs[a] for a in range(d - m)):
        return False
    for rel in range(d + 1 - m):
        a = d - m + rel
        if a > d:
            break
        if exact.coeffs[a] != closed.coeffs[rel]:
            return False
    return True


def test_criterion_3_moment_closed_form():
    with criterion(3, "odd-moment closed form in its guaranteed degrees",
                   120) as box:
        checked = 0
        for K in (5, 7):
            for p in range(1, K):
                for q in range(1, K):
                    for m in range((K - 1) // 2 + 1):
                        assert _moment_window_agrees(p, q, m, K)
                        checked += 1
        rng = random.Random(11)
        for K in (11, 13, 17, 19, 23, 29, 31):
            for _ in range(4):
                p = rng.randrange(1, K)
                q = rng.randrange(1, K)
                for m in range((K - 1) // 2 + 1):
                    assert _moment_window_agrees(p, q, m, K)
                    checked += 1
        box["detail"] = f"{checked} (p,q,m,K) cells"


def test_criterion_4_integer_framing_divisibility():
    with criterion(4, "exact division for integer framings on the unknot",
                   60) as box:
        checked = 0
        for K in (5, 7, 11):
            for p in range(-8, 9):
                if p == 0 or p % K == 0:
                    continue
                got = exact_p1(P1Surgery("unknot", (p,)), K)
                assert got == lens_zprime(-p, 1, K)
                checked += 1
        box["detail"] = f"{checked} framings, quotients all integral"


def test_criterion_5_closed_forms_match_oracle():
    with criterion(5, "closed forms vs the numeric surgery oracle",
                   300) as box:
        lens_n = seif_n = skipped = 0
        for K in odd_primes(5, 23):
            for p, q in _lens_family(12):
                if abs(p) % K == 0:
                    continue
                val = eval_complex(lens_zprime(p, q, K))
                try:
                    num = zprime_numeric(Lens(p, q), K)
                except ChainDegenerate:
                    skipped += 1  # the presentation, not the manifold, is bad
                    continue
                assert abs(val - num) < 1e-9, (p, q, K)
                lens_n += 1
        for K in odd_primes(7, 19):
            for S in SEIFERT_SAMPLE:
                try:
                    val = eval_complex(seifert_zprime(S, K))
                except (H1DivisibleByK, PDivisibleByK):
                    skipped += 1
                    continue
                num = zprime_numeric(S, K)
                assert abs(val - num) < 1e-9, (S.fractions, K)
                seif_n += 1
        box["detail"] = (f"{lens_n} lens + {seif_n} star cases"
                         f" at 1e-9, {skipped} degenerate skips")


def test_criterion_6_flagship_identity():
    with criterion(6, "residue identity between both invariant images",
                   300) as box:
        lens_n = seif_n = skipped = 0
        lens_primes = odd_primes(5, 31)
        for p, q in _lens_family(12):
            lam = lens_lambda_series(p, q, (lens_primes[-1] - 1) // 2)
            for K in lens_primes:
                if abs(p) % K == 0:
                    skipped += 1
                    continue
                assert diamond_side(Lens(p, q), K) == vee_side(lam, K), \
                    (p, q, K)
                lens_n += 1
        seif_primes = odd_primes(7, 23)
        for S in SEIFERT_SAMPLE:
            lam = closed_lambda_series(S, (seif_primes[-1] - 1) // 2)
            for K in seif_primes:
                try:
                    lhs = diamond_side(S, K)
                except (H1DivisibleByK, PDivisibleByK):
                    skipped += 1
                    continue
                assert lhs == vee_side(lam, K), (S.fractions, K)
                seif_n += 1
        box["detail"] = (f"{lens_n} lens + {seif_n} star cases exact,"
                         f" {skipped} skips")


def test_criterion_7_lambda_values_and_reconstruction():
    with criterion(7, "lambda anchors and residue reconstruction", 60) as box:
        tested = (Lens(2, 1), Lens(3, 1), Lens(5, 2), Lens(-7, 3),
                  Lens(12, 5)) + SEIFERT_SAMPLE[:2]
        for m in tested:
            assert closed_lambda_series(m, 1).values[0] == 1
        l21 = lens_lambda_series(2, 1, 2)
        assert l21[1] == 0 and l21[2] == Fraction(-1, 32)
        for m in (Lens(3, 1), Lens(5, 2)):
            rec = reconstruct_lambda(m, (7, 11, 13, 17, 19), 5)
            closed = closed_lambda_series(m, 5)
            assert rec.values == closed.values
        box["detail"] = (f"lambda_0 on {len(tested)} manifolds;"
                         " n <= 5 recovered on two lens spaces")


def test_criterion_8_level_one_factorization():
    with criterion(8, "full invariant factors through the odd-color one",
                   60) as box:
        checked = skipped = 0
        for K in (5, 7, 11, 13):
            for p, q in _lens_family(8):
                if abs(p) % K == 0:
                    continue
                try:
                    ok = kirby_melvin_check(Lens(p, q), K, 1e-9, precision=30)
                except ChainDegenerate:
                    skipped += 1
                    continue
                assert ok, (p, q, K)
                checked += 1
        box["detail"] = f"{checked} numeric cases, {skipped} skips"


def test_criterion_9_expansion_degree_bounds():
    with criterion(9, "degree bounds of the framing expansion", 60) as box:
        unknot = expansion_check(get_table("unknot"), 8)
        star = expansion_check(seifert_beta_table((2, 3, 5)), 6)
        assert len(unknot) == 15
        assert len(star) == 10
        box["detail"] = (f"{len(unknot)} + {len(star)} verified"
                         " expansion coefficients")

"""The central identity, both directions: verification and recovery."""

from fractions import Fraction
from math import gcd

import pytest

from so3inv.arith import odd_primes
from so3inv.closedform import lens_lambda_series
from so3inv.errors import (BoundViolation, InsufficientModulus,
                           InsufficientTerms, NoClosedForm, So3InvError)
from so3inv.nt import P1Surgery, SeifertData, h1_order, manifold_label
from so3inv.ohtsuki import (check_bounds, closed_lambda_series, closed_zprime,
                            diamond_side, reconstruct_lambda, vee_side,
                            verify_identity)
from so3inv.series import LambdaSeries, TruncPoly
from so3inv.surgery import Lens

POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])


def test_diamond_side_s3_is_constant_one():
    for K in (5, 7, 11):
        assert diamond_side(Lens(1, 1), K) == TruncPoly([1], K)


def test_identity_single_prime_by_hand():
    lam = lens_lambda_series(2, 1, 2)
    assert diamond_side(Lens(2, 1), 5) == vee_side(lam, 5)


def test_vee_side_ignores_terms_beyond_truncation():
    base = lens_lambda_series(3, 1, 5)
    junk = LambdaSeries("junk", 5,
                        base.values[:4] + (Fraction(9), Fraction(9)),
                        "closed-form")
    assert vee_side(base, 7) == vee_side(junk, 7)


def test_vee_side_needs_enough_terms():
    lam = lens_lambda_series(3, 1, 2)
    with pytest.raises(InsufficientTerms):
        vee_side(lam, 11)


def test_verify_identity_lens_sample():
    reports = verify_identity(Lens(7, 3), [5, 7, 11, 13])
    verdicts = {r.K: r.verdict for r in reports}
    assert verdicts == {5: "equal", 7: "skipped", 11: "equal", 13: "equal"}
    skipped = next(r for r in reports if r.K == 7)
    assert "H1DivisibleByK" in skipped.error
    assert all(r.manifold == "L(7,3)" for r in reports)


def test_verify_identity_seifert_sample():
    reports = verify_identity(POINCARE, [7, 11, 13])
    assert all(r.verdict == "equal" for r in reports)
    assert all(r.first_mismatch is None for r in reports)


def test_verify_identity_builds_series_once():
    primes = [5, 7, 11, 13]
    calls = []

    def counting(m, n_max):
        calls.append(n_max)
        return closed_lambda_series(m, n_max)

    reports = verify_identity(Lens(7, 3), primes, counting)
    assert calls == [6]
    assert reports == [verify_identity(Lens(7, 3), [K])[0] for K in primes]


def test_verify_identity_series_failure_skips_every_prime():
    def broken(m, n_max):
        raise So3InvError("no series")

    reports = verify_identity(Lens(7, 3), [5, 7, 11, 13], broken)
    assert [r.verdict for r in reports] == ["skipped"] * 4
    assert [r.K for r in reports] == [5, 7, 11, 13]
    assert "H1DivisibleByK" in reports[1].error
    assert all(r.error == "So3InvError: no series"
               for r in reports if r.K != 7)


@pytest.mark.parametrize("m", [Lens(7, 3), Lens(-12, 5), Lens(1, 1),
                               POINCARE, SeifertData([(3, 1), (4, 1), (5, 1)]),
                               SeifertData([(2, 1), (4, 1), (5, 2)])])
def test_closed_lambda_series_prefix(m):
    big = closed_lambda_series(m, 12).values
    for n in (0, 1, 4, 11):
        assert big[:n + 1] == closed_lambda_series(m, n).values


def test_verify_identity_flags_wrong_series():
    wrong = LambdaSeries("wrong", 3, (Fraction(1), Fraction(1), Fraction(1),
                                      Fraction(1)), "closed-form")
    reports = verify_identity(Lens(2, 1), [7], lambda m, n: wrong)
    assert reports[0].verdict == "unequal"
    assert reports[0].first_mismatch == 1


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_matches_closed_form():
    for m in (Lens(3, 1), Lens(5, 2)):
        rec = reconstruct_lambda(m, [7, 11, 13, 17, 19], 5)
        closed = closed_lambda_series(m, 5)
        assert all(rec[n] == closed[n] for n in range(6))
        assert rec.values[0] == 1


def test_reconstruction_l21_values():
    rec = reconstruct_lambda(Lens(2, 1), [7, 11, 13, 17, 19], 3)
    assert rec.values == (Fraction(1), Fraction(0), Fraction(-1, 32),
                          Fraction(1, 32))


def test_reconstruction_poincare_integers():
    rec = reconstruct_lambda(POINCARE, [7, 11, 13], 3)
    assert rec.values == (1, -6, 45, -464)


@pytest.mark.filterwarnings("error")
def test_reconstruction_skips_bad_primes():
    # a skip is recorded by error class, and is no Python warning
    rec = reconstruct_lambda(Lens(5, 2), [5, 7, 11, 13], 2)
    assert (5, "H1DivisibleByK") in rec.skipped
    assert rec[2] == Fraction(-1, 25)


def test_reconstruction_insufficient_modulus():
    with pytest.raises(InsufficientModulus):
        reconstruct_lambda(Lens(3, 1), [11, 13], 4, prime_ceiling=14)


def test_reconstruction_rejects_duplicates():
    with pytest.raises(So3InvError):
        reconstruct_lambda(Lens(3, 1), [7, 7, 11], 1)


def test_denominator_bound_checks():
    check_bounds("x", 2, 2, Fraction(-1, 32))
    check_bounds("x", 1, 3, Fraction(1, 6))
    with pytest.raises(BoundViolation):
        check_bounds("x", 1, 1, Fraction(1, 3))  # 3 > 2n with h1 = 1
    with pytest.raises(BoundViolation):
        check_bounds("x", 7, 1, Fraction(1, 17))  # 17 > 2n = 14


def test_closed_forms_pass_bounds_through_n20():
    family = list(_lens_family(12)) + [POINCARE] + [SeifertData(f) for f in (
        [(3, 1), (4, 1), (5, 1)], [(-2, 1), (3, 1), (5, 1)],
        [(2, 1), (4, 1), (5, 2)], [(2, 1), (3, 1), (5, 1)],
        [(2, -1), (3, 2), (5, 1)], [(3, 2), (4, 3), (5, 4)])]
    assert len(family) == 99
    for m in family:
        lam = closed_lambda_series(m, 20)
        for n in range(21):
            check_bounds(lam.manifold, n, h1_order(m), lam[n])


# ---------------------------------------------------------------------------
# reconstruction against the closed forms; in eight of the 92 lens spaces,
# L(9,1) among them, a held-out prime refutes the first stable candidate


def _lens_family(pmax):
    for ap in range(1, pmax + 1):
        for q in range(1, max(ap, 2)):
            if gcd(ap, q) == 1:
                yield Lens(ap, q)
                yield Lens(-ap, q)


def test_reconstruction_lens_family_matches_closed_form():
    seeds = odd_primes(7, 23)
    family = list(_lens_family(12))
    assert len(family) == 92
    for m in family:
        rec = reconstruct_lambda(m, seeds, 6)
        assert rec.values == closed_lambda_series(m, 6).values, m


def test_reconstruction_survives_held_out_refutation():
    # lambda_6 of L(9,1) = 41990/4782969 is 0 mod 13, 17 and 19, so the
    # first stable candidate is 0, and the held-out prime 23 refutes it
    rec = reconstruct_lambda(Lens(9, 1), [7, 11, 13, 17, 19], 6)
    assert rec[6] == Fraction(41990, 4782969)
    assert rec.values == closed_lambda_series(Lens(9, 1), 6).values
    assert 23 in rec.primes_used


def test_reconstruction_seifert_x_2_4_5():
    S = SeifertData([(2, 1), (4, 1), (5, 2)])
    rec = reconstruct_lambda(S, [7, 11, 13, 17, 19, 23], 4)
    assert rec.values == closed_lambda_series(S, 4).values


@pytest.mark.parametrize("m", [
    P1Surgery("unknot", (p,)) for p in (3, -3, 5, -2)] + [
    P1Surgery("unlink", fr) for fr in ((-2, 5), (2, 3), (-3, 4))])
def test_p1_closed_series_matches_reconstruction(m):
    # split-link surgery is a connected sum of the L(-p_j, 1), and the
    # series is the product of theirs; exact_p1 at each prime agrees
    lam = closed_lambda_series(m, 8)
    assert lam.provenance == "closed-form"
    assert lam.manifold == manifold_label(m)
    rec = reconstruct_lambda(m, odd_primes(7, 23), 8)
    assert rec.values == lam.values


@pytest.mark.parametrize("spec", ["L(5,2)", (5, 2), None])
def test_closed_forms_reject_unsupported_spec(spec):
    with pytest.raises(NoClosedForm):
        closed_lambda_series(spec, 4)
    with pytest.raises(NoClosedForm):
        closed_zprime(spec, 7)


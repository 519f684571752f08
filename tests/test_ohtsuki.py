"""The central identity, both directions: verification and recovery."""

import copy
import hashlib
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from so3inv.arith import _is_prime, odd_primes
from so3inv.errors import (BadNormalization, BoundViolation, H1DivisibleByK,
                           InsufficientModulus, InsufficientTerms,
                           NoClosedForm, NotAnOddPrime, So3InvError)
from so3inv import cli, closedform, nt, ohtsuki, series
from so3inv.nt import P1Surgery, SeifertData, manifold_label
from so3inv.ohtsuki import (IdentityReport, Reconstruction, check_bounds,
                            closed_lambda_series, closed_zprime, diamond_side,
                            reconstruct_lambda, verify_identity)
from so3inv.series import RatSeries, shadow, vee
from so3inv.surgery import Lens

from zq_reference import identity_reference

POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])


def test_diamond_side_s3_is_constant_one():
    for K in (5, 7, 11):
        assert diamond_side(Lens(1, 1), K) == shadow([1], K)


def test_identity_single_prime_by_hand():
    lam = closed_lambda_series(Lens(2, 1), 2)
    assert diamond_side(Lens(2, 1), 5) == vee(lam, 5)


def test_vee_ignores_terms_beyond_truncation():
    base = closed_lambda_series(Lens(3, 1), 5)
    junk = RatSeries(base.coeffs[:4] + (Fraction(9), Fraction(9)), 5)
    assert vee(base, 7) == vee(junk, 7)


def test_vee_needs_enough_terms():
    lam = closed_lambda_series(Lens(3, 1), 2)
    with pytest.raises(InsufficientTerms):
        vee(lam, 11)


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


def test_verify_identity_builds_series_once(monkeypatch):
    primes = [5, 7, 11, 13]
    calls = []

    def counting(m, n_max):
        calls.append(n_max)
        return closed_lambda_series(m, n_max)

    monkeypatch.setattr(ohtsuki, "closed_lambda_series", counting)
    reports = verify_identity(Lens(7, 3), primes)
    assert calls == [6]
    assert reports == [verify_identity(Lens(7, 3), [K])[0] for K in primes]


def test_verify_identity_series_failure_skips_every_prime(monkeypatch):
    def broken(m, n_max):
        raise So3InvError("no series")

    monkeypatch.setattr(ohtsuki, "closed_lambda_series", broken)
    reports = verify_identity(Lens(7, 3), [5, 7, 11, 13])
    assert [r.verdict for r in reports] == ["skipped"] * 4
    assert [r.K for r in reports] == [5, 7, 11, 13]
    assert "H1DivisibleByK" in reports[1].error
    assert all(r.error == "So3InvError: no series"
               for r in reports if r.K != 7)


@pytest.mark.parametrize("m", [Lens(7, 3), Lens(-12, 5), Lens(1, 1),
                               POINCARE, SeifertData([(3, 1), (4, 1), (5, 1)]),
                               SeifertData([(2, 1), (4, 1), (5, 2)])])
def test_closed_lambda_series_prefix(m):
    big = closed_lambda_series(m, 12).coeffs
    for n in (0, 1, 4, 11):
        assert big[:n + 1] == closed_lambda_series(m, n).coeffs


def test_verify_identity_flags_wrong_series(monkeypatch):
    wrong = RatSeries((Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
                      3)
    monkeypatch.setattr(ohtsuki, "closed_lambda_series", lambda m, n: wrong)
    reports = verify_identity(Lens(2, 1), [7])
    assert reports[0].verdict == "unequal"
    assert reports[0].first_mismatch == 1


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_matches_closed_form():
    for m in (Lens(3, 1), Lens(5, 2)):
        rec = reconstruct_lambda(m, [7, 11, 13, 17, 19], 5)
        closed = closed_lambda_series(m, 5)
        assert all(rec.values[n] == closed[n] for n in range(6))
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
    assert rec.values[2] == Fraction(-1, 25)


def test_reconstruction_insufficient_modulus(monkeypatch):
    monkeypatch.setattr(ohtsuki, "PRIMES_PAST_SEEDS", 0)
    with pytest.raises(InsufficientModulus,
                       match="the seeds and at most 0 primes above them"):
        reconstruct_lambda(Lens(3, 1), [11, 13], 4)


def test_reconstruction_rejects_duplicates():
    with pytest.raises(So3InvError):
        reconstruct_lambda(Lens(3, 1), [7, 7, 11], 1)


def test_reconstruction_needs_a_seed_prime():
    with pytest.raises(So3InvError, match="need at least one seed prime"):
        reconstruct_lambda(Lens(5, 2), [], 2)


def test_denominator_bound_checks():
    check_bounds("x", 2, 2, Fraction(-1, 32))
    check_bounds("x", 1, 3, Fraction(1, 6))
    with pytest.raises(BoundViolation):
        check_bounds("x", 1, 1, Fraction(1, 3))  # 3 > 2n with h1 = 1
    with pytest.raises(BoundViolation):
        check_bounds("x", 7, 1, Fraction(1, 17))  # 17 > 2n = 14
    # at n = 1 the integrality bound is 2^4 1! 2! 9!, which holds 2^12
    # but not 11; 2^13 has no prime above 2n, so only it sees 2^13
    check_bounds("m", 1, 1, Fraction(1, 2 ** 12))
    for value in (Fraction(1, 11), Fraction(1, 2 ** 13)):
        with pytest.raises(BoundViolation,
                           match=f"= {value} breaks the integrality bound"):
            check_bounds("m", 1, 1, value)


def test_denominator_bound_names_a_prime_of_the_denominator():
    # the primes <= 2n are divided out; the least prime left is named
    for n, value, p in ((1, Fraction(1, 5), 5), (2, Fraction(1, 63), 7),
                        (3, Fraction(1, 11), 11)):
        with pytest.raises(BoundViolation) as e:
            check_bounds("X", n, 1, value)
        assert str(e.value) == (
            f"lambda_{n} of X: denominator prime {p} > {2 * n}")


def test_closed_forms_pass_bounds_through_n20():
    family = list(_lens_family(12)) + [POINCARE] + [SeifertData(f) for f in (
        [(3, 1), (4, 1), (5, 1)], [(-2, 1), (3, 1), (5, 1)],
        [(2, 1), (4, 1), (5, 2)], [(2, 1), (3, 1), (5, 1)],
        [(2, -1), (3, 2), (5, 1)], [(3, 2), (4, 3), (5, 4)])]
    assert len(family) == 99
    for m in family:
        lam = closed_lambda_series(m, 20)
        for n in range(21):
            check_bounds(manifold_label(m), n, m.h1, lam[n])


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
        assert rec.values == closed_lambda_series(m, 6).coeffs, m


def test_reconstruction_survives_held_out_refutation():
    # lambda_6 of L(9,1) = 41990/4782969 is 0 mod 13, 17 and 19, so the
    # first stable candidate is 0, and the held-out prime 23 refutes it
    rec = reconstruct_lambda(Lens(9, 1), [7, 11, 13, 17, 19], 6)
    assert rec.values[6] == Fraction(41990, 4782969)
    assert rec.values == closed_lambda_series(Lens(9, 1), 6).coeffs
    assert 23 in rec.primes_used


def test_reconstruction_seifert_x_2_4_5():
    S = SeifertData([(2, 1), (4, 1), (5, 2)])
    rec = reconstruct_lambda(S, [7, 11, 13, 17, 19, 23], 4)
    assert rec.values == closed_lambda_series(S, 4).coeffs


def test_benchmark_recorder_reads_the_lambda_api(monkeypatch):
    # perfbench/record.py, imported as the benchmark imports it, reads
    # reconstruct_lambda(...).values and closed_lambda_series(...)[n]
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import record

    expected = json.loads((bench / "expected.json").read_text())
    assert record.reconstruct_values() == expected["reconstruct"]


@pytest.mark.parametrize("m", [
    P1Surgery("unknot", (p,)) for p in (3, -3, 5, -2)] + [
    P1Surgery("unlink", fr) for fr in ((-2, 5), (2, 3), (-3, 4), ())])
def test_p1_closed_series_matches_reconstruction(m):
    # split-link surgery is a connected sum of the L(-p_j, 1), and the
    # series is the product of theirs; Z' at each prime agrees.
    # The empty surgery is S^3: the empty product, 1, 0, 0, ...
    lam = closed_lambda_series(m, 8)
    if not m.framings:
        assert lam.coeffs == (1,) + (0,) * 8
    rec = reconstruct_lambda(m, odd_primes(7, 23), 8)
    assert rec.values == lam.coeffs


@pytest.mark.parametrize("spec", ["L(5,2)", (5, 2), None])
def test_closed_forms_reject_unsupported_spec(spec):
    with pytest.raises(NoClosedForm):
        closed_lambda_series(spec, 4)
    with pytest.raises(NoClosedForm):
        closed_zprime(spec, 7)
    with pytest.raises(NoClosedForm):
        diamond_side(spec, 7)
    with pytest.raises(NoClosedForm):
        verify_identity(spec, [7, 11])
    with pytest.raises(NoClosedForm):
        reconstruct_lambda(spec, [7, 11], 2)


def test_exact_routes_share_one_door(monkeypatch):
    # |H1| = 9 for all three, so K = 9 would also trip the |H1| gate:
    # the presentation is checked first, then the prime, then |H1|
    for m in (Lens(9, 2), SeifertData([(2, 1), (5, 1), (7, -4)]),
              P1Surgery("unlink", (3, -3))):
        assert m.h1 == 9
        with pytest.raises(NoClosedForm):
            closed_zprime(repr(m), 9)
        with pytest.raises(NotAnOddPrime):
            closed_zprime(m, 9)
        with pytest.raises(H1DivisibleByK,
                           match=r"^\|H1\| = 9 is divisible by K = 3$"):
            closed_zprime(m, 3)
    # lambda_0 is checked once, on the P1 product, not on each factor
    real = closedform.lens_lambda_series
    monkeypatch.setattr(closedform, "lens_lambda_series",
                        lambda L, n_max: real(L, n_max) * 2)
    with pytest.raises(BadNormalization,
                       match=r"^lambda_0 = 4 for S\[unlink;-2,5\]$"):
        closed_lambda_series(P1Surgery("unlink", (-2, 5)), 3)


# reconstruction reads its candidate primes lazily: the seeds, then the
# odd primes above them, each tested once, when a stream first reads
# past those found so far.  The digests are of the text
# LambdaSeries(manifold=.., n_max=.., values=.., provenance='reconstruction',
# moduli=.., primes_used=.., skipped=..) built from the result's fields,
# or of "Class: message" on failure, as the eager candidate list
# seeds + odd_primes(seeds[-1] + 1, ceiling) gave them: the bound
# ohtsuki.PRIMES_PAST_SEEDS is set to the length of that prime list.
# It is the module's own bound at seeds 7..23 with ceiling 2000, and
# at seed 1999 with ceiling 4373.
RECONSTRUCT_SAMPLE = [
    (Lens(5, 2), odd_primes(7, 23), 6, 2000, "50886581a7b55bf8"),
    (Lens(12, 5), odd_primes(7, 23), 6, 2000, "65523cafeea13dc1"),
    (POINCARE, odd_primes(7, 23), 6, 2000, "f1990cf23ee6bd7a"),
    (SeifertData([(2, 1), (-3, 1), (5, 1)]), odd_primes(7, 23), 2, 2000,
     "3e468d2d299cb6a4"),
    (P1Surgery("unlink", (-2, 5)), odd_primes(7, 23), 6, 2000,
     "e9bf237b1c8c131d"),
    (Lens(9, 1), (7, 11, 13, 17, 19), 6, 2000, "7a50802cd25fb0ea"),
    (Lens(12, 5), odd_primes(7, 23), 6, 50, "268bf392b280a2b6"),
    (Lens(5, 2), (1999,), 6, 4373, "d23b4dfb7943cfc2"),
]


@pytest.mark.parametrize("m, seeds, n_max, ceiling, digest",
                         RECONSTRUCT_SAMPLE)
def test_reconstruction_reads_candidate_primes_lazily(
        monkeypatch, m, seeds, n_max, ceiling, digest):
    tested = []
    monkeypatch.setattr(ohtsuki, "_is_prime",
                        lambda n: tested.append(n) or _is_prime(n))
    monkeypatch.setattr(ohtsuki, "PRIMES_PAST_SEEDS",
                        len(odd_primes(seeds[-1] + 1, ceiling)))
    try:
        r = reconstruct_lambda(m, seeds, n_max)
        out = (f"LambdaSeries(manifold={manifold_label(m)!r}, "
               f"n_max={n_max}, values={r.values!r}, "
               f"provenance='reconstruction', moduli={r.moduli!r}, "
               f"primes_used={r.primes_used!r}, skipped={r.skipped!r})")
    except So3InvError as e:
        out = f"{type(e).__name__}: {e}"
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, out
    assert tested == sorted(set(tested)) and len(tested) < 60
    if seeds == (1999,):
        # a seed near 2000 still reads primes above it
        assert tested[0] == 2001 and out.startswith(
            f"LambdaSeries(manifold='L(5,2)', n_max=6, "
            f"values={closed_lambda_series(m, 6).coeffs!r}, ")


def test_default_bound_reads_the_primes_up_to_2000():
    # seeds 7..23 read the primes up to 2000, and seed 1999 those up
    # to 4373: the two ceilings of RECONSTRUCT_SAMPLE's default rows
    assert (len(odd_primes(24, 2000)) == len(odd_primes(2000, 4373))
            == ohtsuki.PRIMES_PAST_SEEDS)


# the four records: the fields in order, sample values, and the repr
RECORDS = [
    (Lens, ("p", "q"), (5, 2), "Lens(p=5, q=2)"),
    (P1Surgery, ("jones", "framings"), ("unlink", (-2, 5)),
     "P1Surgery(jones='unlink', framings=(-2, 5))"),
    (IdentityReport,
     ("manifold", "K", "lhs", "rhs", "verdict", "first_mismatch", "error"),
     ("L(5,2)", 7, shadow([1, 0, 5, 2], 7), shadow([1, 0, 5, 3], 7),
      "unequal", 3, None),
     "IdentityReport(manifold='L(5,2)', K=7, lhs=(1, 0, 5, 2), "
     "rhs=(1, 0, 5, 3), verdict='unequal', first_mismatch=3, error=None)"),
    (Reconstruction, ("values", "moduli", "primes_used", "skipped"),
     ((Fraction(1), Fraction(-1, 5)), (7, 77), (7, 11),
      ((5, "H1DivisibleByK"),)),
     "Reconstruction(values=(Fraction(1, 1), Fraction(-1, 5)), "
     "moduli=(7, 77), primes_used=(7, 11), "
     "skipped=((5, 'H1DivisibleByK'),))"),
]
# the slots each record derives from its fields, at the sample values
DERIVED = {Lens: {"h1": 5, "r": 0}, P1Surgery: {"h1": 10}}


def _derived_slots_are_frozen_values(r, derived):
    """The derived slots hold their values through pickle and deepcopy,
    cannot be set or deleted, and enter none of eq, hash and repr."""
    assert {f: getattr(r, f) for f in derived} == derived
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert {f: getattr(back, f) for f in derived} == derived
    for f in derived:
        with pytest.raises(AttributeError):
            setattr(r, f, 0)
        with pytest.raises(AttributeError):
            delattr(r, f)
    other = copy.deepcopy(r)
    for f in derived:
        object.__setattr__(other, f, "other")
    assert other == r and hash(other) == hash(r) and repr(other) == repr(r)


@pytest.mark.parametrize("cls, fields, values, text", RECORDS)
def test_records_are_frozen_values(cls, fields, values, text):
    r = cls(*values)
    assert r == cls(**dict(zip(fields, values)))
    assert tuple(getattr(r, f) for f in fields) == values
    assert repr(r) == text
    assert hash(r) == hash(values)
    # equal only within one class, and only when every field is
    assert r != values and r != SeifertData([(2, 1)])
    last = {Lens: 3, P1Surgery: (-2, 7)}.get(cls, "other")
    assert r != cls(*values[:-1], last)
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert type(back) is cls and back == r and repr(back) == text
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, 0)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 0
    assert tuple(getattr(r, f) for f in fields) == values
    _derived_slots_are_frozen_values(r, DERIVED.get(cls, {}))


def test_seifert_data_is_frozen():
    # P, H, h1, dd and r follow from the fibers; none can be reassigned
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    fibers = ((2, 1), (3, 1), (5, -4))
    assert (s.fractions, s.P, s.H) == (fibers, 30, 1)
    assert repr(s) == "SeifertData(2/1,3/1,5/-4)"
    assert s == SeifertData(fibers) and hash(s) == hash(fibers)
    assert s != SeifertData([(2, 1), (3, 1), (5, 1)]) and s != fibers
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert type(back) is SeifertData and back == s
        assert (back.P, back.H) == (30, 1)
    for f in ("fractions", "P", "H"):
        with pytest.raises(AttributeError):
            setattr(s, f, ((7, 1),))
        with pytest.raises(AttributeError):
            delattr(s, f)
    with pytest.raises(AttributeError):
        s.extra = 0
    assert (s.fractions, s.P, s.H) == (fibers, 30, 1)
    _derived_slots_are_frozen_values(s, {
        "P": 30, "H": 1, "h1": 1, "dd": Fraction(23, 90),
        "r": Fraction(-181, 120)})


def test_record_defaults_and_validation():
    rep = IdentityReport("L(5,2)", 5, None, None, "skipped", error="E: e")
    assert rep.first_mismatch is None and rep.error == "E: e"
    assert P1Surgery("unlink", [-2, 5]).framings == (-2, 5)
    assert {Lens(5, 2), Lens(p=5, q=2), Lens(5, 3)} == {Lens(5, 2),
                                                         Lens(5, 3)}


# ---------------------------------------------------------------------------
# one closed-form record per manifold, against a route that shares nothing


def _seeded_identity_manifolds(rng):
    out = rng.sample(list(_lens_family(12)), 24) + [
        Lens(7, 3), Lens(-7, 3), Lens(12, 5)]
    while len(out) < 44:
        fibers = []
        for _ in range(rng.randint(1, 4)):
            p = rng.choice([-1, 1]) * rng.randint(1, 9)
            q = rng.choice([q for q in range(-9, 10) if gcd(p, q) == 1])
            fibers.append((p, q))
        if sum(q * (prod(p for p, _ in fibers) // p) for p, q in fibers):
            out.append(SeifertData(fibers))
    for k in range(4):
        out.append(P1Surgery("unlink", tuple(
            rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(k))))
    return out


def _rows(m, primes):
    reports = verify_identity(m, primes)
    assert [r.K for r in reports] == list(primes)
    assert {r.manifold for r in reports} == {manifold_label(m)}
    return [(r.lhs, r.rhs, r.verdict, r.first_mismatch, r.error)
            for r in reports]


def test_verify_identity_matches_route_sharing_nothing():
    # a genuine lambda_n has only 2 and the primes of |H1| in its
    # denominator, so every prime verified here reads the whole series'
    # one denominator; the edge cases below reach the prefix fallback
    primes = odd_primes(3, 61)
    verdicts = Counter()
    for m in _seeded_identity_manifolds(random.Random(29)):
        rows = _rows(m, primes)
        assert rows == identity_reference(m, primes), m
        verdicts.update(r[2] if r[2] != "skipped" else r[4].split(":")[0]
                        for r in rows)
    assert verdicts["equal"] > 500 and not verdicts["unequal"]
    assert verdicts["H1DivisibleByK"] and verdicts["PDivisibleByK"]


def _patched_series(monkeypatch, change):
    real = ohtsuki.closed_lambda_series
    monkeypatch.setattr(ohtsuki, "closed_lambda_series",
                        lambda m, n_max: change(real(m, n_max)))


def _with_values(values):
    return RatSeries(values, len(values) - 1)


@pytest.mark.parametrize("change, primes, errors", [
    # lambda_4 = 1/7, past the prefix at K = 7 only: the fallback
    (lambda lam: _with_values(lam.coeffs[:4] + (Fraction(1, 7),)
                              + lam.coeffs[5:]), (7, 11, 13), {}),
    # lambda_1 = 1/7 in every prefix: K = 7 cannot reduce the series
    (lambda lam: _with_values(lam.coeffs[:1] + (Fraction(1, 7),)
                              + lam.coeffs[2:]), (7, 11, 13),
     {7: "DenominatorDivisibleByK: coefficient of x^1 = 1/7 has "
         "denominator divisible by 7"}),
    # a series too short for K = 11 and 13
    (lambda lam: _with_values(lam.coeffs[:4]), (7, 11, 13),
     {11: "InsufficientTerms: need lambda_n through n = 5, have n_max = 3",
      13: "InsufficientTerms: need lambda_n through n = 6, have n_max = 3"}),
], ids=["past-prefix", "in-prefix", "short"])
def test_verify_identity_series_edges_match_reference(monkeypatch, change,
                                                      primes, errors):
    _patched_series(monkeypatch, change)
    for m in (Lens(5, 2), SeifertData([(2, 1), (3, 1), (5, 1)])):
        rows = _rows(m, primes)
        assert rows == identity_reference(m, primes), m
        assert {K: r[4] for K, r in zip(primes, rows) if r[4]} == errors


def test_verify_identity_skips_on_h1_and_series_failure(monkeypatch):
    primes = odd_primes(3, 23)
    for m in (Lens(7, 3), P1Surgery("unlink", (5, -3))):
        assert _rows(m, primes) == identity_reference(m, primes)

    def broken(m, n_max):
        raise So3InvError("no series")

    monkeypatch.setattr(ohtsuki, "closed_lambda_series", broken)
    for m in (Lens(7, 3), P1Surgery("unlink", (5, -3))):
        rows = _rows(m, primes)
        assert rows == identity_reference(m, primes)
        assert {r[4].split(":")[0] for r in rows} == {
            "So3InvError", "H1DivisibleByK"}


def test_one_dedekind_sum_and_one_denominator_per_manifold(monkeypatch):
    sums, whole = [], []
    real_sum, real_over = nt.dedekind_sum, series._over_lcm

    def counting_sum(q, p):
        sums.append((q, p))
        return real_sum(q, p)

    def counting_over(coeffs):
        whole.append(len(coeffs))
        return real_over(coeffs)

    monkeypatch.setattr(nt, "dedekind_sum", counting_sum)
    monkeypatch.setattr(series, "_over_lcm", counting_over)
    reports = verify_identity(Lens(7, 3), odd_primes(5, 37))
    assert [r.verdict for r in reports] == ["equal"] + ["skipped"] + [
        "equal"] * 8
    # lambda_0..lambda_18 over one denominator once, a power of 14 that
    # no prime of the sweep divides: no prefix needs its own lcm
    assert sums == [(3, 7)] and whole == [19]
    sums.clear()
    whole.clear()
    reconstruct_lambda(Lens(7, 3), odd_primes(7, 23), 6)
    assert sums == [(3, 7)] and whole == []
    # the lambda command: the closed series and the reconstruction, from
    # one presentation
    sums.clear()
    rows, notes, status = cli._lambda_task((Lens(7, 3), 6, odd_primes(7, 23)))
    assert sums == [(3, 7)] and status == 0 and len(rows) == 14
    assert [r[3] for r in rows] == ["closed-form"] * 7 + ["reconstruction"] * 7

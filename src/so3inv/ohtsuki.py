"""The central identity and CRT recovery of the rational series.

For a rational homology sphere M with |H1| coprime to the odd prime K,
the mod-K x-expansion of |H1| * legendre(|H1|, K) * Z'(M; K) equals the
mod-K reduction of the universal rational series sum(lambda_n x^n).
`verify_identity` machine-checks that statement coefficient by
coefficient; `reconstruct_lambda` runs it backwards, recovering the
exact rational lambda_n from their residues at many primes.  Every
entry takes a presentation of `nt`, which carries |H1| and its
Dedekind data, and raises NoClosedForm for anything else (`_spec`);
`closed_zprime` and `closed_lambda_series` also hold the checks every
closed form shares: the odd prime, the |H1| gate and lambda_0 = 1.
A P1 surgery on a split link is the connected sum of the lens spaces
L(-p_j, 1), and both sides are multiplicative under connected sum
(Kirby-Melvin, Invent. Math. 105 (1991)): `_summands` holds that rule,
and both entries take the product over the summands of the lens
closed forms.
The series is one RatSeries, read as lam[n]; a Reconstruction holds
the recovered values with what only recovery knows: the modulus of
each, the primes used and the primes skipped.

Reconstruction never trusts a single modulus.  The supplied primes are
a seed; further primes, the odd primes above the largest seed and at
most PRIMES_PAST_SEEDS of them, are folded into the CRT modulus M until
Wang's balanced extended-Euclid recovery (Wang, Guy & Davenport 1982)
yields the same fraction a/d from two consecutive prefixes, with
2 * 16 * |a| * d <= M as a safety margin.  The fraction must then
agree with the residues at the next two primes, which are held out of
M.  A held-out disagreement is not fatal: both held-out primes join M
and the search goes on.  Every accepted value also passes the
denominator bounds of `check_bounds`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count, islice
from math import factorial, gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from . import _Record
from .arith import _is_prime, as_prime, inv_int, legendre, rat_residue
from .cyclotomic import CycInt, diamond
from .errors import (
    BadNormalization,
    BoundViolation,
    InsufficientModulus,
    NoClosedForm,
    So3InvError,
)
from .nt import Lens, ManifoldSpec, SeifertData, check_h1, manifold_label
from .series import RatSeries, vee


# ---------------------------------------------------------------------------
# the two sides of the identity


def _spec(m) -> ManifoldSpec:
    """m when it is one of the three presentations, NoClosedForm
    otherwise: the one input check of every exact entry."""
    if not isinstance(m, ManifoldSpec):
        raise NoClosedForm(f"no closed form for {m!r}")
    return m


def _summands(m) -> list:
    """The connected summands of a lens space or a P1 surgery, as Lens
    presentations: a Lens is its own, and a P1 surgery is the L(-p, 1)
    of its framings p (none for the empty surgery, S^3)."""
    if isinstance(m, Lens):
        return [m]
    return [Lens(-p, 1) for p in m.framings]


def closed_zprime(m: ManifoldSpec, K) -> CycInt:
    """Exact Z' of a presentation by its closed form, after the checks all
    three share: `_spec`, then NotAnOddPrime, then H1DivisibleByK; a lens
    space or P1 surgery is the product over its `_summands`."""
    from .closedform import lens_zprime, seifert_zprime

    h1, K = _spec(m).h1, as_prime(K)
    check_h1(h1, K)
    if isinstance(m, SeifertData):
        return seifert_zprime(m, K)
    return reduce(mul, [lens_zprime(L, K) for L in _summands(m)]
                  or [CycInt.one(K)])


def closed_lambda_series(m: ManifoldSpec, n_max: int) -> RatSeries:
    """The closed-form series, its lambda_0 = 1 checked, not forced
    (BadNormalization otherwise); a lens space or P1 surgery is the
    product over its `_summands`."""
    from .closedform import lens_lambda_series, seifert_lambda_series

    if isinstance(_spec(m), SeifertData):
        lam = seifert_lambda_series(m, n_max)
    else:
        lam = reduce(mul, [lens_lambda_series(L, n_max) for L in _summands(m)]
                     or [RatSeries.const(1, n_max)])
    if lam[0] != 1:
        raise BadNormalization(f"lambda_0 = {lam[0]} for {manifold_label(m)}")
    return lam


def diamond_side(m: ManifoldSpec, K, terms=None) -> tuple:
    """diamond(|H1| * legendre(|H1|, K) * Z'(M; K), terms), exactly;
    `closed_zprime` raises H1DivisibleByK when K divides |H1|."""
    return diamond(closed_zprime(m, K) * (m.h1 * legendre(m.h1, K)), terms)


class IdentityReport(_Record):
    """One prime of `verify_identity`: verdict "equal", "unequal" or
    "skipped"; lhs (`diamond_side`) and rhs (`vee`) are (K+1)/2-tuples
    of residues in [0, K), None when skipped."""

    __slots__ = ("manifold", "K", "lhs", "rhs", "verdict", "first_mismatch",
                 "error")

    def __init__(self, manifold: str, K: int, lhs: Optional[tuple],
                 rhs: Optional[tuple], verdict: str,
                 first_mismatch: Optional[int] = None,
                 error: Optional[str] = None):
        super().__init__(manifold, K, lhs, rhs, verdict, first_mismatch,
                         error)


def verify_identity(m: ManifoldSpec, primes: Sequence[int]):
    """One IdentityReport per prime; per-prime failures are recorded.

    The closed-form series is built once, at the largest n_max =
    (K-1)/2 over the primes; a failure to build it skips every prime.
    """
    label = manifold_label(_spec(m))
    n_max = max(((K - 1) // 2 for K in primes), default=0)
    try:
        lam, why = closed_lambda_series(m, n_max), None
    except So3InvError as e:
        lam, why = None, e
    reports = []
    for K in primes:
        try:
            lhs = diamond_side(m, K)
            if why is not None:
                raise why
            rhs = vee(lam, K)
        except So3InvError as e:
            reports.append(IdentityReport(
                label, K, None, None, "skipped",
                error=f"{type(e).__name__}: {e}"))
            continue
        first = next((n for n, (a, b) in
                      enumerate(zip(lhs, rhs)) if a != b), None)
        reports.append(IdentityReport(
            label, K, lhs, rhs,
            "equal" if first is None else "unequal", first))
    return reports


# ---------------------------------------------------------------------------
# rational reconstruction


def _crt(r1: int, m1: int, r2: int, m2: int):
    t = ((r2 - r1) * inv_int(m1 % m2, m2)) % m2
    return (r1 + m1 * t) % (m1 * m2), m1 * m2


def _wang(r: int, M: int) -> Optional[Fraction]:
    a0, a1 = M, r % M
    t0, t1 = 0, 1
    bound = isqrt(M // 2)
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(a1, abs(t1)) != 1:
        return None
    return Fraction(a1, t1) if t1 > 0 else Fraction(-a1, -t1)


_SAFETY = 16  # a candidate must fit 2*SAFETY times into the modulus


def _best_fraction(r: int, M: int) -> Optional[Fraction]:
    """Wang's fraction = r (mod M), or None if it may be noise."""
    if M < 15:
        return None
    w = _wang(r, M)
    if w is None or 2 * _SAFETY * abs(w.numerator) * w.denominator > M:
        return None
    return w


def _agrees(value: Fraction, residue: int, K: int) -> bool:
    return value.denominator % K != 0 and rat_residue(value, K) == residue


# at most this many primes above the largest seed join a reconstruction:
# seeds 7..23 read the primes up to 2000
PRIMES_PAST_SEEDS = 294


class Reconstruction(_Record):
    """lambda_0..lambda_n_max as `reconstruct_lambda` recovered them,
    with the CRT modulus of each, the primes used and the primes
    skipped, as (K, error class name) pairs."""

    __slots__ = ("values", "moduli", "primes_used", "skipped")

    def __init__(self, values: tuple, moduli: tuple, primes_used: tuple,
                 skipped: tuple):
        super().__init__(values, moduli, primes_used, skipped)


def reconstruct_lambda(m, primes: Sequence[int], n_max: int) -> Reconstruction:
    """Recover lambda_0..lambda_n_max from residues at many primes.

    The prime at K pins lambda_n mod K only for n <= (K-1)/2, so each
    coefficient filters the stream accordingly, and each prime's diamond
    is cut at the n_max + 1 terms read; primes dividing |H1| (or failing
    another precondition of the exact evaluation) are skipped and
    recorded as (K, error class name) pairs.  Acceptance requires the
    same fraction from two consecutive prefixes plus agreement at the
    next two primes, held out of the CRT; when either disagrees, both
    join the modulus and the search goes on.  Every accepted value
    passes `check_bounds` (BoundViolation otherwise).
    """
    h1, label = _spec(m).h1, manifold_label(m)
    seeds = sorted({as_prime(K) for K in primes})
    if not seeds:
        raise So3InvError("need at least one seed prime")
    if len(seeds) != len(primes):
        raise So3InvError(f"primes must be pairwise distinct: {primes}")
    # the seeds, then the odd primes above them, each tested on first read
    found = list(seeds)
    later = islice(filter(_is_prime, count(seeds[-1] + 2, 2)),
                   PRIMES_PAST_SEEDS)

    def candidates():
        yield from found
        for K in later:
            found.append(K)
            yield K

    coeff_cache = {}
    skipped = []

    def residues(K):
        if K not in coeff_cache:
            try:
                coeff_cache[K] = diamond_side(m, K, n_max + 1)
            except So3InvError as e:
                coeff_cache[K] = None
                skipped.append((K, type(e).__name__))
        return coeff_cache[K]

    values, moduli, used_all = [], [], set()
    for n in range(n_max + 1):
        stream = (K for K in candidates()
                  if (K - 1) // 2 >= n and residues(K) is not None)
        r, M, used = 0, 1, []
        prev, accepted = None, None
        batch = list(islice(stream, 1))
        while batch:
            for K in batch:
                r, M = _crt(r, M, residues(K)[n], K)
                used.append(K)
            cand = _best_fraction(r, M)
            if cand is None or cand != prev:
                prev, batch = cand, list(islice(stream, 1))
                continue
            batch = list(islice(stream, 2))  # held out
            if len(batch) == 2 and all(_agrees(cand, residues(K)[n], K)
                                       for K in batch):
                accepted = cand
                break
        if accepted is None:
            raise InsufficientModulus(
                f"lambda_{n} of {label}: no fraction both stable and "
                f"confirmed by two held-out primes, from {len(used)} "
                f"primes, the seeds and at most {PRIMES_PAST_SEEDS} primes "
                f"above them (modulus {M})")
        check_bounds(label, n, h1, accepted)
        values.append(accepted)
        moduli.append(M)
        used_all.update(used)
    return Reconstruction(tuple(values), tuple(moduli),
                          tuple(sorted(used_all)), tuple(skipped))


def check_bounds(label: str, n: int, h1: int, value: Fraction):
    """Denominator bounds on lambda_n, for every n.

    lambda_n * |H1|^n times 2^(4n) n! (2n)! (9n)! must be an integer,
    and every prime dividing the denominator of lambda_n * |H1|^n must
    be at most 2n; BoundViolation otherwise.
    """
    big = 2 ** (4 * n) * factorial(n) * factorial(2 * n) * factorial(9 * n)
    if (value * big * h1 ** n).denominator != 1:
        raise BoundViolation(
            f"lambda_{n} of {label} = {value} breaks the integrality bound")
    d, small = (value * h1 ** n).denominator, factorial(2 * n)
    while (g := gcd(d, small)) > 1:  # divide out every prime <= 2n
        d //= g
    if d > 1:  # its smallest divisor > 1 is a prime above 2n
        p = next(p for p in range(2, d + 1) if d % p == 0)
        raise BoundViolation(
            f"lambda_{n} of {label}: denominator prime {p} > {2 * n}")

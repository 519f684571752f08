"""The central identity and CRT recovery of the rational series.

For a rational homology sphere M with |H1| coprime to the odd prime K,
the mod-K x-expansion of |H1| * legendre(|H1|, K) * Z'(M; K) equals the
mod-K reduction of the universal rational series sum(lambda_n x^n).
`verify_identity` machine-checks that statement coefficient by
coefficient; `reconstruct_lambda` runs it backwards, recovering the
exact rational lambda_n from their residues at many primes.

Reconstruction never trusts a single modulus.  The supplied primes are
a seed; further primes are folded into the CRT modulus M until Wang's
balanced extended-Euclid recovery (Wang, Guy & Davenport 1982) yields
the same fraction a/d from two consecutive prefixes, with
2 * 16 * |a| * d <= M as a safety margin.  The fraction must then
agree with the residues at the next two primes, which are held out of
M.  A held-out disagreement is not fatal: both held-out primes join M
and the search goes on.  Every accepted value also passes the
denominator bounds of `check_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, isqrt
from typing import Callable, Optional, Sequence

from .arith import as_prime, inv_int, legendre, odd_primes
from .cyclotomic import CycInt, diamond
from .errors import (
    BoundViolation,
    H1DivisibleByK,
    InsufficientModulus,
    InsufficientTerms,
    NoClosedForm,
    So3InvError,
)
from .nt import Lens, P1Surgery, SeifertData, h1_order, manifold_label
from .series import LambdaSeries, RatSeries, TruncPoly, vee


# ---------------------------------------------------------------------------
# the two sides of the identity


def closed_zprime(m, K) -> CycInt:
    """Exact Z' via the closed form appropriate to the presentation."""
    from .closedform import lens_zprime, seifert_zprime

    if isinstance(m, Lens):
        return lens_zprime(m.p, m.q, K)
    if isinstance(m, SeifertData):
        return seifert_zprime(m, K)
    if isinstance(m, P1Surgery):
        from .surgery import exact_p1

        return exact_p1(m, K)
    raise NoClosedForm(f"no exact evaluation for {m!r}")


def closed_lambda_series(m, n_max: int) -> LambdaSeries:
    """The closed-form series; a P1 surgery on a split link is the
    connected sum of the L(-p_j, 1), and the series is multiplicative
    under connected sum (Kirby-Melvin, Invent. Math. 105 (1991))."""
    from .closedform import lens_lambda_series, seifert_lambda_series

    if isinstance(m, Lens):
        return lens_lambda_series(m.p, m.q, n_max)
    if isinstance(m, SeifertData):
        return seifert_lambda_series(m, n_max)
    if isinstance(m, P1Surgery):
        acc = RatSeries.const(1, n_max)
        for p in m.framings:
            acc = acc * RatSeries(lens_lambda_series(-p, 1, n_max).values,
                                  n_max)
        return LambdaSeries(manifold_label(m), n_max, acc.coeffs,
                            "closed-form")
    raise NoClosedForm(f"no closed-form series for {m!r}")


def diamond_side(m, K) -> TruncPoly:
    """diamond(|H1| * legendre(|H1|, K) * Z'(M; K)), exactly."""
    K = as_prime(K)
    h1 = h1_order(m)
    if h1 % K == 0:
        raise H1DivisibleByK(f"|H1| = {h1} is divisible by K = {K}")
    return diamond(closed_zprime(m, K) * (h1 * legendre(h1, K)))


def vee_side(lam: LambdaSeries, K) -> TruncPoly:
    """Mod-K reduction of the series, truncated at degree (K-1)/2."""
    K = as_prime(K)
    d = (K - 1) // 2
    if lam.n_max < d:
        raise InsufficientTerms(
            f"need lambda_n through n = {d}, have n_max = {lam.n_max}")
    return vee(RatSeries([lam[n] for n in range(d + 1)], d), K)


@dataclass(frozen=True)
class IdentityReport:
    manifold: str
    K: int
    lhs: Optional[TruncPoly]
    rhs: Optional[TruncPoly]
    verdict: str  # "equal" | "unequal" | "skipped"
    first_mismatch: Optional[int] = None
    error: Optional[str] = None


def verify_identity(m, primes: Sequence[int],
                    lambda_source: Optional[Callable] = None):
    """One IdentityReport per prime; per-prime failures are recorded.

    lambda_source(M, n_max) supplies the series; the default is the
    closed form for the family at hand.  It is called once, at the
    largest n_max = (K-1)/2 over the primes, and each prime reads its
    prefix; a failure to build it skips every prime.
    """
    source = lambda_source or closed_lambda_series
    label = manifold_label(m)
    n_max = max(((K - 1) // 2 for K in primes), default=0)
    try:
        lam, why = source(m, n_max), None
    except So3InvError as e:
        lam, why = None, e
    reports = []
    for K in primes:
        try:
            lhs = diamond_side(m, K)
            if why is not None:
                raise why
            rhs = vee_side(lam, K)
        except So3InvError as e:
            reports.append(IdentityReport(
                label, K, None, None, "skipped",
                error=f"{type(e).__name__}: {e}"))
            continue
        first = next((n for n, (a, b) in
                      enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b), None)
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
    d = value.denominator
    return d % K != 0 and value.numerator * inv_int(d, K) % K == residue


def reconstruct_lambda(m, primes: Sequence[int], n_max: int, *,
                       prime_ceiling: int = 2000) -> LambdaSeries:
    """Recover lambda_0..lambda_n_max from residues at many primes.

    The prime at K pins lambda_n mod K only for n <= (K-1)/2, so each
    coefficient filters the stream accordingly; primes dividing |H1|
    (or failing another precondition of the exact evaluation) are
    skipped and recorded as (K, error class name) pairs.  Acceptance
    requires the same fraction from two consecutive prefixes plus
    agreement at the next two primes, held out of the CRT; when either
    disagrees, both join the modulus and the search goes on.  The
    result is a LambdaSeries with provenance "reconstruction" and its
    moduli, primes used and skips.
    """
    h1 = h1_order(m)
    label = manifold_label(m)
    seeds = sorted({as_prime(K) for K in primes})
    if not seeds:
        raise So3InvError("need at least one seed prime")
    if len(seeds) != len(primes):
        raise So3InvError(f"primes must be pairwise distinct: {primes}")
    candidates = seeds + list(odd_primes(seeds[-1] + 1, prime_ceiling))

    coeff_cache = {}
    skipped = []

    def residues(K):
        if K not in coeff_cache:
            try:
                coeff_cache[K] = diamond_side(m, K).coeffs
            except So3InvError as e:
                coeff_cache[K] = None
                skipped.append((K, type(e).__name__))
        return coeff_cache[K]

    values, moduli, used_all = [], [], set()
    for n in range(n_max + 1):
        stream = (K for K in candidates
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
                f"primes up to {prime_ceiling} (modulus {M})")
        check_bounds(label, n, h1, accepted)
        values.append(accepted)
        moduli.append(M)
        used_all.update(used)
    return LambdaSeries(label, n_max, tuple(values), "reconstruction",
                        tuple(moduli), tuple(sorted(used_all)), tuple(skipped))


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
    d = (value * h1 ** n).denominator
    for p in range(2, d + 1):
        if p > max(2 * n, 1):
            raise BoundViolation(
                f"lambda_{n} of {label}: denominator prime {p} > {2 * n}")
        while d % p == 0:
            d //= p
        if d == 1:
            break

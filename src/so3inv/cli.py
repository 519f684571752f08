"""Command-line front end: exact invariants, identity sweeps, series.

Three subcommands:

  invariant   exact Z' of one or more manifolds at given primes
  verify      identity sweeps (diamond side vs vee side) and the
              Gauss-sum self-tests; exit 0 iff everything passes and
              every manifold has at least one equal row
  lambda      closed-form and/or CRT-reconstructed series tables

Manifolds are given inline (--lens P,Q; --seifert P/Q,P/Q,...;
--p1 TABLE:F1,F2,...) or in a JSON file: a list of objects shaped
{"type":"lens","p":..,"q":..}, {"type":"seifert","fractions":[[p,q],..]},
or {"type":"p1","jones":"<table-id>","framings":[..]}.

Output is TSV (default) or JSON with fixed columns:

  invariant: manifold K coeffs xpoly diamond numeric
  verify:    kind manifold K verdict detail
  lambda:    manifold n value provenance modulus bounds

Rows are sorted by (manifold, K, n) no matter how many workers run, so
identical configs produce byte-identical reports.  Worker count comes
from --workers, else the SO3INV_WORKERS environment variable, else 1,
and is clamped to the CPU count and to the number of tasks.

Exit codes: 0 all good, 2 usage error or invalid manifold spec, 3
computation failure (identity mismatch, a manifold that verify verified
at no prime, failed reconstruction, precondition error; invariant still
prints every row it can compute and names each failed pair on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .arith import as_prime, odd_primes
from .cyclotomic import diamond, eval_complex, gauss_sum, to_xpoly, x_order
from .errors import So3InvError
from .nt import Lens, P1Surgery, SeifertData
from .ohtsuki import (check_bounds, closed_lambda_series, closed_zprime,
                      h1_order, manifold_label, reconstruct_lambda,
                      verify_identity)


class UsageError(Exception):
    """Bad flags, bad manifold spec, bad prime list: exit code 2."""


# ---------------------------------------------------------------------------
# parsing


def _parse_ints(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what}: expected {n} comma-separated integers, "
                         f"got {text!r}")
    try:
        return [int(s) for s in parts]
    except ValueError:
        raise UsageError(f"{what}: non-integer in {text!r}") from None


def parse_lens(text: str) -> Lens:
    p, q = _parse_ints(text, 2, "--lens")
    return Lens(p, q)


def parse_seifert(text: str) -> SeifertData:
    fractions = []
    for part in text.split(","):
        bits = part.split("/")
        if len(bits) != 2:
            raise UsageError(f"--seifert: expected P/Q, got {part!r}")
        try:
            fractions.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise UsageError(f"--seifert: non-integer in {part!r}") from None
    return SeifertData(fractions)


def parse_p1(text: str) -> P1Surgery:
    table, sep, rest = text.partition(":")
    if not sep or not table:
        raise UsageError(f"--p1: expected TABLE:F1,F2,..., got {text!r}")
    try:
        framings = tuple(int(s) for s in rest.split(","))
    except ValueError:
        raise UsageError(f"--p1: non-integer framing in {rest!r}") from None
    return P1Surgery(table, framings)


def parse_primes(text: str):
    """A prime list: '7,11,13' or a range '5..31' (primes within)."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"--primes: bad range {text!r}") from None
        ks = odd_primes(lo, hi)
    else:
        try:
            ks = [int(s) for s in text.split(",")]
        except ValueError:
            raise UsageError(f"--primes: bad list {text!r}") from None
    try:
        ks = [as_prime(k) for k in ks]
    except So3InvError as e:
        raise UsageError(f"--primes: {e}") from None
    if not ks:
        raise UsageError(f"--primes: empty after filtering: {text!r}")
    return tuple(sorted(set(ks)))


def _from_schema(obj) -> object:
    try:
        kind = obj["type"]
        if kind == "lens":
            return Lens(int(obj["p"]), int(obj["q"]))
        if kind == "seifert":
            return SeifertData([(int(p), int(q))
                                for p, q in obj["fractions"]])
        if kind == "p1":
            return P1Surgery(str(obj["jones"]),
                             tuple(int(f) for f in obj["framings"]))
    except (KeyError, TypeError, ValueError, So3InvError) as e:
        raise UsageError(f"bad manifold object {obj!r}: {e}") from None
    raise UsageError(f"unknown manifold type {obj!r}")


def gather_manifolds(args) -> list:
    """The manifolds named by the flags; an invalid one is a UsageError."""
    out = []
    for flag, parse in (("lens", parse_lens), ("seifert", parse_seifert),
                        ("p1", parse_p1)):
        for text in getattr(args, flag) or ():
            try:
                out.append(parse(text))
            except So3InvError as e:
                raise UsageError(f"--{flag} {text}: {type(e).__name__}: "
                                 f"{e}") from None
    if args.manifolds:
        try:
            with open(args.manifolds) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"--manifolds {args.manifolds}: {e}") from None
        if not isinstance(data, list):
            raise UsageError("--manifolds: top level must be a JSON list")
        out.extend(_from_schema(obj) for obj in data)
    if getattr(args, "family", None) == "lens":
        for p in [p for p in range(-args.pmax, args.pmax + 1) if p]:
            qs = [q for q in range(1, abs(p)) if gcd(p, q) == 1] or [1]
            out.extend(Lens(p, q) for q in qs)
    return out


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    raw = os.environ.get("SO3INV_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise UsageError(f"SO3INV_WORKERS: not an integer: {raw!r}") from None


def pool_size(requested: int, n_tasks: int, cpus) -> int:
    """Worker processes to start: never more than CPUs or tasks."""
    return max(1, min(requested, cpus or 1, n_tasks))


def _pool(fn, tasks, workers):
    tasks = sorted(tasks, key=lambda t: (manifold_label(t[0]), t[1:]))
    workers = pool_size(workers, len(tasks), os.cpu_count())
    if workers == 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))


# ---------------------------------------------------------------------------
# output


def _poly_str(coeffs, var: str) -> str:
    terms = []
    for n, c in enumerate(coeffs):
        if not c:
            continue
        if n == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            terms.append(head + var + (f"^{n}" if n > 1 else ""))
    return " + ".join(terms).replace("+ -", "- ") or "0"


def _emit(rows, columns, args):
    if args.format == "json":
        text = json.dumps([dict(zip(columns, r)) for r in rows], indent=2)
    else:
        lines = ["\t".join(columns)]
        lines.extend("\t".join(str(v) for v in r) for r in rows)
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _invariant_task(task):
    """(row, None), or (None, why) when this (manifold, K) pair fails."""
    m, K, precision = task
    try:
        zp = closed_zprime(m, K)
    except So3InvError as e:
        return None, (f"computation failed for {manifold_label(m)} at "
                      f"K = {K}: {type(e).__name__}: {e}")
    xp = to_xpoly(zp)
    num = eval_complex(zp, precision)
    return (manifold_label(m), K,
            ",".join(str(c) for c in zp.coeffs),
            _poly_str(xp.coeffs, "x"),
            ",".join(str(c) for c in diamond(xp).coeffs),
            f"{num.real:.12e}{num.imag:+.12e}j"), None


# the numeric column prints 13 significant digits; two more guard them
MIN_PRECISION = 15


def cmd_invariant(args) -> int:
    if args.precision < MIN_PRECISION:
        raise UsageError(f"--precision: need at least {MIN_PRECISION} "
                         f"digits, got {args.precision}")
    manifolds = gather_manifolds(args)
    if not manifolds:
        raise UsageError("no manifolds given")
    tasks = [(m, K, args.precision) for m in manifolds for K in args.k]
    results = _pool(_invariant_task, tasks, _workers(args))
    _emit([row for row, _ in results if row],
          ("manifold", "K", "coeffs", "xpoly", "diamond", "numeric"), args)
    failures = [why for _, why in results if why]
    for why in failures:
        print(why, file=sys.stderr)
    return 3 if failures else 0


def _gauss_task(task):
    _, K = task
    g = gauss_sum(1, K)
    sq = g * g
    want = (-1) ** ((K - 1) // 2) * K
    ok = (sq.coeffs[0] == want and not any(sq.coeffs[1:])
          and x_order(g) == (K - 1) // 2)
    return ("gauss", "gauss-sum", K, "pass" if ok else "FAIL",
            f"square={sq.coeffs[0] if not any(sq.coeffs[1:]) else 'nonconst'}"
            f",x_order={x_order(g)}")


def _identity_task(task):
    m, primes = task
    rows = []
    for rep in verify_identity(m, primes):
        if rep.verdict == "equal":
            detail = ""
        elif rep.verdict == "unequal":
            detail = f"first_mismatch=x^{rep.first_mismatch}"
        else:
            detail = rep.error
        rows.append(("identity", rep.manifold, rep.K, rep.verdict, detail))
    return rows


def cmd_verify(args) -> int:
    manifolds = gather_manifolds(args)
    if not manifolds and not args.gauss:
        raise UsageError("nothing to verify: give manifolds or --gauss")
    rows = []
    if args.gauss:
        rows.extend(_pool(_gauss_task, [(None, K) for K in args.primes],
                          _workers(args)))
    if manifolds:
        tasks = [(m, args.primes) for m in manifolds]
        per_manifold = _pool(_identity_task, tasks, _workers(args))
        rows.extend(sorted((r for rs in per_manifold for r in rs),
                           key=lambda r: (r[1], r[2])))
    failed = [r for r in rows if r[3] in ("FAIL", "unequal")]
    verified = {r[1] for r in rows if r[3] == "equal"}
    unverified = sorted({r[1] for r in rows
                         if r[0] == "identity" and r[1] not in verified})
    _emit(rows, ("kind", "manifold", "K", "verdict", "detail"), args)
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
    for label in unverified:
        print(f"nothing verified for {label}: no prime gave an equal row",
              file=sys.stderr)
    return 3 if failed or unverified else 0


def cmd_lambda(args) -> int:
    manifolds = gather_manifolds(args)
    if not manifolds:
        raise UsageError("no manifolds given")
    if args.nmax < 0:
        raise UsageError(f"--nmax: need at least 0, got {args.nmax}")
    rows = []
    status = 0
    for m in sorted(manifolds, key=manifold_label):
        h1 = h1_order(m)
        series = [closed_lambda_series(m, args.nmax)]
        if args.reconstruct:
            rec = reconstruct_lambda(m, args.primes, args.nmax)
            series.append(rec)
            for K, why in rec.skipped:
                print(f"{rec.manifold}: reconstruction skipped K = {K}: "
                      f"{why}", file=sys.stderr)
            if any(series[0][n] != rec[n] for n in range(args.nmax + 1)):
                print(f"cross-path mismatch for {manifold_label(m)}",
                      file=sys.stderr)
                status = 3
        for s in series:
            for n in range(args.nmax + 1):
                try:
                    check_bounds(manifold_label(m), n, h1, s[n])
                    bounds = "ok"
                except So3InvError as e:
                    bounds = f"violated: {e}"
                    status = 3
                rows.append((manifold_label(m), n, str(s[n]), s.provenance,
                             s.moduli[n] if s.moduli else "", bounds))
    _emit(rows, ("manifold", "n", "value", "provenance", "modulus", "bounds"),
          args)
    return status


# ---------------------------------------------------------------------------
# wiring


def _add_manifold_flags(sp):
    sp.add_argument("--lens", action="append", metavar="P,Q",
                    help="lens space by surgery fraction (repeatable)")
    sp.add_argument("--seifert", action="append", metavar="P/Q,P/Q,...",
                    help="star-shaped manifold by fiber fractions")
    sp.add_argument("--p1", action="append", metavar="TABLE:F1,F2,...",
                    help="integer-framed surgery on a registered link table")
    sp.add_argument("--manifolds", metavar="FILE",
                    help="JSON file with a list of manifold objects")


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sp.add_argument("--out", metavar="PATH", help="write report to a file")
    sp.add_argument("--workers", type=int, default=None,
                    help="process count (default: SO3INV_WORKERS or 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="so3inv",
        description="Exact SO(3) invariants of surgery presentations "
                    "at odd primes, identity sweeps, and series tables.")
    sub = ap.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="exact Z' at one or more primes")
    _add_manifold_flags(inv)
    inv.add_argument("--k", required=True, metavar="PRIMES",
                     help="prime or prime list/range, e.g. 7 or 5..13")
    inv.add_argument("--precision", type=int, default=50,
                     help="working decimal digits for the numeric column "
                          f"(at least {MIN_PRECISION}; 13 are printed)")
    _add_output_flags(inv)
    inv.set_defaults(func=cmd_invariant)

    ver = sub.add_parser("verify", help="identity and Gauss-sum sweeps")
    _add_manifold_flags(ver)
    ver.add_argument("--family", choices=("lens",),
                     help="add a whole family of manifolds")
    ver.add_argument("--pmax", type=int, default=12,
                     help="|p| bound for --family lens")
    ver.add_argument("--gauss", action="store_true",
                     help="run the Gauss-sum identities per prime")
    ver.add_argument("--primes", default="5..31", metavar="LIST|LO..HI")
    _add_output_flags(ver)
    ver.set_defaults(func=cmd_verify)

    lam = sub.add_parser("lambda", help="series tables, closed or rebuilt")
    _add_manifold_flags(lam)
    lam.add_argument("--nmax", type=int, default=6)
    lam.add_argument("--reconstruct", action="store_true",
                     help="also rebuild the series from prime residues")
    lam.add_argument("--primes", default="7..23", metavar="LIST|LO..HI",
                     help="seed primes for --reconstruct")
    _add_output_flags(lam)
    lam.set_defaults(func=cmd_lambda)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if hasattr(args, "k"):
            args.k = parse_primes(args.k)
        if hasattr(args, "primes") and isinstance(args.primes, str):
            args.primes = parse_primes(args.primes)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except So3InvError as e:
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

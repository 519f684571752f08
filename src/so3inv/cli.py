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

Rows are sorted by (manifold, K, n) no matter how many workers run
(--workers, default 1, clamped to the CPU count and the task count).
Every task returns (rows, stderr lines, status) and one collector
writes them: all rows first, then each task's stderr lines in manifold
order, then verify's summary; the run exits with the worst status.

Exit codes: 0 all good, 2 usage error, invalid manifold spec or a
report that cannot be written (--out unwritable, stdout closed early), 3
computation failure (identity mismatch, a manifold that verify verified
at no prime, failed reconstruction, precondition error; invariant and
lambda still print every row they can compute and name each failed
pair or manifold on stderr).

The library loads after the arguments parse: each function imports the
layers it uses where it uses them, so `--help` and a usage error that
argparse reports compile only this module and `errors`, and a run
compiles only the layers it reaches.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd

from .errors import So3InvError


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


def parse_lens(text: str):
    from .nt import Lens

    p, q = _parse_ints(text, 2, "--lens")
    return Lens(p, q)


def parse_seifert(text: str):
    from .nt import SeifertData

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


def parse_p1(text: str):
    from .nt import P1Surgery

    table, sep, rest = text.partition(":")
    if not sep or not table:
        raise UsageError(f"--p1: expected TABLE:F1,F2,..., got {text!r}")
    try:
        framings = tuple(int(s) for s in rest.split(",")) if rest else ()
    except ValueError:
        raise UsageError(f"--p1: non-integer framing in {rest!r}") from None
    return P1Surgery(table, framings)


def parse_primes(text: str):
    """A prime list: '7,11,13' or a range '5..31' (primes within); its
    UsageError names no flag, as `main` adds the flag it parsed."""
    from .arith import as_prime, odd_primes

    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad range {text!r}") from None
        ks = odd_primes(lo, hi)
    else:
        try:
            ks = [int(s) for s in text.split(",")]
        except ValueError:
            raise UsageError(f"bad list {text!r}") from None
    try:
        ks = [as_prime(k) for k in ks]
    except So3InvError as e:
        raise UsageError(str(e)) from None
    if not ks:
        raise UsageError(f"empty after filtering: {text!r}")
    return tuple(sorted(set(ks)))


def _from_schema(obj) -> object:
    from .nt import Lens, P1Surgery, SeifertData

    try:
        kind = obj["type"]
        if kind == "lens":
            return Lens(obj["p"], obj["q"])
        if kind == "seifert":
            return SeifertData(obj["fractions"])
        if kind == "p1":
            return P1Surgery(obj["jones"], obj["framings"])
    except (KeyError, TypeError, ValueError, So3InvError) as e:
        raise UsageError(f"bad manifold object {obj!r}: {e}") from None
    raise UsageError(f"unknown manifold type {obj!r}")


def gather_manifolds(args) -> list:
    """The manifolds named by the flags; an invalid one is a UsageError."""
    from .nt import Lens

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
        import json

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


def pool_size(requested: int, n_tasks: int, cpus) -> int:
    """Worker processes to start: never more than CPUs or tasks."""
    return max(1, min(requested, cpus or 1, n_tasks))


def _pool(fn, tasks, workers):
    from .nt import manifold_label

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
        import json

        text = json.dumps([dict(zip(columns, r)) for r in rows], indent=2)
    else:
        lines = ["\t".join(columns)]
        lines.extend("\t".join(str(v) for v in r) for r in rows)
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"--out {args.out}: {e}") from None
    else:
        print(text)


def _collect(jobs, columns, args):
    """Run each (task function, tasks) pair through `_pool`; every task
    returns (rows, stderr lines, status).  Emit all rows, then print the
    stderr lines in task order.  Returns the rows and the worst status."""
    rows, notes, status = [], [], 0
    for fn, tasks in jobs:
        for part, lines, code in _pool(fn, tasks, args.workers):
            rows.extend(part)
            notes.extend(lines)
            status = max(status, code)
    _emit(rows, columns, args)
    for line in notes:
        print(line, file=sys.stderr)
    return rows, status


# ---------------------------------------------------------------------------
# subcommands


def _invariant_task(task):
    """The row of one (manifold, K) pair, or the line naming its error."""
    from .cyclotomic import eval_complex, to_xpoly
    from .nt import manifold_label
    from .ohtsuki import closed_zprime
    from .series import shadow

    m, K, precision = task
    try:
        zp = closed_zprime(m, K)
    except So3InvError as e:
        return [], [f"computation failed for {manifold_label(m)} at "
                    f"K = {K}: {type(e).__name__}: {e}"], 3
    xp = to_xpoly(zp)
    num = eval_complex(zp, precision)
    return [(manifold_label(m), K,
             ",".join(str(c) for c in zp.coeffs),
             _poly_str(xp, "x"),
             ",".join(map(str, shadow(xp, K))),
             f"{num.real:.12e}{num.imag:+.12e}j")], [], 0


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
    columns = ("manifold", "K", "coeffs", "xpoly", "diamond", "numeric")
    return _collect([(_invariant_task, tasks)], columns, args)[1]


def _gauss_task(task):
    from .cyclotomic import gauss_sum, x_order

    _, K = task
    g = gauss_sum(1, K)
    sq = g * g
    want = (-1) ** ((K - 1) // 2) * K
    order = x_order(g)
    ok = (sq.coeffs[0] == want and not any(sq.coeffs[1:])
          and order == (K - 1) // 2)
    return [("gauss", "gauss-sum", K, "pass" if ok else "FAIL",
             f"square={sq.coeffs[0] if not any(sq.coeffs[1:]) else 'nonconst'}"
             f",x_order={order}")], [], 0 if ok else 3


def _identity_task(task):
    from .ohtsuki import verify_identity

    m, primes = task
    rows, status = [], 0
    for rep in verify_identity(m, primes):
        if rep.verdict == "equal":
            detail = ""
        elif rep.verdict == "unequal":
            detail = f"first_mismatch=x^{rep.first_mismatch}"
            status = 3
        else:
            detail = rep.error
        rows.append(("identity", rep.manifold, rep.K, rep.verdict, detail))
    return rows, [], status


def cmd_verify(args) -> int:
    manifolds = gather_manifolds(args)
    if not manifolds and not args.gauss:
        raise UsageError("nothing to verify: give manifolds or --gauss")
    jobs = [(_gauss_task, [(None, K) for K in args.primes if args.gauss]),
            (_identity_task, [(m, args.primes) for m in manifolds])]
    columns = ("kind", "manifold", "K", "verdict", "detail")
    rows, status = _collect(jobs, columns, args)
    failed = sum(r[3] in ("FAIL", "unequal") for r in rows)
    if failed:
        print(f"{failed} of {len(rows)} checks failed", file=sys.stderr)
    verified = {r[1] for r in rows if r[3] == "equal"}
    unverified = sorted({r[1] for r in rows if r[0] == "identity"} - verified)
    for label in unverified:
        print(f"nothing verified for {label}: no prime gave an equal row",
              file=sys.stderr)
    return 3 if unverified else status


def _lambda_task(task):
    """The rows of one manifold; a So3InvError that stops it leaves no
    rows, its `computation failed` line and status 3.  The closed series
    and every prime read the |H1| and Dedekind data m was built with.
    Only the closed series is bounds-checked here: `reconstruct_lambda`
    checks every value it accepts."""
    from .nt import manifold_label
    from .ohtsuki import check_bounds, closed_lambda_series, reconstruct_lambda

    m, nmax, primes = task
    label, notes, rows, status = manifold_label(m), [], [], 0
    try:
        lam = closed_lambda_series(m, nmax)
        rec = reconstruct_lambda(m, primes, nmax) if primes else None
    except So3InvError as e:
        return [], [f"computation failed: {type(e).__name__}: {e}"], 3
    for n in range(nmax + 1):
        try:
            check_bounds(label, n, m.h1, lam[n])
            bounds = "ok"
        except So3InvError as e:
            bounds = f"violated: {e}"
            status = 3
        rows.append((label, n, str(lam[n]), "closed-form", "", bounds))
    if primes:
        notes.extend(f"{label}: reconstruction skipped K = {K}: {why}"
                     for K, why in rec.skipped)
        if rec.values != lam.coeffs:
            notes.append(f"cross-path mismatch for {label}")
            status = 3
        rows.extend((label, n, str(v), "reconstruction", M, "ok")
                    for n, (v, M) in enumerate(zip(rec.values, rec.moduli)))
    return rows, notes, status


def cmd_lambda(args) -> int:
    manifolds = gather_manifolds(args)
    if not manifolds:
        raise UsageError("no manifolds given")
    if args.nmax < 0:
        raise UsageError(f"--nmax: need at least 0, got {args.nmax}")
    primes = args.primes if args.reconstruct else None
    tasks = [(m, args.nmax, primes) for m in manifolds]
    columns = ("manifold", "n", "value", "provenance", "modulus", "bounds")
    return _collect([(_lambda_task, tasks)], columns, args)[1]


# ---------------------------------------------------------------------------
# wiring


def _add_manifold_flags(sp):
    sp.add_argument("--lens", action="append", metavar="P,Q",
                    help="lens space by surgery fraction (repeatable)")
    sp.add_argument("--seifert", action="append", metavar="P/Q,P/Q,...",
                    help="star-shaped manifold by fiber fractions")
    sp.add_argument("--p1", action="append", metavar="TABLE:F1,F2,...",
                    help="integer-framed surgery; TABLE is unknot or unlink")
    sp.add_argument("--manifolds", metavar="FILE",
                    help="JSON file with a list of manifold objects")


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sp.add_argument("--out", metavar="PATH", help="write report to a file")
    sp.add_argument("--workers", type=int, default=1,
                    help="process count (default: 1)")


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
        for flag in ("k", "primes"):
            text = getattr(args, flag, None)
            if isinstance(text, str):
                try:
                    setattr(args, flag, parse_primes(text))
                except UsageError as e:
                    raise UsageError(f"--{flag}: {e}") from None
        status = args.func(args)
        sys.stdout.flush()
        return status
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except So3InvError as e:
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early; with stdout on os.devnull the
        # interpreter's last flush is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())

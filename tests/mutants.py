"""Mutation check: every exactness guard must have a test that fails
without it.

Each entry of MUTANTS is (name, file, snippet, replacement).  The
snippet must occur exactly once in its file at the start of a line,
indentation included, so a refactor that moves a guard, or nests it
deeper, has to update this list on purpose.  For each entry the tree's
`src`, `tests` and `pyproject.toml` are copied to a temporary
directory, the replacement is applied, and tier-1 runs there with
`-x`, less the test that runs `check_snippets` (it fails on every
mutated copy, whose snippet is gone).  The mutant is killed only when
a test fails: pytest exits 1 and its first failure is a FAILED line.
A timeout, an ERROR line (a collection or setup error, such as a
SyntaxError from a mistyped replacement) or any other exit status is
an error of the check, not a kill.  The unmutated copy is run first
and must pass.

Exit status 0 when every mutant is killed; 1 when a snippet does not
start exactly one line, the unmutated tree fails, a mutant survives or
a run ends in an error.  pytest does not collect this file.  Run from
anywhere:

  python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/so3inv, exact snippet, replacement)
MUTANTS = [
    ("divide_exact remainder", "cyclotomic.py",
     "    if any(c % n for c in a.coeffs):\n",
     "    if False:\n"),
    ("eval_complex noise rule", "cyclotomic.py",
     "    return complex(*(s / (1 << B) if abs(s) * 10 ** (precision - 1)"
     " > noise\n",
     "    return complex(*(s / (1 << B) if abs(s) * 10 ** (precision - 1)"
     " > 0\n"),
    ("from_runs run length", "cyclotomic.py",
     "        if not 0 <= m <= K:\n",
     "        if False:\n"),
    ("vee DenominatorDivisibleByK", "series.py",
     "    if den % K == 0:\n",
     "    if False:\n"),
    ("vee whole-series guard", "series.py",
     "    if den % K == 0:  # the whole series' guard",
     "    if False:  # the whole series' guard"),
    ("seifert_cn remainder", "closedform.py",
     "        if any(g[-2:]):\n",
     "        if False:\n"),
    ("phase reduction sign", "closedform.py",
     "        return (n // 4 + K) // 2 % K, -sgn\n",
     "        return (n // 4 + K) // 2 % K, sgn\n"),
    ("PhaseNotReducible", "closedform.py",
     "    raise PhaseNotReducible(\n",
     "    return n // 8 % K, sgn\n    raise PhaseNotReducible(\n"),
    ("diamond check", "closedform.py",
     "    if (e, s * legendre(abs(S.H), K) * sign(S.H)) != "
     "(rat_residue(r, K), 1):\n",
     "    if False:\n"),
    ("lens lambda_0 check", "closedform.py",
     "    if values[0] != 1:\n",
     "    if False:\n"),
    ("Seifert lambda_0 check", "closedform.py",
     "    if ser.coeff(0) != 1:\n",
     "    if False:\n"),
    ("H1 gate", "nt.py",
     "    if h1 % K == 0:\n",
     "    if False:\n"),
    ("oracle -1 count", "surgery.py",
     "    negative = (legendre(prod(q for (p, q) in surg), K) < 0)"
     " + len(surg)\n",
     "    negative = (legendre(prod(q for (p, q) in surg), K) < 0)"
     " + len(surg) + 1\n"),
    ("held-out primes", "ohtsuki.py",
     "            if len(batch) == 2 and all(",
     "            if len(batch) == 2 or all("),
    ("reconstruction safety margin", "ohtsuki.py",
     "_SAFETY = 16 ",
     "_SAFETY = 1 "),
    ("check_bounds integrality bound", "ohtsuki.py",
     "    if (value * big * h1 ** n).denominator != 1:\n",
     "    if False:\n"),
    ("check_bounds prime bound", "ohtsuki.py",
     "        if p > max(2 * n, 1):\n",
     "        if p > max(2 * n + 1, 1):\n"),
    ("trial division bound", "arith.py",
     "    while d * d <= n:\n",
     "    while d * d < n:\n"),
    ("verify exits 3 on an unequal row", "cli.py",
     "    return 3 if failed or unverified else 0\n",
     "    return 3 if unverified else 0\n"),
    ("lambda exits 3 on a cross-path mismatch", "cli.py",
     '            notes.append(f"cross-path mismatch for {label}")\n'
     "            status = 3\n",
     '            notes.append(f"cross-path mismatch for {label}")\n'
     "            status = 0\n"),
    ("lambda exits 3 on a bounds violation", "cli.py",
     '                bounds = f"violated: {e}"\n'
     "                status = 3\n",
     '                bounds = f"violated: {e}"\n'
     "                status = 0\n"),
]

TIMEOUT_S = 900
SNIPPET_TEST = ("tests/test_mutants.py::"
                "test_every_snippet_starts_exactly_one_line")


def _lines(path: Path) -> str:
    """The file's text after a newline: a snippet found after a newline
    in it starts a line."""
    return "\n" + path.read_text()


def check_snippets() -> list:
    """The entries whose snippet does not start exactly one line."""
    bad = []
    for name, fname, snippet, _ in MUTANTS:
        n = _lines(ROOT / "src" / "so3inv" / fname).count("\n" + snippet)
        if n != 1:
            bad.append(f"{name}: snippet found {n} times in {fname}")
    return bad


def run_tier1(mutant=None):
    """(pytest exit status or None on a timeout, first failure or
    timeout note, seconds) of tier-1 on a fresh copy of the tree, with
    `mutant` applied."""
    with tempfile.TemporaryDirectory(prefix="so3inv-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            _, fname, snippet, replacement = mutant
            path = tmp / "src" / "so3inv" / fname
            path.write_text(_lines(path).replace(
                "\n" + snippet, "\n" + replacement)[1:])
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        try:
            # the snippet test fails on every mutated copy, whose
            # snippet is gone, so it would kill every mutant
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--deselect", SNIPPET_TEST,
                 "tests"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timeout after {TIMEOUT_S} s", TIMEOUT_S
        dt = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    note = failed[0] if failed else (lines[-1] if lines else "")
    return proc.returncode, note, dt


def verdict(status, note) -> str:
    """SURVIVED, killed (a test failed) or ERROR, from run_tier1."""
    if status == 0:
        return "SURVIVED"
    if status == 1 and note.startswith("FAILED "):
        return "killed"
    return "ERROR"


def main() -> int:
    bad = check_snippets()
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    status, note, dt = run_tier1()
    print(f"unmutated\t{'pass' if status == 0 else 'FAIL'}\t{dt:.1f}s"
          f"\t{note}", flush=True)
    if status != 0:
        return 1
    failures = []
    for m in MUTANTS:
        status, note, dt = run_tier1(m)
        v = verdict(status, note)
        print(f"{m[0]}\t{v}\t{dt:.1f}s\t{note}", flush=True)
        if v != "killed":
            failures.append(f"{m[0]} ({v})")
    if failures:
        print(f"{len(failures)} of {len(MUTANTS)} mutants not killed: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

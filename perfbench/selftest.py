"""Self-test of the benchmark itself; exits 0 when every check holds.

  python3 perfbench/selftest.py

1. Each workload runs once at its quick size, as run.py runs it, and
   its outputs pass the checks: nothing wrong, and nothing failed except
   a known defect.
2. A small lens sweep reports the same checked columns with --workers 1
   and --workers 2 (a correctness check, not a timed one).
3. The checker flags corrupted parsed rows as failed or wrong items and
   the run as not correct, also when the exit code is 3 as so3inv's is
   after printing a wrong row.  Corruption is applied to the checker's
   input, never to the program.
4. BENCHMARK.json names exactly the workloads and metrics run.py makes.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import run
import workloads
from tracer import metric_units

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def outcomes_of(wl, extra_args=()):
    out = []
    for op in wl.ops:
        cmd, stdin = run.op_command(op)
        code, stdout, stderr, _ = run.run_child(cmd + list(extra_args),
                                                stdin)
        out.append(checks.Outcome(op, code, checks.parse_tsv(stdout), stderr))
    return out


def corrupt(name, outcomes):
    """(description, verdict, corrupted outcomes) for one workload.

    The verdict is what the checker must call the corrupted item: "fail"
    for a missing or skipped result or an unexplained exit code, "wrong"
    for a changed value.
    """
    def first(bad, pred):
        return next((out, row) for out in bad for row in out.rows
                    if pred(row))

    def drop(bad):
        out, row = first(bad, lambda r: True)
        out.rows.remove(row)

    def bump_coeff(bad):
        row = first(bad, lambda r: True)[1]
        head, _, tail = row["coeffs"].partition(",")
        row["coeffs"] = f"{int(head) + 1},{tail}"

    def change(pred, code=0, **fields):
        """Set `fields` of the first row matching `pred` and its op's code."""
        def edit(bad):
            out, row = first(bad, pred)
            row.update(fields)
            out.code = code
        return edit

    def exit3(bad):
        bad[0].code = 3

    def is_equal(row):
        return row["verdict"] == "equal"

    def is_rec(row):
        return (row["provenance"], row["n"]) == ("reconstruction", "1")

    cases = {
        "lens-sweep": [
            ("an unequal verdict", "wrong",
             change(is_equal, verdict="unequal")),
            ("an unequal verdict with exit 3", "wrong",
             change(is_equal, 3, verdict="unequal")),
            ("an unexpected skip", "fail",
             change(is_equal, verdict="skipped"))],
        "seifert-highK": [("a changed coefficient", "wrong", bump_coeff)],
        "reconstruct": [
            ("a changed reconstructed value", "wrong",
             change(is_rec, value="12345/7")),
            ("a changed reconstructed value with exit 3", "wrong",
             change(is_rec, 3, value="12345/7")),
            ("a bounds violation with exit 3", "wrong",
             change(is_rec, 3, bounds="violated: out of range")),
            ("exit 3 with every row checking", "fail", exit3)],
        "oracle-crosscheck": [
            ("an oracle difference of 1e-3", "wrong",
             change(lambda r: r["status"] == "ok", diff="0.001")),
            ("an unrecorded skip", "fail",
             change(lambda r: r["status"] == "ok", status="skipped",
                    diff="ChainDegenerate"))],
    }[name] + [("a dropped row", "fail", drop)]
    for what, verdict, edit in cases:
        bad = copy.deepcopy(outcomes)
        edit(bad)
        yield what, verdict, bad


def main() -> int:
    expected = checks.load_expected()
    for name in workloads.BUILDERS:
        wl = workloads.build(name, workloads.DEFAULT_SEED, quick=True)
        outcomes = outcomes_of(wl)
        tally = checks.check(wl, outcomes, expected)
        expect(tally.correct,
               f"{name}: quick run passes its checks "
               f"({tally.attempted} items, {tally.failed} failed: "
               f"{tally.notes})")
        for what, verdict, bad in corrupt(name, outcomes):
            t = checks.check(wl, bad, expected)
            wrong = t.wrong - tally.wrong
            expect(t.failed == tally.failed + 1
                   and wrong == (verdict == "wrong") and not t.correct,
                   f"{name}: the checker calls {what} {verdict}")

    wl = workloads.build("lens-sweep", workloads.DEFAULT_SEED, quick=True)
    cols = ("kind", "manifold", "K", "verdict", "detail")
    one, two = (
        [[tuple(r[c] for c in cols) for r in o.rows]
         for o in outcomes_of(wl, ["--workers", str(n)])] for n in (1, 2))
    expect(one == two and one[0],
           f"lens-sweep: --workers 1 and 2 agree on {len(one[0])} rows")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]]
           == list(workloads.BUILDERS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS,
           "BENCHMARK.json end_to_end metrics")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == metric_units(), "BENCHMARK.json per_layer metrics")

    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

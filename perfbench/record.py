"""Record the reference values checks.py needs into expected.json.

Covers every input any seed can pick, so the file is written once from
a trusted program version, never during a timed run:

  seifert-highK      sha256 of the exact Z' coefficients of every pool
                     manifold at every prime of the range
  reconstruct        the reconstructed lambda values of the P1 pool
                     members (no closed form exists for them)
  oracle-crosscheck  the cases whose surgery chain degenerates, which
                     the oracle may therefore skip

It refuses to record if a pool member fails: an oracle case off by
1e-9 or more, a skipped case other than a degenerate chain, or a
reconstruction that fails or disagrees with its closed form (except
L(12,5), the known defect that the reconstruct workload measures).

  PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import warnings

import checks
import oracle
import workloads as W
from so3inv.cli import parse_lens, parse_p1, parse_seifert
from so3inv.nt import SeifertData
from so3inv.ohtsuki import (closed_lambda_series, closed_zprime,
                            manifold_label, reconstruct_lambda)

def seifert_digests() -> dict:
    out = {}
    for fr in sorted({fr for pool in W.SEIFERT_POOLS for fr in pool}):
        S = SeifertData(fr)
        out[manifold_label(S)] = {
            str(K): checks.coeffs_digest(
                ",".join(map(str, closed_zprime(S, K).coeffs)))
            for K in W.primes_in(*W.SEIFERT_K)}
    return out


def reconstruct_values() -> dict:
    parse = {"lens": parse_lens, "seifert": parse_seifert, "p1": parse_p1}
    primes = W.primes_in(*map(int, W.RECONSTRUCT_PRIMES.split("..")))
    out = {}
    for slot in W.RECONSTRUCT_SLOTS:
        for flag, spec, nmax in slot:
            m = parse[flag](spec)
            label = manifold_label(m)
            if label in checks.KNOWN_DEFECTS:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = reconstruct_lambda(m, primes, nmax)
            if flag == "p1":
                out[label] = [str(v) for v in rec.values]
            elif list(rec.values) != [closed_lambda_series(m, nmax)[n]
                                      for n in range(nmax + 1)]:
                sys.exit(f"{label}: reconstruction differs from closed form")
    return out


def degenerate_cases() -> list:
    cases = W.oracle_cases(W.ORACLE_SEIFERT_POOL, W.ORACLE_P1_POOL)
    rows = checks.parse_tsv(oracle.crosscheck(cases))
    out = []
    for row in rows:
        if row["status"] == "skipped" and row["diff"] == "ChainDegenerate":
            out.append([row["manifold"], int(row["K"])])
        elif row["status"] != "ok" or float(row["diff"]) >= checks.ORACLE_TOL:
            sys.exit(f"oracle case fails: {row}")
    return sorted(out)


def main():
    expected = {"seifert-highK": seifert_digests(),
                "reconstruct": reconstruct_values(),
                "oracle-crosscheck": {"chain_degenerate": degenerate_cases()}}
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.EXPECTED_PATH}")


if __name__ == "__main__":
    main()

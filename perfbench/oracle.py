"""oracle-crosscheck program: exact Z' against the numeric surgery oracle.

Reads a JSON list of cases from stdin, each a manifold object in the
`so3inv --manifolds` schema plus "K", and prints one TSV row per case:

  manifold  K  status  diff

status is "ok" (diff = |eval_complex(Z') - zprime_numeric|), or
"skipped"/"error" with the exception class in diff.  Only the public
library API is used.  Run from the repository root:

  PYTHONPATH=src python3 perfbench/oracle.py < cases.json
"""

from __future__ import annotations

import json
import sys

from so3inv.cyclotomic import eval_complex
from so3inv.errors import ChainDegenerate, So3InvError
from so3inv.nt import SeifertData
from so3inv.ohtsuki import closed_zprime, manifold_label
from so3inv.surgery import Lens, P1Surgery, zprime_numeric


def manifold(case: dict):
    if case["type"] == "lens":
        return Lens(case["p"], case["q"])
    if case["type"] == "seifert":
        return SeifertData([tuple(f) for f in case["fractions"]])
    return P1Surgery(case["jones"], tuple(case["framings"]))


def crosscheck(cases) -> str:
    lines = ["manifold\tK\tstatus\tdiff"]
    for case in cases:
        m, K = manifold(case), case["K"]
        try:
            exact = eval_complex(closed_zprime(m, K))
            row = ("ok", repr(abs(exact - zprime_numeric(m, K))))
        except ChainDegenerate:
            row = ("skipped", "ChainDegenerate")
        except So3InvError as e:
            row = ("error", type(e).__name__)
        lines.append("\t".join((manifold_label(m), str(K)) + row))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(crosscheck(json.load(sys.stdin)))

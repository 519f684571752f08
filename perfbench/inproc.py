"""One workload iteration inside a single interpreter, traced or not.

CLI operations call `so3inv.cli.main(argv)` with stdout and stderr
captured; oracle operations call crosscheck() in oracle.py.  With
`--trace 1` the tracer is installed first.  Prints one JSON object:
wall time, the check tally and, when traced, the per-layer metrics.
run.py starts this in a fresh process for each traced or untraced
iteration, so no cache or wrapper outlives it.

  PYTHONPATH=src python3 perfbench/inproc.py --workload lens-sweep \
      --seed 0 --trace 1 [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
from time import perf_counter

import checks
import oracle
import so3inv.cli as cli
import workloads
from tracer import Tracer


def run_op(op):
    if op.kind == "oracle":
        rows = checks.parse_tsv(oracle.crosscheck(op.args))
        return checks.Outcome(op, 0, rows)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.args))
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return checks.Outcome(op, code, checks.parse_tsv(out.getvalue()),
                          err.getvalue())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write stats and spans here (traced)")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    tracer = None
    call = run_op
    if args.trace:
        tracer = Tracer()
        tracer.install(extra_modules=[oracle])
        root = tracer.span("bench.op")

        def call(op):
            return root(run_op, op)
    t0 = perf_counter()
    outcomes = [call(op) for op in wl.ops]
    wall = perf_counter() - t0
    tally = checks.check(wl, outcomes, checks.load_expected())
    result = {"wall_s": wall, "tally": dataclasses.asdict(tally)}
    if tracer is not None:
        result["metrics"] = tracer.metrics(wall)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans, {"workload": wl.name, "seed": wl.seed,
                                     "wall_s": wall})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

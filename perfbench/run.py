"""so3inv benchmark: four workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, so
nothing needs installing.  Workloads (see workloads.py for sizes and
pools, BENCHMARK.json for why each exists):

  lens-sweep         so3inv verify --family lens          (series layer)
  seifert-highK      so3inv invariant --seifert ... K>100 (cyclotomic)
  reconstruct        so3inv lambda --reconstruct, 6 runs  (ohtsuki)
  oracle-crosscheck  exact Z' vs the mpmath oracle        (surgery)

--trace 0 runs each operation the way a user does, in a fresh
`python -m so3inv.cli` process (the oracle workload as a fresh
`python perfbench/oracle.py` process), repeats whole workload
iterations for about --seconds and reports the end-to-end metrics:

  wall_rel       wall time of one workload iteration, in units of the
                 wall time of reference.py (total over total in the run)
  items_per_ref  checked items per iteration per reference time
                 (items / wall_rel)
  cpu_rel        user+system CPU of the iteration's child processes, in
                 units of reference.py's CPU time (total over total)
  peak_rss_mb    largest maximum resident set of any workload operation's
                 process (os.wait4 of that process alone)
  setup_s        time of `python -m so3inv.cli --help` (interpreter start,
                 imports and argument parsing) in units of the wall time
                 of reference.py (total over total), times REFERENCE_S:
                 seconds on a machine where reference.py takes REFERENCE_S
  pass_ratio     items that passed their check / items attempted

Times are ratios to reference.py, a fixed program started before and
after every iteration, because the machine's speed drifts by 10-30%
from one minute to the next; the ratio cancels most of the drift but
none of a change to so3inv.  The medians in seconds (wall_s,
items_per_s, cpu_s, setup_s) and fail_ratio are printed above the JSON
line.  The run is correct when no output is wrong and every failed item
is a known defect (checks.KNOWN_DEFECTS).

--trace 1 alternates untraced and traced in-process iterations
(inproc.py, each in a fresh process) and reports the per-layer metrics
of tracer.py plus the tracing overhead; the spans of the last traced
iteration go to .perfbench_out/.  Both modes check every output
(checks.py) and print, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  Every run is a closed loop with
one client: one process at a time, `--workers 1`, SO3INV_WORKERS unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from time import perf_counter

import checks
import workloads
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_ITERATIONS = 3
SETUP_COMMAND = [sys.executable, "-m", "so3inv.cli", "--help"]
REFERENCE_COMMAND = [sys.executable, os.path.join(HERE, "reference.py")]
# setup_s is reported in seconds of a machine on which reference.py
# takes this long (about its median on the machine this was tuned on)
REFERENCE_S = 0.25
CHILD_TIMEOUT_S = 170

UNITS = {"wall_rel": "ratio", "items_per_ref": "1/ref", "cpu_rel": "ratio",
         "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "ratio"}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SO3INV_WORKERS", None)
    return env


def run_child(cmd, stdin=None, check=False):
    """(exit code, stdout, stderr, rusage) of one child process.

    The child is reaped with os.wait4, so the rusage (CPU time, peak
    resident set) is its own and no other child's.  Its input and output
    pass through unlinked files under .perfbench_out/, so no pipe fills
    up while it runs.  With `check`, a nonzero exit raises.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as fin, \
            tempfile.TemporaryFile("w+", dir=OUT_DIR) as fout, \
            tempfile.TemporaryFile("w+", dir=OUT_DIR) as ferr:
        fin.write(stdin or "")
        fin.seek(0)
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        out, err = fout.read(), ferr.read()
    if check and code:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}: {err}")
    return code, out, err, usage


def op_command(op):
    if op.kind == "oracle":
        return ([sys.executable, os.path.join(HERE, "oracle.py")],
                json.dumps(op.args))
    return [sys.executable, "-m", "so3inv.cli", *op.args], None


def cpu_of(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_child(cmd):
    """(wall s, CPU s) of one child process that must exit 0."""
    t0 = perf_counter()
    usage = run_child(cmd, check=True)[3]
    return perf_counter() - t0, cpu_of(usage)


def keep_going(start, durations, seconds, minimum) -> bool:
    if len(durations) < minimum:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(wl, seconds, expected):
    """Whole iterations for about `seconds`.

    Each iteration follows a setup sample and sits between two reference
    samples.  Returns the tally, the end-to-end metrics, the medians in
    seconds as measured, and the iteration wall times.
    """
    commands = [op_command(op) for op in wl.ops]
    timed_child(SETUP_COMMAND)  # warms the bytecode and file caches
    setups, refs, walls, cpus, tally = [], [], [], [], checks.Tally()
    start, loops, rss_kb = perf_counter(), [], 0
    while keep_going(start, loops, seconds, MIN_ITERATIONS):
        loop_start = perf_counter()
        setups.append(timed_child(SETUP_COMMAND)[0])
        refs.append(timed_child(REFERENCE_COMMAND))
        t0 = perf_counter()
        results = [run_child(cmd, stdin) for cmd, stdin in commands]
        walls.append(perf_counter() - t0)
        cpus.append(sum(cpu_of(usage) for *_, usage in results))
        rss_kb = max([rss_kb] + [usage.ru_maxrss for *_, usage in results])
        refs.append(timed_child(REFERENCE_COMMAND))
        outcomes = [checks.Outcome(op, code, checks.parse_tsv(out), err)
                    for op, (code, out, err, _) in zip(wl.ops, results)]
        tally.merge(checks.check(wl, outcomes, expected))
        loops.append(perf_counter() - loop_start)
    # Ratios of totals: the reference samples bracket every iteration, so
    # both totals cover the same stretch of time and a slow spell of the
    # machine weighs the same in each.  On the 2-vCPU x86 host this was
    # tuned on, it narrowed the seed-to-seed IQR/median of wall_rel from
    # 9.5% to 4.0% (lens-sweep) and 12.4% to 5.2% (oracle-crosscheck)
    # against a ratio of medians.
    ref_wall = statistics.fmean(w for w, _ in refs)
    wall_rel = statistics.fmean(walls) / ref_wall
    passed = tally.attempted - tally.failed
    metrics = {"wall_rel": wall_rel,
               "items_per_ref": wl.items / wall_rel,
               "cpu_rel": statistics.fmean(cpus)
               / statistics.fmean(c for _, c in refs),
               "peak_rss_mb": rss_kb / 1024,
               "setup_s": statistics.fmean(setups) / ref_wall * REFERENCE_S,
               "pass_ratio": passed / tally.attempted}
    wall = statistics.median(walls)
    measured = {"wall_s": (wall, "s"),
                "items_per_s": (wl.items / wall, "1/s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "reference_s": (statistics.median(w for w, _ in refs), "s"),
                "fail_ratio": (tally.failed / tally.attempted, "ratio")}
    return tally, metrics, measured, walls


def run_traced(wl, seconds):
    """Untraced and traced in-process iterations, in turn, for `seconds`."""
    base = [sys.executable, os.path.join(HERE, "inproc.py"),
            "--workload", wl.name, "--seed", str(wl.seed), "--trace"]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{wl.seed}.json")
    plain, traced, pairs, tally = [], [], [], checks.Tally()
    start = perf_counter()
    while keep_going(start, pairs, seconds, 1):
        t0 = perf_counter()
        pair = [(base + ["0"], plain),
                (base + ["1", "--spans", spans], traced)]
        if len(pairs) % 2:  # alternate which side runs first
            pair.reverse()
        for cmd, runs in pair:
            out = run_child(cmd, check=True)[1]
            res = json.loads(out.strip().splitlines()[-1])
            runs.append(res)
            tally.merge(checks.Tally(**res["tally"]))
        pairs.append(perf_counter() - t0)
    # counts repeat exactly from run to run; times are medians
    units = metric_units()
    metrics = {name: (traced[-1]["metrics"][name] if units[name] == "count"
                      else statistics.median(r["metrics"][name]
                                             for r in traced))
               for name in traced[0]["metrics"]}
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics.update({"trace.untraced_wall_s": untraced_wall,
                    "trace.traced_wall_s": traced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall,
                    "trace.spans": traced[-1]["spans"]})
    return tally, metrics, {}, pairs


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "mpmath": metadata.version("mpmath"),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "so3inv", "cli.py")):
        print(f"so3inv sources not found under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        tally, metrics, measured, times = run_traced(wl, args.seconds)
        units = metric_units()
    else:
        tally, metrics, measured, times = run_untraced(
            wl, args.seconds, checks.load_expected())
        units = UNITS
    env = environment()
    print(f"workload {wl.name} seed {wl.seed}: {wl.items} items x "
          f"{len(times)} {'traced pairs' if args.trace else 'iterations'}; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if len(times) > 1:
        q1, q2, q3 = statistics.quantiles(times, n=4)
        print(f"  {'per-iteration s (min q1 median q3 max)':46s} "
              f"{min(times):.4g} {q1:.4g} {q2:.4g} {q3:.4g} {max(times):.4g}")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    if measured:
        print("  as measured:")
    for name, (value, unit) in measured.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    for note in sorted(set(tally.notes)):
        defect = [f" (known defect: {label} {why})"
                  for label, why in checks.KNOWN_DEFECTS.items()
                  if f"'{label}'" in note]
        print(f"  {note}{''.join(defect)}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing installed from outside the program.

`Tracer.install()` wraps the public functions of every so3inv module
(only `main` in `cli`) and a few methods, then rebinds every name that
refers to an original, in every so3inv module and in any extra module
given: `from .series import q_power` in closedform, the `diamond`
bound at import by ohtsuki and cli, and the names closed_zprime
re-imports from closedform on each call all see the wrappers.  Methods
are patched on their class.  Nothing in the program changes.

Each wrapped function keeps a call count, its inclusive time
(`total_s`, outermost calls only, so recursion is not counted twice)
and its self time (`self_s`: inclusive time minus the time of wrapped
callees).  Hot entry points keep only these aggregates; every other
call also records a span (id, parent id, name, start, end), kept in
memory and written out at the end.  `mpmath.expjpi` is only counted,
and only while the numeric oracle is running, so its time stays in the
oracle's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("arith", "series", "cyclotomic", "nt", "jones", "surgery",
          "closedform", "ohtsuki", "cli")

# method wrappers: (layer, class) -> {attribute: metric name}
METHODS = {
    ("cyclotomic", "CycInt"): {"__init__": "new", "__add__": "add",
                               "__radd__": "add", "__mul__": "mul",
                               "__rmul__": "mul", "galois": "galois"},
    ("series", "RatSeries"): {"__mul__": "mul", "__rmul__": "mul",
                              "compose": "compose"},
    ("jones", "JonesTable"): {"exact": "exact"},
}

# aggregates only, no span per call
HOT = {"cyclotomic.CycInt.new", "cyclotomic.CycInt.add",
       "cyclotomic.CycInt.mul", "cyclotomic.qpow", "series.RatSeries.mul",
       "arith.as_prime"}

SPAN_CAP = 200_000

# the per-layer metrics the benchmark reports, in BENCHMARK.json order
_TIMED = {
    "series": [("RatSeries.mul", "calls self_s"),
               ("RatSeries.compose", "calls total_s"),
               ("s_div", "total_s"), ("s_exp", "total_s"),
               ("sinh_ratio", "calls total_s"), ("vee", "calls total_s")],
    "closedform": [("lens_lambda_series", "calls total_s"),
                   ("seifert_lambda_series", "calls total_s"),
                   ("lens_zprime", "calls total_s"),
                   ("seifert_zprime", "calls self_s total_s"),
                   ("seifert_cn", "total_s")],
    "cyclotomic": [("CycInt.new", "calls"), ("CycInt.add", "calls self_s"),
                   ("CycInt.mul", "calls self_s"), ("CycInt.galois", "calls"),
                   ("qpow", "calls"), ("sine_quotient", "calls total_s"),
                   ("to_xpoly", "calls total_s"), ("diamond", "calls total_s"),
                   ("eval_complex", "calls total_s"), ("unit_u", "calls")],
    "arith": [("as_prime", "calls")],
    "ohtsuki": [("verify_identity", "calls self_s"),
                ("closed_lambda_series", "calls total_s"),
                ("diamond_side", "calls total_s"),
                ("reconstruct_lambda", "calls self_s total_s")],
    "surgery": [("zprime_numeric", "calls total_s"),
                ("exact_p1", "calls total_s")],
    "jones": [("JonesTable.exact", "calls total_s")],
    "nt": [("dedekind_sum", "calls total_s")],
    "cli": [("main", "calls self_s")],
}
_EXTRA = {"ohtsuki.closed_lambda_series.distinct_ratio": "ratio",
          "ohtsuki.reconstruct.primes_used": "count",
          "ohtsuki.reconstruct.primes_skipped": "count",
          "surgery.oracle.expjpi_calls": "count"}


def metric_units() -> dict:
    """{per-layer metric name: unit}, in report order."""
    units = {}
    for layer, entries in _TIMED.items():
        for fn, fields in entries:
            for f in fields.split():
                units[f"{layer}.{fn}.{f}"] = "count" if f == "calls" else "s"
    units.update(_EXTRA)
    for layer in LAYERS + ("other",):
        units[f"layer.{layer}.self_share"] = "ratio"
    units.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class Stat:
    __slots__ = ("calls", "total", "self_", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self._child = [0.0]   # callee time accumulated per open call
        self._open = [0]      # ids of open spans; 0 is the root
        self._next_id = 1
        self.lambda_args = set()
        self.primes_used = 0
        self.primes_skipped = 0
        self.expjpi_calls = 0

    # -- wrappers -----------------------------------------------------

    def wrap(self, name, fn, after=None):
        st = self.stats.setdefault(name, Stat())
        child = self._child
        clock = perf_counter
        if name in HOT:
            def wrapper(*args, **kw):
                st.depth += 1
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kw)
                finally:
                    dt = clock() - t0
                    st.calls += 1
                    st.self_ += dt - child.pop()
                    st.depth -= 1
                    if not st.depth:
                        st.total += dt
                    child[-1] += dt
        else:
            spans, opened = self.spans, self._open

            def wrapper(*args, **kw):
                sid = self._next_id
                self._next_id += 1
                parent = opened[-1]
                opened.append(sid)
                st.depth += 1
                child.append(0.0)
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kw)
                    return result
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    st.calls += 1
                    st.self_ += dt - child.pop()
                    st.depth -= 1
                    if not st.depth:
                        st.total += dt
                    child[-1] += dt
                    opened.pop()
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent, name, t0, t1))
                    else:
                        self.dropped += 1
                    if after is not None:
                        after(args, result)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name):
        """A span around harness code (one per operation)."""
        return self.wrap(name, lambda f, *a: f(*a))

    def install(self, extra_modules=()):
        import mpmath

        mods = {layer: importlib.import_module(f"so3inv.{layer}")
                for layer in LAYERS}
        swap, hooks = {}, self._hooks()
        for layer, mod in mods.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if (fn.__module__ != mod.__name__ or attr.startswith("_")
                        or layer == "cli" and attr != "main"):
                    continue
                swap[fn] = self.wrap(f"{layer}.{attr}", fn,
                                     hooks.get(f"{layer}.{attr}"))
        for (layer, cls_name), attrs in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            made = {}
            for attr, metric in attrs.items():
                fn = cls.__dict__[attr]
                if fn not in made:
                    made[fn] = self.wrap(f"{layer}.{cls_name}.{metric}", fn)
                setattr(cls, attr, made[fn])
        targets = [m for n, m in list(sys.modules.items())
                   if n == "so3inv" or n.startswith("so3inv.")]
        for mod in targets + list(extra_modules):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in swap:
                    setattr(mod, attr, swap[val])

        oracle = self.stats["surgery.zprime_numeric"]
        expjpi = mpmath.expjpi

        def counted_expjpi(*args, **kw):
            if oracle.depth:
                self.expjpi_calls += 1
            return expjpi(*args, **kw)

        mpmath.expjpi = counted_expjpi

    def _hooks(self):
        def lambda_arg(args, result):
            self.lambda_args.add(args[0])

        def primes(args, result):
            if result is not None:
                self.primes_used += len(result.primes_used)
                self.primes_skipped += len(result.skipped)

        return {"ohtsuki.closed_lambda_series": lambda_arg,
                "ohtsuki.reconstruct_lambda": primes}

    # -- results ------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric except the trace.* ones."""
        out = {}
        for name, unit in metric_units().items():
            if name.startswith(("trace.", "layer.")) or name in _EXTRA:
                continue
            fn, _, field = name.rpartition(".")
            st = self.stats.get(fn, Stat())
            out[name] = {"calls": st.calls, "total_s": st.total,
                         "self_s": st.self_}[field]
        calls = self.stats["ohtsuki.closed_lambda_series"].calls
        out["ohtsuki.closed_lambda_series.distinct_ratio"] = (
            len(self.lambda_args) / calls if calls else 0.0)
        out["ohtsuki.reconstruct.primes_used"] = self.primes_used
        out["ohtsuki.reconstruct.primes_skipped"] = self.primes_skipped
        out["surgery.oracle.expjpi_calls"] = self.expjpi_calls
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            layer = name.split(".")[0]
            if layer in by_layer:
                by_layer[layer] += st.self_
        for layer, self_s in by_layer.items():
            out[f"layer.{layer}.self_share"] = self_s / wall_s
        out["layer.other.self_share"] = 1 - sum(by_layer.values()) / wall_s
        return out

    def dump(self, path: str, meta: dict):
        stats = {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_}
                 for n, s in sorted(self.stats.items()) if s.calls}
        with open(path, "w") as fh:
            json.dump({"meta": meta, "stats": stats,
                       "dropped_spans": self.dropped,
                       "span_fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)

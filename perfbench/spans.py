"""In-memory span tracer around trumpkit's public functions.

While active, every module-level binding of a traced function (in the
package namespace and in each submodule that imported it) is replaced by a
wrapper, so calls made inside the library -- ``in_Mk`` calling
``tensor_power_spectrum``, ``lift_catalyst`` calling ``tensor_power`` --
are recorded as child spans of the call that made them.  Wrapping the real
call sites, rather than replaying a fixed decomposition, keeps the trace
true when a later version stops making some sub-call.

A span is (name, start, end, parent, query id, excluded): ``excluded`` is
time the tracer spent computing counters inside the span, which is
subtracted from every duration.  A layer's time counts only its outermost
spans (``tensor`` inside ``tensor_power`` is not counted twice); a
module's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from functools import wraps
from time import perf_counter

# traced function -> layer group; time metrics are "<group>_ms"
GROUPS = {
    "make_probvec": "specvec.parse",
    "parse_vector_literal": "specvec.parse",
    "load_vector": "specvec.parse",
    "tensor": "specvec.materialize",
    "tensor_power": "specvec.materialize",
    "tensor_power_spectrum": "specvec.tensor_power_spectrum",
    "spectrum_tensor": "specvec.spectrum_tensor",
    "spectrum_of": "specvec.spectrum_of",
    "majorizes": "majorize.majorizes",
    "spectrum_majorizes": "majorize.spectrum_walk",
    "in_Mk": "mlocc.in_Mk",
    "scan_Mk": "mlocc.scan_Mk",
    "classify_usefulness": "mlocc.classify",
    "build_catalyst_thm1": "catalysis.build_thm1",
    "combine_catalysts": "catalysis.combine",
    "lift_catalyst": "catalysis.lift",
    "multicopy_catalyst_scan": "catalysis.mc_scan",
    "search_catalyst": "catalysis.search",
    "r_filter": "renyi.r_filter",
    "main": "cli.main",
}
MODULES = ("specvec", "majorize", "mlocc", "catalysis", "renyi", "cli")

# per-layer metrics: name -> unit.  Times and counts are per traced query,
# catalyst_dim is the median over returned catalysts, max_denominator_bits
# the maximum over spectra; fractions and ratios are over the calls they
# describe.
LAYER_METRICS = {
    "specvec.tensor_power_spectrum_ms": "ms",
    "specvec.compositions": "count",
    "specvec.blocks_out": "count",
    "specvec.merge_ratio": "ratio",
    "specvec.max_denominator_bits": "bits",
    "specvec.materialize_ms": "ms",
    "specvec.entries_materialized": "count",
    "specvec.spectrum_tensor_ms": "ms",
    "specvec.parse_ms": "ms",
    "majorize.spectrum_walk_ms": "ms",
    "majorize.breakpoints": "count",
    "majorize.early_exit_frac": "fraction",
    "majorize.majorizes_ms": "ms",
    "majorize.entries_walked": "count",
    "mlocc.in_Mk_ms": "ms",
    "mlocc.scan_Mk_ms": "ms",
    "mlocc.k_evaluated": "count",
    "mlocc.self_ms": "ms",
    "catalysis.build_thm1_ms": "ms",
    "catalysis.combine_ms": "ms",
    "catalysis.lift_ms": "ms",
    "catalysis.mc_scan_ms": "ms",
    "catalysis.catalyst_dim": "count",
    "catalysis.verified_frac": "fraction",
    "catalysis.search_hit_frac": "fraction",
    "renyi.r_filter_ms": "ms",
    "renyi.orders_evaluated": "count",
    "renyi.float_order_frac": "fraction",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
}


class Tracer:
    """Spans and per-layer totals of the queries run while active."""

    def __init__(self, tk):
        self.tk = tk
        self.modules = [getattr(tk, m) for m in MODULES if hasattr(tk, m)]
        self.originals = {}
        for home in self.modules:
            for name in GROUPS:
                fn = getattr(home, name, None)
                if callable(fn) and getattr(fn, "__module__", "") == \
                        home.__name__:
                    self.originals[fn] = self._wrap(name, fn)
        self.patched = []
        self.spans = []
        self.stack = []
        self.depth = defaultdict(int)
        self.excluded = 0.0
        self.excluded_total = 0.0
        self.qid = None
        self.q_first = 0
        self.invariant_errors = 0
        self.counter_errors = 0
        self.time = defaultdict(float)  # group -> outermost seconds
        self.self_time = defaultdict(float)  # module -> self seconds
        self.count = defaultdict(float)
        self.cat_dims = []
        self.queries = 0

    # -- patching ---------------------------------------------------------

    def activate(self):
        for ns in [self.tk] + self.modules:
            for attr, val in list(vars(ns).items()):
                wrapper = self.originals.get(val) if callable(val) else None
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self.patched.append((ns, attr, val))

    def deactivate(self):
        for ns, attr, val in self.patched:
            setattr(ns, attr, val)
        self.patched = []

    def _wrap(self, name, fn):
        group = GROUPS[name]
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.qid is None:  # a check between queries
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            outer = tracer.depth[group] == 0
            span = [name, 0.0, 0.0, parent, tracer.qid, tracer.excluded,
                    outer]
            tracer.spans.append(span)
            tracer.stack.append(index)
            tracer.depth[group] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[5] = tracer.excluded - span[5]
                tracer.depth[group] -= 1
                tracer.stack.pop()
            t = perf_counter()
            try:
                tracer._count(name, outer, args, result)
            except (AttributeError, TypeError, ValueError):
                # a counter the result's shape no longer supports; the
                # query itself succeeded and is checked on its own
                tracer.counter_errors += 1
            tracer.excluded += perf_counter() - t
            return result
        return wrapper

    # -- per-call counters --------------------------------------------------

    def _count(self, name, outer, args, result):
        c = self.count
        if name == "tensor_power_spectrum":
            x, k = args[0], args[1]
            d = len(set(x.entries))
            c["compositions"] += math.comb(d + k - 1, d - 1)
            c["blocks_out"] += len(result.blocks)
            bits = max(v.denominator for v, _ in result.blocks).bit_length()
            c["max_denominator_bits"] = max(c["max_denominator_bits"], bits)
            if (result.total_count != x.dim ** k
                    or result.total_mass() != 1):
                self.invariant_errors += 1
        elif name == "spectrum_tensor":
            a, b = args
            if (result.total_count != a.total_count * b.total_count
                    or result.total_mass() != a.total_mass()
                    * b.total_mass()):
                self.invariant_errors += 1
        elif name in ("tensor", "tensor_power") and outer:
            c["entries_materialized"] += result.dim
        elif name == "spectrum_majorizes":
            sx, sy = args
            c["breakpoints"] += len(set(sx.breakpoints())
                                    | set(sy.breakpoints()))
            c["walks"] += 1
            c["early_exits"] += not result.holds
        elif name == "majorizes":
            fv = result.first_violation
            c["entries_walked"] += fv[0] if fv else args[0].dim - 1
        elif name == "in_Mk":
            c["k_evaluated"] += 1
        elif name == "scan_Mk":
            c["k_evaluated"] += 0 if result.short_circuited else result.k_max
        elif name == "search_catalyst":
            c["searches"] += 1
            c["search_hits"] += result is not None
        elif name == "r_filter":
            used = result.grid_used
            n = (used.index(result.violating_alpha) + 1 if result.violated
                 and result.violating_alpha in used else len(used))
            c["r_filters"] += 1
            c["orders"] += n
            c["float_orders"] += sum(
                1 for a in used[:n] if math.isinf(a) or a in (0, 1)
                or float(a) != int(a))
        if name in ("build_catalyst_thm1", "combine_catalysts",
                    "lift_catalyst") or (name == "search_catalyst"
                                         and result is not None):
            c["certs"] += 1
            c["verified"] += bool(result.verified)
            self.cat_dims.append(result.catalyst.dim)

    # -- per-query bookkeeping --------------------------------------------

    def begin(self, qid):
        self.qid = qid
        self.q_first = len(self.spans)
        self.excluded = 0.0

    def end(self):
        """Fold the finished query's spans into the layer totals."""
        spans = self.spans[self.q_first:]
        child = defaultdict(float)
        for s in spans:
            dur = s[2] - s[1] - s[5]
            if s[3] is not None:
                child[s[3]] += dur
        for i, s in enumerate(spans, self.q_first):
            dur = s[2] - s[1] - s[5]
            group = GROUPS[s[0]]
            if s[6]:
                self.time[group] += dur
            self.self_time[group.split(".")[0]] += dur - child[i]
        self.queries += 1
        self.excluded_total += self.excluded
        self.qid = None

    # -- results ----------------------------------------------------------

    def metrics(self):
        q = max(self.queries, 1)
        c = self.count

        def ms(group):
            return 1000.0 * self.time[group] / q

        def frac(a, b):
            return c[a] / c[b] if c[b] else 0.0
        return {
            "specvec.tensor_power_spectrum_ms":
                ms("specvec.tensor_power_spectrum"),
            "specvec.compositions": c["compositions"] / q,
            "specvec.blocks_out": c["blocks_out"] / q,
            "specvec.merge_ratio": frac("blocks_out", "compositions"),
            "specvec.max_denominator_bits": c["max_denominator_bits"],
            "specvec.materialize_ms": ms("specvec.materialize"),
            "specvec.entries_materialized": c["entries_materialized"] / q,
            "specvec.spectrum_tensor_ms": ms("specvec.spectrum_tensor"),
            "specvec.parse_ms": ms("specvec.parse"),
            "majorize.spectrum_walk_ms": ms("majorize.spectrum_walk"),
            "majorize.breakpoints": c["breakpoints"] / q,
            "majorize.early_exit_frac": frac("early_exits", "walks"),
            "majorize.majorizes_ms": ms("majorize.majorizes"),
            "majorize.entries_walked": c["entries_walked"] / q,
            "mlocc.in_Mk_ms": ms("mlocc.in_Mk"),
            "mlocc.scan_Mk_ms": ms("mlocc.scan_Mk"),
            "mlocc.k_evaluated": c["k_evaluated"] / q,
            "mlocc.self_ms": 1000.0 * self.self_time["mlocc"] / q,
            "catalysis.build_thm1_ms": ms("catalysis.build_thm1"),
            "catalysis.combine_ms": ms("catalysis.combine"),
            "catalysis.lift_ms": ms("catalysis.lift"),
            "catalysis.mc_scan_ms": ms("catalysis.mc_scan"),
            "catalysis.catalyst_dim": (statistics.median(self.cat_dims)
                                       if self.cat_dims else 0.0),
            "catalysis.verified_frac": frac("verified", "certs"),
            "catalysis.search_hit_frac": frac("search_hits", "searches"),
            "renyi.r_filter_ms": ms("renyi.r_filter"),
            "renyi.orders_evaluated": c["orders"] / q,
            "renyi.float_order_frac": frac("float_orders", "orders"),
            "cli.main_ms": ms("cli.main"),
            "cli.self_ms": 1000.0 * self.self_time["cli"] / q,
        }

    def span_cost(self, calls=2000, repeats=5):
        """Seconds a span adds to one call: a traced no-op against the bare
        one, best of a few batches, on a throwaway tracer."""
        def noop():
            return None
        scratch = Tracer(self.tk)
        traced = scratch._wrap("spectrum_of", noop)  # a name with no counter
        scratch.begin(0)
        best = math.inf
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                traced()
            t1 = perf_counter()
            for _ in range(calls):
                noop()
            t2 = perf_counter()
            best = min(best, (t1 - t0) - (t2 - t1))
        return max(best, 0.0) / calls

    def overhead_ms(self):
        """Tracing cost per traced query: spans times the calibrated cost
        of one span, plus the time spent computing counters."""
        q = max(self.queries, 1)
        return 1000.0 * (len(self.spans) * self.span_cost()
                         + self.excluded_total) / q

    def write(self, path):
        """Dump every span as one JSON line: name, start, end (seconds,
        perf_counter), parent span index, query id, excluded seconds."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")

#!/usr/bin/env python3
"""trumpkit benchmark: seeded decision workloads on the exact backend.

    python3 perfbench/run.py --workload multicopy-scan --seed 1 \\
        --seconds 30 --trace 0

Workloads (see workloads.py and README.md):

* ``multicopy-scan``   -- ``in_Mk`` at k = 5..60 and ``scan_Mk``;
* ``catalyst-certify`` -- catalyst build, combine, lift, scan and search;
* ``decision-batch``   -- small API calls and in-process ``cli.main``.

One process, one client, closed loop: each query starts when the previous
one has returned.  Every answer is checked against the independent code in
oracle.py after its timing ends.  Query and set-up times are scaled to a
fixed host speed by a speed probe (see ``SpeedProbe``).  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it traces every
round and reports the per-layer metrics, writing every span to
``perfbench/_out/`` at exit.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# the speed probe: at best its kernel takes about PROBE_NOMINAL_S on a
# 2-core x86-64 VM under Python 3.11.7; a sample is the best of
# PROBE_REPEATS runs, taken between queries once PROBE_EVERY_S has passed
PROBE_NOMINAL_S = 0.002
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.25

END_TO_END = {"query_p50_ms": "ms", "query_p90_ms": "ms",
              "queries_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_METRICS = {"trace.overhead_ms": "ms", "trace.query_mean_ms": "ms",
                 "trace.spans_per_query": "count"}
INPUT_METRICS = {
    "input.queries": "count", "input.repeat_share": "fraction",
    "input.collision_share": "fraction", "input.hold_share": "fraction",
    "input.fail_early_share": "fraction", "input.fail_late_share": "fraction",
    "input.distinct_values": "count", "input.catalyst_dim96_share": "fraction",
}
# the import time is measured in a fresh interpreter, one per set-up, and
# scaled by the speed probe run in that interpreter after the import
IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trumpkit, trumpkit.cli
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
from run import SpeedProbe
probe = SpeedProbe()
probe.sample()
print(t, probe.samples[0])
"""


def import_trumpkit():
    """Import trumpkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "trumpkit" / "__init__.py").is_file():
        sys.exit("perfbench: no trumpkit sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import trumpkit
    import trumpkit.cli  # noqa: F401  (the decision-batch CLI calls)
    if Path(trumpkit.__file__).resolve().parent != SRC / "trumpkit":
        sys.exit("perfbench: imported trumpkit from %s" % trumpkit.__file__)
    return trumpkit


def import_seconds():
    """Import time of trumpkit in a fresh interpreter, at the probe's
    nominal speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                           str(HERE)], capture_output=True, text=True,
                          check=True, timeout=60)
    seconds, sample = map(float, proc.stdout.split())
    return seconds * PROBE_NOMINAL_S / sample


def percentile(values, p):
    """p-th percentile, linear between order statistics."""
    values = sorted(values)
    pos = (len(values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def probe_kernel():
    """Fixed Fraction work of the kind the queries do: a harmonic sum whose
    denominators grow to a few hundred bits, and sorts of small ones."""
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    for j in range(20):
        sorted(Fraction(i % 17 + j, 17 + i % 5) for i in range(30))
    return s


class SpeedProbe:
    """Host speed, sampled between queries with a fixed kernel.

    On a shared host the same code runs up to 1.6x slower for seconds to
    minutes at a time.  Thread CPU time slows with wall time, so this is
    slower execution, not lost time slices, and no clock removes it.  The
    kernel is the benchmark's own code, so no change to trumpkit moves it.
    A time measured between samples i and i+1 is scaled by
    PROBE_NOMINAL_S over their mean: it then reads as the time on a host
    where the kernel takes PROBE_NOMINAL_S."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self):
        gc.disable()  # collecting the program's heap is not host speed
        try:
            best = math.inf
            for _ in range(PROBE_REPEATS):
                t0 = perf_counter()
                probe_kernel()
                best = min(best, perf_counter() - t0)
        finally:
            gc.enable()
        self.samples.append(best)
        self.last = perf_counter()
        return len(self.samples) - 1

    def due(self):
        """Index of the latest sample, after taking one if it is due."""
        if perf_counter() - self.last >= PROBE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, i):
        """Factor for a time measured between samples i and i + 1."""
        return 2 * PROBE_NOMINAL_S / (self.samples[i] + self.samples[i + 1])


class Run:
    """Latencies and input properties of the measured queries; kept in
    flat arrays and counters so that bookkeeping does not grow the
    process much with the number of queries."""

    def __init__(self, probe):
        self.probe = probe
        self.latency = array("d")  # seconds, as measured
        self.sample = array("l")  # speed sample taken before each query
        self.rounds = [0]  # index of each round's first query
        self.failures = []
        self.failed = 0
        self.keys = set()
        self.props = Counter()

    @property
    def attempted(self):
        return len(self.latency)

    def execute(self, query, inputs, tracer=None):
        sample = self.probe.due()
        if tracer is not None:
            tracer.begin(self.attempted)
        error = None
        t0 = perf_counter()
        try:
            result = query.run(inputs)
        except Exception:  # a failed query is counted, the run goes on
            error = traceback.format_exc()
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if error is None:
            try:
                if not query.check(result):
                    error = "wrong answer"
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append((query.op, error))
        self.latency.append(latency)
        self.sample.append(sample)
        self.record(query)

    def scaled(self):
        """Latencies at the probe's nominal host speed."""
        scale = self.probe.scale
        return [t * scale(i) for t, i in zip(self.latency, self.sample)]

    def round_rates(self, latencies):
        """Each round's queries over the time spent inside them.  Every
        round has the same composition, so each estimates the same rate."""
        bounds = self.rounds + [len(latencies)]
        return [(b - a) / sum(latencies[a:b])
                for a, b in zip(bounds, bounds[1:]) if b > a]

    def record(self, query):
        p = query.props
        c = self.props
        c["repeats"] += query.key in self.keys
        self.keys.add(query.key)
        c["collision"] += bool(p.get("collision"))
        c["verdict." + p.get("verdict", "none")] += 1
        c["distinct_values"] += p.get("distinct_values", 0)
        c["dim96"] += p.get("catalyst_dim", 0) >= 96

    def input_metrics(self):
        n = self.attempted
        c = self.props
        return {
            "input.queries": n,
            "input.repeat_share": c["repeats"] / n,
            "input.collision_share": c["collision"] / n,
            "input.hold_share": c["verdict.hold"] / n,
            "input.fail_early_share": c["verdict.fail_early"] / n,
            "input.fail_late_share": c["verdict.fail_late"] / n,
            "input.distinct_values": c["distinct_values"] / n,
            "input.catalyst_dim96_share": c["dim96"] / n,
        }


def setup(workload_cls, tk, seed, workdir, probe):
    """Draw round 0 and the warm-up (untimed), then time the set-up proper:
    importing trumpkit in a fresh interpreter, building round 0's program
    inputs and running the warm-up queries.  Returns the time at the
    probe's nominal speed."""
    wl = workload_cls(tk, seed, ROOT, str(workdir))
    first = wl.round(0)
    warm = wl.warmup()
    before = probe.sample()
    t0 = perf_counter()
    inputs = [q.prepare() for q in first]
    for q in warm:
        q.run(q.prepare())
    seconds = perf_counter() - t0
    probe.sample()
    return (import_seconds() + seconds * probe.scale(before), wl,
            list(zip(first, inputs)))


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    tk = import_trumpkit()
    workdir = HERE / "_work" / ("%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tk, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, tk, workload_cls, workdir):
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, wl, pending = setup(workload_cls, tk, args.seed, workdir,
                                     probe)
        setups.append(seconds)

    from spans import Tracer
    tracer = Tracer(tk) if args.trace else None
    if tracer is not None:
        tracer.activate()
    run = Run(probe)
    start = perf_counter()
    index = 0
    try:
        while True:
            if index:
                queries = wl.round(index)
                pending = [(q, q.prepare()) for q in queries]
                run.rounds.append(run.attempted)
            for q, inputs in pending:
                run.execute(q, inputs, tracer)
            for f in workdir.iterdir():  # this round's vector files
                f.unlink()
            index += 1
            if perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.deactivate()
    probe.sample()  # closes the last queries' interval
    return report(args, run, tracer, index, statistics.median(setups))


def report(args, run, tracer, rounds, setup_s):
    failed = run.failed + (tracer.invariant_errors if tracer else 0)
    attempted = run.attempted
    scaled = run.scaled()
    p90 = percentile(scaled, 90)
    inputs = run.input_metrics()
    print("workload %s  seed %d  seconds %g  trace %d  rounds %d"
          % (args.workload, args.seed, args.seconds, args.trace, rounds))
    print("attempted %d  failed %d  samples %d (%d beyond p90)  speed "
          "samples %d (median %.3f ms, range %.3f-%.3f)"
          % (attempted, failed, len(scaled), sum(1 for v in scaled if v > p90),
             len(run.probe.samples), 1000 * statistics.median(
                 run.probe.samples), 1000 * min(run.probe.samples),
             1000 * max(run.probe.samples)))
    for name, err in run.failures:
        print("FAILED %s\n%s" % (name, err), file=sys.stderr)
    if tracer is not None and tracer.counter_errors:
        print("warning: %d traced calls left some counters uncomputed"
              % tracer.counter_errors, file=sys.stderr)
    if tracer is None:
        values = {
            "query_p50_ms": 1000.0 * percentile(scaled, 50),
            "query_p90_ms": 1000.0 * p90,
            "queries_per_s": statistics.median(run.round_rates(scaled)),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END
        # the same latencies as measured, before speed scaling
        raw = run.latency
        shown = dict(values, **inputs, **{
            "wall.query_p50_ms": 1000.0 * percentile(raw, 50),
            "wall.query_p90_ms": 1000.0 * percentile(raw, 90),
            "wall.queries_per_s": statistics.median(run.round_rates(raw))})
        units = dict(units, **{"wall.query_p50_ms": "ms",
                               "wall.query_p90_ms": "ms",
                               "wall.queries_per_s": "1/s"})
    else:
        from spans import LAYER_METRICS
        values = tracer.metrics()
        values.update({
            "trace.overhead_ms": tracer.overhead_ms(),
            "trace.query_mean_ms": 1000.0 * statistics.fmean(run.latency),
            "trace.spans_per_query": len(tracer.spans) / attempted,
        }, **inputs)
        units = dict(LAYER_METRICS, **TRACE_METRICS)
        shown = values
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / ("spans-%s-%d.jsonl" % (args.workload,
                                                   args.seed)))
    units = dict(units, **INPUT_METRICS, failed_frac="fraction")
    shown = dict(shown, failed_frac=failed / attempted)
    for name in sorted(shown):
        print("%-36s %14.6g %s" % (name, shown[name], units[name]))
    metrics = {k: {"value": float(v), "unit": units[k]}
               for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

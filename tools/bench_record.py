"""Run one benchmark workload for one seed and append the result to the
workload's trajectory, BENCH_<workload>.json at the repository root.

    python tools/bench_record.py --workload decision-batch --seed 5 \\
        --side change [--checkout DIR]

It runs the checkout's own perfbench/run.py, untraced and for the
run_seconds of the checkout's BENCHMARK.json, in that checkout (by
default the one holding this file), and appends one entry: the
checkout's commit, the side (a label such as "parent" or "change"), the
seed, the median of the run's host-speed samples, the attempted and
failed counts and the five end-to-end metrics.  The checkout must have
no uncommitted change under src/ or perfbench/, so the commit names the
code that ran.  Standard library only.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the run's summary line, e.g. "speed samples 27 (median 1.937 ms, ..."
_PROBE = re.compile(r"speed samples \d+ \(median ([0-9.]+) ms")


def entry(stdout, commit, side, seed):
    """The trajectory entry of one run, read from run.py's standard
    output: the probe median from its summary line, the rest from its
    last line, a JSON object."""
    probe = _PROBE.search(stdout)
    if probe is None:
        raise ValueError("no speed-sample line in the run's output")
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"commit": commit, "side": side, "seed": seed,
            "probe_median_ms": float(probe.group(1)),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def append(path, item):
    """Append item to the JSON list at path, creating the file if needed;
    one entry a line, so each appended run is a one-line diff."""
    items = json.loads(path.read_text()) if path.exists() else []
    items.append(item)
    path.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps(i, sort_keys=True) for i in items))


def _git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--side", required=True)
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)

    if _git(args.checkout, "status", "--porcelain", "--", "src",
            "perfbench"):
        sys.exit("bench_record: %s has uncommitted changes under src/ or "
                 "perfbench/" % args.checkout)
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    run = subprocess.run(
        [*spec["command"], "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(spec["run_seconds"]),
         "--trace", "0"],
        cwd=args.checkout, capture_output=True, text=True)
    if run.returncode:
        sys.exit("bench_record: the run exited %d\n%s"
                 % (run.returncode, run.stderr))
    item = entry(run.stdout, _git(args.checkout, "rev-parse", "HEAD"),
                 args.side, args.seed)
    append(ROOT / ("BENCH_%s.json" % args.workload), item)
    print(json.dumps(item, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

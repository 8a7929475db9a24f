#!/usr/bin/env python3
"""Record the traced layer shares of every workload in baseline.json.

    python3 perfbench/baseline.py --seed 1 --sha <git sha of the measured tree>

Runs ``run.py --trace 1`` once per workload and stores, with the sha,
Python version, nproc and seed: every per-layer metric and each layer's
share of traced query time (``<layer>_ms / trace.query_mean_ms``; shares
of nested layers overlap).  ``confirmed`` records whether the trace shows
what each workload is meant to stress, judged on layers that do not
contain one another.  Each workload's rationale -- the layers it is
meant to stress and to bypass, and the metrics it should move -- is
written by hand in baseline.json and kept as it is.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# hand-written rationale of each workload, kept in baseline.json itself
# and carried over when the measured fields are regenerated
DESIGN_KEYS = ("stresses", "bypasses", "moves")
# layers that do not contain one another, for "largest share" checks
LEAF_LAYERS = ["specvec.tensor_power_spectrum_ms", "specvec.materialize_ms",
               "specvec.spectrum_tensor_ms", "specvec.parse_ms",
               "majorize.spectrum_walk_ms", "majorize.majorizes_ms",
               "mlocc.self_ms", "renyi.r_filter_ms", "cli.self_ms"]
TPS, MAT, ST = ("specvec.tensor_power_spectrum_ms", "specvec.materialize_ms",
                "specvec.spectrum_tensor_ms")
# what the traced run must confirm about each workload, on leaf shares
CONFIRM = {
    "multicopy-scan": (
        "tensor_power_spectrum has the largest share",
        lambda leaf: max(leaf, key=leaf.get) == TPS),
    "catalyst-certify": (
        "materialize + spectrum_tensor exceed every other share",
        lambda leaf: leaf[MAT] + leaf[ST] > max(
            v for k, v in leaf.items() if k not in (MAT, ST))),
    "decision-batch": (
        "tensor_power_spectrum is a minor share (< 0.25)",
        lambda leaf: leaf[TPS] < 0.25),
}


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sha", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = HERE / "baseline.json"
    design = {name: {k: w[k] for k in DESIGN_KEYS} for name, w in
              json.loads(path.read_text())["workloads"].items()}
    out = {"git_sha": args.sha, "python": platform.python_version(),
           "nproc": os.cpu_count(), "seed": args.seed,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        result = traced_run(w["name"], args.seed, spec["run_seconds"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        mean = metrics["trace.query_mean_ms"]
        shares = {k: metrics[k] / mean for k in metrics
                  if k.endswith("_ms") and not k.startswith("trace.")}
        leaf = {k: shares[k] for k in LEAF_LAYERS}
        stress = sum(shares[s + "_ms"] for s in design[w["name"]]["stresses"]
                     if s + "_ms" in shares)
        claim, holds = CONFIRM[w["name"]]
        out["workloads"][w["name"]] = dict(
            **design[w["name"]],
            correct=result["correct"], attempted=result["attempted"],
            failed=result["failed"], layer_shares=shares,
            largest_leaf_layer=max(leaf, key=leaf.get),
            stressed_share=stress, confirms=claim,
            confirmed=holds(leaf), metrics=metrics)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()

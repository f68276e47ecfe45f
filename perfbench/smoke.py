#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at 1/100 size, one repetition.

Usage: python3 smoke.py WORKLOADS_EXE BENCHMARK_JSON   (the runtest rule in
perfbench/dune runs it).  It asserts that

- each run is correct and reports no failed operation;
- each run prints exactly the metrics BENCHMARK.json names, with their
  units: the end-to-end metrics untraced, the per-layer metrics traced;
- the exact metrics repeat under the same seed and change under another.
"""

import json
import os
import subprocess
import sys
import tempfile

EXACT = ["cmax_ratio", "mean_flow_s", "served_frac"]


def run(exe, out, workload, seed, trace):
    args = [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "0.01", "--out", out]
    p = subprocess.run(args, capture_output=True, text=True, timeout=60)
    where = "%s seed %d trace %d" % (workload, seed, trace)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("%s: exit %d\n%s%s" % (where, p.returncode, p.stdout, p.stderr))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("%s: correct %s, %s of %s failed\n%s" % (
            where, result["correct"], result["failed"], result["attempted"], p.stdout))
    return where, result["metrics"]


def expect_metrics(where, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        sys.exit("%s: metrics differ from BENCHMARK.json\n  missing %s\n  extra %s\n"
                 "  unit mismatches %s" % (
                     where, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                     sorted(n for n in want if n in got and got[n] != want[n])))


def main():
    exe, spec_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=".") as out:
        for w in (w["name"] for w in spec["workloads"]):
            runs = {}
            for seed in (1, 1, 2):
                where, metrics = run(exe, out, w, seed, 0)
                expect_metrics(where, metrics, spec["end_to_end"])
                runs.setdefault(seed, []).append(
                    tuple(metrics[name]["value"] for name in EXACT))
            if runs[1][0] != runs[1][1]:
                sys.exit("%s: exact metrics differ under one seed: %s" % (w, runs[1]))
            if runs[1][0] == runs[2][0]:
                sys.exit("%s: exact metrics identical under seeds 1 and 2: %s" % (w, runs[1][0]))
            where, metrics = run(exe, out, w, 1, 1)
            expect_metrics(where, metrics, spec["per_layer"])
    print("perfbench smoke: %d workloads ok" % len(spec["workloads"]))


if __name__ == "__main__":
    main()

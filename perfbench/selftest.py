#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny input (seconds per workload).

    python3 perfbench/selftest.py

Runs every workload's code path once untraced and once traced on the tiny
input (GRID_PER_CELL 7, N_OMEGA 3, N_NUCHI_EIGS 16) and checks that:
  - every metric BENCHMARK.json names is reported, with its unit;
  - every metric name matches [A-Za-z0-9_.-]+;
  - each workload's top-level layers are disjoint and cover its traced
    time_to_erpa_s: unattributed_s (the traced time minus their sum) lies
    between 0 and UNATTRIBUTED_MAX of it;
  - every job passed its output checks.
Exits 0 when all hold.
"""

import json
import math
import os
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNATTRIBUTED_MAX = 0.05


def check(cond, message, errors):
    if not cond:
        errors.append(message)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name in list(declared["end_to_end"]) + list(declared["per_layer"]):
        check(NAME.fullmatch(name), f"bad metric name {name!r}", errors)
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS", errors)

    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            doc = run.run_harness(workload, 7, 1, trace, tiny=True)
            res = run.result(doc, trace)
            tag = f"{workload} trace={trace}"
            check(res["correct"] and res["failed"] == 0,
                  f"{tag}: output checks failed", errors)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[kind],
                  f"{tag}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got) ^ set(declared[kind]))}", errors)
            for name, m in res["metrics"].items():
                check(NAME.fullmatch(name), f"{tag}: bad name {name!r}", errors)
                check(math.isfinite(m["value"]),
                      f"{tag}: {name} is not finite", errors)
            if trace:
                layers, top = run.reduce_layers(doc)
                rest = layers["unattributed_s"]
                traced = layers["trace.time_to_erpa_s"]
                check(0.0 <= rest <= UNATTRIBUTED_MAX * traced,
                      f"{tag}: unattributed_s = {rest} of a traced "
                      f"time_to_erpa_s = {traced}", errors)
                check(bool(top), f"{tag}: no top-level layer", errors)
            print(f"selftest: {tag}: {res['attempted']} job(s) checked",
                  file=sys.stderr)

    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

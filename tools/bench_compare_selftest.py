#!/usr/bin/env python3
"""Fixture self-test of bench_compare.py.

Usage:
    bench_compare_selftest.py

Runs bench_compare.py on small baseline/fresh report pairs and checks its
verdict on each: a kernel-timer bucket or a speedup-ladder rung missing
from the fresh report fails, a missing plain timing key and a changed
bucket value are informational, and a changed non-timing value fails.
Exit status 0 when every case gets the expected verdict, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_compare.py")

BASELINE = {
    "schema": "rsrpa.bench/1",
    "bench": "fixture",
    "checks": [{"name": "energy finite", "pass": True}],
    "data": {
        "e_rpa": -1.25,
        "seconds": 2.0,
        "speedup": {"p2": 1.9},
        "ranks": [{"timers": {"nu_chi0": 1.5, "matmult": 0.25}}],
    },
}


def without(path):
    """BASELINE with the key at `path` (a list of keys/indices) removed."""
    doc = copy.deepcopy(BASELINE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


def with_value(path, value):
    """BASELINE with the leaf at `path` set to `value`."""
    doc = copy.deepcopy(BASELINE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (name, fresh report, expected exit status)
CASES = [
    ("identical", BASELINE, 0),
    ("kernel-timer bucket missing",
     without(["data", "ranks", 0, "timers", "matmult"]), 1),
    ("whole timers object missing", without(["data", "ranks", 0, "timers"]), 1),
    ("kernel-timer bucket value changed",
     with_value(["data", "ranks", 0, "timers", "nu_chi0"], 9.0), 0),
    ("speedup-ladder rung missing", without(["data", "speedup", "p2"]), 1),
    ("plain timing key missing", without(["data", "seconds"]), 0),
    ("non-timing value changed", with_value(["data", "e_rpa"], -9.0), 1),
]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        with open(base_path, "w") as f:
            json.dump(BASELINE, f)
        for name, fresh, expected in CASES:
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(fresh_path, "w") as f:
                json.dump(fresh, f)
            run = subprocess.run(
                [sys.executable, COMPARE, fresh_path, base_path],
                capture_output=True, text=True)
            ok = run.returncode == expected
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {run.returncode}, "
                  f"expected {expected}")
            if not ok:
                failures += 1
                print(run.stdout, end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

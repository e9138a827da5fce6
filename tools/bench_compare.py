#!/usr/bin/env python3
"""Compare a fresh rsrpa.bench/1 report against a checked-in baseline.

Usage:
    bench_compare.py fresh.json baseline.json [--rel-tol 0.5]

The comparison is built for machine-to-machine drift, not bit equality:

  * Structure is append-only: every key present in the baseline must be
    present in the fresh report (extra keys in the fresh report are fine,
    the schema grows but never silently loses fields).
  * Every check recorded in the baseline must exist in the fresh report
    and pass there.
  * Numeric leaves are compared within a relative tolerance, except
    timing-like quantities (seconds, rates, iteration counts, speedups,
    kernel-timer buckets), which vary with machine and load and are
    reported informationally. A missing timing-like key is a note, but a
    missing speedup-ladder rung or kernel-timer bucket fails.

Exit status 0 when the fresh report is acceptable, 1 otherwise.
"""

import argparse
import json
import re
import sys

# Keys whose values are wall-clock dependent: reported, never failed on.
# block_size/chunks are included because the dynamic block-size ladder
# adapts to measured throughput, so its histogram varies with load.
# Leaves under a `modeled` object (the fig4/fig5 per-rank kernel model)
# are derived from measured seconds, so they are timing-like too.
TIMING_PAT = re.compile(
    r"seconds|_s$|time|iterations|GFLOP|GB/s|speedup|efficiency|/s$"
    r"|block_size|chunks|crossover|(^|\.)modeled\.",
    re.IGNORECASE)

# Speedup-ladder rungs: their *values* are machine-dependent (timing-like,
# informational), but their *presence* is part of the acceptance contract —
# a fresh report that silently drops a ladder rung recorded in the baseline
# is a failure, not a note.
LADDER_PAT = re.compile(r"speedup", re.IGNORECASE)

# Kernel-timer objects (`timers`, the Fig. 5 buckets). Their values are
# wall-clock seconds (informational), but their keys are structure: a
# bucket missing from the fresh report fails, like a missing ladder rung.
# Matched on its own because TIMING_PAT's `time` also matches `timers`.
TIMERS_PAT = re.compile(r"(^|\.)timers(\.|$)")

# Build-configuration descriptors (e.g. a1's simd_compiled): legitimately
# differ between the baseline machine and a -DRSRPA_SIMD=OFF matrix build,
# so mismatches are informational. The benches themselves waive the
# config-dependent checks in that case.
CONFIG_PAT = re.compile(r"_compiled$|_compiled\b", re.IGNORECASE)


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class Comparison:
    def __init__(self, rel_tol):
        self.rel_tol = rel_tol
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def compare(self, path, base, fresh):
        if isinstance(base, dict):
            if not isinstance(fresh, dict):
                self.fail(f"{path}: expected object, got {type(fresh).__name__}")
                return
            for key, bval in base.items():
                if key not in fresh:
                    if LADDER_PAT.search(f"{path}.{key}"):
                        self.fail(f"{path}.{key}: speedup-ladder rung missing "
                                  "from fresh report")
                    elif TIMERS_PAT.search(f"{path}.{key}"):
                        self.fail(f"{path}.{key}: kernel-timer bucket missing "
                                  "from fresh report")
                    elif TIMING_PAT.search(f"{path}.{key}"):
                        self.note(f"{path}.{key}: absent from fresh report "
                                  "(timing-like, informational)")
                    else:
                        self.fail(f"{path}.{key}: missing from fresh report "
                                  "(schema is append-only)")
                    continue
                self.compare(f"{path}.{key}", bval, fresh[key])
        elif isinstance(base, list):
            if not isinstance(fresh, list):
                self.fail(f"{path}: expected array, got {type(fresh).__name__}")
                return
            if len(fresh) < len(base):
                self.fail(f"{path}: baseline has {len(base)} entries, "
                          f"fresh has {len(fresh)}")
                return
            for i, bval in enumerate(base):
                self.compare(f"{path}[{i}]", bval, fresh[i])
        elif is_number(base) and is_number(fresh):
            if TIMING_PAT.search(path) or TIMERS_PAT.search(path):
                self.note(f"{path}: baseline {base:.6g}, fresh {fresh:.6g} "
                          "(timing-like, informational)")
                return
            scale = max(abs(base), abs(fresh), 1e-300)
            if abs(base - fresh) > self.rel_tol * scale:
                self.fail(f"{path}: baseline {base:.6g} vs fresh {fresh:.6g} "
                          f"exceeds rel tol {self.rel_tol}")
        elif base != fresh:
            if CONFIG_PAT.search(path):
                self.note(f"{path}: baseline {base!r}, fresh {fresh!r} "
                          "(build configuration, informational)")
            else:
                self.fail(f"{path}: baseline {base!r} vs fresh {fresh!r}")


def compare_checks(base, fresh, cmp):
    fresh_checks = {c.get("name"): c.get("pass") for c in fresh.get("checks", [])}
    for check in base.get("checks", []):
        name = check.get("name")
        if name not in fresh_checks:
            cmp.fail(f"check '{name}' missing from fresh report")
        elif not fresh_checks[name]:
            cmp.fail(f"check '{name}' fails in fresh report")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--rel-tol", type=float, default=0.5,
                    help="relative tolerance for numeric fields (default 0.5)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print informational timing diffs")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    cmp = Comparison(args.rel_tol)
    for report, label in ((fresh, "fresh"), (base, "baseline")):
        if report.get("schema") != "rsrpa.bench/1":
            cmp.fail(f"{label}: unexpected schema {report.get('schema')!r}")
    if base.get("bench") != fresh.get("bench"):
        cmp.fail(f"bench name mismatch: baseline {base.get('bench')!r} vs "
                 f"fresh {fresh.get('bench')!r}")

    compare_checks(base, fresh, cmp)
    cmp.compare("data", base.get("data", {}), fresh.get("data", {}))

    if args.verbose:
        for note in cmp.notes:
            print(f"  note: {note}")
    for failure in cmp.failures:
        print(f"  FAIL: {failure}")
    name = base.get("bench", "?")
    if cmp.failures:
        print(f"bench_compare: {name}: {len(cmp.failures)} failure(s)")
        return 1
    print(f"bench_compare: {name}: OK "
          f"({len(cmp.notes)} informational timing diffs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

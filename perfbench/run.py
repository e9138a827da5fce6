#!/usr/bin/env python3
"""Time to a checked E_RPA on the shipped Si8 system, with a per-layer trace.

    python3 perfbench/run.py --workload si8_stern --seed 7 --seconds 30 --trace 0

Run from the repository root. Builds the rsrpa libraries and the `rpabench`
harness from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload for about --seconds of
measurement, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json lists both, and perfbench/README.md defines each. Exits
non-zero without a result when the sources or the build are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUT = os.path.join("examples", "inputs", "Si8.rpa")

WORKLOADS = ("si8_stern", "si8_mixed_backends")
E2E_UNITS = {"time_to_erpa_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layer metrics averaged over the traced samples of a run (per job).
MEAN_LAYERS = {
    "rpa.nu_chi0_apply_s": "s",
    "rpa.eval_error_s": "s",
    "rpa.matmult_s": "s",
    "rpa.eigensolve_s": "s",
    "rpa.chi0_apply_s": "s",
    "rpa.filter_iterations": "count",
    "rpa.ssa.elided_points": "count",
    "rpa.ssa.fallbacks": "count",
    "rpa.ssa.elided_s": "s",
    "rpa.ssa.project_s": "s",
    "solver.seconds": "s",
    "solver.self_s": "s",
    "solver.matvec_columns": "count",
    "solver.matvec_columns_f32": "count",
    "solver.chunks": "count",
    "solver.retries": "count",
    "solver.quarantined_columns": "count",
    "hamiltonian.bytes_modeled": "B",
    "hamiltonian.flops_modeled": "flop",
    "direct.diagonalization_s": "s",
    "direct.point_s": "s",
    "isdf.diagonalization_s": "s",
    "isdf.select_s": "s",
    "isdf.fit_s": "s",
    "isdf.assemble_s": "s",
    "isdf.eigensolve_s": "s",
    "isdf.nip": "count",
    "slq.nu_chi0_apply_s": "s",
    "slq.matvec_columns": "count",
    "slq.probes": "count",
    "sched.tasks": "count",
    "sched.steals": "count",
    "sched.queue_s": "s",
    "io.checkpoints_written": "count",
    "io.checkpoint_bytes": "B",
    "io.checkpoint_save_s": "s",
    "io.checkpoint_load_s": "s",
    "time_to_erpa_s.sternheimer": "s",
    "time_to_erpa_s.direct": "s",
    "time_to_erpa_s.isdf": "s",
    "time_to_erpa_s.slq": "s",
}
# Layer metrics derived from ratios of summed counters, or from the run.
DERIVED_LAYERS = {
    "rpa.point_s.max": "s",
    "rpa.ssa.elided_ratio": "frac",
    "solver.block1_share": "frac",
    "hamiltonian.apply_s_per_column": "s/col",
    "hamiltonian.apply_f32_s_per_column": "s/col",
    "hamiltonian.stencil_s_per_column": "s/col",
    "hamiltonian.stencil_f32_s_per_column": "s/col",
    "hamiltonian.stencil_scalar_s_per_column": "s/col",
    "hamiltonian.nonlocal_s_per_column": "s/col",
    "hamiltonian.apply_s_attributed": "s",
    "hamiltonian.gbps_computed": "GB/s",
    "poisson.nu_sqrt_s_per_column": "s/col",
    "sched.busy_frac": "frac",
    "unattributed_s": "s",
    "trace.time_to_erpa_s": "s",
    "trace.overhead_frac": "frac",
    "time_to_erpa_s.max": "s",
    "time_to_erpa_s.samples": "count",
    "check.erpa_dev_ha_per_atom": "Ha",
    "check.failed_frac": "frac",
}
LAYER_UNITS = {**MEAN_LAYERS, **DERIVED_LAYERS}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build rpabench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rsrpa sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(ROOT, INPUT)):
        fail(f"{INPUT} not found")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "rpabench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "rpabench"), build_dir


def run_harness(workload, seed, seconds, trace, tiny=False):
    """Run one workload and return the harness's raw JSON document."""
    binary, build_dir = build()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--input", os.path.join(ROOT, INPUT),
           "--work-dir", os.path.join(build_dir, "work")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        fail(f"rpabench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den > 0 else 0.0


def reduce_layers(doc):
    """Per-layer metrics of a trace run (per-job means over traced samples)."""
    samples = doc["samples"]
    traced = [s for s in samples if s["traced"] and s["ok"]]
    untraced = [s for s in samples if not s["traced"] and s["ok"]]
    layers = [s["layers"] for s in traced]
    n = max(len(layers), 1)

    def total(name):
        return sum(x.get(name, 0.0) for x in layers)

    def mean(name):
        return total(name) / n

    m = {name: mean(name) for name in MEAN_LAYERS}
    m["rpa.point_s.max"] = max((x.get("rpa.point_s.max", 0.0)
                                for x in layers), default=0.0)
    m["rpa.ssa.elided_ratio"] = ratio(total("rpa.ssa.elided_points"),
                                      total("rpa.ssa.candidates"))
    m["solver.block1_share"] = ratio(total("solver.block1_chunks"),
                                     total("solver.chunks"))
    per_col = ratio(total("hamiltonian.apply_s"),
                    total("hamiltonian.apply_columns"))
    per_col_f32 = ratio(total("hamiltonian.apply_f32_s"),
                        total("hamiltonian.apply_f32_columns"))
    m["hamiltonian.apply_s_per_column"] = per_col
    m["hamiltonian.apply_f32_s_per_column"] = per_col_f32
    for name in ("hamiltonian.stencil_s_per_column",
                 "hamiltonian.stencil_f32_s_per_column",
                 "hamiltonian.stencil_scalar_s_per_column",
                 "hamiltonian.nonlocal_s_per_column"):
        m[name] = doc["calibration"].get(name, 0.0)
    m["hamiltonian.apply_s_attributed"] = (
        mean("solver.matvec_columns") * per_col
        + mean("solver.matvec_columns_f32") * per_col_f32)
    m["hamiltonian.gbps_computed"] = ratio(
        total("hamiltonian.bytes_modeled"),
        total("hamiltonian.apply_s") + total("hamiltonian.apply_f32_s")) / 1e9
    m["poisson.nu_sqrt_s_per_column"] = ratio(
        total("poisson.nu_sqrt_s"), total("poisson.nu_sqrt_columns"))
    m["sched.busy_frac"] = ratio(total("sched.busy_s"), total("sched.lane_s"))

    seconds = sum(s["seconds"] for s in traced) / n
    top = sorted({name for s in traced for name in s["top_level"]})
    m["trace.time_to_erpa_s"] = seconds
    m["unattributed_s"] = seconds - sum(m[name] for name in top)
    # Samples alternate untraced, traced: compare the pairs.
    pairs = [(samples[i]["seconds"], samples[i + 1]["seconds"])
             for i in range(0, len(samples) - 1, 2)
             if samples[i]["ok"] and samples[i + 1]["ok"]]
    m["trace.overhead_frac"] = (
        statistics.median(t / u for u, t in pairs) - 1.0 if pairs else 0.0)
    plain = [s["seconds"] for s in untraced]
    m["time_to_erpa_s.max"] = max(plain, default=0.0)
    m["time_to_erpa_s.samples"] = float(len(plain))
    m["check.erpa_dev_ha_per_atom"] = max(
        (s["erpa_dev_ha_per_atom"] for s in samples), default=0.0)
    m["check.failed_frac"] = ratio(sum(not s["ok"] for s in samples),
                                   len(samples))
    return m, top


def reduce_e2e(doc):
    times = [s["seconds"] for s in doc["samples"] if s["ok"]]
    return {
        "time_to_erpa_s": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def result(doc, trace):
    samples = doc["samples"]
    failed = sum(not s["ok"] for s in samples)
    for i, s in enumerate(samples):
        if not s["ok"]:
            print(f"perfbench: sample {i} failed: {s['reason']}",
                  file=sys.stderr)
    if trace:
        values, units = reduce_layers(doc)[0], LAYER_UNITS
    else:
        values, units = reduce_e2e(doc), E2E_UNITS
    return {
        "correct": failed == 0 and len(samples) > 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input: seconds per job, no pins")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    doc = run_harness(args.workload, args.seed, args.seconds, args.trace,
                      args.tiny)
    print(json.dumps(result(doc, args.trace)))


if __name__ == "__main__":
    main()

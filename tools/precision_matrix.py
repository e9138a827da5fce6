#!/usr/bin/env python3
"""Run rpacalc across the {SIMD on/off} x {PRECISION fp64/mixed} matrix.

Usage:
    precision_matrix.py /path/to/rpacalc [workdir]

Drives the perfsmoke_precision_matrix ctest (bench/CMakeLists.txt): a tiny
Sternheimer job is run four times, once per cell of the configure matrix,
and the results are held to the precision contract documented in
DESIGN.md ("Precision model"):

  * Within one precision policy, the SIMD and scalar stencil paths must
    produce byte-identical energy output and bitwise-equal energies in
    the run report (the bitwise half of the contract). The report
    carries every double at full precision; the printed output rounds
    to six digits and would hide a rounding-level divergence.
  * PRECISION mixed must agree with fp64 to |dE| <= 1e-4 Ha/atom (the
    tolerance half).

Exit status 0 when every cell passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

BASE_CONFIG = """\
# perfsmoke matrix point: the product's stencil geometry (the 9^3 bench
# grid at FD_RADIUS 4, as in the Si8 runs), with few eigenpairs and
# frequencies so each cell runs in seconds. On that grid 80 of the 81 x
# rows are wrapped boundary rows, so the cells compare the wrapped-row
# SIMD kernel against its scalar oracle, plus the one interior row. The
# dynamic block-size ladder (Algorithm 4) selects block sizes from
# measured wall time, so it is pinned off: timing-adaptive schedules are
# exempt from the bitwise contract (DESIGN.md), and SIMD changes the
# timings.
N_CELLS: 1
GRID_PER_CELL: 9
FD_RADIUS: 4
N_EIG_PER_ATOM: 4
N_NUCHI_EIGS: 16
N_OMEGA: 2
TOL_EIG: 4e-3 2e-3
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 10
CHEB_DEGREE_RPA: 2
FLAG_COCGINITIAL: 1
DYNAMIC_BLOCK: 0
BLOCK_SIZE: 4
"""

ENERGY_PAT = re.compile(
    r"Total RPA correlation energy: (\S+) \(Ha\), (\S+) \(Ha/atom\)")

DE_TOL_HA_PER_ATOM = 1e-4


def run_cell(rpacalc, workdir, simd, precision):
    name = f"matrix_simd{simd}_{precision}"
    with open(f"{workdir}/{name}.rpa", "w") as f:
        f.write(BASE_CONFIG)
        f.write(f"SIMD: {simd}\nPRECISION: {precision}\n")
    proc = subprocess.run([rpacalc, "-name", name], capture_output=True,
                          text=True, cwd=workdir)
    if proc.returncode != 0:
        print(f"  FAIL: simd={simd} precision={precision}: rpacalc exited "
              f"{proc.returncode}\n{proc.stderr}")
        return None
    with open(f"{workdir}/{name}.out") as f:
        text = f.read()
    m = ENERGY_PAT.search(text)
    if m is None:
        print(f"  FAIL: simd={simd} precision={precision}: no energy line "
              f"in {name}.out")
        return None
    print(f"  simd={simd} precision={precision}: E = {m.group(1)} Ha "
          f"({m.group(2)} Ha/atom)")
    # Canonical form for the bitwise comparison: drop wall-clock lines and
    # the config echo (which prints the SIMD knob itself).
    canon = "\n".join(
        line for line in text.splitlines()
        if not re.search(r"\d+\.\d+ s(ec)?$", line)
        and not line.startswith("SIMD:"))
    with open(f"{workdir}/{name}.report.json") as f:
        stern = json.load(f)["sternheimer"]
    energies = (stern["e_rpa"], [p["e_term"] for p in stern["per_omega"]])
    return m.group(0), (canon, energies)


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rpacalc = os.path.abspath(sys.argv[1])
    workdir = sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(
        prefix="rsrpa_matrix_")
    os.makedirs(workdir, exist_ok=True)

    cells = {(simd, prec): run_cell(rpacalc, workdir, simd, prec)
             for prec in ("fp64", "mixed") for simd in (1, 0)}
    failures = []
    if any(v is None for v in cells.values()):
        failures.append("one or more matrix cells failed to run")
    else:
        for prec in ("fp64", "mixed"):
            if cells[(1, prec)][1] != cells[(0, prec)][1]:
                failures.append(
                    f"PRECISION {prec}: SIMD and scalar stencil paths "
                    "disagree (bitwise contract violated)")
        e64 = float(ENERGY_PAT.search(cells[(1, "fp64")][0]).group(2))
        emx = float(ENERGY_PAT.search(cells[(1, "mixed")][0]).group(2))
        if abs(emx - e64) > DE_TOL_HA_PER_ATOM:
            failures.append(
                f"mixed vs fp64: |dE| = {abs(emx - e64):.3e} Ha/atom "
                f"exceeds {DE_TOL_HA_PER_ATOM:.0e}")

    for failure in failures:
        print(f"  FAIL: {failure}")
    if failures:
        print(f"precision_matrix: {len(failures)} failure(s)")
        return 1
    print("precision_matrix: OK (SIMD bitwise within each precision, "
          "mixed within 1e-4 Ha/atom of fp64)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

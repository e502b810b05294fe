"""The benchmark's recorded outputs against this checkout.

perfbench fingerprints what each workload's jobs return and compares it
with ``perfbench/reference.json``, and its traced mode patches named
functions of the package.  One small traced pass per workload catches, in
tier 1, a renamed or deleted name the tracer patches, a fingerprinted
record that stopped being a dataclass, and any changed output.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import blas_rounding

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ("repeating_orbits", "drifting_orbits", "ball_checks"))
def test_a_small_traced_pass_matches_the_benchmark_reference(workload):
    if not blas_rounding.gemv_rounds_as_the_kernels():
        pytest.skip("perfbench/reference.json was recorded where numpy's gemv rounds as "
                    "the kernels do, and the metapop oracle's outputs in it depend on "
                    "that; this BLAS rounds otherwise")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--size", "small", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["failures"]

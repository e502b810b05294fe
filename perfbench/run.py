"""twoscalepop benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports twoscalepop from ``src``.
Workloads (see workloads.py for the inputs and why each exists):

  repeating_orbits  fig2 (with local runs) and sec42_compare through the
                    ``twoscalepop run`` pipeline; every series repeats a state
                    bit for bit early in its horizon
  drifting_orbits   fig3 (with local runs) and fig10 through the same
                    pipeline; no series repeats
  ball_checks       criterion-7 harnesses around located centres of the
                    fig2, fig3 and fig10 systems, then ``twoscalepop check``

Each workload runs in its own single-threaded process (BLAS and OpenMP
pinned to one thread) that is a closed loop: one caller, passes back to
back.  Outputs go to a temporary directory under ``.perfbench/`` and every
pass is checked against ``reference.json``.

With ``--trace 0`` it reports the end-to-end metrics:
  wall_s       median wall seconds of one untraced pass
  setup_s      median over fresh processes of importing twoscalepop and
               building the workload's params, configs and inputs
  peak_rss_mb  peak resident memory of the workload process
With ``--trace 1`` it reports the per-layer metrics of tracer.py; the span
record goes to ``.perfbench/trace-<workload>-seed<N>.json``.  Either way the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``, where
a job (one scenario config or one harness call) fails if it raises or its
outputs differ from the reference; fail_ratio = failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4        # fresh processes besides the workload process
DEADLINE_S = 170        # the whole command, probes and workload included


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe_timings(values: list[float]) -> str:
    """Median, quartiles, count and the highest percentile with at least
    ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g} .. {q3:.6g}"
    text += f", n = {n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            text += f", p{p:g} {ordered[math.ceil(p / 100.0 * n) - 1]:.6g}"
            break
    else:
        text += " (too few samples for a percentile with ten beyond it)"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help=argparse.SUPPRESS)  # small: the self-test's size
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twoscalepop" / "__init__.py").is_file():
        print(f"no twoscalepop sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        result = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    setups.append(result)
    setup_s = [s["import_s"] + s["build_s"] for s in setups]

    env = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"wall_s: {describe_timings(result['walls'])}")
    print(f"setup_s: {describe_timings(setup_s)} (fresh processes)")
    print(f"peak_rss_mb: {result['peak_rss_mb']:.6g}")
    print(f"fail_ratio: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for note in result["failures"]:
        print(f"  differs from reference: {note}")

    if args.trace:
        import_s = [s["import_s"] for s in setups]
        build_s = [s["build_s"] for s in setups]
        layers = dict(result["layers"])
        layers["setup.import_s"] = statistics.median(import_s)
        layers["setup.build_s"] = statistics.median(build_s)
        print(f"traced wall_s: {describe_timings(result['traced_walls'])}")
        print(f"trace counts repeat across traced passes: {result['counts_repeat']}")
        print(f"trace record: {result['trace_file']}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        values = {"wall_s": statistics.median(result["walls"]),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one single-threaded process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--size full|small] [--setup-only]

It imports twoscalepop from the checkout's ``src``, builds the workload's
params, configs and inputs, runs one untimed warm-up pass and then timed
passes back to back (a closed loop with one caller) until ``--seconds`` have
passed and at least ``MIN_PASSES`` are done.  Every pass's outputs are
checked against the recorded reference outside the timed region.  With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured in the same process.  The last stdout line is a JSON record.
``--setup-only`` stops after the build and reports its timings.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
MAX_FAILURE_NOTES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    """Versions and machine facts recorded next to every result."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Checker:
    """Counts jobs attempted and jobs whose outputs differ from the reference."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, raw) -> list[str]:
        import workloads

        prints = workloads.fingerprint(self.workload.outputs(raw))
        bad = workloads.failed_jobs(prints, self.reference)
        self.attempted += len(self.workload.jobs)
        self.failed += len(bad)
        self.notes.extend(bad[:MAX_FAILURE_NOTES - len(self.notes)])
        return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import twoscalepop
    import twoscalepop.cli  # noqa: F401  (the benchmark drives the CLI layer too)
    t1 = perf_counter()
    if Path(twoscalepop.__file__).resolve().parent != SRC / "twoscalepop":
        print(f"twoscalepop imported from {twoscalepop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    t2 = perf_counter()
    setup = {"import_s": t1 - t0, "build_s": t2 - t1}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    checker = Checker(workload, workloads.load_reference(args.workload, args.seed, args.size))
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    count = 0

    def one_pass(trace=None) -> float:
        nonlocal count
        out = tmp_dir / f"pass-{count}"
        count += 1
        if trace is None:
            start = perf_counter()
            raw = workload.run_pass(out)
            wall = perf_counter() - start
        else:
            with trace.installed():
                start = perf_counter()
                raw = workload.run_pass(out)
                wall = perf_counter() - start
        checker.check(raw)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    result = dict(setup)
    try:
        one_pass()  # warm-up, untimed
        walls, traced_walls, per_pass = [], [], []
        first_trace = None
        begin = perf_counter()
        while True:
            walls.append(one_pass())
            if args.trace:
                trace = tracer.Tracer()
                traced_walls.append(one_pass(trace))
                per_pass.append(trace.layer_metrics())
                first_trace = first_trace or trace.record()
            if len(walls) >= (1 if args.trace else MIN_PASSES) \
                    and perf_counter() - begin >= args.seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    result.update(
        walls=walls,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    if args.trace:
        layers = tracer.combine_passes(per_pass)
        layers["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(walls))
        counts = [tracer.counts_of(p) for p in per_pass]
        result.update(traced_walls=traced_walls, layers=layers,
                      counts_repeat=all(c == counts[0] for c in counts))
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "first_traced_pass": first_trace,
                                          "per_pass_layers": per_pass}, indent=1))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

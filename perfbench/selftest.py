"""Self-test of the benchmark at its small size.

    python3 perfbench/selftest.py

Checks that every workload runs and prints every metric BENCHMARK.json
names, that one perturbed CSV digit or one flipped verdict counts as a
failed job, that a traced pass produces the untraced pass's outputs with
counts that repeat exactly, and that the command refuses to report from a
directory holding only the benchmark.  Exits 0 when all checks hold.
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from metrics import WORKLOADS  # noqa: E402
from worker import OUT_DIR, Checker  # noqa: E402

SEED = 5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def every_workload_reports() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names other workloads than the benchmark runs")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = command("perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace), "--size", "small")
            check(proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace {trace}: {proc.stdout}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()), f"{workload}: non-numeric value")
            if trace:
                check("trace counts repeat across traced passes: True" in proc.stdout,
                      f"{workload}: traced counts differ between passes")
            print(f"ok: {workload} trace {trace} reports every metric", flush=True)


def _perturb_csv(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    digit = re.search(r"[0-8]", lines[1])
    check(digit is not None, f"no digit to perturb in {path}")
    i = digit.start()
    lines[1] = lines[1][:i] + str(int(lines[1][i]) + 1) + lines[1][i + 1:]
    path.write_text("".join(lines))


def perturbations_fail(tmp_dir: Path) -> None:
    name = "repeating_orbits"
    workload = workloads.build(name, SEED, "small")
    reference = workloads.load_reference(name, SEED, "small")

    checker = Checker(workload, reference)
    runs = workload.run_pass(tmp_dir / "clean")
    check(not checker.check(runs), "an unperturbed pass fails")

    runs = workload.run_pass(tmp_dir / "csv")
    _perturb_csv(runs[0].written[0][1])
    checker = Checker(workload, reference)
    check(checker.check(runs) and checker.failed / checker.attempted > 0,
          "a perturbed CSV digit is not a failure")

    runs = workload.run_pass(tmp_dir / "verdict")
    first = runs[0].verdicts[0]
    runs[0].verdicts[0] = dataclasses.replace(first, passed=not first.passed)
    checker = Checker(workload, reference)
    check(checker.check(runs) and checker.failed / checker.attempted > 0,
          "a flipped scenario verdict is not a failure")

    ball = workloads.build("ball_checks", SEED, "small")
    results = ball.run_pass(tmp_dir / "ball")
    verdicts = results["fig2.trapping_check"]
    k, verdict = next(iter(verdicts.items()))
    verdicts[k] = dataclasses.replace(verdict, trapped=not verdict.trapped)
    checker = Checker(ball, workloads.load_reference("ball_checks", SEED, "small"))
    check(checker.check(results) and checker.failed / checker.attempted > 0,
          "a flipped harness verdict is not a failure")
    print("ok: a perturbed CSV digit or a flipped verdict gives fail_ratio > 0", flush=True)


def tracing_is_transparent(tmp_dir: Path) -> None:
    for name in WORKLOADS:
        workload = workloads.build(name, SEED, "small")
        plain = workloads.fingerprint(workload.outputs(workload.run_pass(tmp_dir / f"{name}-0")))
        counts = []
        for i in (1, 2):
            trace = tracer.Tracer()
            with trace.installed():
                raw = workload.run_pass(tmp_dir / f"{name}-{i}")
            check(workloads.fingerprint(workload.outputs(raw)) == plain,
                  f"{name}: traced outputs differ from untraced outputs")
            counts.append(tracer.counts_of(trace.layer_metrics()))
        check(counts[0] == counts[1], f"{name}: traced counts differ: {counts}")
        print(f"ok: {name} traced outputs match untraced, counts repeat", flush=True)


def bare_directory_refuses(tmp_dir: Path) -> None:
    bare = tmp_dir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = command(f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0, "the benchmark ran without the program's sources")
    check('"correct"' not in proc.stdout, "the benchmark reported without the sources")
    print("ok: without the sources the command exits nonzero and reports nothing", flush=True)


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR))
    try:
        bare_directory_refuses(tmp_dir)
        perturbations_fail(tmp_dir)
        tracing_is_transparent(tmp_dir)
        every_workload_reports()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

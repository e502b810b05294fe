"""Time one perfbench workload on two source trees in alternating passes.

    python tools/paired_passes.py PARENT_TREE --workload W --seed S --passes N
        [--tree TREE]

Loads PARENT_TREE's and TREE's (by default the checkout holding this
script) ``twoscalepop`` package and ``perfbench/workloads.py`` into this one
process, emptying ``sys.modules`` of both between the two loads, so each
tree's workload runs its own code, at full size.  Then it runs
``WARMUP_PAIRS`` untimed pairs and N timed pairs of passes, parent first
in even pairs and change first in odd ones, and checks every pass's
outputs against that tree's ``perfbench/reference.json``.

Prints each tree's median pass time and interquartile range, the median
of the paired differences (change minus parent) and the number of pairs the
change won (ties count for neither side), then the claim rule's verdict on
one line (``verdict``): a speed claim is met with at least ``MIN_PAIRS``
pairs, the change faster in at least ``MIN_WIN_SHARE`` of them and a
paired median below zero by more than the parent's IQR.  Exits 1 if any
job of any pass failed its reference check, else 0.  Two copies of one
tree should read a paired median near 0 with about half the wins.
"""
from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one BLAS and OpenMP thread, as perfbench runs its workers; set before any
# tree imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

LABELS = ("parent", "change")
WARMUP_PAIRS = 3
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def _purge() -> None:
    """Forget every module a tree's load put in ``sys.modules``."""
    for name in list(sys.modules):
        if name in ("workloads", "metrics") or name.split(".")[0] == "twoscalepop":
            del sys.modules[name]


class Tree:
    """One source tree's built workload, its reference and its checks."""

    def __init__(self, root: Path, workload: str, seed: int):
        paths = [str(root / "src"), str(root / "perfbench")]
        _purge()
        sys.path[:0] = paths
        try:
            importlib.import_module("twoscalepop.cli")
            workloads = importlib.import_module("workloads")
        finally:
            del sys.path[:len(paths)]
        package = sys.modules["twoscalepop"].__file__
        if Path(package).resolve().parent != (root / "src" / "twoscalepop").resolve():
            raise RuntimeError(f"twoscalepop loaded from {package}, not from {root}")
        _purge()
        self.workloads = workloads
        self.workload = workloads.build(workload, seed, "full")
        self.reference = workloads.load_reference(workload, seed, "full")
        self.failed: list[str] = []

    def one_pass(self, out_root: Path) -> float:
        """Seconds of one pass; its outputs are checked after the clock stops."""
        start = perf_counter()
        raw = self.workload.run_pass(out_root)
        wall = perf_counter() - start
        prints = self.workloads.fingerprint(self.workload.outputs(raw))
        self.failed += self.workloads.failed_jobs(prints, self.reference)
        shutil.rmtree(out_root, ignore_errors=True)
        return wall


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (exclusive quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(parent: list[float], change: list[float]) -> str:
    """The claim rule on paired timings (``parent[i]`` with ``change[i]``),
    as one line that starts with "claim met" or "claim not met"."""
    gaps = [c - p for p, c in zip(parent, change)]
    wins = sum(gap < 0.0 for gap in gaps)
    gap, iqr = statistics.median(gaps), spread(parent)[1]
    parts = [(len(gaps) >= MIN_PAIRS, f"{len(gaps)} pairs (at least {MIN_PAIRS})"),
             (wins >= MIN_WIN_SHARE * len(gaps),
              f"change faster in {wins}/{len(gaps)} (at least {MIN_WIN_SHARE:.0%})"),
             (-gap > iqr, f"paired median {gap * 1e3:+.3f} ms against the parent's "
                          f"IQR {iqr * 1e3:.3f} ms")]
    met = all(ok for ok, _ in parts)
    return f"claim {'met' if met else 'not met'}: " + "; ".join(
        text if ok else f"{text} FAILS" for ok, text in parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree to compare (default: this checkout)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True, help="timed pairs")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")

    roots = (args.parent.resolve(), args.tree.resolve())
    trees = {label: Tree(root, args.workload, args.seed)
             for label, root in zip(LABELS, roots)}
    walls: dict[str, list[float]] = {label: [] for label in LABELS}
    scratch = Path(tempfile.mkdtemp(prefix="paired-passes-"))
    try:
        for pair in range(WARMUP_PAIRS + args.passes):
            order = LABELS if pair % 2 == 0 else LABELS[::-1]
            for label in order:
                wall = trees[label].one_pass(scratch / f"{label}-{pair}")
                if pair >= WARMUP_PAIRS:
                    walls[label].append(wall)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}, {args.passes} pairs after "
          f"{WARMUP_PAIRS} warm-up pairs (ms per pass)")
    for label, root in zip(LABELS, roots):
        median, iqr = spread(walls[label])
        print(f"  {label:<6} median {median * 1e3:.3f}  IQR {iqr * 1e3:.3f}  ({root})")
    gaps = [c - p for p, c in zip(walls["parent"], walls["change"])]
    wins = sum(gap < 0.0 for gap in gaps)
    parent_median = statistics.median(walls["parent"])
    change_pct = 100.0 * (statistics.median(walls["change"]) / parent_median - 1.0)
    print(f"  paired median {statistics.median(gaps) * 1e3:+.3f} ms, medians "
          f"{change_pct:+.1f} %, change faster in {wins}/{len(gaps)} pairs")
    print(f"  {verdict(walls['parent'], walls['change'])}")
    failures = [(label, job) for label in LABELS for job in trees[label].failed]
    for label, job in failures[:10]:
        print(f"  FAILED {label}: {job}")
    print("all passes match reference.json" if not failures
          else f"{len(failures)} failed job(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

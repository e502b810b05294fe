"""Time one twoscalepop command on two source trees in fresh-process pairs.

    python tools/paired_cli.py PARENT_TREE [--tree TREE] [--pairs N]
        -- <twoscalepop arguments>

Runs ``python -m twoscalepop.cli <arguments>`` as a fresh process, once on
PARENT_TREE's and once on TREE's (by default the checkout holding this
script) ``src``, for ``WARMUP_PAIRS`` untimed pairs and then N timed pairs
(default 20), parent first in even pairs and change first in odd ones.
Each run starts in its own empty working directory, so ``run`` writes
under ``./out`` unless the arguments say otherwise.  Bytecode, numpy's
too, is written to and read from a temporary ``PYTHONPYCACHEPREFIX``, so
the trees stay untouched and the warm-up pairs fill the cache; the
compiled stepping loop's cache is the usual one.

For each tree it prints the median and interquartile range of the wall
time (from start to reaped exit) and of the child's peak resident memory
(``ru_maxrss`` from ``os.wait4``), then, for each of the two, the median
of the paired differences (change minus parent) and the number of pairs
the change won (ties count for neither side).  Every run's exit code,
stdout and the files it wrote must equal those of its own tree's first
run; exits 1 if any differs, else 0.  Two copies of one tree should read
paired medians near 0 with about half the wins.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# its import also pins BLAS and OpenMP to one thread, as perfbench runs its
# workers, in the environment the children inherit
from paired_passes import LABELS, spread

WARMUP_PAIRS = 2


def _files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class Tree:
    """One source tree's runs: their times, peaks and output checks."""

    def __init__(self, label: str, root: Path, args: list[str], scratch: Path):
        self.label, self.root, self.args, self.scratch = label, root, args, scratch
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"),
                    "PYTHONPYCACHEPREFIX": str(scratch / "pycache")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # the prefix holds every module's cache
        self.walls: list[float] = []
        self.peaks: list[float] = []
        self.first: tuple | None = None
        self.differing: list[int] = []
        self.runs = 0

    def run(self, timed: bool) -> None:
        """One fresh process; its outputs are checked after the clock stops."""
        work = self.scratch / f"{self.label}-{self.runs}"
        work.mkdir()
        with open(self.scratch / "stdout", "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "twoscalepop.cli", *self.args],
                                    cwd=work, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        result = (proc.returncode, (self.scratch / "stdout").read_bytes(), _files(work))
        if self.first is None:
            self.first = result
        elif result != self.first:
            self.differing.append(self.runs)
        shutil.rmtree(work)
        if timed:
            self.walls.append(wall)
            self.peaks.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
        self.runs += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree to compare (default: this checkout)")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs (default 20)")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("give the twoscalepop arguments after --")
    split = argv.index("--")
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if not command:
        parser.error("give the twoscalepop arguments after --")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = (args.parent.resolve(), args.tree.resolve())
    for label, root in zip(LABELS, roots):
        if not (root / "src" / "twoscalepop").is_dir():
            parser.error(f"{label} tree {root} has no src/twoscalepop")

    scratch = Path(tempfile.mkdtemp(prefix="paired-cli-"))
    try:
        trees = {label: Tree(label, root, command, scratch)
                 for label, root in zip(LABELS, roots)}
        for pair in range(WARMUP_PAIRS + args.pairs):
            for label in LABELS if pair % 2 == 0 else LABELS[::-1]:
                trees[label].run(timed=pair >= WARMUP_PAIRS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"twoscalepop {' '.join(command)}: {args.pairs} fresh-process pairs after "
          f"{WARMUP_PAIRS} warm-up pairs")
    for label, tree in trees.items():
        wall, wall_iqr = spread(tree.walls)
        peak, peak_iqr = spread(tree.peaks)
        print(f"  {label:<6} wall median {wall * 1e3:.2f} ms IQR {wall_iqr * 1e3:.2f}  "
              f"peak RSS median {peak:.2f} MB IQR {peak_iqr:.2f}  ({tree.root})")
    for name, unit, scale, attr, verb in (("wall", "ms", 1e3, "walls", "faster"),
                                          ("peak RSS", "MB", 1.0, "peaks", "lower")):
        parent, change = (getattr(trees[label], attr) for label in LABELS)
        gaps = [c - p for p, c in zip(parent, change)]
        wins = sum(gap < 0.0 for gap in gaps)
        print(f"  {name}: paired median {statistics.median(gaps) * scale:+.2f} {unit}, "
              f"change {verb} in {wins}/{len(gaps)} pairs")
    differing = [(label, run) for label, tree in trees.items() for run in tree.differing]
    for label, run in differing[:10]:
        print(f"  DIFFERENT {label} run {run}: exit code, stdout or files differ from run 0")
    print("every run matches its tree's first run" if not differing
          else f"{len(differing)} run(s) differ from their tree's first run")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees give byte-identical outputs.

    python tools/same_outputs.py PARENT_TREE [--tree TREE]

Runs the standing output check in PARENT_TREE and in TREE (by default the
checkout holding this script), each tree importing twoscalepop from its own
``src``:

- full-horizon ``twoscalepop run NAME`` for fig2, fig3, fig10 and
  sec42_compare, comparing the output directories with ``diff -r``, the
  exit codes and stdout;
- ``twoscalepop run example.toml``, README's example config (taken from
  TREE's README.md and written as ``example.toml`` into each work
  directory), compared the same way, so the config-file path is covered;
- ``twoscalepop check`` and ``twoscalepop list``, comparing stdout and the
  exit code.

Each is done twice: with the environment as it is (so the compiled loop
steps orbits when ``cc`` is on PATH) and with ``cc`` off PATH (so every
orbit steps in Python).  Both times each tree's ``XDG_CACHE_HOME`` is an
empty directory inside its work directory, so every run builds the
extension afresh when it can, and none leaves a module in the user's
cache.  Prints one line per comparison and exits 1 on any difference,
else 0.  Work directories are temporary and removed at the end.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("fig2", "fig3", "fig10", "sec42_compare")
EXAMPLE = "example.toml"
DESCRIBE = "from twoscalepop import _native; print(_native.describe())"


def _env(tree: Path, work: Path, with_cc: bool) -> dict:
    # the cache lives and dies with the work directory, and starts empty, so
    # a run without cc finds no library built earlier
    cache = work / "cache"
    cache.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "XDG_CACHE_HOME": str(cache)}
    if not with_cc:
        # python is started by its absolute path, so PATH can name an empty
        # directory
        empty_path = work / "empty-path"
        empty_path.mkdir()
        env["PATH"] = str(empty_path)
    return env


def _run(args: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def _readme_example(tree: Path) -> str:
    """The example config under README's "Config files" heading."""
    readme = (tree / "README.md").read_text()
    return readme.split("## Config files", 1)[1].split("```toml\n", 1)[1].split("```", 1)[0]


def _compare(trees: dict[str, Path], scratch: Path, with_cc: bool, example: str) -> list[str]:
    """Differences between the two trees in one environment, one line each."""
    mode = "cc" if with_cc else "no cc"
    envs, dirs = {}, {}
    for label, tree in trees.items():
        dirs[label] = scratch / label
        dirs[label].mkdir()
        (dirs[label] / EXAMPLE).write_text(example)
        envs[label] = _env(tree, dirs[label], with_cc)
        path = _run(["-c", DESCRIBE], envs[label], dirs[label]).stdout.strip()
        print(f"[{mode}] {label} steps on: {path}")

    differences = []
    # (label, arguments, output directory under out/, if any); a config
    # file's outputs land in out/<its stem>
    run = ["-m", "twoscalepop.cli", "run"]
    commands = [(name, [*run, name, "--out", "out"], name) for name in SCENARIOS]
    commands += [(EXAMPLE, [*run, EXAMPLE, "--out", "out"], Path(EXAMPLE).stem),
                 ("check", ["-m", "twoscalepop.cli", "check"], None),
                 ("list", ["-m", "twoscalepop.cli", "list"], None)]
    for name, args, out in commands:
        parent, change = (_run(args, envs[label], dirs[label]) for label in trees)
        same = True
        if parent.returncode != change.returncode:
            differences.append(f"[{mode}] {name}: exit {parent.returncode} vs {change.returncode}")
            same = False
        if parent.stdout != change.stdout:
            differences.append(f"[{mode}] {name}: stdout differs")
            same = False
        if out is not None:
            diff = subprocess.run(["diff", "-r", *(str(dirs[label] / "out" / out)
                                                   for label in trees)],
                                  capture_output=True, text=True)
            if diff.returncode != 0:
                differences.append(f"[{mode}] {name}: diff -r differs\n{diff.stdout}")
                same = False
        print(f"[{mode}] {name}: {'same' if same else 'DIFFERENT'} (exit {change.returncode})")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree to compare (default: this checkout)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.tree.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "twoscalepop").is_dir():
            parser.error(f"{label} tree {tree} has no src/twoscalepop")
    if shutil.which("cc") is None:
        print("note: no cc on PATH, so both environments step orbits in Python")
    example = _readme_example(trees["change"])
    differences = []
    for with_cc in (True, False):
        scratch = Path(tempfile.mkdtemp(prefix="same-outputs-"))
        try:
            differences += _compare(trees, scratch, with_cc, example)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    for line in differences:
        print(line)
    print("outputs identical" if not differences else f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

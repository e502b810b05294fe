import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_LINES = ROOT / "tools" / "code_lines.py"
PAIRED_CLI = ROOT / "tools" / "paired_cli.py"


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    source = '''"""Module docstring,
over two lines."""
import dataclasses
from dataclasses import dataclass

# a comment line


@dataclass(frozen=True)
class A:
    """Class docstring."""

    x: int  # a trailing comment counts as code


@dataclasses.dataclass
class B:
    y = """a string that is no docstring
    spans lines"""


def f(a,
      b):
    """Function docstring."""
    return (a
            + b)
'''
    # two imports; decorator, class line, field; decorator, class line and
    # a string over two lines; a def and a return over two lines each
    assert _code_lines_module().count(source) == (13, 2)


def test_code_lines_counts_only_c_code():
    source = r"""/* a block comment
 * over two lines */
#include <math.h>

// a line comment
static const char *text = "a /* string */ with \" an escaped quote";
static int f(int a, /* an inline comment */ int b)
{
    /* a comment */ return a + b;  /* trailing
    comment over two lines */
    char c = '"';

}
"""
    # the include, the string, the signature, the braces, the return (its
    # comment's second line is comment only) and the character literal
    assert _code_lines_module().count_c(source) == 7


def test_code_lines_reports_the_checkout():
    proc = subprocess.run([sys.executable, str(CODE_LINES)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, header, *rows = proc.stdout.splitlines()
    match = re.fullmatch(r"checkout: Python (\d+) code lines, (\d+) @dataclass; "
                         r"C (\d+) code lines \((.+)\)", first)
    assert match, proc.stdout
    assert Path(match[4]) == ROOT
    module = _code_lines_module()
    assert (int(match[1]), int(match[2])) == module.count_tree(ROOT)
    assert int(match[3]) == module.count_c_tree(ROOT)
    assert int(match[1]) > 0 and int(match[2]) > 0 and int(match[3]) > 0
    # one row per module, whose lines sum to the total
    assert header.split() == ["module", "checkout"]
    table = dict(row.split() for row in rows)
    assert sorted(table) == sorted(p.name for p in (ROOT / "src" / "twoscalepop").glob("*.py"))
    assert sum(map(int, table.values())) == int(match[1])


def test_code_lines_shows_code_moved_between_modules(tmp_path):
    # three code lines move from a.py to b.py, c.py goes and d.py comes
    trees = {"checkout": {"a.py": "x = 1\n", "b.py": "y = 2\nz = 3\nw = 4\nv = 5\n",
                          "d.py": "u = 6\n"},
             "parent": {"a.py": "x = 1\ny = 2\nz = 3\nw = 4\n", "b.py": "v = 5\n",
                        "c.py": "t = 0\n"}}
    for label, files in trees.items():
        package = tmp_path / label / "src" / "twoscalepop"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    (tmp_path / "checkout" / "tools").mkdir()
    script = tmp_path / "checkout" / "tools" / "code_lines.py"
    script.write_text(CODE_LINES.read_text())
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "parent")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("checkout: Python 6 code lines, 0 @dataclass; C 0 code lines")
    assert lines[1].startswith("parent: Python 6 code lines, 0 @dataclass; C 0 code lines")
    assert [row.split() for row in lines[2:]] == [
        ["module", "checkout", "parent", "change"],
        ["a.py", "1", "4", "-3"],
        ["b.py", "4", "1", "+3"],
        ["c.py", "-", "1", "-1"],
        ["d.py", "1", "-", "+1"],
    ]


def _package_copies(tmp_path, labels):
    for label in labels:
        shutil.copytree(ROOT / "src" / "twoscalepop", tmp_path / label / "src" / "twoscalepop",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return [tmp_path / label for label in labels]


def test_paired_cli_times_two_copies_of_one_tree(tmp_path):
    parent, change = _package_copies(tmp_path, ("parent", "change"))
    proc = subprocess.run([sys.executable, str(PAIRED_CLI), str(parent), "--tree", str(change),
                           "--pairs", "3", "--", "run", "fig2", "--fast"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    title, *sides, wall, peak, verdict = proc.stdout.splitlines()
    assert title == "twoscalepop run fig2 --fast: 3 fresh-process pairs after 2 warm-up pairs"
    number = r"([0-9.]+)"
    for line, label, root in zip(sides, ("parent", "change"), (parent, change)):
        match = re.fullmatch(rf"  {label} +wall median {number} ms IQR {number}  "
                             rf"peak RSS median {number} MB IQR {number}  \((.+)\)", line)
        assert match, line
        assert float(match[1]) > 0.0 and float(match[3]) > 0.0
        assert Path(match[5]) == root.resolve()
    assert re.fullmatch(r"  wall: paired median [+-][0-9.]+ ms, change faster in [0-3]/3 pairs",
                        wall), wall
    assert re.fullmatch(r"  peak RSS: paired median [+-][0-9.]+ MB, change lower in [0-3]/3 "
                        r"pairs", peak), peak
    assert verdict == "every run matches its tree's first run"


def test_paired_cli_fails_when_a_run_differs_from_its_first(tmp_path):
    parent, change = _package_copies(tmp_path, ("parent", "change"))
    init = change / "src" / "twoscalepop" / "__init__.py"
    init.write_text(init.read_text() + "\nimport os\nprint(os.getpid())\n")
    proc = subprocess.run([sys.executable, str(PAIRED_CLI), str(parent), "--tree", str(change),
                           "--pairs", "2", "--", "list"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # the change tree's three later runs print another pid; the parent's do not
    assert [line for line in lines if "DIFFERENT" in line] == [
        f"  DIFFERENT change run {run}: exit code, stdout or files differ from run 0"
        for run in (1, 2, 3)]
    assert lines[-1] == "3 run(s) differ from their tree's first run"


def _paired_passes_module():
    spec = importlib.util.spec_from_file_location("paired_passes", ROOT / "tools" / "paired_passes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_passes_states_the_claim_verdict():
    verdict = _paired_passes_module().verdict
    parent = [0.010 + 0.0001 * (i % 4) for i in range(10)]  # IQR 0.225 ms
    faster = [p - 0.001 for p in parent]
    met = verdict(parent, faster)
    assert met.startswith("claim met: 10 pairs") and "FAILS" not in met, met
    assert "change faster in 10/10" in met and "paired median -1.000 ms" in met, met
    # too few pairs, a lost pair too many, a gap inside the parent's IQR,
    # and a slower change each fail the rule, and say which part failed
    lost_two = faster[:8] + [p + 0.001 for p in parent[8:]]
    for label, (p, c), failed in (
            ("pairs", (parent[:9], faster[:9]), "9 pairs (at least 10) FAILS"),
            ("wins", (parent, lost_two), "change faster in 8/10 (at least 90%) FAILS"),
            ("gap", (parent, [x - 0.0001 for x in parent]), "IQR 0.225 ms FAILS"),
            ("slower", (parent, [x + 0.001 for x in parent]), "IQR 0.225 ms FAILS")):
        line = verdict(p, c)
        assert line.startswith("claim not met: ") and failed in line, (label, line)


def test_same_outputs_keeps_each_trees_cache_in_its_work_directory(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "user-cache"))
    monkeypatch.setenv("PATH", "/usr/bin")
    for with_cc in (True, False):
        work = tmp_path / f"work-{with_cc}"
        work.mkdir()
        env = module._env(ROOT, work, with_cc)
        # a fresh, empty cache inside the work directory, never the user's
        assert env["XDG_CACHE_HOME"] == str(work / "cache")
        assert not any((work / "cache").iterdir())
        assert env["PYTHONPATH"] == str(ROOT / "src")
        if with_cc:
            assert env["PATH"] == "/usr/bin"
        else:
            assert env["PATH"] == str(work / "empty-path")
            assert not any((work / "empty-path").iterdir())

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_LINES = ROOT / "tools" / "code_lines.py"


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

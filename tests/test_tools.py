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


def test_code_lines_reports_the_checkout():
    proc = subprocess.run([sys.executable, str(CODE_LINES)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"checkout: (\d+) code lines, (\d+) @dataclass \((.+)\)\n", proc.stdout)
    assert match, proc.stdout
    assert Path(match[3]) == ROOT
    assert (int(match[1]), int(match[2])) == _code_lines_module().count_tree(ROOT)
    assert int(match[1]) > 0 and int(match[2]) > 0

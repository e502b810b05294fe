"""Count the code lines and ``@dataclass`` decorators of the package.

    python tools/code_lines.py [PARENT_TREE]

For the checkout holding this script (and for PARENT_TREE, if given) it
prints, apart, the number of Python code lines in ``src/twoscalepop/*.py``
with the number of ``@dataclass`` decorators there, and the number of C
code lines in ``src/twoscalepop/*.c``.  A Python code line holds a token
other than a comment or a docstring of a module, class or function:
``tokenize`` finds the tokens and ``ast`` the docstrings; a token spanning
several lines, such as a multi-line string, puts each of them in the count.
A C code line holds a character other than white space outside ``/* */``
and ``//`` comments (string and character literals are code); blank and
comment-only lines do not count.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def count(source: str) -> tuple[int, int]:
    """(code lines, ``@dataclass`` decorators) of one module's source."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in _LAYOUT
             for line in range(tok.start[0], tok.end[0] + 1)} - docs
    dataclasses = sum(_decorator_name(d) == "dataclass"
                      for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                      for d in node.decorator_list)
    return len(lines), dataclasses


def count_c(source: str) -> int:
    """Code lines of one C source: lines with anything outside comments."""
    lines, i, n, line = set(), 0, len(source), 1
    while i < n:
        c, pair = source[i], source[i:i + 2]
        if pair == "/*":  # a block comment, possibly over several lines
            end = source.find("*/", i + 2)
            end = n if end < 0 else end + 2
            line += source.count("\n", i, end)
            i = end
        elif pair == "//":
            end = source.find("\n", i)
            i = n if end < 0 else end
        elif c in "\"'":  # a literal, whose escapes may hide its quote
            j = i + 1
            while j < n and source[j] not in (c, "\n"):
                j += 2 if source[j] == "\\" else 1
            lines.add(line)
            i = j + 1 if j < n and source[j] == c else j
        else:
            if c == "\n":
                line += 1
            elif not c.isspace():
                lines.add(line)
            i += 1
    return len(lines)


def count_tree(tree: Path) -> tuple[int, int]:
    """(Python code lines, ``@dataclass`` decorators) summed over the package."""
    totals = [count(path.read_text()) for path in sorted((tree / "src" / "twoscalepop").glob("*.py"))]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


def count_c_tree(tree: Path) -> int:
    """C code lines summed over the package."""
    return sum(count_c(path.read_text()) for path in (tree / "src" / "twoscalepop").glob("*.c"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path, help="a second source tree to count")
    args = parser.parse_args(argv)
    trees = {"checkout": Path(__file__).resolve().parent.parent}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    for label, tree in trees.items():
        lines, dataclasses = count_tree(tree)
        print(f"{label}: Python {lines} code lines, {dataclasses} @dataclass; "
              f"C {count_c_tree(tree)} code lines ({tree})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

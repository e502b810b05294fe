"""Count the code lines and ``@dataclass`` decorators of the package.

    python tools/code_lines.py [PARENT_TREE]

For the checkout holding this script (and for PARENT_TREE, if given) it
prints the number of code lines in ``src/twoscalepop/*.py`` and the number
of ``@dataclass`` decorators there.  A code line holds a token other than a
comment or a docstring of a module, class or function: ``tokenize`` finds
the tokens and ``ast`` the docstrings; a token spanning several lines, such
as a multi-line string, puts each of them in the count.
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


def count_tree(tree: Path) -> tuple[int, int]:
    """(code lines, ``@dataclass`` decorators) summed over the package."""
    totals = [count(path.read_text()) for path in sorted((tree / "src" / "twoscalepop").glob("*.py"))]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path, help="a second source tree to count")
    args = parser.parse_args(argv)
    trees = {"checkout": Path(__file__).resolve().parent.parent}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    for label, tree in trees.items():
        lines, dataclasses = count_tree(tree)
        print(f"{label}: {lines} code lines, {dataclasses} @dataclass ({tree})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

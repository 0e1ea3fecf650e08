"""Count code lines under ``src/repro``: the number size claims are made in.

A *code line* is a physical line that carries at least one token other
than a comment, a docstring or layout (newlines, indentation), found with
``tokenize`` and ``ast``: a string literal that is the first statement of a
module, class or function body is a docstring, so every line it spans is
left out.  Physical lines are printed next to it because a diff that only
reflows comments moves one number and not the other.

Usage::

    python benchmarks/code_size.py                  # every file, by package
    python benchmarks/code_size.py core/engine.py core/shard.py core/plan.py
    python benchmarks/code_size.py --root /path/to/other/checkout/src/repro
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code_lines, physical_lines)`` of one Python source text."""
    skip = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skip), len(source.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="paths relative to --root (default: every *.py)")
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    root: Path = args.root
    paths = ([root / name for name in args.files] if args.files
             else sorted(root.rglob("*.py")))
    packages: dict[str, list[int]] = {}
    total = [0, 0]
    print(f"{'code':>6} {'lines':>6}  file")
    for path in paths:
        code, physical = count(path.read_text())
        relative = path.relative_to(root)
        print(f"{code:>6} {physical:>6}  {relative}")
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        sums = packages.setdefault(package, [0, 0])
        for acc in (sums, total):
            acc[0] += code
            acc[1] += physical
    if not args.files:
        print()
        for package, (code, physical) in sorted(packages.items()):
            print(f"{code:>6} {physical:>6}  {package}/")
    print(f"{total[0]:>6} {total[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

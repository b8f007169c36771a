"""
Line counts of a source tree, as code lines and as ``wc -l``.

    python3 tools/code_lines.py src

For every ``*.py`` file under the given root, and in total, prints the
number of lines (what ``wc -l`` counts) and how many of them are code,
docstring, comment and blank. A code line is one that is not blank, not a
comment and not part of a module, class or function docstring; blank lines
inside a docstring count as docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("lines", "code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict[str, int]:
    """The counts of ``KINDS`` for one module's source text."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    # a comment line holds a comment token and nothing before it; a "#" inside a string does not
    comments = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        kind = ("docstring" if number in docstring else "comment" if number in comments
                else "code" if line.strip() else "blank")
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/code_lines.py <src-root>", file=sys.stderr)
        return 2
    root = Path(argv[1])
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(f"{str(path.relative_to(root)):<32}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<32}" + "".join(f"{total[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Line counts of the chaincover modules.

    python tools/src_lines.py [DIR]

For each ``*.py`` file in DIR (default: this checkout's ``src/chaincover``)
and in total, prints its lines as ``wc -l`` counts them and its code lines:
the lines that are not blank, not comment-only and not inside a docstring.
A docstring is any statement that is a bare string literal: module,
class and function docstrings, and a string placed after an assignment to
document it.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "chaincover"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(lines as ``wc -l`` counts them, code lines) of one module's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            code.difference_update(range(node.lineno, node.end_lineno + 1))
    return text.count("\n"), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count raw and code lines per module under ``src/``.

Code lines exclude blank lines, comment-only lines and docstring lines.
Docstrings are found with ``ast`` (the first statement of a module, class
or function, when it is a string literal) and the remaining lines are
classified with ``tokenize``: a line is code when it holds a token other
than a comment, a newline or an indentation change, outside any docstring.

Usage: python tools/code_lines.py [ROOT]   (ROOT defaults to src/ beside this script)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_raw = total_code = 0
    print(f"{'module':<40} {'raw':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{str(path.relative_to(root)):<40} {raw:>6} {code:>6}")
    print(f"{'total':<40} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Net code-line change of ``src/repro`` against a base revision.

Counts *code* lines only: a line counts when it holds part of a Python
token other than a comment, and is not part of a docstring (the leading
string of a module, class or function).  Blank lines, comments and
docstrings never count, so deleting or adding prose cannot move the
number — only code does.

Usage::

    python scripts/src_delta.py [BASE]

``BASE`` defaults to the merge base of ``HEAD`` with ``origin/main``
(then ``main``).  The working tree, uncommitted and untracked files
included, is compared with ``BASE``.  Prints one line per changed file
and a total; exits 2 when no base can be resolved.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, Optional, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = "src/repro"
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstring: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                first = body[0]
                end = first.end_lineno or first.lineno
                docstring.update(range(first.lineno, end + 1))
    lines: Set[int] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring)


def _git(*args: str) -> Optional[str]:
    proc = subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True
    )
    return proc.stdout if proc.returncode == 0 else None


def merge_base() -> Optional[str]:
    for ref in ("origin/main", "main"):
        out = _git("merge-base", "HEAD", ref)
        if out:
            return out.strip()
    return None


def base_counts(base: str) -> Dict[str, int]:
    listing = _git("ls-tree", "-r", "--name-only", base, "--", SRC) or ""
    counts = {}
    for path in listing.split():
        if path.endswith(".py"):
            counts[path] = code_lines(_git("show", f"{base}:{path}") or "")
    return counts


def tree_counts() -> Dict[str, int]:
    return {
        path.relative_to(REPO_ROOT).as_posix(): code_lines(
            path.read_text(encoding="utf-8"))
        for path in sorted((REPO_ROOT / SRC).rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def main(argv: list) -> int:
    base = argv[0] if argv else merge_base()
    if not base or _git("rev-parse", "--verify", f"{base}^{{commit}}") is None:
        print(f"src-delta: cannot resolve base revision {base!r}",
              file=sys.stderr)
        return 2
    before, after = base_counts(base), tree_counts()
    for path in sorted(before.keys() | after.keys()):
        delta = after.get(path, 0) - before.get(path, 0)
        if delta:
            print(f"{delta:+6d}  {path}")
    total_before, total_after = sum(before.values()), sum(after.values())
    print(f"{SRC} code lines: {total_before} -> {total_after} "
          f"({total_after - total_before:+d}) vs {base[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

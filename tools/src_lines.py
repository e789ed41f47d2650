"""Count the lines of the kharita package by kind.

    python3 tools/src_lines.py [DIR]

DIR defaults to the repository's src/kharita. Each line of each .py
file is one kind: docstring if it lies inside a module, class
or function docstring (by ast); else code if it holds any token other
than a comment (by tokenize); else comment if it holds a comment; else
blank. A row per file and a total row give wc -l, then the four kinds,
which sum to it.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """wc -l and the count of each kind, for one file's text."""
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    doc = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    counts["wc"] = source.count("\n")
    for n in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if n in doc else "code" if n in code
                else "comment" if n in comment else "blank")
        counts[kind] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src" / "kharita"
    total = dict.fromkeys(("wc",) + KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{k:>10}" for k in ("wc",) + KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for k in total:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in total))
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

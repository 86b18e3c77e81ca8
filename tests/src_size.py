"""Count the lines of each module of src/mahler by kind.

    python tests/src_size.py [SRC]

SRC is a tree's `src` directory (by default this tree's).  Every line of a
module is one of four kinds: blank (a blank line in a docstring included),
docstring (inside the span of a module, class or function docstring, as
`ast` finds it), comment (only a `#` comment), or code (anything else).
Prints one
row per module and a total row: code, docstring, comment, blank and all.
Its name does not start with `test_`, so pytest does not collect it.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree) -> set:
    """The line numbers that the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and type(body[0].value.value) is str:
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """The lines of one module per kind."""
    text = path.read_text(encoding="utf-8")
    docs, counts = docstring_lines(ast.parse(text)), dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("blank" if not stripped else "docstring" if number in docs
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(argv) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    rows = {path.name: count(path) for path in sorted((src / "mahler").glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "all")))
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[kind]:>10}" for kind in KINDS)
              + f"{sum(row.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

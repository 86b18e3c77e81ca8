"""List the library lines that no test runs.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

runs the suite (by default `tests`) in this process under a `sys.settrace`
hook limited to the files of src/mahler, then prints, per module, each line
that holds code and never ran.  Only this process is traced: a line reached
only from a test's subprocess is listed.  The suite runs about four times
slower than untraced.
"""

import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mahler"
hit: dict = {}


def _local(frame, event, arg):
    if event == "line":
        hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(str(SRC)):
        return None
    hit.setdefault(name, set()).add(frame.f_lineno)
    return _local


def code_lines(code: types.CodeType) -> set:
    """The lines of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(argv) -> int:
    import pytest
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        missed = sorted(code_lines(compile(text, str(path), "exec"))
                        - hit.get(str(path), set()))
        rows = text.splitlines()
        print(f"== {path.name}: {len(missed)} lines not run")
        for line in missed:
            print(f"{line:5d}  {rows[line - 1]}")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""List the library lines that no test, or no benchmark workload, runs.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]
    PYTHONPATH=src python tests/line_trace.py --workloads

runs the suite (by default `tests`) in this process under a `sys.settrace`
hook limited to the files of src/mahler, then prints, per module, each line
that holds code and never ran.  Only this process is traced: a line reached
only from a test's subprocess is listed.  Those are the body of
`cli.entrypoint` and a module's `if __name__ == "__main__":` block; the
script exits 1 when the suite fails or when any other line is not run, so
it checks that every other library line is reached by a test.  The suite
runs about four times slower than untraced.

With --workloads it runs instead one cycle of each perfbench workload at
seeds 0-3, in this process: avatar-pipeline and exact-transforms from their
`Workload`s, and cli-cold's calls through `mahler.cli.main` in a temporary
directory.  Set-up and each job's run are traced; checking a job's output
against its oracle is not.  It imports perfbench and writes nothing there;
it exits 1 if any job's output fails its check; the lines that no
workload runs are listed, and do not make it fail.
"""

import ast
import contextlib
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mahler"
SEEDS = range(4)
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


@contextlib.contextmanager
def traced():
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def code_lines(code: types.CodeType) -> set:
    """The lines of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def subprocess_only(path: Path, text: str) -> set:
    """The lines of `cli.entrypoint` and of a `__main__` block of the module
    at `path`, which only a subprocess runs."""
    lines = set()
    for node in ast.parse(text).body:
        if (isinstance(node, ast.FunctionDef) and path.name == "cli.py"
                and node.name == "entrypoint") or (
                isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def run_workloads() -> int:
    """One cycle of each workload per seed; 1 if a job fails its check, else 0."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench
    sys.path.insert(0, str(ROOT / "perfbench"))
    os.environ.pop("MAHLER_PREC", None)  # as cli-cold's children run
    import wl_avatar
    import wl_cli
    import wl_exact
    failed = 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            with traced():
                jobs = [*wl_avatar.Workload(seed).jobs, *wl_exact.Workload(seed).jobs,
                        *wl_cli.replay_jobs(wl_cli.build_commands(seed, workdir), workdir)]
            for job in jobs:
                try:
                    with traced():
                        raw = job.run()
                    error = job.check(job.summarize(raw))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    failed += 1
                    print(f"seed {seed}: {job.name}: {error}")
        print(f"seed {seed}: {len(jobs)} jobs run")
    return int(failed > 0)


def main(argv) -> int:
    if argv == ["--workloads"]:
        code = run_workloads()
    else:
        import pytest
        with traced():
            code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    total, unexplained = 0, 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        missed = sorted(code_lines(compile(text, str(path), "exec"))
                        - hit.get(str(path), set()))
        rows = text.splitlines()
        print(f"== {path.name}: {len(missed)} lines not run")
        for line in missed:
            print(f"{line:5d}  {rows[line - 1]}")
        total += len(missed)
        unexplained += len(set(missed) - subprocess_only(path, text))
    print(f"== {total} lines not run in all, {unexplained} outside cli.entrypoint "
          "and the __main__ blocks")
    if argv != ["--workloads"] and unexplained:
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

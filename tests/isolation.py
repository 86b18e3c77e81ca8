"""Run every Tier-1 test file alone, then all of them in reverse order.

    python tests/isolation.py

Each run is a fresh `python -m pytest -q` subprocess with this tree's `src`
first on PYTHONPATH, so a test that passes only after another file has
warmed a cache, or fails only after one has, shows here.  The script prints
the summary line of each run and exits 1 if any run fails (pytest's exit
code is not 0, which includes a run that collects no test).  It takes about
2.5 min on 2 vCPUs.  Its name does not start with `test_`, so pytest does
not collect it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(files: list) -> tuple:
    """(exit code, last line of pytest's output) of one run over files."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *files], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    lines = (done.stdout.strip() or done.stderr.strip() or "no output").splitlines()
    return done.returncode, lines[-1]


def main() -> int:
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    failed = False
    for name, group in [(f, [f]) for f in files] + [("all files, reverse order", files[::-1])]:
        code, summary = run(group)
        print(f"{name}: {summary}", flush=True)
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())

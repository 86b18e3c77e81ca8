"""Check that another tree's CLI prints what this tree's prints.

    python tests/tree_diff.py OTHER_SRC

OTHER_SRC is the `src` directory of the other tree, for example of a
`git archive` of the parent commit unpacked in a scratch directory.  One
corpus of `mahler` argvs is built:

- cli-cold's calls at seeds 0-3 (`perfbench/wl_cli.build_commands`), with
  their input files written once into a temporary directory that both
  sides read;
- `--help` on every command path of tests/cli_help.json;
- the README's CLI block, run in seed 0's directory, which holds every file
  it names;
- `arch identity --r 1719`, whose value passes str()'s 4300 digits, and
  `arch local-factor` at `--s 150`, whose radial power overflows;
- exact numbers that p^N divides where a command embeds them at precision N
  (`padic binomial-series --z 27 --p 3` at `--prec` 3 and 0, `measure
  restrict` and `cell-mass` on exact and mixed coefficients, whose files
  are written into the same directory), and `arch local-factor` at
  `--nodes-a` 96 and 256, where the Laguerre rule is not finite;
- `measure restrict` and `cell-mass` with `--prec` on truncated measures
  with int, Fraction and mixed coefficients: restriction at 1, at the
  highest supported target and one above it, cell masses at levels 1 and 2,
  and at `--prec 0`, which is refused;
- `measure restrict` without `--prec` on finite measures of order 30 at
  p = 3 and 5, one of PadicScalars (inexact and exact zeros among them) and
  one of mixed int, Fraction and PadicScalar coefficients;
- `measure push` and `measure pair` on finite exact measures, with int and
  Fraction coefficients, r_max below the largest product atom (the moment
  route) and at or above it (the atom route), h = 2 and h = 3 = p, where
  the average of three Dirac masses is refused;
- `measure pair`, `push` and `moments` on truncated measures of order 8 at
  p = 3 and 5, of PadicScalars or mixed with int and Fraction coefficients,
  inexact and exact zeros among them: h = 1 and 2, and h = 3 = p, which is
  refused; r_max and r at 0, 3, order - 1 and order, which is refused;
- `padic binomial-series` at p in {2, 3, 5, 7}, `--prec` 0-4, z in {0, 1,
  p, p^2, -1, 1/2, p/5, 1/p, 123456} and orders 1, 2, p^P - 1, p^P and
  p^P + 1, the last refused for every z known mod p^P.

Each side runs the whole corpus in one subprocess with PYTHONPATH set to its
`src`, every call through `mahler.cli.main` in-process
(`perfbench/wl_cli.replay_call`).  Per case the exit code, the stdout bytes
and the first line of stderr are compared.  The script prints one digest per
side, then every case that differs, the first with both sides' results, and
exits 1 on any difference.  The corpus has 278 cases.  It imports
perfbench, writes nothing there, and takes about 7 s on 2 vCPUs.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEEDS = range(4)
RANGE_CALLS = (["arch", "identity", "--r", "1719"],
               ["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1", "--s", "150"])
# truncated measures of order 30 at p = 3: a restriction supports a target of
# at most 13, a level-1 cell mass 14 and a level-2 one 3
TRUNCATED = {
    "trunc_int.json": [str((7 * n * n - 5 * n + 2) % 201 - 100) for n in range(30)],
    "trunc_fraction.json": [f"{(11 * n + 4) % 97 - 48}/{(2, 4, 5, 7)[n % 4]}"
                            for n in range(30)],
    "trunc_mixed.json": [[str(n * n - 40), f"{5 - 2 * n}/{n + 2 - n % 3}",
                          {"p": 3, "val": n % 2, "unit": str(3 * n + 1), "prec": 4 + n % 5}
                          ][n % 3] for n in range(30)],
}


def padic_entry(p: int, n: int):
    """The n-th PadicScalar of a finite test measure: every seventh an inexact
    zero, every seventh (offset 2) the exact zero."""
    if n % 7 == 3:
        return {"p": p, "val": "inf", "unit": "0", "prec": 2 + n % 4}
    if n % 7 == 5:
        return {"p": p, "val": "inf", "unit": "0", "prec": "inf"}
    return {"p": p, "val": n % 3, "unit": str(5 * n + 1), "prec": 3 + n % 6}


ORDER = 8


def truncated_measure(p: int, kind: str, shift: int) -> dict:
    """A truncated measure of order ORDER: PadicScalars from `padic_entry` at n +
    shift ("padic"), those mixed with int and Fraction coefficients ("mixed"),
    or exact zeros and zeros known mod p^2 ("zero")."""
    mahler = [padic_entry(p, n + shift) for n in range(ORDER)]
    if kind == "mixed":
        mahler = [[str(n * n - 40), f"{5 - 2 * n}/{(1, 2, 4, 7)[n % 4]}", x][n % 3]
                  for n, x in enumerate(mahler)]
    elif kind == "zero":
        mahler = [padic_entry(p, 3 + 2 * (n % 2)) for n in range(ORDER)]
    return {"p": p, "finite": False, "mahler": mahler}


PADIC_PAIRS = {  # h = 1 and 2 at p = 3 and 5, and h = 3 = p, which is refused
    f"pair_{kind}_{p}_h{h}.json": {"pairs": [
        [truncated_measure(p, kind, 4 * s), truncated_measure(p, "zero" if s == 1 else kind,
                                                              4 * s + 1)]
        for s in range(h)]}
    for kind in ("padic", "mixed") for p in (3, 5) for h in (1, 2, 3) if h < 3 or p == 3}

FINITE = {
    **{f"finite_padic_{p}.json": {"p": p, "finite": True,
                                  "mahler": [padic_entry(p, n) for n in range(30)]}
       for p in (3, 5)},
    **{f"finite_mixed_{p}.json": {"p": p, "finite": True, "mahler": [
        [str(n * n - 40), f"{5 - 2 * n}/{(1, 2, 4, 7)[n % 4]}", padic_entry(p, n)][n % 3]
        for n in range(30)]} for p in (3, 5)},
}
EDGE_FILES = {
    "exact_restrict.json": {"p": 3, "finite": False, "mahler": ["3", "3"] + ["0"] * 6},
    "exact_cell.json": {"p": 3, "finite": False, "mahler": ["1", "9"] + ["0"] * 6},
    "mixed.json": {"p": 2, "finite": True,
                   "mahler": ["16", {"p": 2, "val": 0, "unit": "1", "prec": 4}]},
    "push_a.json": {"p": 3, "finite": True, "mahler": ["2", "1/2", "-5", "7/4"]},
    "push_b.json": {"p": 3, "finite": True, "mahler": ["0", "0", "0", "1", "0", "-2"]},
    "pair_h2.json": {"pairs": [[{"p": 3, "finite": True, "mahler": m1},
                                {"p": 3, "finite": True, "mahler": m2}]
                               for m1, m2 in ((["1", "1/2", "3"], ["0", "5"]),
                                              (["4", "0", "-1/5"], ["1", "2", "1"]))]},
    # (δ1 ⊗ δ1, δ1 ⊗ δ2, δ2 ⊗ δ2) average to (δ1 + δ2 + δ4)/3: a_1 = 7/3
    "pair_h3.json": {"pairs": [[{"p": 3, "finite": True, "mahler": ["1", "1"]},
                                {"p": 3, "finite": True, "mahler": ["1", "1"]}],
                               [{"p": 3, "finite": True, "mahler": ["1", "1"]},
                                {"p": 3, "finite": True, "mahler": ["1", "2", "1"]}],
                               [{"p": 3, "finite": True, "mahler": ["1", "2", "1"]},
                                {"p": 3, "finite": True, "mahler": ["1", "2", "1"]}]]},
    **{name: {"p": 3, "finite": False, "mahler": mahler} for name, mahler in TRUNCATED.items()},
    **FINITE,
    **PADIC_PAIRS,
    **{f"trunc_{kind}_{p}_{shift}.json": truncated_measure(p, kind, shift)
       for kind in ("padic", "mixed") for p in (3, 5) for shift in (0, 1)},
    **{f"trunc_zero_{p}.json": truncated_measure(p, "zero", 0) for p in (3, 5)},
}
RMAX = ("0", "3", str(ORDER - 1), str(ORDER))  # r_max = order is refused
EDGE_CALLS = tuple(
    [["padic", "binomial-series", "--z", "27", "--p", "3", "--prec", prec, "--order", "3"]
     for prec in ("3", "0")]
    + [["measure", "restrict", "--file", "exact_restrict.json", "--prec", "1"],
       ["measure", "cell-mass", "--file", "exact_cell.json", "--a", "1", "--nu", "1",
        "--prec", "1"],
       ["measure", "restrict", "--file", "mixed.json"],
       ["measure", "cell-mass", "--file", "mixed.json", "--a", "0", "--nu", "1"]]
    + [["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1", "--nodes-a", nodes]
       for nodes in ("96", "256")]
    + [["measure", "push", "--file1", "push_a.json", "--file2", "push_b.json", "--rmax", r]
       for r in ("0", "6", "15", "40")]
    + [["measure", "pair", "--file", name, "--rmax", r]
       for name in ("pair_h2.json", "pair_h3.json") for r in ("0", "3", "9")]
    + [["measure", "restrict", "--file", name, "--prec", prec]
       for name in TRUNCATED for prec in ("1", "13", "14")]
    + [["measure", "cell-mass", "--file", name, "--a", a, "--nu", nu, "--prec", prec]
       for name in TRUNCATED for a, nu, prec in (("2", "1", "14"), ("5", "2", "3"),
                                                 ("2", "1", "0"))]
    + [["measure", "restrict", "--file", name] for name in FINITE]
    + [["measure", "pair", "--file", name, "--rmax", r] for name in PADIC_PAIRS for r in RMAX]
    + [["measure", "push", "--file1", f"trunc_{kind}_{p}_0.json",
        "--file2", f"trunc_{kind}_{p}_1.json", "--rmax", r]
       for kind in ("padic", "mixed") for p in (3, 5) for r in RMAX]
    + [["measure", "moments", "--file", f"trunc_{kind}_{p}{suffix}.json", "--r", r]
       for kind, suffix in (("padic", "_0"), ("mixed", "_0"), ("zero", ""))
       for p in (3, 5) for r in RMAX])

BINOMIAL_CALLS = tuple(
    ["padic", "binomial-series", f"--z={z}", "--p", str(p), "--prec", str(P), "--order", str(K)]
    for p in (2, 3, 5, 7) for P in range(5)
    for z in ("0", "1", str(p), str(p * p), "-1", "1/2", f"{p}/5", f"1/{p}", "123456")
    for K in (1, 2, p ** P - 1, p ** P, p ** P + 1))

# run in each side's subprocess: [[workdir, argv], ...] on stdin, one
# [exit code, stdout, first stderr line] per case on stdout
WORKER = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import wl_cli
results = []
for workdir, argv in json.load(sys.stdin):
    code, out, err = wl_cli.replay_call(argv, workdir)
    results.append([code, out.decode(), err.decode().split("\\n", 1)[0]])
json.dump(results, sys.stdout)
"""


def readme_argvs() -> list:
    """The argvs of the ```sh block under the README's `## CLI`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def corpus(workdir: str) -> list:
    """[[workdir, argv], ...]: every case, each with the directory it runs in."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench
    sys.path.insert(0, str(PERFBENCH))
    import wl_cli
    cases = []
    for seed in SEEDS:
        seed_dir = os.path.join(workdir, f"seed{seed}")
        cases += [[seed_dir, argv] for argv, _ in wl_cli.build_commands(seed, seed_dir)]
    help_paths = json.loads((ROOT / "tests" / "cli_help.json").read_text(encoding="utf-8"))
    home = os.path.join(workdir, "seed0")
    cases += [[home, path.split() + ["--help"]] for path in help_paths]
    cases += [[home, argv] for argv in readme_argvs()]
    cases += [[home, list(argv)] for argv in RANGE_CALLS]
    for name, obj in EDGE_FILES.items():
        Path(workdir, name).write_text(json.dumps(obj), encoding="utf-8")
    cases += [[workdir, argv] for argv in EDGE_CALLS + BINOMIAL_CALLS]
    return cases


def run_side(src: str, cases: list) -> list:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MAHLER_PREC", None)  # as cli-cold's children run
    done = subprocess.run([sys.executable, "-c", WORKER, str(PERFBENCH)], env=env,
                          input=json.dumps(cases), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def digest(results: list) -> str:
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def main(argv) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        cases = corpus(workdir)
        sides = {"this": run_side(str(ROOT / "src"), cases),
                 "other": run_side(os.path.abspath(argv[0]), cases)}
    for name, results in sides.items():
        print(f"{name}: {digest(results)} over {len(results)} cases")
    differing = [i for i, (a, b) in enumerate(zip(*sides.values())) if a != b]
    for i in differing:
        workdir, argv = cases[i]
        print(f"differs, in {os.path.basename(workdir)}: mahler {shlex.join(argv)}")
    if differing:
        first = differing[0]
        for name, results in sides.items():
            code, out, err = results[first]
            print(f"  {name}: exit {code}, stderr {err[:200]!r}, stdout {out[:200]!r}")
    return int(bool(differing))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

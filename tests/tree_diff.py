"""Check that another tree computes what this tree computes, through the CLI
and in process.

    python tests/tree_diff.py OTHER_SRC

OTHER_SRC is the `src` directory of the other tree, for example of a
`git archive` of the parent commit unpacked in a scratch directory.  Each
side runs every case in one worker subprocess with PYTHONPATH set to its
`src`, and the worker checks that `mahler` is imported from there; the two
workers run at the same time.  The cases fall into nine sections.

`cli` is one corpus of `mahler` argvs, every call through `mahler.cli.main`
in-process (`perfbench/wl_cli.replay_call`); per case the exit code, the
stdout bytes and the first line of stderr are compared, and the section's
digest is that of the JSON list of these.  The corpus:

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

The eight in-process sections compare the characters, pairings, avatar
families and p-adic Dirac masses that no command prints.  A case's outcome
is a byte string, compared by its SHA-256, and a section's digest is the
SHA-256 of its cases' bytes in order:

* `character-terms`, one case per discriminant D with |D| <= 3000 and
  D = -1999999: D, then d, m and the group-ring terms, in stored order, of
  every value, character by character;
* `exponent-rows`, the same cases: D and the `exponents` row (None where
  there is none) of each character, after checking that a row lists the
  exponent of each value's one term;
* `pairing-terms`, one case per D with |D| <= 1200: d, m and the stored
  terms of `pairing(a, b)` for every pair of characters, and of
  `twisted_pairing(a, b, psi)` with psi drawn per pair from a seeded
  generator;
* `weight-function-terms`, one case per D of WEIGHT_FUNCTION_DISCS: d, m
  and the stored terms, sorted by exponent, or the exception type and
  message, of `pairing` and `twisted_pairing` over seeded weight functions
  that are not characters: scaled characters, int and Fraction constants,
  roots of unity in a smaller layer, general values of cancelling nonzero
  weights, and values of another quadratic field, a PadicScalar or a str,
  which are refused.  The terms are sorted because the order in which a
  sum of products first meets its exponents is not part of its value;
* `avatar-family`, one case per `paper_oracles.family_cases()` (every D
  with |D| <= 200 at orders 1, 2, 16 and 48, a seeded embedding precision
  from 1 to 6, low enough that some binomial series are refused, and as
  chi0 a character, a character with one zero value, the non-p-integral
  constant 1/p or a scaled character): `paper_oracles.family_outcome` of
  `avatar_measure_family`;
* `wide-pairing-terms`, one case per seeded pair at D = -4679 and -8399
  (h = m = 91 and 134), where the factors' exponents can add past one byte:
  d, m and the stored terms of `pairing(a, b)` and `twisted_pairing(a, b,
  psi)`;
* `family-pairing`, the cases of `avatar-family`: the fields, or the
  exception type and message, of `pairing_measure` of the family paired
  with itself reversed at r_max 0 and 8, and of `restrict_to_units` and the
  two level-1 `cell_mass` calls at the residues of z and z + 1 of member 0,
  with avatar z, at every target from 1 to one past the restriction's tail
  bound; every call reads the members' atoms, none their coefficients;
* `dirac-atoms`, one case per `paper_oracles.dirac_cases()`: the fields, or
  the exception type and message, of `dirac` at a PadicScalar with its
  atom, of `restrict_to_units` and the two level-1 `cell_mass` calls at the
  residues of z and z + 1 at every target from 1 to one past the
  restriction's tail bound, and of `pairing_measure` at r_max 0 and 8 of
  the one pair with member 1 of `paper_oracles.partner_family(p)` and of
  the one pair with the Dirac mass of the case before at the same prime.

The script prints each section's digest on each side, then every case that
differs and, for the first in each section, both sides' results (of an
in-process case, the first 200 characters of its bytes).  It exits 1 on any
difference or when a worker fails, 2 on a wrong argument.  There are 1178
CLI cases and 8810 in-process ones; the whole takes about 17 s on 2 vCPUs.
It imports perfbench and writes nothing there.
"""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

if __name__ != "__main__":  # a worker, which imports `mahler` from its side's src
    from mahler.heckechar import (AlgebraicValue, WeightFunction, avatar_measure_family,
                                  characters, class_group, pairing, twisted_pairing)
    from mahler.measure import Measure, cell_mass, dirac, pairing_measure, restrict_to_units
    from mahler.padic import PadicScalar
    from paper_oracles import dirac_cases, family_cases, family_outcome, partner_family

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


EXTRA_DISCS = (-1999999,)
WIDE_DISCS = (-4679, -8399)
WIDE_PAIRS = 2000
WEIGHT_FUNCTION_DISCS = (-23, -39, -47, -56, -84, -104, -263, -407)
HEAD = 200  # characters of a result printed for the first difference of a section


def discriminants(limit: int) -> list:
    return [D for D in range(-3, -limit - 1, -1) if D % 4 in (0, 1)]


def stored(value) -> bytes:
    return repr((value.d, value.m, tuple(value.terms.items()))).encode()


def rational(rng):
    return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])


def weight_functions(rng, G) -> list:
    """Weight functions of G that are not characters, one of each kind, and
    two characters."""
    d, m, h = G.order_data.d_K, G.exponent, G.h
    chars = characters(G)
    chi = chars[rng.randrange(h)]
    low = m // min(q for q in range(2, m + 1) if m % q == 0)  # a proper divisor of m
    def general(w):
        def value():
            layer = rng.choice([1, low, m])
            size = len(AlgebraicValue.root_of_unity(0, d, layer).coeffs)
            return AlgebraicValue(d, layer, [(rational(rng), rational(rng))
                                             for _ in range(rng.randint(1, size))])
        return WeightFunction(G, w, [value() for _ in range(h)])
    w = (rng.randint(1, 4), rng.randint(-4, 4))
    return [
        WeightFunction(G, (0, 0), [v.scale(rational(rng) or 2) for v in chi.values]),
        WeightFunction(G, (0, 0), [rng.randint(-3, 3)] * h),
        WeightFunction(G, (0, 0), [rational(rng) for _ in range(h)]),
        WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(rng.randrange(low), d, low)
                                   for _ in range(h)]),
        general(w), general((-w[0], -w[1])), general((0, 0)),
        WeightFunction(G, (0, 0), [AlgebraicValue.root_of_unity(e, -7 if d != -7 else -3, m)
                                   for e in range(h)]),
        WeightFunction(G, (0, 0), [PadicScalar.from_int(3, 7, 4)] + list(chi.values[1:])),
        WeightFunction(G, (0, 0), list(chi.values[:-1]) + ["x"]),
        chi, chars[-1],
    ]


def outcome(call, *args) -> bytes:
    try:
        value = call(*args)
        return repr((value.d, value.m, sorted(value.terms.items()))).encode()
    except Exception as exc:
        return repr((type(exc).__name__, str(exc))).encode()


def fields(x):
    """The prime, `finite` flag and coefficient fields of a measure, the
    fields of a PadicScalar, or the type and value of an exact x."""
    if type(x) is Measure:
        return x.prime, x.finite, [fields(a) for a in x.mahler]
    if type(x) is PadicScalar:
        return x.prime, x.valuation, x.unit, x.precision
    return type(x).__name__, x


def attempt(call, *args):
    """`fields` of call(*args), or the exception type and message."""
    try:
        return fields(call(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def family_pairing(chi0, chi, emb, order) -> list:
    """The outcomes of the `family-pairing` calls on one family."""
    try:
        family = avatar_measure_family(chi0, chi, emb, order)
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]
    p, mu = emb.prime, family[0]
    outcomes = [attempt(pairing_measure, list(zip(family, family[::-1])), r) for r in (0, 8)]
    z = mu.atoms[0][1].lift()
    for target in range(1, max((order - 1) // (p - 1) - 1, 0) + 2):
        outcomes.append(attempt(restrict_to_units, mu, target))
        outcomes += [attempt(cell_mass, mu, a % p, 1, target) for a in (z, z + 1)]
    return outcomes


def dirac_atoms(z, p, order, partners, last) -> list:
    """The outcomes of the `dirac-atoms` calls on one Dirac mass; last maps
    each prime to the Dirac mass before it."""
    try:
        mu = dirac(z, p, order)
        outcomes = [(fields(mu), [fields(x) for atom in mu.atoms for x in atom])]
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]
    for target in range(1, max((order - 1) // (p - 1) - 1, 0) + 2):
        outcomes.append(attempt(restrict_to_units, mu, target))
        outcomes += [attempt(cell_mass, mu, a % p, 1, target) for a in (z.lift(), z.lift() + 1)]
    for other in (partners[p], last.get(p)):
        if other is not None:
            outcomes += [attempt(pairing_measure, [(mu, other)], r) for r in (0, 8)]
    last[p] = mu
    return outcomes


def family_case(i, chi0, chi, emb, order) -> str:
    return (f"case {i}: D = {chi.group.discriminant}, p = {emb.prime}, "
            f"precision {emb.precision}, order {order}")


def in_process_cases():
    """(section, case, outcome bytes) for every in-process case, in order."""
    for D in discriminants(3000) + list(EXTRA_DISCS):
        chars = characters(class_group(D))
        rows = [chi.exponents and memoryview(chi.exponents).cast("H").tolist() for chi in chars]
        if any(row and row != [next(iter(v.terms)) for v in chi.values]
               for row, chi in zip(rows, chars)):
            raise SystemExit(f"D = {D}: the exponent row disagrees with the values")
        yield "character-terms", f"D = {D}", b"".join(
            repr(D).encode() + b"".join(map(stored, chi.values)) for chi in chars)
        yield "exponent-rows", f"D = {D}", b"".join(repr((D, row)).encode() for row in rows)
    rng = random.Random("pairing-digest")
    for D in discriminants(1200):
        chars = characters(class_group(D))
        yield "pairing-terms", f"D = {D}", b"".join(
            stored(pairing(a, b)) + stored(twisted_pairing(a, b, chars[rng.randrange(len(chars))]))
            for a in chars for b in chars)
    rng = random.Random("weight-function-digest")
    for D in WEIGHT_FUNCTION_DISCS:
        phis = weight_functions(rng, class_group(D))
        yield "weight-function-terms", f"D = {D}", b"".join(
            outcome(pairing, a, b) + outcome(twisted_pairing, a, b, phis[rng.randrange(len(phis))])
            for a in phis for b in phis)
    for i, case in enumerate(family_cases()):
        yield ("avatar-family", family_case(i, *case),
               repr(family_outcome(avatar_measure_family, *case)).encode())
    rng = random.Random("wide-pairing-digest")
    for D in WIDE_DISCS:
        chars = characters(class_group(D))
        for i in range(WIDE_PAIRS):
            a, b, psi = (chars[rng.randrange(len(chars))] for _ in range(3))
            yield ("wide-pairing-terms", f"D = {D}, pair {i}",
                   stored(pairing(a, b)) + stored(twisted_pairing(a, b, psi)))
    for i, case in enumerate(family_cases()):
        yield "family-pairing", family_case(i, *case), repr(family_pairing(*case)).encode()
    partners, last = {p: partner_family(p)[1] for p in (3, 5, 7)}, {}
    for i, (z, p, order) in enumerate(dirac_cases()):
        yield ("dirac-atoms", f"case {i}: z = {z}, order {order}",
               repr(dirac_atoms(z, p, order, partners, last)).encode())


def digest(x) -> str:
    return hashlib.sha256(json.dumps(x).encode()).hexdigest()


def work(src: str, workdir: str, side: str) -> None:
    """One side's worker: writes {section: [digest, [[case, outcome digest,
    result], ...]]} to side.json in workdir, which holds the CLI corpus."""
    import mahler
    import wl_cli
    if not Path(mahler.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"{side}: mahler is imported from {mahler.__file__}, not from {src}")
    results, cli = [], []
    for case_dir, argv in json.loads(Path(workdir, "cases.json").read_text(encoding="utf-8")):
        code, out, err = wl_cli.replay_call(argv, case_dir)
        result = [code, out.decode(), err.decode().split("\n", 1)[0]]
        results.append(result)
        cli.append([f"in {os.path.basename(case_dir)}: mahler {shlex.join(argv)}", digest(result),
                    f"exit {code}, stderr {result[2][:HEAD]!r}, stdout {result[1][:HEAD]!r}"])
    sections, hashes = {"cli": [digest(results), cli]}, {}
    for name, case, data in in_process_cases():
        hashes.setdefault(name, hashlib.sha256()).update(data)
        sections.setdefault(name, [None, []])[1].append(
            [case, hashlib.sha256(data).hexdigest(), data[:HEAD].decode(errors="replace")])
    for name, whole in hashes.items():
        sections[name][0] = whole.hexdigest()
    Path(workdir, side + ".json").write_text(json.dumps(sections), encoding="utf-8")


# a worker's command line: the perfbench and tests directories, which it
# imports from, then work()'s arguments
WORKER = ("import sys; sys.path[:0] = sys.argv[1:3]; import tree_diff; "
          "tree_diff.work(*sys.argv[3:])")


def main(argv) -> int:
    if len(argv) != 1 or not os.path.isfile(os.path.join(argv[0], "mahler", "__init__.py")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    srcs = {"this": str(ROOT / "src"), "other": os.path.abspath(argv[0])}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("MAHLER_PREC", None)  # as cli-cold's children run
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "cases.json").write_text(json.dumps(corpus(workdir)), encoding="utf-8")
        workers = [subprocess.Popen([sys.executable, "-c", WORKER, str(PERFBENCH),
                                     str(ROOT / "tests"), src, workdir, side],
                                    cwd=workdir, env=dict(env, PYTHONPATH=src))
                   for side, src in srcs.items()]
        if any([worker.wait() for worker in workers]):  # a list: wait for both
            print("a worker failed", file=sys.stderr)
            return 1
        sides = {side: json.loads(Path(workdir, side + ".json").read_text(encoding="utf-8"))
                 for side in srcs}
    this, other = sides.values()
    for name in this:
        for side, sections in sides.items():
            print(f"{name} {side}: {sections[name][0]} over {len(sections[name][1])} cases")
    differs = False
    for name in this:
        differing = [(a, b) for a, b in zip(this[name][1], other[name][1]) if a[1] != b[1]]
        for (case, _, _), _ in differing:
            print(f"differs, {name}: {case}")
        if differing:
            (_, _, mine), (_, _, theirs) = differing[0]
            print(f"  this: {mine}\n  other: {theirs}")
            differs = True
    return int(differs)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""cli-cold: sequential `mahler` subprocess calls, one per command line of the
README, plus one expected refusal (exit 3) and one invalid input (exit 2).

Each call starts a fresh interpreter, exactly as the installed `mahler`
console script does, so interpreter start, imports and argparse dominate.
The seed draws the small inputs, written to JSON files at set-up.  Every
output is checked by an oracle computed from those inputs; for the default
seed the stdout bytes and exit codes of one whole cycle must also match the
digest recorded in cli_digest.json.

`replay_jobs` runs the same argv list in-process through `mahler.cli.main`,
which the traced run uses to time the cli and serialize layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import harness
import oracles
from harness import Job

NAME = "cli-cold"
LAUNCH = "import sys; from mahler.cli import entrypoint; sys.exit(entrypoint())"
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digest.json")
NONZERO = [c for c in range(-9, 10) if c]
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
TRUNC_PREC = 16  # above every restriction precision an order-24 measure supports


def cycle_digest(summaries) -> str:
    """One digest over the exit codes and stdout bytes of a cycle, in order."""
    h = hashlib.sha256()
    for summary in summaries:
        if summary is None:
            return "incomplete"
        code, out = summary
        h.update(b"%d\n" % code)
        h.update(out)
    return h.hexdigest()


def recorded_digest(seed: int):
    if seed != harness.DEFAULT_SEED:
        return None
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


# -- input files ------------------------------------------------------------------


def measure_json(p: int, points, order: int, finite: bool) -> dict:
    return {"p": p, "order": order, "finite": finite,
            "mahler": [oracles.exact_str(a) for a in oracles.mahler_of_diracs(points, order)]}


def padic_json(a: int, p: int, prec: int) -> dict:
    """The integer `a` known mod p^prec, as the CLI reads a p-adic scalar."""
    if a % p ** prec == 0:
        return {"p": p, "val": "inf", "unit": "0", "prec": prec}
    v = oracles.valuation(a, p)
    return {"p": p, "val": v, "unit": str(a // p ** v % p ** (prec - v)), "prec": prec}


def points_in(rng, count: int, lo: int, hi: int) -> list:
    return [(rng.choice(NONZERO), z) for z in sorted(rng.sample(range(lo, hi), count))]


def parse(code: int, out: bytes):
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


# -- the command list -----------------------------------------------------------------


def build_commands(seed: int, workdir: str):
    """[(argv, oracle)] with oracle(code, stdout) -> error or None; writes the
    input files into `workdir`."""
    rng = random.Random(f"{NAME}:{seed}")
    files = {}
    cmds = []

    def add(argv, oracle):
        cmds.append(([str(a) for a in argv], oracle))

    # padic
    n, p = rng.randrange(1, 10 ** 6), rng.choice(SMALL_PRIMES)
    add(["padic", "factorial-valuation", "--n", n, "--p", p],
        lambda c, o, n=n, p=p: None if parse(c, o) == {"n": n, "p": p,
                                                       "value": oracles.vp_factorial(n, p)}
        else "factorial valuation wrong")

    # measures: a finite Dirac combination
    p_mu = rng.choice((3, 5, 7))
    pts = points_in(rng, 4, 0, 12)
    files["mu.json"] = measure_json(p_mu, pts, 12, True)
    r = rng.randrange(0, 11)
    add(["measure", "moments", "--file", "mu.json", "--r", r],
        lambda c, o, r=r: None if parse(c, o) == {
            "r": r, "moment": oracles.exact_str(oracles.moment_of_diracs(pts, r))}
        else "moment wrong")
    add(["measure", "restrict", "--file", "mu.json"],
        lambda c, o: None if parse(c, o) == measure_json(
            p_mu, oracles.restrict_points(pts, p_mu), 12, True) else "restriction wrong")

    # a truncated measure: Dirac masses beyond its order, its coefficients
    # known mod p^TRUNC_PREC as p-adic scalars, like an avatar family's
    p_t, order_t = rng.choice((3, 5)), 24
    pts_t = points_in(rng, 3, order_t, 3 * order_t)
    files["trunc.json"] = {"p": p_t, "order": order_t, "finite": False,
                           "mahler": [padic_json(a, p_t, TRUNC_PREC) for a in
                                      oracles.mahler_of_diracs(pts_t, order_t)]}
    best = (order_t - 1) // (p_t - 1) - 1
    prec = rng.randrange(1, best + 1)

    def check_trunc(c, o, prec=prec):
        got = parse(c, o)
        n_out = oracles.restriction_supported(order_t, p_t, prec)
        want = oracles.mahler_of_diracs(oracles.restrict_points(pts_t, p_t), n_out)
        if (got["p"], got["order"], got["finite"]) != (p_t, n_out, False):
            return "truncated restriction header wrong"
        for obj, w in zip(got["mahler"], want):
            if obj["prec"] != prec or not oracles.congruent(oracles.padic_value(obj), w, p_t, prec):
                return "truncated restriction misses the exact value at the stated precision"
        return None
    add(["measure", "restrict", "--file", "trunc.json", "--prec", prec], check_trunc)

    a = rng.choice(pts)[1] % p_mu
    add(["measure", "cell-mass", "--file", "mu.json", "--a", a, "--nu", 1],
        lambda c, o, a=a: None if parse(c, o) == {
            "a": a, "nu": 1, "mass": oracles.exact_str(oracles.cell_of_diracs(pts, a, p_mu))}
        else "cell mass wrong")

    p_s = rng.choice((3, 5, 7))
    pts_a, pts_b = points_in(rng, 2, 0, 4), points_in(rng, 2, 0, 4)
    files["a.json"] = measure_json(p_s, pts_a, 4, True)
    files["b.json"] = measure_json(p_s, pts_b, 4, True)
    finite = pts_a[-1][1] * pts_b[-1][1] <= 8
    add(["measure", "push", "--file1", "a.json", "--file2", "b.json", "--rmax", 8],
        lambda c, o: None if parse(c, o) == measure_json(
            p_s, oracles.product_points(pts_a, pts_b), 9, finite) else "pushforward wrong")

    pair_pts = [(points_in(rng, 2, 0, 4), points_in(rng, 2, 0, 4)) for _ in range(2)]
    files["pairs.json"] = {"pairs": [[measure_json(p_s, x, 4, True), measure_json(p_s, y, 4, True)]
                                     for x, y in pair_pts]}

    def check_pair(c, o):
        merged = []
        for x, y in pair_pts:
            merged += [(Fraction(w, len(pair_pts)), z) for w, z in oracles.product_points(x, y)]
        want = {"p": p_s, "order": 9, "finite": False,
                "mahler": [oracles.exact_str(v) for v in oracles.mahler_of_diracs(merged, 9)]}
        return None if parse(c, o) == want else "pairing measure wrong"
    add(["measure", "pair", "--file", "pairs.json", "--rmax", 8], check_pair)

    # q-expansions
    T = rng.randrange(40, 81)

    def check_delta(c, o):
        got = parse(c, o)
        tau = [int(x) for x in got["coeffs"]]
        if (got["k"], got["N"], got["eps"], len(tau)) != (12, 1, ["1"], T + 1):
            return "Delta header wrong"
        return oracles.delta_errors(tau, [(m, n) for m in range(2, 9) for n in range(2, 9)])
    add(["modform", "delta", "--trunc", T], check_delta)

    k, T_e = rng.choice((4, 6, 8, 10, 12)), rng.randrange(20, 61)

    def check_eis(c, o):
        got = parse(c, o)
        sig = oracles.sigma_table(k - 1, T_e)
        factor = Fraction(-2 * k) / oracles.bernoulli(k)
        want = [Fraction(1)] + [factor * sig[n] for n in range(1, T_e + 1)]
        return None if [Fraction(x) for x in got["coeffs"]] == want and got["k"] == k \
            else "Eisenstein series wrong"
    add(["modform", "eisenstein", "--k", k, "--trunc", T_e], check_eis)

    coeffs = [rng.randrange(-10 ** 4, 10 ** 4) for _ in range(61)]
    files["f.json"] = {"k": 12, "N": 1, "eps": ["1"], "coeffs": [str(x) for x in coeffs]}

    def qexp_oracle(want, what):
        def check(c, o):
            got = parse(c, o)
            ok = (got["k"], got["N"], got["eps"]) == (12, 1, ["1"]) and \
                [Fraction(x) for x in got["coeffs"]] == want
            return None if ok else f"{what} wrong"
        return check
    p_d = rng.choice(SMALL_PRIMES)
    add(["modform", "deplete", "--file", "f.json", "--p", p_d],
        qexp_oracle([0 if n % p_d == 0 else x for n, x in enumerate(coeffs)], "depletion"))
    p_h = rng.choice((2, 3, 5, 7))
    add(["modform", "hecke", "--file", "f.json", "--p", p_h],
        qexp_oracle(oracles.hecke_coeffs(coeffs, p_h, 12), "T_p"))
    r_t = rng.randrange(1, 4)
    add(["modform", "theta", "--file", "f.json", "--r", r_t],
        qexp_oracle([x * n ** r_t for n, x in enumerate(coeffs)], "theta"))

    a_p, kappa, p_e = rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 7), rng.choice(SMALL_PRIMES)
    want_e = 1 - Fraction(a_p, p_e ** (2 * kappa)) + Fraction(1, p_e ** (2 * kappa + 1))
    add(["modform", "euler-factor", "--a-p", a_p, "--kappa", kappa, "--p", p_e],
        lambda c, o: None if parse(c, o) == {"euler_factor": oracles.exact_str(want_e)}
        else "Euler factor wrong")

    cells = {(n, j): rng.randrange(-20, 21) for n in range(21) for j in range(2)}
    cells = {key: v for key, v in cells.items() if v}
    files["nh.json"] = {"k": 12, "trunc": 20,
                        "cells": [[n, j, str(v)] for (n, j), v in sorted(cells.items())]}
    r_m = rng.randrange(1, 4)
    want_m = oracles.maass_cells(cells, 12, r_m)
    add(["modform", "maass", "--file", "nh.json", "--r", r_m],
        lambda c, o: None if parse(c, o) == {
            "k": 12 + 2 * r_m, "trunc": 20,
            "cells": [[n, j, str(v)] for (n, j), v in sorted(want_m.items())]}
        else "Maass raising wrong")

    # class groups, characters, avatars
    discs = [D for D in range(-3, -201, -1) if D % 4 in (0, 1)]
    D = rng.choice(discs)

    def check_cg(c, o):
        got = parse(c, o)
        forms = oracles.reduced_forms(D)
        h = len(forms)
        b0 = D % 2
        principal = forms.index((1, b0, (b0 - D) // 4))
        if (got["D"], got["h"], got["forms"], got["identity"]) != \
                (D, h, [list(f) for f in forms], principal):
            return "class group wrong"
        if got["table"][principal] != list(range(h)) or \
                any(sorted(row) != list(range(h)) for row in got["table"]):
            return "composition table is not a group table"
        return None
    add(["class-group", "--disc", D], check_cg)

    D_p = rng.choice([D for D in discs if len(oracles.reduced_forms(D)) > 1])
    h_p = len(oracles.reduced_forms(D_p))
    i, j = rng.randrange(h_p), rng.randrange(h_p)

    def check_pairing(c, o):
        got = parse(c, o)["pairing"]
        values = [[Fraction(a), Fraction(b)] for a, b in got["coeffs"]]
        rational = all(v == [0, 0] for v in values[1:]) and values[0][1] == 0
        return None if rational and values[0][0] in (0, 1) else "pairing is not 0 or 1"
    add(["hecke", "pair", "--disc", D_p, "--chi", i, "--psi", j], check_pairing)

    prime_h = [D for D in discs if oracles.is_prime(len(oracles.reduced_forms(D)))]
    D_a = rng.choice(prime_h)
    h_a = len(oracles.reduced_forms(D_a))
    P = next(q for q in range(3, 10 ** 4)
             if oracles.is_prime(q) and (q - 1) % h_a == 0 and D_a % q)
    M = rng.randrange(3, 9)

    def check_avatar(c, o):
        got = parse(c, o)
        q = P ** M
        rows = []
        for key in sorted(got["avatars"], key=int):
            row = []
            for obj in got["avatars"][key]:
                if (obj["p"], obj["val"], obj["prec"]) != (P, 0, M):
                    return "avatar value is not a unit mod p^prec"
                row.append(int(obj["unit"]))
            rows.append(row)
        if len(rows) != h_a or any(len(row) != h_a or any(pow(v, h_a, q) != 1 for v in row)
                                   for row in rows):
            return "avatars are not h-th roots of unity"
        if sum(all(v == 1 for v in row) for row in rows) != 1:
            return "no unique trivial avatar"
        for x in rows:
            sums = sorted(sum(u * v for u, v in zip(x, y)) % q for y in rows)
            if sums != [0] * (h_a - 1) + [h_a]:
                return "avatar orthogonality fails"
        return None
    add(["hecke", "avatar", "--disc", D_a, "--p", P, "--prec", M], check_avatar)

    # archimedean
    kappa_a, r_a = rng.randrange(1, 4), rng.randrange(0, 3)
    l_a, s_a = rng.randrange(0, r_a + 1), rng.choice((0.5, 1.0, 1.5))
    # the quadrature sizes of the README line: the seed varies the integrand,
    # not the work, as in every other call
    nodes_a, nodes_t = 64, 256

    def check_arch(c, o):
        return arch_errors(parse(c, o), kappa_a, r_a, l_a, s_a, tol=1e-6)
    add(["arch", "local-factor", "--kappa", kappa_a, "--r", r_a, "--l", l_a, "--s", s_a,
         "--nodes-a", nodes_a, "--nodes-theta", nodes_t], check_arch)

    r_i = rng.randrange(0, 31)
    coeff = Fraction(2 ** r_i * math.factorial(r_i), 4 ** r_i)
    value = str(coeff) if r_i == 0 else f"{coeff}*pi^{-r_i}"
    add(["arch", "identity", "--r", r_i],
        lambda c, o: None if parse(c, o) == {"r": r_i, "holds": True, "value": value}
        else "diagonal identity wrong")

    # quaternions
    def rational():
        return Fraction(rng.choice([v for v in range(-60, 61) if v]), rng.randrange(1, 12))
    qa, qb = rational(), rational()
    places = sorted(set(oracles.prime_factors(qa.numerator * qa.denominator
                                              * qb.numerator * qb.denominator)) | {2})
    place = rng.choice(places + ["inf"])
    add(["quat", "hilbert", f"--a={qa}", f"--b={qb}", "--place", place],
        lambda c, o: None if parse(c, o) == {
            "a": str(qa), "b": str(qb), "place": str(place),
            "symbol": oracles.hilbert(qa, qb, place)} else "Hilbert symbol wrong")

    ra, rb = rational(), rational()
    finite_r, infinite_r = oracles.ramified_places(ra, rb)
    add(["quat", "ramified", f"--a={ra}", f"--b={rb}"],
        lambda c, o: None if parse(c, o) == {
            "a": str(ra), "b": str(rb), "finite_places": finite_r, "infinite": infinite_r,
            "discriminant": math.prod(finite_r)} else "ramified set wrong")

    delta = rng.choice((6, 10, 14, 15, 21, 22, 26, 33, 34, 35))
    p_q = rng.choice([q for q in range(3, 60) if oracles.is_prime(q) and (2 * delta) % q])
    found = oracles.hashimoto(delta, p_q, 1000)

    def check_hashimoto(c, o):
        if found is None:
            return None if c == 4 and o == b"" else "expected search bound exhaustion"
        return None if parse(c, o) == {"q": found[0], "b": found[1]} else "Hashimoto search wrong"
    add(["quat", "hashimoto", "--delta", delta, "--p", p_q, "--bound", 1000], check_hashimoto)

    while True:
        ma, mb, mc = rng.randrange(-5, 6), rng.choice(NONZERO), rng.choice(NONZERO)
        if ma * ma + mb * mc < 0:
            break
    level = rng.choice((1, 2, 3))
    text = f"{ma},{mb};{mc},{-ma}"
    add(["quat", "conductor", f"--matrix={text}", "--level", level],
        lambda c, o: None if parse(c, o) == {
            "matrix": text, "level": level, "d": str(ma * ma + mb * mc),
            "conductor": oracles.conductor(((ma, mb), (mc, -ma)), level)}
        else "conductor wrong")

    # one refusal and one invalid input
    add(["measure", "restrict", "--file", "trunc.json", "--prec", best + rng.randrange(1, 4)],
        lambda c, o: None if (c, o) == (3, b"") else "expected a precision refusal (exit 3)")
    bad = rng.randrange(1, 1000)
    add(["class-group", "--disc", bad],
        lambda c, o: None if (c, o) == (2, b"") else "expected invalid input (exit 2)")

    os.makedirs(workdir, exist_ok=True)
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return cmds


def arch_errors(got: dict, kappa: int, r: int, l: int, s: float, tol: float):
    """A local-factor report passes only with a finite rel_error within tol
    and the Gamma closed form of the README."""
    rel = float(got["rel_error"])
    if not math.isfinite(rel) or rel > tol:
        return f"rel_error {got['rel_error']} is not finite and within {tol}"
    want = oracles.local_factor(kappa, r, s) if l == r else 0.0
    re, im = float(got["closed_form"]["re"]), float(got["closed_form"]["im"])
    if abs(re - want) > 1e-12 * abs(want) or im != 0.0:
        return "closed form wrong"
    return None


# -- the workload -------------------------------------------------------------------


class Workload:
    name = NAME
    cycle_seconds = 18.0  # one cycle (25 calls of about 0.72 s), reference machine

    def __init__(self, seed: int, workdir: str, src: str, guard: bool = True):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.env.pop("MAHLER_PREC", None)
        self.commands = build_commands(seed, workdir)
        expected = recorded_digest(seed) if guard else None
        self.cycle_check = None if expected is None else \
            (lambda summaries: None if cycle_digest(summaries) == expected
             else "stdout bytes or exit codes differ from the recorded cli-cold digest")
        self.child_peak_kb = 0
        self.jobs = [make_job(argv, oracle, self._spawn) for argv, oracle in self.commands]
        self._spawn(self.commands[0][0])  # warm-up: page cache and .pyc files
        self.child_peak_kb = 0

    def peak_rss_mb(self) -> float:
        """The largest mahler child so far (ru_maxrss is in KiB on Linux)."""
        return self.child_peak_kb / 1024.0

    def _spawn(self, argv):
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH] + argv, cwd=self.workdir,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        with proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def replay_jobs(self):
        """The same calls made in-process through mahler.cli.main."""
        return replay_jobs(self.commands, self.workdir)


def make_job(argv, oracle, runner) -> Job:
    return Job(" ".join(argv)[:72], lambda: runner(argv),
               lambda r: (r[0], r[1]), lambda s: oracle(*s))


def replay_call(argv, workdir: str):
    """(exit code, stdout, stderr) of mahler.cli.main(argv) run in `workdir`."""
    from mahler import cli
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue().encode(), err.getvalue().encode()


def replay_jobs(commands, workdir: str):
    return [make_job(argv, oracle, lambda a: replay_call(a, workdir))
            for argv, oracle in commands]

"""avatar-pipeline: one in-process job per discriminant, from the class
group to truncated p-adic measures.

Each job runs class_group -> characters -> all-pairs pairing and
twisted_pairing -> admissible_embedding -> padic_avatar ->
avatar_measure_family -> pairing_measure, then restrict_to_units and
cell_mass at seeded precision targets on the truncated PadicScalar measures.
Some targets lie above the README tail bounds, so those calls must refuse.

The discriminants are every D with |D| <= 200 plus one seeded discriminant
from each band of LARGE_BANDS (large class number h and large phi of the
group exponent).  The cost of `characters` and the pairings follows the
cyclotomic degree phi(exponent), not h, so the bands are fixed and only the
member is seeded; that keeps the work per cycle the same for every seed.

Oracles: h against the benchmark's own count of reduced forms; character
orthogonality (each pairing is exactly 0 or 1, with exactly one 1 per row,
the partner map an involution and the trivial character self-paired; each
row of twisted pairings holds exactly one 1); avatars are h-th roots of
unity mod p^M whose sums over the classes reproduce orthogonality; and the
measures are Dirac combinations at avatar values, whose Mahler
coefficients, restrictions (they live on the units) and cell masses the
benchmark computes from those values.
"""

from __future__ import annotations

import math
import random

import harness
import oracles
from harness import Job

NAME = "avatar-pipeline"
SMALL_LIMIT = 200
# (h, phi(exponent)) bands -> discriminants with 200 < |D| <= 1200 in them
LARGE_BANDS = (
    (-263, -607, -631, -727),   # h = 13, exponent 13, phi = 12
    (-215, -287, -391, -404),   # h = 14, phi = 6
    (-407, -471, -559, -584),   # h = 16, phi = 8
)
FAMILY_ORDERS = (16, 32, 48)
PAIRING_RMAX = 8  # below every family order: moments r <= 8 must exist

TINY = {"limit": 24, "bands": (), "orders": (10, 12)}
FULL = {"limit": SMALL_LIMIT, "bands": LARGE_BANDS, "orders": FAMILY_ORDERS}


def balanced(rng, values, n: int) -> list:
    """n items cycling through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def discriminants(limit: int) -> list:
    return [D for D in range(-3, -limit - 1, -1) if D % 4 in (0, 1)]


def lift(x):
    """(integer representative, precision) of a PadicScalar with v >= 0."""
    return int(x.lift()), x.precision


class Workload:
    name = NAME
    cycle_seconds = 15.5  # one cycle (103 jobs) on the reference machine

    def __init__(self, seed: int, tiny: bool = False):
        from mahler import errors, heckechar, measure  # set-up includes the import
        self.hc, self.m, self.refusal = heckechar, measure, errors.PrecisionExhausted
        size = TINY if tiny else FULL
        rng = random.Random(f"{NAME}:{seed}")
        discs = discriminants(size["limit"])
        orders = [size["orders"][i % len(size["orders"])] for i in range(len(discs))]
        discs += [rng.choice(band) for band in size["bands"]]
        orders += [size["orders"][-1]] * len(size["bands"])
        n = len(discs)
        # every seed gets the same mix of levels, cells and targets
        params = zip(balanced(rng, (1, 2), n), balanced(rng, (False, True), n),
                     *[balanced(rng, (-1, 0, 1, 2), n) for _ in range(3)])
        jobs = [self._job(rng, D, K, nu, off_cell, shifts)
                for D, K, (nu, off_cell, *shifts) in zip(discs, orders, params)]
        self.jobs = harness.interleave([jobs[:n - len(size["bands"])],
                                        jobs[n - len(size["bands"]):]])

    peak_rss_mb = staticmethod(harness.self_peak_rss_mb)

    def _job(self, rng, D: int, K: int, nu: int, off_cell: bool, shifts) -> Job:
        hc, m, refusal = self.hc, self.m, self.refusal
        extra = rng.randrange(2, 6)
        # seeded picks; reduced mod h once h is known
        picks = [rng.randrange(1 << 30) for _ in range(5)]

        def attempt(fn, *args):
            try:
                return fn(*args)
            except refusal:
                return None

        def run():
            G = hc.class_group(D)
            chars = hc.characters(G)
            h = G.h
            table = [[hc.pairing(a, b) for b in chars] for a in chars]
            psi_t = chars[picks[0] % h]
            twisted = [[hc.twisted_pairing(a, b, psi_t) for b in chars] for a in chars]
            p = hc.smallest_admissible_prime(G)
            M = oracles.vp_factorial(K - 1, p) + extra
            emb = hc.admissible_embedding(G, p, M)
            avatars = [hc.padic_avatar(c, emb) for c in chars]
            chi0, chi, psi = (chars[i % h] for i in picks[1:4])
            fam1 = hc.avatar_measure_family(chi0, chi, emb, K)
            fam2 = hc.avatar_measure_family(chi0.inverse(), psi, emb, K)
            paired = m.pairing_measure(list(zip(fam1, fam2)), PAIRING_RMAX)
            s0 = picks[4] % h
            targets = precision_targets(K, p, nu, shifts)
            mu0 = fam1[s0]
            a = (int(avatars[picks[2] % h][s0].lift()) + off_cell) % p ** nu
            return {
                "h": h, "forms": list(G.forms), "p": p, "M": M, "K": K,
                "table": table, "twisted": twisted,
                "avatars": avatars, "fam1": fam1, "paired": paired,
                "ids": [i % h for i in picks[1:4]], "s0": s0, "a": a,
                "targets": targets,
                "restricted": attempt(m.restrict_to_units, mu0, targets[0]),
                "cell": attempt(m.cell_mass, mu0, a, nu, targets[1]),
                "paired_restricted": attempt(m.restrict_to_units, paired, targets[2]),
            }

        def summarize(r):
            def rational(v):
                return v.as_rational()

            def meas(mu):
                return None if mu is None else tuple(lift(x) for x in mu.mahler)

            return (r["h"], tuple(r["forms"]), r["p"], r["M"], r["K"],
                    tuple(tuple(rational(v) for v in row) for row in r["table"]),
                    tuple(tuple(rational(v) for v in row) for row in r["twisted"]),
                    tuple(tuple(lift(x) for x in row) for row in r["avatars"]),
                    tuple(meas(mu) for mu in r["fam1"]), meas(r["paired"]),
                    tuple(r["ids"]), r["s0"], r["a"], tuple(r["targets"]),
                    meas(r["restricted"]),
                    None if r["cell"] is None else lift(r["cell"]),
                    meas(r["paired_restricted"]))

        def check(s):
            (h, forms, p, M, K_, table, twisted, avatars, fam1, paired, ids, s0,
             a, targets, restricted, cell, paired_restricted) = s
            own = oracles.reduced_forms(D)
            if h != len(own) or list(forms) != own:
                return f"class group of {D}: h = {h}, own count {len(own)}"
            partner = orthogonality(table, h)
            if isinstance(partner, str):
                return partner
            for row in twisted:
                if sorted(row) != [0] * (h - 1) + [1]:
                    return "a row of twisted pairings is not one 1 and zeros"
            if not oracles.is_prime(p) or p == 2 or h % p == 0 or D % p == 0:
                return f"{p} is not an admissible prime"
            error = avatar_errors(avatars, partner, h, p, M)
            if error:
                return error
            chi0, chi, psi = ids
            q = p ** M
            zs = [avatars[chi][s][0] for s in range(h)]
            ws = [avatars[chi0][s][0] for s in range(h)]
            for s in range(h):
                want = [ws[s] * math.comb(zs[s], n) for n in range(K_)]
                if not padic_match(fam1[s], want, p, M):
                    return f"avatar family measure at class {s} wrong"
            betas = [zs[s] * avatars[psi][s][0] % q for s in range(h)]
            inv_h = pow(h, -1, q)
            want_paired = [inv_h * sum(math.comb(b, n) for b in betas)
                           for n in range(PAIRING_RMAX + 1)]
            if not padic_match(paired, want_paired, p, M):
                return "pairing measure wrong"
            prec_r, prec_c, prec_p = targets
            n_out = oracles.restriction_supported(K_, p, prec_r)
            if (restricted is None) != (n_out < 1):
                return f"restriction refusal wrong at K={K_} p={p} prec={prec_r}"
            if restricted is not None:
                # the family measure lives on the units: restriction is the identity
                if len(restricted) != n_out or not padic_match(
                        restricted, [ws[s0] * math.comb(zs[s0], n) for n in range(n_out)],
                        p, M):
                    return "restriction of a unit-supported measure changed it"
            refuse_cell = prec_c > oracles.cell_tail_bound(K_, nu, p)
            if (cell is None) != refuse_cell:
                return f"cell-mass refusal wrong at K={K_} p={p} nu={nu} prec={prec_c}"
            if cell is not None:
                want = ws[s0] if zs[s0] % p ** nu == a else 0
                if not padic_match([cell], [want], p, M):
                    return "cell mass wrong"
            n_out = oracles.restriction_supported(PAIRING_RMAX + 1, p, prec_p)
            if (paired_restricted is None) != (n_out < 1):
                return "pairing-measure restriction refusal wrong"
            if paired_restricted is not None:
                if len(paired_restricted) != n_out or not padic_match(
                        paired_restricted, want_paired[:n_out], p, M):
                    return "restriction of the pairing measure changed it"
            return None

        return Job(f"D={D} K={K}", run, summarize, check)


def precision_targets(K: int, p: int, nu: int, shifts) -> list:
    """Targets around the README tail bounds: the best restriction precision
    of an order-K measure, the level-nu cell-mass bound, and the best
    restriction precision of the pairing measure, each moved by a seeded
    shift; a target above its bound must be refused."""
    best_r = (K - 1) // (p - 1) - 1
    best_c = oracles.cell_tail_bound(K, nu, p)
    best_p = PAIRING_RMAX // (p - 1) - 1
    return [max(1, best + shift) for best, shift in zip((best_r, best_c, best_p), shifts)]


def orthogonality(table, h: int):
    """The partner list (index of each character's inverse) if the pairing
    table is that of the h characters of a group of order h; else an error."""
    partner = []
    for i, row in enumerate(table):
        if any(v not in (0, 1) for v in row) or sum(row) != 1:
            return f"row {i} of pairings is not one 1 and zeros"
        partner.append(row.index(1))
    if any(partner[partner[i]] != i for i in range(h)):
        return "the pairing partner map is not an involution"
    return partner


def avatar_errors(avatars, partner, h: int, p: int, M: int):
    q = p ** M
    trivial = [i for i, row in enumerate(avatars) if all(v == 1 for v, _ in row)]
    if len(trivial) != 1 or partner[trivial[0]] != trivial[0]:
        return "no unique, self-paired trivial avatar"
    for row in avatars:
        for v, prec in row:
            if prec != M or v % p == 0 or pow(v, h, q) != 1:
                return "an avatar value is not an h-th root of unity mod p^M"
    for i in range(h):
        for j in range(h):
            total = sum(avatars[i][s][0] * avatars[j][s][0] for s in range(h)) % q
            if total != (h % q if partner[i] == j else 0):
                return f"avatar sums of characters {i}, {j} break orthogonality"
    return None


def padic_match(got, want, p: int, cap: int) -> bool:
    """Each (value, precision) in `got` agrees with the integer in `want`
    modulo p^e, e = min(stated precision, cap - v_p(n!)): an avatar is known
    mod p^cap, and C(z, n) of such a z only mod p^(cap - v_p(n!))."""
    if len(got) != len(want):
        return False
    for n, ((value, prec), w) in enumerate(zip(got, want)):
        e = min(prec, cap - oracles.vp_factorial(n, p))
        if e > 0 and (value - w) % p ** e:
            return False
    return True
